"""Micro-batching queue: coalesce compatible requests before solving.

Requests that share a compatibility key — same tenant, workload,
session configuration and allocator — are answered most cheaply as
*one* grid chunk: the workbench profiles once and the capacity axis
solves in ascending order, each step through the shared ``result``
artifacts.  The :class:`MicroBatcher` therefore
holds each incoming request briefly (bounded by ``max_delay_s``) in a
per-key group, flushing every pending group as one batch when any
group reaches ``max_batch`` requests or the oldest enqueued request
hits the deadline.

Batching metrics (on the registry the batcher is built with):
``serve.batch.flushes``, ``serve.batch.size`` (histogram of group
sizes), ``serve.batch.coalesced`` (requests that joined an existing
group instead of opening one).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable

from repro.obs.metrics import MetricsRegistry

#: Default flush threshold: a group this large flushes immediately.
DEFAULT_MAX_BATCH = 8

#: Default flush deadline in seconds: no request waits longer than
#: this for companions to coalesce with.
DEFAULT_MAX_DELAY_S = 0.02

#: One pending batch: ``(key, [request, ...])``.
Group = tuple[Hashable, list[Any]]


class MicroBatcher:
    """Group compatible requests and execute them in shared batches.

    Args:
        execute: async callable receiving the drained groups (a list
            of ``(key, requests)`` pairs) and returning one result
            list per group, aligned request-for-request.  Called from
            the event loop; long work belongs in an executor inside
            *execute*.
        max_batch: flush as soon as any single group holds this many
            requests.
        max_delay_s: flush at latest this long after the first
            request of the current batching window arrived.
        registry: metrics registry receiving the batching counters
            (``None`` disables them).
    """

    def __init__(
        self,
        execute: Callable[[list[Group]], Awaitable[list[list[Any]]]],
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._execute = execute
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self._registry = registry
        self._pending: dict[Hashable, list[tuple[Any,
                                                 asyncio.Future]]] = {}
        self._deadline: asyncio.TimerHandle | None = None

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(amount)

    async def submit(self, key: Hashable, request: Any) -> Any:
        """Enqueue *request* under *key*; await its individual result.

        The returned awaitable resolves with this request's entry of
        the batch result (or raises whatever the batch execution
        raised).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        group = self._pending.setdefault(key, [])
        if group:
            self._count("serve.batch.coalesced")
        group.append((request, future))
        if len(group) >= self.max_batch:
            self._flush_now()
        elif self._deadline is None:
            self._deadline = loop.call_later(self.max_delay_s,
                                             self._flush_now)
        return await future

    def _flush_now(self) -> None:
        """Drain every pending group into one batch execution task."""
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        if not self._pending:
            return
        drained = self._pending
        self._pending = {}
        self._count("serve.batch.flushes")
        for group in drained.values():
            if self._registry is not None:
                self._registry.histogram("serve.batch.size").observe(
                    len(group))
        asyncio.get_running_loop().create_task(self._run(drained))

    async def flush(self) -> None:
        """Flush pending groups immediately (shutdown / tests)."""
        self._flush_now()

    async def _run(
        self,
        drained: dict[Hashable, list[tuple[Any, asyncio.Future]]],
    ) -> None:
        """Execute one drained batch and distribute the results."""
        groups: list[Group] = [
            (key, [request for request, _ in entries])
            for key, entries in drained.items()
        ]
        try:
            per_group = await self._execute(groups)
        except Exception as error:  # fan the failure out per request
            for entries in drained.values():
                for _, future in entries:
                    if not future.done():
                        future.set_exception(error)
            return
        for (_, entries), results in zip(drained.items(), per_group):
            for (_, future), result in zip(entries, results):
                if not future.done():
                    future.set_result(result)
