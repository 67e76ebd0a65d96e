"""Micro-batching queue: coalesce compatible requests before solving.

Requests that share a compatibility key — same tenant, workload,
session configuration and allocator — are answered most cheaply as
*one* grid chunk: the workbench profiles once and the capacity axis
solves in ascending order, each step through the shared ``result``
artifacts.  The :class:`MicroBatcher` batches only what is already
queued and never waits for more: an idle batcher flushes at the end
of the current event-loop iteration (so one ``asyncio.gather`` still
shares a batch), and requests arriving while a batch runs flush
together when it completes.  Batches run one at a time, and the
admission controller's ``max_inflight`` bounds the queue.

Batching metrics (on the registry the batcher is built with):
``serve.batch.flushes``, ``serve.batch.size`` (histogram of group
sizes), ``serve.batch.coalesced`` (requests that joined an existing
group instead of opening one).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable

from repro.obs.metrics import MetricsRegistry

#: One pending batch: ``(key, [request, ...])``.
Group = tuple[Hashable, list[Any]]


class MicroBatcher:
    """Group compatible requests and execute them in shared batches.

    Args:
        execute: async callable receiving the drained groups (a list
            of ``(key, requests)`` pairs) and returning one result
            list per group, aligned request-for-request.  Called from
            the event loop, at most one batch at a time; long work
            belongs in an executor inside *execute*.
        registry: metrics registry receiving the batching counters
            (``None`` disables them).
    """

    def __init__(
        self,
        execute: Callable[[list[Group]], Awaitable[list[list[Any]]]],
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._execute = execute
        self._registry = registry
        self._pending: dict[Hashable, list[tuple[Any,
                                                 asyncio.Future]]] = {}
        self._busy = False  # a flush is scheduled or a batch is running

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
        if not self._busy:
            self._busy = True
            loop.call_soon(self._flush)
        return await future

    def _flush(self) -> None:
        """Drain every pending group into one batch execution task."""
        if not self._pending:
            self._busy = False
            return
        drained, self._pending = self._pending, {}
        self._count("serve.batch.flushes")
        if self._registry is not None:
            for group in drained.values():
                self._registry.histogram("serve.batch.size").observe(
                    len(group))
        asyncio.get_running_loop().create_task(self._run(drained))

    async def _run(
        self,
        drained: dict[Hashable, list[tuple[Any, asyncio.Future]]],
    ) -> None:
        """Execute one drained batch, then flush what queued meanwhile."""
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
        else:
            for entries, results in zip(drained.values(), per_group):
                for (_, future), result in zip(entries, results):
                    if not future.done():
                        future.set_result(result)
        self._flush()
