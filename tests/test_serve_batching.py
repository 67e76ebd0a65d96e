"""Unit tests of the micro-batcher's flush rule.

The batcher batches only what is already queued: an idle batcher
flushes at the end of the current event-loop iteration, and requests
that arrive while a batch runs flush together when it completes.  A
fake ``execute`` gated on an :class:`asyncio.Event` stands in for the
service executor.
"""

from __future__ import annotations

import asyncio

from repro.obs.metrics import MetricsRegistry
from repro.serve.batching import MicroBatcher


class _GatedExecute:
    """A fake batch executor that records calls and waits on a gate."""

    def __init__(self) -> None:
        self.calls: list[dict] = []
        self.gate = asyncio.Event()

    async def __call__(self, groups):
        self.calls.append({key: list(members) for key, members in groups})
        await self.gate.wait()
        return [[f"done:{member}" for member in members]
                for _, members in groups]


async def _turns(predicate, limit: int = 5) -> bool:
    """Yield to the loop up to *limit* times until *predicate* holds."""
    for _ in range(limit):
        if predicate():
            return True
        await asyncio.sleep(0)
    return predicate()


def _no_timers(monkeypatch) -> None:
    """Make arming any event-loop timer fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the batcher must not arm a timer")

    monkeypatch.setattr(asyncio.events, "TimerHandle", refuse)


class TestFlushRule:
    def test_lone_submit_reaches_execute_without_a_timer(
            self, monkeypatch):
        _no_timers(monkeypatch)

        async def scenario():
            execute = _GatedExecute()
            batcher = MicroBatcher(execute)
            pending = asyncio.ensure_future(batcher.submit("k", "A"))
            assert await _turns(lambda: execute.calls)
            assert execute.calls == [{"k": ["A"]}]
            execute.gate.set()
            return await pending

        assert asyncio.run(scenario()) == "done:A"

    def test_requests_queued_behind_a_running_batch_flush_together(
            self, monkeypatch):
        _no_timers(monkeypatch)
        registry = MetricsRegistry()

        async def scenario():
            execute = _GatedExecute()
            batcher = MicroBatcher(execute, registry=registry)
            first = asyncio.ensure_future(batcher.submit("k", "A"))
            assert await _turns(lambda: execute.calls)
            queued = [
                asyncio.ensure_future(batcher.submit(key, request))
                for key, request in (("k", "B"), ("k", "C"),
                                     ("k2", "D"))
            ]
            # A's batch is still blocked: nothing else may flush.
            await _turns(lambda: len(execute.calls) > 1)
            assert len(execute.calls) == 1
            execute.gate.set()
            results = await asyncio.gather(first, *queued)
            return execute.calls, results

        calls, results = asyncio.run(scenario())
        assert calls == [{"k": ["A"]}, {"k": ["B", "C"], "k2": ["D"]}]
        assert results == ["done:A", "done:B", "done:C", "done:D"]
        assert registry.value("serve.batch.flushes") == 2
        assert registry.value("serve.batch.coalesced") == 1

    def test_execute_failure_reaches_every_member_and_frees_the_batcher(
            self):
        async def failing(groups):
            raise RuntimeError("solver down")

        async def scenario():
            batcher = MicroBatcher(failing)
            outcomes = await asyncio.gather(
                batcher.submit("k", "A"), batcher.submit("k2", "B"),
                return_exceptions=True)
            # A failed batch must not leave the batcher stuck busy.
            later = asyncio.wait_for(batcher.submit("k", "C"), 5.0)
            outcomes += await asyncio.gather(later,
                                             return_exceptions=True)
            return outcomes

        outcomes = asyncio.run(scenario())
        assert [str(error) for error in outcomes] == ["solver down"] * 3
