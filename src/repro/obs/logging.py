"""Structured JSON logging with a per-run correlation id.

Long sweeps are opaque without a durable, greppable record of what the
engine did and when.  This module provides exactly that, in the same
zero-overhead-when-disabled style as tracing and metrics:

* :func:`new_run_id` mints a short random hex id for a run;
* :class:`RunLog` appends one JSON object per line to a log file, each
  line carrying the ``run_id``, a monotonic-ish wall timestamp, the
  emitting ``source`` (``"main"`` or ``"worker-<pid>"``) and free-form
  event fields;
* the module-level :func:`log_event` helper writes to the *active*
  log installed via :func:`set_run_log` and costs one global read and
  one comparison when none is installed.

Worker processes do not inherit the parent's open file object.
Instead the parent forwards :func:`active_log_spec` — a plain
``(path, run_id)`` tuple — through the pool initializer, and workers
reopen the same file in append mode via :func:`install_from_spec`.
Lines are short (well under the POSIX ``PIPE_BUF`` atomicity bound),
so concurrent appends from several processes interleave whole lines,
never partial ones.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Any

__all__ = [
    "RunLog",
    "new_run_id",
    "set_run_log",
    "active_run_log",
    "active_run_id",
    "active_log_spec",
    "install_from_spec",
    "log_event",
]


def new_run_id() -> str:
    """A fresh 12-hex-digit run correlation id."""
    return uuid.uuid4().hex[:12]


class RunLog:
    """Append-only JSONL event log for one run.

    Every line is a self-contained JSON object::

        {"ts": 1722945600.123, "run_id": "3f2a...", "source": "main",
         "event": "stage.start", "stage": "graph"}

    The file is opened lazily on the first event and flushed after
    every line so an external ``tail -f`` sees events as they happen.
    """

    def __init__(self, path: str, run_id: str | None = None,
                 source: str = "main") -> None:
        self.path = str(path)
        self.run_id = run_id or new_run_id()
        self.source = source
        self._lock = threading.Lock()
        self._handle: Any = None

    def event(self, event: str, **fields: Any) -> None:
        """Append one structured *event* line with extra *fields*."""
        record: dict[str, Any] = {
            "ts": round(time.time(), 6),
            "run_id": self.run_id,
            "source": self.source,
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=False) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# -- process-wide active log ---------------------------------------------------

_ACTIVE: RunLog | None = None


def set_run_log(log: RunLog | None) -> RunLog | None:
    """Install (or, with ``None``, remove) the active run log.

    Returns the previously active log so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = log
    return previous


def active_run_log() -> RunLog | None:
    """The active run log, or ``None`` when logging is disabled."""
    return _ACTIVE


def active_run_id() -> str | None:
    """The active log's run id, or ``None`` when logging is disabled."""
    log = _ACTIVE
    return log.run_id if log is not None else None


def active_log_spec() -> tuple[str, str] | None:
    """``(path, run_id)`` of the active log, for worker forwarding."""
    log = _ACTIVE
    if log is None:
        return None
    return (log.path, log.run_id)


def install_from_spec(spec: tuple[str, str] | None) -> None:
    """Install a worker-side :class:`RunLog` from a forwarded spec.

    Called from pool initializers: reopens the parent's log file in
    append mode with the same ``run_id`` and a ``worker-<pid>``
    source tag.  ``None`` (logging disabled in the parent) is a no-op.
    """
    if spec is None:
        return
    path, run_id = spec
    set_run_log(RunLog(path, run_id=run_id, source=f"worker-{os.getpid()}"))


def log_event(event: str, **fields: Any) -> None:
    """Emit *event* on the active run log (no-op when none installed)."""
    log = _ACTIVE
    if log is not None:
        log.event(event, **fields)
