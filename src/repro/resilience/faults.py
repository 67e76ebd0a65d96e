"""Deterministic, seedable fault injection at named sites.

Production-scale sweeps meet partial failure constantly — corrupted
cache artifacts, crashed workers, pathological solver instances.  This
module lets tests and the ``repro chaos`` gate *manufacture* those
failures deterministically: a :class:`FaultPlan` holds rules that fire
at named injection sites compiled into the hot paths
(:data:`SITES`), and the self-healing machinery in
:mod:`repro.resilience.healing` plus the degradation ladders must then
recover to bit-identical results.

The framework follows the observability layer's
zero-overhead-when-disabled discipline: instrumented code calls
:func:`maybe_inject`, which costs one global read and one comparison
when no plan is installed (``benchmarks/bench_smoke.py`` bounds the
total below 2%).  Every fired fault is recorded as a metric
(``faults.injected`` and ``faults.injected.<site>``) and a
``fault.inject`` span carrying the site and kind.

Plans are written as compact specs (also accepted via the
``$CASA_FAULTS`` environment variable)::

    store.read:error@nth=2
    worker.exec:crash@nth=3,limit=1
    ilp.solve:error@p=0.05,seed=7
    worker.exec:sleep=0.5@nth=1;kernel.replay:error@nth=1

Grammar: ``site:kind[=value][@attr,...]`` rules joined by ``;``.
Kinds: ``error`` (raise :class:`~repro.errors.InjectedFault`),
``corrupt`` (alias of ``error``, reads better at store sites),
``crash`` (hard-exit a worker process; raises
:class:`~repro.errors.WorkerCrashError` when not in a worker) and
``sleep=SECONDS`` (delay, for exercising timeouts).  Attributes:
``nth=N`` (fire on the Nth eligible call, 1-based), ``p=F`` with
``seed=S`` (deterministic Bernoulli), ``limit=N`` (max fires; default
1 for ``nth``, unlimited for ``p``) and ``retries`` (also fire on
retry attempts — off by default, which is what guarantees that
bounded retries converge).  Rule state (call/fire counters, RNG) is
per process; worker processes replay their own copy of the plan.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from repro.errors import (
    ConfigurationError,
    InjectedFault,
    WorkerCrashError,
)
from repro.obs import metrics
from repro.obs.trace import span

#: Environment variable holding a default fault-plan spec.
FAULTS_ENV = "CASA_FAULTS"

#: The named injection sites compiled into the library's hot paths.
SITES = (
    "store.read",
    "store.write",
    "worker.spawn",
    "worker.exec",
    "ilp.solve",
    "kernel.replay",
    "serve.accept",
    "serve.parse",
    "serve.respond",
)

#: Fault kinds a rule may request.
KINDS = ("error", "corrupt", "crash", "sleep")

#: Exit status used by ``crash`` faults inside worker processes.
CRASH_EXIT_CODE = 87


@dataclass
class FaultRule:
    """One activation rule of a :class:`FaultPlan`.

    Attributes:
        site: the injection site this rule watches (one of
            :data:`SITES`).
        kind: what firing does (one of :data:`KINDS`).
        nth: fire on the Nth eligible call (1-based), or ``None``.
        probability: Bernoulli fire probability per eligible call, or
            ``None`` (exactly one of ``nth``/``probability`` is set;
            a rule with neither defaults to ``nth=1``).
        seed: RNG seed of a probabilistic rule (deterministic replay).
        limit: maximum number of fires (``None`` = unlimited).
        sleep_s: delay of a ``sleep`` fault, in seconds.
        on_retries: whether the rule also fires on retry attempts
            (off by default so bounded retries always converge).
        calls: eligible calls seen so far (runtime state).
        fires: times this rule has fired (runtime state).
    """

    site: str
    kind: str = "error"
    nth: int | None = None
    probability: float | None = None
    seed: int = 0
    limit: int | None = None
    sleep_s: float = 0.0
    on_retries: bool = False
    calls: int = field(default=0, compare=False)
    fires: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; choose from "
                f"{', '.join(SITES)}"
            )
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{', '.join(KINDS)}"
            )
        if self.nth is not None and self.probability is not None:
            raise ConfigurationError(
                f"fault rule for {self.site!r} sets both nth and p"
            )
        if self.nth is None and self.probability is None:
            self.nth = 1
        if self.limit is None and self.nth is not None:
            self.limit = 1
        self._rng = random.Random(self.seed)

    def spec(self) -> str:
        """This rule in :func:`FaultPlan.from_spec` syntax."""
        kind = self.kind
        if self.kind == "sleep":
            kind = f"sleep={self.sleep_s:g}"
        attrs = []
        if self.nth is not None:
            attrs.append(f"nth={self.nth}")
        if self.probability is not None:
            attrs.append(f"p={self.probability:g}")
            attrs.append(f"seed={self.seed}")
        if self.limit is not None and not (
                self.nth is not None and self.limit == 1):
            attrs.append(f"limit={self.limit}")
        if self.on_retries:
            attrs.append("retries")
        suffix = "@" + ",".join(attrs) if attrs else ""
        return f"{self.site}:{kind}{suffix}"

    def should_fire(self, attempt: int) -> bool:
        """Advance the rule's state for one eligible call.

        Returns whether the fault fires on this call.  Calls on retry
        attempts (*attempt* > 0) are ignored entirely unless the rule
        opted into ``retries``.
        """
        if attempt > 0 and not self.on_retries:
            return False
        if self.limit is not None and self.fires >= self.limit:
            return False
        self.calls += 1
        if self.nth is not None:
            fire = self.calls == self.nth or (
                self.limit is not None and self.limit > 1
                and self.calls > self.nth
            )
        else:
            fire = self._rng.random() < (self.probability or 0.0)
        if fire:
            self.fires += 1
        return fire

    def reset(self) -> None:
        """Clear the runtime counters and re-seed the RNG."""
        self.calls = 0
        self.fires = 0
        self._rng = random.Random(self.seed)


def _parse_rule(text: str) -> FaultRule:
    """Parse one ``site:kind[@attr,...]`` rule."""
    head, _, attr_text = text.partition("@")
    site, sep, kind_text = head.partition(":")
    site = site.strip()
    kind_text = kind_text.strip() if sep else "error"
    kind, _, kind_value = kind_text.partition("=")
    sleep_s = 0.0
    if kind == "sleep":
        try:
            sleep_s = float(kind_value or "0.1")
        except ValueError:
            raise ConfigurationError(
                f"bad sleep duration in fault rule {text!r}"
            )
    elif kind_value:
        raise ConfigurationError(
            f"fault kind {kind!r} takes no value ({text!r})"
        )
    nth = probability = limit = None
    seed = 0
    on_retries = False
    for raw in filter(None, attr_text.split(",")):
        key, _, value = raw.strip().partition("=")
        try:
            if key == "nth":
                nth = int(value)
            elif key == "p":
                probability = float(value)
            elif key == "seed":
                seed = int(value)
            elif key == "limit":
                limit = int(value)
            elif key == "retries":
                on_retries = True
            else:
                raise ConfigurationError(
                    f"unknown fault attribute {key!r} in {text!r}"
                )
        except ValueError:
            raise ConfigurationError(
                f"bad value for fault attribute {key!r} in {text!r}"
            )
    return FaultRule(site=site, kind=kind or "error", nth=nth,
                     probability=probability, seed=seed, limit=limit,
                     sleep_s=sleep_s, on_retries=on_retries)


class FaultPlan:
    """A set of :class:`FaultRule`\\ s, installable process-wide.

    Args:
        rules: the activation rules (empty plan = inject nothing).
    """

    def __init__(self, rules: list[FaultRule] | None = None) -> None:
        self.rules = list(rules or [])

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse a ``;``-joined rule spec (the ``$CASA_FAULTS`` syntax).

        Raises:
            ConfigurationError: on an unknown site, kind or attribute.
        """
        rules = [
            _parse_rule(part.strip())
            for part in text.split(";") if part.strip()
        ]
        return cls(rules)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan named by ``$CASA_FAULTS``, or ``None`` if unset."""
        spec = os.environ.get(FAULTS_ENV)
        if not spec:
            return None
        return cls.from_spec(spec)

    def spec(self) -> str:
        """The plan as a round-trippable rule spec."""
        return ";".join(rule.spec() for rule in self.rules)

    def match(self, site: str, attempt: int) -> FaultRule | None:
        """The first rule for *site* that fires on this call, if any.

        Every rule watching *site* advances its call counter (subject
        to attempt eligibility), so ``nth`` rules stay deterministic
        even when several rules share a site.
        """
        fired = None
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.should_fire(attempt) and fired is None:
                fired = rule
        return fired

    @property
    def injected(self) -> int:
        """Total fires across every rule (this process only)."""
        return sum(rule.fires for rule in self.rules)

    def counts(self) -> dict[str, int]:
        """Fires per site (sites that never fired are omitted)."""
        totals: dict[str, int] = {}
        for rule in self.rules:
            if rule.fires:
                totals[rule.site] = totals.get(rule.site, 0) + rule.fires
        return totals

    def reset(self) -> None:
        """Reset every rule's runtime state."""
        for rule in self.rules:
            rule.reset()

    def __getstate__(self):
        """Pickle as the spec (worker processes replay fresh state)."""
        return {"spec": self.spec()}

    def __setstate__(self, state) -> None:
        """Rebuild from the spec with fresh rule state."""
        self.rules = FaultPlan.from_spec(state["spec"]).rules


# -- process-wide active plan ---------------------------------------------------

# $CASA_FAULTS is honoured by every entry point (CLI, tests, spawned
# workers): a spec there becomes the initial process-wide plan.
_PLAN: FaultPlan | None = None
_ATTEMPT: int = 0


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install (or, with ``None``, remove) the active fault plan.

    Returns the previously active plan so callers can restore it.
    """
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def active_fault_plan() -> FaultPlan | None:
    """The active plan, or ``None`` when injection is disabled."""
    return _PLAN


def set_fault_attempt(attempt: int) -> int:
    """Declare the current retry attempt (0 = first try).

    Rules without the ``retries`` attribute never fire on attempts
    greater than zero, which is what makes bounded retry-with-backoff
    converge under any plan.  Returns the previous attempt so callers
    can restore it.
    """
    global _ATTEMPT
    previous = _ATTEMPT
    _ATTEMPT = attempt
    return previous


def in_worker_process() -> bool:
    """Whether this process is a multiprocessing worker."""
    # Imported here: only a crash fault asks, and a serial run never
    # loads multiprocessing otherwise.
    import multiprocessing

    return multiprocessing.parent_process() is not None


def maybe_inject(site: str, **context) -> None:
    """Fire any matching fault at *site* (no-op without a plan).

    This is the one function instrumented code calls; with no plan
    installed it costs one global read and one comparison.  A fired
    fault is counted in ``faults.injected`` / ``faults.injected.<site>``
    and recorded as a ``fault.inject`` span before it acts:

    * ``error`` / ``corrupt`` raise :class:`~repro.errors.InjectedFault`;
    * ``sleep`` delays by the rule's duration and returns;
    * ``crash`` hard-exits a worker process (the parent sees a broken
      pool, exactly like a real crash) or raises
      :class:`~repro.errors.WorkerCrashError` in the main process.
    """
    plan = _PLAN
    if plan is None:
        return
    rule = plan.match(site, _ATTEMPT)
    if rule is None:
        return
    metrics.inc("faults.injected")
    metrics.inc(f"faults.injected.{site}")
    with span("fault.inject", site=site, kind=rule.kind, **context):
        pass
    if rule.kind == "sleep":
        time.sleep(rule.sleep_s)
        return
    if rule.kind == "crash":
        if in_worker_process():
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(
            f"injected worker crash at {site}", site=site,
            point=str(context.get("point", "")),
        )
    raise InjectedFault(f"injected fault at {site}", site=site)


_PLAN = FaultPlan.from_env()
