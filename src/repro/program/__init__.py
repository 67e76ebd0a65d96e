"""Program representation: basic blocks, functions, CFGs and execution.

The pipeline needs three views of a program:

* a *static* view — functions made of basic blocks with explicit
  control-flow edges (:mod:`repro.program.basicblock`,
  :mod:`repro.program.function`, :mod:`repro.program.program`);
* an *analysis* view — dominators and natural loops over the CFG
  (:mod:`repro.program.cfg`), used by the loop-cache allocator;
* a *dynamic* view — a deterministic executor that walks the CFG and
  produces the basic-block execution sequence and profile
  (:mod:`repro.program.executor`, :mod:`repro.program.profile`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BasicBlock",
    "BranchBehavior",
    "FixedTrip",
    "TakenProbability",
    "AlwaysTaken",
    "NeverTaken",
    "ControlFlowGraph",
    "NaturalLoop",
    "ExecutionResult",
    "execute_program",
    "Function",
    "ProfileData",
    "Program",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.program.basicblock": ("BasicBlock",),
    "repro.program.behavior": (
        "AlwaysTaken",
        "BranchBehavior",
        "FixedTrip",
        "NeverTaken",
        "TakenProbability",
    ),
    "repro.program.cfg": ("ControlFlowGraph", "NaturalLoop"),
    "repro.program.executor": ("ExecutionResult", "execute_program"),
    "repro.program.function": ("Function",),
    "repro.program.profile": ("ProfileData",),
    "repro.program.program": ("Program",),
})
