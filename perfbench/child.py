"""Launch the repro CLI in a benchmark child process.

Usage: ``python3 perfbench/child.py <repro arguments>`` with ``src/`` on
``PYTHONPATH``; behaves like ``python -m repro``.  Two environment
variables let the parent measure the child:

* ``PERFBENCH_MARK=FILE`` — write ``time.monotonic()`` to FILE once
  ``repro.cli`` has been imported (the end of set-up).
* ``PERFBENCH_SPANS=FILE`` — trace the program's layers (see
  :mod:`tracing`) and write the spans to FILE at exit.
"""

import os
import sys
import time


def main() -> int:
    spans = os.environ.get("PERFBENCH_SPANS")
    if spans:
        import tracing

        tracer = tracing.Tracer(spans)
        with tracer.span("startup.import"):
            import repro.cli
        tracer.install()
    else:
        import repro.cli
    mark = os.environ.get("PERFBENCH_MARK")
    if mark:
        with open(mark, "w") as handle:
            handle.write(repr(time.monotonic()))
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
