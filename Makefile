# Convenience targets for the CASA reproduction.

PYTHON ?= python

# The package lives in src/; run everything against the tree so no
# install step is needed.
export PYTHONPATH := src

.PHONY: install test bench bench-smoke startup-smoke chaos-smoke \
	serve-smoke serve-chaos-smoke exhibits report examples docs \
	docs-regen clean

install:
	$(PYTHON) setup.py develop

test: bench-smoke startup-smoke chaos-smoke serve-smoke \
	serve-chaos-smoke docs
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Cold/warm engine smoke: one tiny design point (a one-size grid
# chunk) per exhibit, asserting that a warm artifact cache does zero
# profiling or simulation work, that the vector kernel is >=5x the
# reference (and single-pass grid replay >=3x per-configuration
# replay) on a fig4-shaped sweep, and that the kernel and grid
# differential verifications pass.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_smoke.py
	$(PYTHON) -m repro verify-kernel --workloads tiny adpcm \
		--trials 10 --scale 0.5 --no-cache
	$(PYTHON) -m repro verify-grid --workloads tiny adpcm \
		--scale 0.5 --no-cache

# Start-up gate: `repro --help` and `repro workloads` compute nothing,
# so neither may import numpy or scipy; `--help` loads no store,
# registry, program model, cache simulator or multiprocessing, and a
# cold serial fig4 no event recorder, run log, pool, Ross or greedy.
# On failure the import chain that pulled one in is printed.
startup-smoke:
	$(PYTHON) scripts/startup_smoke.py

# Chaos differential gate: a small sweep under a canned fault plan
# (store corruption on read and write, one worker fault, one solver
# fault, one kernel fault) must heal to results bit-identical to the
# fault-free run, with at least one retry proving the plan bit.  Then
# a plain `repro sweep` whose pool workers crash must exit 0 with the
# fault-free result table (the lines before "engine stages": retries
# change the stage counts).
CHAOS_SWEEP = sweep --workload tiny --scale 0.2 --jobs 2 --no-cache

chaos-smoke:
	$(PYTHON) -m repro chaos --workload tiny --scale 0.2 --jobs 2 \
		--min-retries 1 --faults "store.read:error@nth=1;\
	store.write:error@nth=1;worker.exec:error@nth=2;\
	ilp.solve:error@nth=1;kernel.replay:error@nth=1"
	clean=$$($(PYTHON) -m repro $(CHAOS_SWEEP)) && \
	healed=$$(CASA_FAULTS="worker.exec:crash@nth=1" \
		$(PYTHON) -m repro $(CHAOS_SWEEP)) && \
	test "$${clean%%engine stages*}" = "$${healed%%engine stages*}" \
		|| { echo "chaos-smoke: crashed sweep did not heal"; exit 1; }

# Serving smoke gate: a real `repro serve` subprocess on an ephemeral
# port must absorb a 500-request closed-loop mixed-verb burst with
# zero failures, a bounded p99 and a non-zero micro-batching coalesce
# count, and the recorded serve.* bench row must match the committed
# seed baseline (throughput/latency within the timing tolerance band,
# request counters exactly).
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py
	$(PYTHON) -m repro bench compare \
		--baseline benchmarks/baselines/smoke.jsonl

# Serve-layer chaos gate: a real daemon subprocess under 2x overload,
# adversarial clients (slow-loris, mid-request disconnects, malformed
# and oversized payloads, unknown verbs, deadline storms) and a
# SIGTERM mid-load must never crash or print a traceback; refusals
# are structured 503 sheds whose per-reason counters sum exactly to
# serve.shed.total, accepted-request p99 stays bounded, and the drain
# exits 0 with zero client-visible connection resets.
serve-chaos-smoke:
	$(PYTHON) -m repro serve-chaos --requests 48 \
		--adversarial-count 2

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Regenerate every paper exhibit + extensions into benchmarks/out/
exhibits:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

report:
	$(PYTHON) -m repro report --output reproduction_report.txt

# Non-mutating documentation checks: docs/API.md must match the
# docstrings and every relative markdown link must resolve.
docs:
	$(PYTHON) scripts/gen_api_docs.py --check
	$(PYTHON) scripts/check_links.py

# Rewrite docs/API.md from the current docstrings.
docs-regen:
	$(PYTHON) scripts/gen_api_docs.py

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

clean:
	rm -rf benchmarks/out .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
