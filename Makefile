# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint bench report run-smoke trace-smoke diff-smoke serve-smoke serve-load perf-smoke calibrate sweep clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Mirrors the tier-1 verify command exactly.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

# reprolint: whole-program pass over every invariant family
# (determinism, error discipline, layering, cache integrity, shard
# purity, observability consistency) plus a dump of the import/call
# graph the C4xx/P5xx/O6xx rules reason over.  See docs/linting.md.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.lint src/repro scripts benchmarks --jobs 0 --graph-json build/program-graph.json --dataflow-json build/dataflow-report.json --concurrency-json build/concurrency-report.json

# The JSON report (build/bench.json) feeds scripts/bench_to_ledger.py,
# which folds the timing statistics into the run ledger as a
# kind="bench" record (see docs/ledger.md).
bench:
	@if $(PYTHON) -c "import pytest_benchmark" >/dev/null 2>&1; then \
		mkdir -p build; \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only \
			--benchmark-json build/bench.json; \
	else \
		echo "pytest-benchmark is not installed; cannot run benchmarks" >&2; \
		exit 1; \
	fi

report:
	$(PYTHON) -m repro --preset medium report

# Tiny end-to-end engine run: cold fill + warm replay of the artifact
# cache must produce identical headline numbers (see docs/runtime.md).
run-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/run_smoke.py

# Traced engine run via `repro run --trace`: the provenance manifest
# must validate with a span and record counts for every stage, and an
# untraced run must agree on every metric (see docs/observability.md).
trace-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/trace_smoke.py

# Ledger/diff smoke: two traced `repro run --workers 2` invocations
# against one cache, then `repro obs diff` between them must report
# zero unexplained drift, both trace-event exports must validate, the
# cold export must show worker stage spans on at least two pid tracks,
# and the budget gate must pass/fail correctly (see docs/ledger.md).
# Leaves the ledger, diff JSON and trace events in build/diff-smoke
# for CI.
diff-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/diff_smoke.py

# Study-service smoke: start `repro serve` on an ephemeral port, submit
# the same small config twice (cold fill, then warm replay with hit
# rate 1.0 on /metrics), assert both SSE streams are well-formed and
# terminal, that the HTTP ledger diff matches `repro obs diff` with
# zero unexplained drift, and that shutdown is clean (see
# docs/service.md).  Leaves the server log, event streams and diff in
# build/serve-smoke for CI.
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/serve_smoke.py

# Service load benchmark: concurrent clients vs a warm server; the JSON
# report feeds bench_to_ledger.py --serve-report (serve.requests_per_s
# gauges in the run ledger).
serve-load:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/serve_load.py

# Study-benchmark smoke: each perfbench workload (warm resubmit over a
# filled cache, cold Table 2 sub-graph) for one second with the layer
# breakdown on; fails unless both report correct: true and 0 failed
# operations, which catches answer drift and a renamed callable that
# perfbench/layers.py hooks.  Timings are printed, not gated (see the
# "Measuring" section of docs/runtime.md).
perf-smoke:
	$(PYTHON) scripts/perf_smoke.py

calibrate:
	$(PYTHON) scripts/calibrate.py medium

sweep:
	$(PYTHON) scripts/seed_sweep.py 5 small

clean:
	rm -rf build *.egg-info .pytest_cache .hypothesis benchmarks/output
	find . -name __pycache__ -type d -exec rm -rf {} +
