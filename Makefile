# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint bench report smoke perf-smoke examples calibrate sweep clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# Mirrors the tier-1 verify command exactly.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

# reprolint: every invariant family (determinism, error discipline,
# layering, observability consistency, seed lineage, resource
# discipline), standard library only.  Shard purity is checked by
# tier-1, which runs every shard.  See docs/linting.md.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.lint src/repro scripts benchmarks

# Writes pytest-benchmark's JSON report to build/bench.json.
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

# End-to-end smoke on the small preset (see scripts/smoke.py): an
# untraced, uncached reference run, then cold fill, warm replay, ledger
# diff and baseline pin through `repro run` and `repro obs`, and a partly
# warm run with localization's artifacts removed.  Every run must report
# the reference's Table 2, Fig. 7(b), Sect. 6 and Table 5; the manifest,
# trace exports and diff must validate, with zero unexplained drift.
# Leaves its artifacts in build/smoke for CI.
smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/smoke.py

# Study-benchmark smoke: each perfbench workload (warm resubmit over a
# filled cache, cold Table 2 sub-graph) for one second with the layer
# breakdown on; fails unless both report correct: true and 0 failed
# operations, which catches answer drift and a renamed callable that
# perfbench/layers.py hooks.  Timings are printed, not gated (see the
# "Measuring" section of docs/runtime.md).
perf-smoke:
	$(PYTHON) scripts/perf_smoke.py

# Runs every script under examples/ at its default seed; fails on the
# first one that exits non-zero.
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) $$script || exit 1; \
	done

calibrate:
	$(PYTHON) scripts/calibrate.py medium

sweep:
	$(PYTHON) scripts/seed_sweep.py 5 small

clean:
	rm -rf build *.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
