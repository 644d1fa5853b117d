# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test perfbench perfbench-test bench bench-report examples all clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# The serving benchmark declared in BENCHMARK.json, every workload end to
# end; pass e.g. PERFBENCH_ARGS="--workload zipf-market --trace 1".
PERFBENCH_ARGS ?= --workload all
perfbench:
	$(PYTHON) perfbench/run.py $(PERFBENCH_ARGS)

# Unit tests of the serving benchmark's helpers (perfbench/), which sit
# outside the tier-1 testpaths.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Prints the paper-vs-measured tables (the EXPERIMENTS.md source data).
bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

all: install test bench examples

clean:
	rm -rf .pytest_cache .hypothesis build dist src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
