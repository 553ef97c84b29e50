PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-json lint-baseline arch arch-gate arch-lock verify bench bench-smoke obs-smoke perf-gate perf-report sweep-bench bundle-gate cpuprof-gate perfbench-test

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.devtools.lint src benchmarks --jobs 0

arch:
	$(PYTHON) -m repro.devtools.arch check

arch-lock:
	$(PYTHON) -m repro.devtools.arch lock

lint-json:
	$(PYTHON) -m repro.devtools.lint src benchmarks \
		--format json --output benchmark_results/lint.json

lint-baseline:
	$(PYTHON) -m repro.devtools.lint src benchmarks --write-baseline

verify: lint arch-gate test perfbench-test bench-smoke obs-smoke bundle-gate cpuprof-gate perf-gate

# perfbench's self-test: every workload's outputs against golden.json.
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

bench-smoke:
	$(PYTHON) benchmarks/smoke.py

obs-smoke:
	$(PYTHON) benchmarks/smoke.py --obs

perf-gate:
	$(PYTHON) benchmarks/smoke.py --perf-gate

arch-gate:
	$(PYTHON) benchmarks/smoke.py --arch

bundle-gate:
	$(PYTHON) benchmarks/smoke.py --bundle

cpuprof-gate:
	$(PYTHON) benchmarks/smoke.py --cpuprof

perf-report:
	$(PYTHON) -m repro.obs.perfdb --history benchmark_results/history report

sweep-bench:
	$(PYTHON) -m pytest benchmarks/bench_sweep.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q
