PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-json lint-baseline arch arch-gate arch-lock verify bench bench-smoke obs-smoke counter-gate sweep-bench bundle-gate cpuprof-gate perfbench-test mine-digests

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

verify: lint arch-gate test perfbench-test bench-smoke obs-smoke bundle-gate cpuprof-gate counter-gate

# perfbench's self-test: every workload's outputs against golden.json.
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

bench-smoke:
	$(PYTHON) benchmarks/smoke.py

obs-smoke:
	$(PYTHON) benchmarks/smoke.py --obs

# The exact work the pipeline does (subgroup counts and every
# mining/polarity/discretize/session counter) against the committed
# file: any difference is a behaviour change. A change that means it
# regenerates the file with
#   $(PYTHON) benchmarks/work_counters.py > benchmark_results/work_counters.txt
counter-gate:
	{ $(PYTHON) benchmarks/work_counters.py || echo "work_counters.py failed"; } \
		| diff -u benchmark_results/work_counters.txt -

arch-gate:
	$(PYTHON) benchmarks/smoke.py --arch

bundle-gate:
	$(PYTHON) benchmarks/smoke.py --bundle

cpuprof-gate:
	$(PYTHON) benchmarks/smoke.py --cpuprof

# Byte digests of mine() over a fixed dataset sweep (not part of verify):
# run on two trees and diff the outputs to show a change is bit-identical.
mine-digests:
	$(PYTHON) benchmarks/mine_digests.py

sweep-bench:
	$(PYTHON) -m pytest benchmarks/bench_sweep.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q
