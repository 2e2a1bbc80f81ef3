# Convenience targets; everything assumes only the in-tree sources
# (PYTHONPATH=src), no install required.

PY       ?= python
PYPATH   := PYTHONPATH=src
JOBS     ?= 4

.PHONY: test test-fast test-exec fuzz fuzz-smoke hostile hostile-smoke \
        sanitize bench timing ab report report-par clean-cache chaos

test:            ## tier-1: the full test suite
	$(PYPATH) $(PY) -m pytest -x -q

test-fast:       ## the suite minus the bounded fuzz campaigns
	$(PYPATH) $(PY) -m pytest -x -q -m "not fuzz_smoke"

test-exec:       ## sweep-executor battery: equivalence, cache, faults
	$(PYPATH) $(PY) -m pytest -x -q tests/test_exec_parallel.py \
	    tests/test_exec_cache.py tests/test_exec_fault.py

fuzz-smoke:      ## just the bounded differential fuzz campaigns (<30s)
	$(PYPATH) $(PY) -m pytest -x -q -m fuzz_smoke

sanitize:        ## quick experiment grid + bounded fuzz, invariant-checked
	$(PYPATH) $(PY) -m repro.harness.runner all --quick --sanitize
	$(PYPATH) $(PY) -m repro.fuzz.cli --seed 0 --programs 200 --sanitize

fuzz:            ## a long differential campaign across all protocols
	$(PYPATH) $(PY) -m repro.fuzz.cli --seed 0 --programs 2000 \
	    --fence-density 0.2 --p-atomic 0.1

hostile-smoke:   ## bounded hostile-workload knob fuzz (sanitized, ~1 min)
	$(PYPATH) $(PY) -m repro.fuzz.cli --workloads --runs 10

hostile:         ## a deep hostile-lab campaign, archiving any finds
	$(PYPATH) $(PY) -m repro.fuzz.cli --workloads --runs 100 -v \
	    --save-cells tests/corpus

chaos:           ## chaos contract battery + executor fault paths
	$(PYPATH) $(PY) -m pytest -x -q tests/test_chaos.py \
	    tests/test_exec_fault.py

bench:           ## paper figures/tables under pytest-benchmark
	$(PYPATH) $(PY) -m pytest benchmarks/ --benchmark-only

timing:          ## the calibrated per-layer benchmark (bench/README.md)
	python3 bench/run.py

ab:              ## interleaved A/B of this tree against REF=<sha>
	@test -n "$(REF)" || { echo "usage: make ab REF=<sha>"; exit 2; }
	python3 bench/ab.py $(REF)

report:          ## regenerate every experiment with paper-vs-measured
	$(PYPATH) $(PY) -m repro.harness.runner all

report-par:      ## same, fanned out over JOBS worker processes
	$(PYPATH) $(PY) -m repro.harness.runner all --jobs $(JOBS)

clean-cache:     ## drop the on-disk sweep result cache
	rm -rf .rcc-cache
