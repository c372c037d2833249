# Convenience targets for the stash-directory reproduction.

PYTHON ?= python

.PHONY: install test bench quick-bench bench-scaling bench-runner obs-smoke service-smoke fuzz fuzz-smoke examples docs clean

install:
	$(PYTHON) -m pip install -e .[dev]

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

quick-bench:
	$(PYTHON) -m pytest benchmarks/bench_experiments.py --benchmark-only \
		-k "[T1] or [T2] or [F1]"

# Sweep-engine scaling trajectory: cold-sweep wall time at 1/2/4 workers
# plus the trace-generation share and the host (writes BENCH_runner.json;
# see docs/PERFORMANCE.md).  BENCH_WORKERS/BENCH_CACHE_DIR configure the
# rest of the harness.
bench-runner:
	$(PYTHON) -m pytest benchmarks/bench_runner_scaling.py --benchmark-only

# Weak-scaling sweep: vector engine throughput and directory bytes/core
# at 16/64/256/1024 cores (writes BENCH_scaling.json; see
# docs/PERFORMANCE.md).  Append `--smoke` by hand for a quick CI run.
bench-scaling:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_scaling.py

# Boot `repro serve` as a real subprocess on each backend, submit a tiny
# campaign over HTTP, read its stream to EOF, poll it to completion, check
# /metrics parses and every point summary is bit-identical to a direct
# run_trace (mirrors the CI service-smoke job; see docs/SERVICE.md).
service-smoke:
	PYTHONPATH=src $(PYTHON) tools/service_smoke.py --backend inproc
	PYTHONPATH=src $(PYTHON) tools/service_smoke.py --backend pool

# Traced + sampled smoke run with structural validation of the exports
# (mirrors the CI obs-smoke job; see docs/OBSERVABILITY.md).
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro run --workload mix --kind stash \
		--ratio 0.125 --ops 2000 --obs-epoch 256 --trace-events \
		--check-invariants 1024 --obs-out obs_smoke
	$(PYTHON) tools/validate_trace.py obs_smoke.trace.json obs_smoke.epochs.jsonl

# Differential fuzzing: an engine x organization matrix on adversarial
# random programs, organizations judged against the IDEAL reference and
# engines against the interpreter (see docs/VERIFICATION.md).  Failures
# are minimized and serialized under .repro_cache/failures/.
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --ops 2000 --seeds 25

# Bounded fixed-seed matrix + seed-corpus replay (mirrors the CI
# fuzz-smoke job), plus a fixed-seed Tardis-vs-IDEAL pass (the timestamp
# backend's bounded-staleness oracle) and an algorithm-workload
# characterization smoke.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --ops 400 --seeds 8 --seed-corpus
	PYTHONPATH=src $(PYTHON) -m repro fuzz --kinds tardis --ops 600 --seeds 6
	PYTHONPATH=src $(PYTHON) -m repro characterize \
		--workloads louvain-like matmul-like sieve-like unionfind-like \
		--cores 16 --ops 500

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/directory_scaling.py swaptions-like 1000
	$(PYTHON) examples/workload_characterization.py 1000
	$(PYTHON) examples/custom_directory.py mix 1000
	$(PYTHON) examples/noc_and_dram_analysis.py mix 1000

docs:
	PYTHONPATH=src $(PYTHON) tools/gen_api_docs.py docs/API.md

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks
