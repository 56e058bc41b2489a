# Convenience targets for the reproduction repository.

.PHONY: install test bench bench-check bench-baseline microbench quicktest smoke profile-smoke runs-gc examples clean

install:
	python setup.py develop

test:
	pytest tests/

quicktest:
	pytest tests/ --ignore=tests/test_experiment_drivers.py -q

# BLAS pinned to one thread, as perfbench/run.py does: a multi-threaded
# BLAS on a small shared host flips the conv kernels between timing modes.
BENCH_ENV = OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src

# Hot-kernel benchmarks + regression gate: time the registered benches
# into a scratch report and fail if any kernel's median regressed past
# the threshold vs the latest committed BENCH_<seq>.json baseline.
bench:
	@mkdir -p results
	$(BENCH_ENV) python -m repro.bench run --out results/bench_current.json
	PYTHONPATH=src python -m repro.bench compare --candidate results/bench_current.json

# Run the suite now and gate against the newest committed baseline —
# the pre-merge check for perf-sensitive changes.  Identical gate to
# `bench`, kept as its own name so CI scripts read as intent.
bench-check:
	@mkdir -p results
	$(BENCH_ENV) python -m repro.bench run --out results/bench_check.json --quiet
	PYTHONPATH=src python -m repro.bench compare --candidate results/bench_check.json

# Record a new committed baseline point (BENCH_<next seq>.json).
bench-baseline:
	$(BENCH_ENV) python -m repro.bench run

# The same bench definitions through pytest-benchmark (rich statistics).
microbench:
	pytest benchmarks/test_microbench.py --benchmark-only -s

# Tiny instrumented convert+evaluate pipeline, run twice with the op
# profiler on; fails unless a non-empty trace with the expected spans,
# spike-rate histograms, conversion drift records and energy gauges is
# produced, the run registers in the run registry, an identical-seed
# self-diff is regression-free, and `dashboard --once` renders
# deterministically.
smoke: profile-smoke

# The same smoke pipeline with the op profiler on: both runs must write
# profile.jsonl + a repro.obs.profile/v1 summary with per-layer
# attribution and deterministic aggregate keys, register the artefacts
# in the run registry, export a loadable Chrome trace, and keep the
# identical-seed self-diff clean with the profile series aligned.
profile-smoke:
	PYTHONPATH=src python -m repro.obs.smoke --profile

# Compact the observed-run registry: drop entries whose run directories
# are gone and keep only the 20 newest runs (the baseline always stays).
runs-gc:
	PYTHONPATH=src python -m repro.obs runs gc --keep 20

examples:
	python examples/quickstart.py
	python examples/energy_audit.py
	python examples/conversion_strategies.py
	python examples/custom_architecture.py
	python examples/encoding_comparison.py
	python examples/event_stream_classification.py
	python examples/batchnorm_folding.py
	python examples/neuromorphic_deployment.py

clean:
	rm -rf build dist *.egg-info .pytest_cache results
	find . -name __pycache__ -type d -exec rm -rf {} +
