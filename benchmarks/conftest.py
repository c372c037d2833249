"""Shared fixtures for the benchmark harness.

``bench_experiments.py`` regenerates every table/figure from DESIGN.md's
experiment index, one case per id, prints it (bypassing pytest's capture
so the report lands in the terminal / CI log) and asserts its claim.
Simulation results are memoized process-wide, so cases that share sweep
points do not re-simulate them.  ``bench_runner_scaling.py`` times the
sweep pool at 1, 2 and 4 workers, and ``bench_scaling.py`` the vector
engine and the directory storage model at 16 to 1024 cores.

Run with::

    pytest benchmarks/ --benchmark-only

Sweep execution goes through :mod:`repro.analysis.runner`: set
``BENCH_WORKERS=N`` to fan sweep points across N worker processes, and
``BENCH_CACHE_DIR=PATH`` to enable the persistent result cache between
harness runs (off by default so timings stay honest).  Runner hit-rate and
wall-time counters are printed when the session ends.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import runner

#: Per-core trace length for benchmark-scale runs (larger than unit tests,
#: small enough that the whole harness finishes in minutes of pure Python).
BENCH_OPS = 2000

#: Provisioning ratios shared by the sweep benchmarks (kept identical across
#: figures so the memoized runs are reused).
BENCH_RATIOS = [1.0, 0.5, 0.25, 0.125]


@pytest.fixture(scope="session", autouse=True)
def _sweep_engine(request):
    """Configure the sweep runner for the whole benchmark session.

    Workers come from ``BENCH_WORKERS`` (default 1); the persistent cache
    is enabled only when ``BENCH_CACHE_DIR`` names a directory, so default
    runs always measure real simulation cost.
    """
    cache_dir = os.environ.get("BENCH_CACHE_DIR")
    runner.configure(
        workers=int(os.environ.get("BENCH_WORKERS", "1") or "1"),
        cache_dir=cache_dir,
        cache_enabled=bool(cache_dir),
    )
    yield
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    with capmanager.global_and_fixture_disabled():
        print()
        print(runner.counters_summary())


@pytest.fixture
def report(capsys):
    """Print an ExperimentOutput outside pytest's capture."""

    def _report(out):
        with capsys.disabled():
            out.show()

    return _report


def once(benchmark, fn, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer and return it.

    Experiment sweeps are long-running and internally memoized, so repeated
    timing rounds would measure the cache; a single timed round records the
    honest cost of regenerating the experiment.
    """
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
