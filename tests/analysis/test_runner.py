"""Tests for the parallel sweep engine and its persistent result cache.

Covers the satellite requirements explicitly: cache-key stability within
and across processes, key sensitivity to every parameter, corruption
tolerance (truncated/garbage/mismatched files are recomputed, never
crashed on), parallel/serial result identity, trace-memo sharing (one
generation per distinct workload key) and three-layer clearing (result
memo, result disk, trace memo).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.analysis import experiments as exp
from repro.analysis import runner
from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.workloads import store as trace_store
from tests.conftest import tiny_config

OPS = 200


def tiny_point(seed: int = 1, ops: int = OPS, workload: str = "blackscholes-like", **cfg):
    """A fast-to-simulate sweep point over the shared tiny 4-core config."""
    return runner.SweepPoint(
        workload, tiny_config(**cfg), ops, seed
    )


@pytest.fixture(autouse=True)
def fresh_state(tmp_path):
    """Cold memos, fresh counters, and restored runner defaults per test."""
    previous = runner.configure()
    runner.clear_memo()
    runner.counters.reset()
    trace_store.clear_memo()
    trace_store.counters.reset()
    yield
    runner.configure(**previous)
    runner.clear_memo()
    runner.counters.reset()
    trace_store.clear_memo()
    trace_store.counters.reset()


class TestCacheKey:
    def test_identical_points_hash_identically(self):
        assert runner.cache_key(tiny_point()) == runner.cache_key(tiny_point())

    def test_key_is_hex_sha256(self):
        key = runner.cache_key(tiny_point())
        assert len(key) == 64
        int(key, 16)

    @pytest.mark.parametrize(
        "variant",
        [
            tiny_point(seed=2),
            tiny_point(ops=OPS + 1),
            tiny_point(workload="mix"),
            tiny_point(kind=DirectoryKind.SPARSE),
            tiny_point(ratio=0.5),
            tiny_point(dir_ways=1),
        ],
    )
    def test_any_changed_field_changes_key(self, variant):
        assert runner.cache_key(variant) != runner.cache_key(tiny_point())

    def test_protocol_changes_key(self):
        mesi = runner.SweepPoint("mix", make_config(), OPS, 1)
        moesi = runner.SweepPoint("mix", make_config(moesi=True), OPS, 1)
        assert runner.cache_key(mesi) != runner.cache_key(moesi)

    def test_code_version_changes_key(self, monkeypatch):
        before = runner.cache_key(tiny_point())
        monkeypatch.setattr(runner, "code_version", lambda: "0" * 64)
        assert runner.cache_key(tiny_point()) != before

    def test_engines_share_one_key_and_compute_once(self, tmp_path):
        interp = dataclasses.replace(tiny_point(), engine="interp")
        vector = dataclasses.replace(interp, engine="vector")
        assert runner.cache_key(vector) == runner.cache_key(interp)
        results = runner.run_points(
            [interp, vector], cache_dir=tmp_path, cache_enabled=True
        )
        assert runner.counters.computed == 1
        assert results[0] == results[1]

    def test_key_stable_across_processes(self):
        """The same parameterization hashes identically in a fresh process."""
        program = (
            "from repro.analysis import runner\n"
            "from repro.analysis.experiments import make_config\n"
            "from repro.common.config import DirectoryKind\n"
            "point = runner.SweepPoint("
            "'mix', make_config(DirectoryKind.STASH, 0.125, seed=3), 500, 3)\n"
            "print(runner.cache_key(point))\n"
        )
        src = Path(runner.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        child = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert child.returncode == 0, child.stderr
        local = runner.cache_key(
            runner.SweepPoint(
                "mix", make_config(DirectoryKind.STASH, 0.125, seed=3), 500, 3
            )
        )
        assert child.stdout.strip() == local


class TestEngineDefault:
    def test_sweep_points_default_to_vector(self):
        assert tiny_point().engine == "vector"
        stash, adaptive = runner.run_points(
            [tiny_point(), tiny_point(kind=DirectoryKind.ADAPTIVE_STASH)]
        )
        assert stash.engine == "vector"
        assert adaptive.engine == "interp"  # no flat view: falls back

    def test_sweep_path_needs_no_numpy(self):
        """A fresh interpreter without numpy runs one F3 point per kind."""
        program = (
            "import dataclasses, sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.analysis import runner\n"
            "from repro.analysis.experiments import KINDS, make_config\n"
            "points = [runner.SweepPoint('mix', make_config(kind, 0.25, 16), 50)\n"
            "          for kind in KINDS]\n"
            "off = dict(workers=1, cache_enabled=False)\n"
            "fast = runner.run_points(points, **off)\n"
            "runner.clear_memo()\n"
            "interp = runner.run_points(\n"
            "    [dataclasses.replace(p, engine='interp') for p in points], **off)\n"
            "assert fast == interp\n"
            "assert all(r.engine == 'interp' for r in interp)\n"
            "for kind, result in zip(KINDS, fast):\n"
            "    print(kind.value, result.engine)\n"
        )
        src = Path(runner.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        child = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert child.returncode == 0, child.stderr
        engines = dict(line.split() for line in child.stdout.splitlines())
        assert engines == {
            "sparse": "vector", "cuckoo": "vector", "scd": "vector",
            "stash": "vector", "ideal": "vector",
        }


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        point = tiny_point()
        [cold] = runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        assert runner.counters.computed == 1
        runner.clear_memo()
        [warm] = runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        assert runner.counters.disk_hits == 1
        assert runner.counters.computed == 1  # no re-simulation
        assert warm == cold

    def test_memo_layer_above_disk(self, tmp_path):
        point = tiny_point()
        runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        assert runner.counters.memo_hits == 1
        assert runner.counters.disk_hits == 0

    def test_duplicate_points_computed_once(self, tmp_path):
        point = tiny_point()
        results = runner.run_points(
            [point, point, point], cache_dir=tmp_path, cache_enabled=True
        )
        assert runner.counters.computed == 1
        assert results[0] == results[1] == results[2]

    def test_cache_disabled_writes_nothing(self, tmp_path):
        runner.run_points([tiny_point()], cache_dir=tmp_path, cache_enabled=False)
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize(
        "corruption",
        [
            b"",                                # empty file
            b"not json at all {{{",             # garbage
            b'{"cache_schema": 999}',           # wrong wrapper version
            b'{"truncated": ',                  # partial write
        ],
    )
    def test_corrupt_entry_recomputed_not_crashed(self, tmp_path, corruption):
        point = tiny_point()
        [first] = runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        cache = runner.DiskCache(tmp_path)
        path = cache.path_for(runner.cache_key(point))
        path.write_bytes(corruption)
        runner.clear_memo()
        [again] = runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        assert again == first
        assert runner.counters.computed == 2  # recomputed after the corruption
        assert runner.counters.corrupt_entries >= 1
        assert not path.exists() or json.loads(path.read_text())  # repaired

    def test_stored_text_is_one_compact_json_document(self, tmp_path):
        point = tiny_point()
        runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        text = runner.DiskCache(tmp_path).path_for(
            runner.cache_key(point)
        ).read_text()
        assert text == json.dumps(json.loads(text), separators=(",", ":"))

    def test_key_mismatch_inside_wrapper_rejected(self, tmp_path):
        point = tiny_point()
        runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        cache = runner.DiskCache(tmp_path)
        key = runner.cache_key(point)
        wrapper = json.loads(cache.path_for(key).read_text())
        wrapper["key"] = "0" * 64
        cache.path_for(key).write_text(json.dumps(wrapper))
        assert cache.load(key) is None

    def test_clear_counts_entries(self, tmp_path):
        for seed in (1, 2, 3):
            runner.run_points(
                [tiny_point(seed=seed)], cache_dir=tmp_path, cache_enabled=True
            )
        assert runner.DiskCache(tmp_path).clear() == 3
        assert not list(tmp_path.glob("*.json"))


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path):
        points = [tiny_point(seed=seed) for seed in (1, 2, 3, 4)]
        serial = runner.run_points(points, workers=1, cache_enabled=False)
        runner.clear_memo()
        parallel = runner.run_points(points, workers=2, cache_enabled=False)
        assert parallel == serial
        assert runner.counters.parallel_batches == 1

    def test_parallel_preserves_input_order(self):
        points = [tiny_point(seed=seed) for seed in (5, 6)]
        results = runner.run_points(points, workers=2, cache_enabled=False)
        assert [r.config.seed for r in results] == [7, 7]  # tiny_config pins seed=7
        assert results[0] != results[1]  # different trace seeds, different runs

    def test_single_pending_point_stays_serial(self):
        runner.run_points([tiny_point()], workers=4, cache_enabled=False)
        assert runner.counters.parallel_batches == 0

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process support here")

        from repro.analysis import dispatch

        monkeypatch.setitem(dispatch.EXECUTORS, "pool", BrokenPool)
        points = [tiny_point(seed=seed) for seed in (1, 2)]
        results = runner.run_points(points, workers=2, cache_enabled=False)
        assert len(results) == 2 and all(results)
        assert runner.counters.parallel_fallbacks == 1
        assert runner.counters.computed == 2

    def test_fallback_records_each_point_once(self, monkeypatch):
        """A point that fails in the pool is recomputed serially, and no
        point the pool already finished is recorded twice."""
        from repro.analysis import dispatch

        real_compute_point = runner.compute_point
        calls = []

        def _fail_seed_two_once(point):
            calls.append(point.seed)
            if point.seed == 2 and calls.count(2) == 1:
                raise RuntimeError("worker lost")
            return real_compute_point(point)

        monkeypatch.setattr(runner, "compute_point", _fail_seed_two_once)
        monkeypatch.setitem(dispatch.EXECUTORS, "pool", ThreadPoolExecutor)
        points = [tiny_point(seed=seed) for seed in (1, 2, 3)]
        results = runner.run_points(points, workers=2, cache_enabled=False)
        assert all(results)
        assert runner.counters.parallel_fallbacks == 1
        assert runner.counters.computed == 3
        assert calls.count(2) == 2


class TestBatchedScheduling:
    def sweep_points(self):
        """A 2-workload x 2-kind x 2-ratio sweep: 8 points, 2 trace keys."""
        return [
            tiny_point(workload=workload, kind=kind, ratio=ratio)
            for workload in ("blackscholes-like", "mix")
            for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH)
            for ratio in (1.0, 0.5)
        ]

    def test_batched_parallel_matches_serial(self):
        points = self.sweep_points()
        serial = runner.run_points(points, workers=1, cache_enabled=False)
        runner.clear_memo()
        parallel = runner.run_points(points, workers=2, cache_enabled=False)
        assert parallel == serial
        assert runner.counters.parallel_batches == 1
        assert runner.counters.dispatches == len(points)  # one per point

    def test_sweep_generates_each_workload_exactly_once(self, tmp_path):
        """kinds x ratios over N workloads -> exactly N trace generations."""
        workloads = ["blackscholes-like", "swaptions-like", "bodytrack-like",
                     "fluidanimate-like", "canneal-like", "mix"]
        kinds = [DirectoryKind.SPARSE, DirectoryKind.CUCKOO, DirectoryKind.SCD,
                 DirectoryKind.STASH, DirectoryKind.IDEAL]
        ratios = [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
        points = [
            tiny_point(workload=w, ops=40, kind=k, ratio=r)
            for k in kinds for r in ratios for w in workloads
        ]
        assert len(points) == 5 * 6 * 6
        runner.run_points(points, cache_dir=tmp_path, cache_enabled=False)
        assert trace_store.counters.generated == len(workloads)
        assert trace_store.counters.memo_hits >= len(points) - len(workloads)
        # Nothing but the memo holds a trace.
        assert not list(tmp_path.iterdir())

    def test_trace_cache_keyword_is_ignored(self, tmp_path):
        """The benchmark harness still passes ``trace_cache_enabled``."""
        before = runner.configure()
        assert "trace_cache_enabled" not in before
        assert runner.configure(trace_cache_enabled=False) == before
        runner.run_points([tiny_point()], cache_dir=tmp_path, cache_enabled=False)
        assert trace_store.counters.generated == 1
        assert not list(tmp_path.iterdir())


class TestWorkerTraceLookups:
    """A pool worker's trace lookups are counted in the parent, once."""

    def points(self):
        return [
            tiny_point(kind=kind, ratio=ratio)
            for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH)
            for ratio in (1.0, 0.5)
        ]

    def test_pool_worker_lookups_reach_the_summary(self, tmp_path):
        runner.run_points(self.points(), workers=2, cache_dir=tmp_path,
                          cache_enabled=False)
        assert runner.counters.parallel_batches == 1
        # One generation in the parent before dispatch, then each of the 4
        # points finds the trace in its worker's inherited memo.
        assert trace_store.counters.generated == 1
        assert trace_store.counters.memo_hits == 4
        assert "traces         5 lookups (memo 4, generated 1 in" in (
            runner.counters_summary()
        )

    def test_in_process_points_are_counted_once(self, tmp_path):
        runner.run_points(self.points(), workers=1, cache_dir=tmp_path,
                          cache_enabled=False)
        assert runner.counters.parallel_batches == 0
        assert trace_store.counters.generated == 1
        assert trace_store.counters.memo_hits == 4

    def test_fold_ignores_this_process_and_adds_another(self):
        start = trace_store.mark()
        trace_store.get_packed_trace("mix", 4, 20)
        trace_store.get_packed_trace("mix", 4, 20)
        mine = trace_store.lookups_since(start)
        assert (mine.memo_hits, mine.generated) == (1, 1)
        trace_store.fold(mine)
        assert trace_store.counters.lookups == 2
        trace_store.fold(mine._replace(pid=mine.pid + 1))
        assert (trace_store.counters.memo_hits, trace_store.counters.generated) == (2, 2)


class TestObservedPoints:
    def observed_point(self, **kwargs):
        from repro.obs import ObsConfig

        return runner.SweepPoint(
            "mix", tiny_config(), OPS, 1,
            obs=ObsConfig(epoch_interval=64), **kwargs
        )

    def test_observed_stats_match_unobserved_packed_run(self, tmp_path):
        """Observability must not perturb the packed-trace pipeline."""
        plain = runner.SweepPoint("mix", tiny_config(), OPS, 1)
        [unobserved] = runner.run_points(
            [plain], cache_dir=tmp_path, cache_enabled=True
        )
        [observed] = runner.run_points(
            [self.observed_point()], cache_dir=tmp_path, cache_enabled=True
        )
        assert observed.stats == unobserved.stats
        assert observed.cycles_per_core == unobserved.cycles_per_core

    def test_observed_bypasses_result_caches_but_shares_traces(self, tmp_path):
        point = self.observed_point()
        runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        runner.run_points([point], cache_dir=tmp_path, cache_enabled=True)
        # Re-simulated both times (no result memo/disk hit)...
        assert runner.counters.computed == 2
        assert runner.counters.memo_hits == 0
        assert runner.counters.disk_hits == 0
        assert not runner._MEMO
        # ...but the input trace was generated exactly once.
        assert trace_store.counters.generated == 1
        assert trace_store.counters.memo_hits >= 1


class TestExperimentsIntegration:
    def test_simulate_uses_both_layers(self, tmp_path):
        runner.configure(cache_dir=tmp_path)
        config = tiny_config()
        first = exp.simulate("mix", config, OPS, 1)
        runner.clear_memo()
        second = exp.simulate("mix", config, OPS, 1)
        assert second == first
        assert runner.counters.disk_hits == 1

    def test_clear_cache_clears_disk_too(self, tmp_path):
        runner.configure(cache_dir=tmp_path)
        exp.simulate("mix", tiny_config(), OPS, 1)
        assert list(Path(tmp_path).glob("*.json"))
        exp.clear_cache()
        assert not list(Path(tmp_path).glob("*.json"))
        assert not runner._MEMO

    def test_clear_cache_clears_trace_spool_and_memo(self, tmp_path):
        runner.configure(cache_dir=tmp_path)
        exp.simulate("mix", tiny_config(), OPS, 1)
        assert trace_store._TRACE_MEMO
        exp.clear_cache()
        assert not trace_store._TRACE_MEMO

    def test_counters_summary_reports_trace_store(self, tmp_path):
        runner.configure(cache_dir=tmp_path)
        exp.simulate("mix", tiny_config(), OPS, 1)
        text = runner.counters_summary()
        assert "traces         2 lookups (memo 1, generated 1 in" in text
        assert "spool" not in text

    def test_cold_sweep_is_one_batch_without_memo_reads(self):
        # F3 over the quick workloads: 3 x (4 kinds x 4 R + ideal once) = 51
        # distinct points (sparse@1x is the baseline), each requested once.
        runner.configure(workers=1, cache_enabled=False)
        exp.run_performance_sweep(ratios=[1.0, 0.5, 0.25, 0.125], ops_per_core=60)
        assert runner.counters.computed == 51
        assert runner.counters.memo_hits == 0
        assert runner.counters.disk_hits == 0

    def test_counters_summary_renders(self):
        exp.simulate("mix", tiny_config(), OPS, 1)
        text = runner.counters_summary()
        assert "hit rate" in text
        assert "compute time" in text
