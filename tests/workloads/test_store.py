"""The in-process trace memo of :mod:`repro.workloads.store`.

A lookup generates a trace once per (workload, size, seed) and serves
every later lookup from the memo, also when threads race for one key.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.workloads import store

ARGS = dict(workload="mix", num_cores=4, ops_per_core=120, seed=3, block_bytes=64)


def get(**overrides):
    kwargs = dict(ARGS)
    kwargs.update(overrides)
    return store.get_packed_trace(**kwargs)


def lookups_together(monkeypatch, threads):
    """``threads`` lookups of one key, started together while the build is
    slowed by 50 ms; returns what each got."""
    real_build = store.build_workload

    def _slow_build(*args, **kwargs):
        time.sleep(0.05)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(store, "build_workload", _slow_build)
    all_ready = threading.Barrier(threads)

    def _lookup(_):
        all_ready.wait(timeout=30)
        return get()

    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(_lookup, range(threads), timeout=60))


@pytest.fixture(autouse=True)
def fresh_store_state():
    """Cold trace memo and zeroed counters around every test."""
    store.clear_memo()
    store.counters.reset()
    yield
    store.clear_memo()
    store.counters.reset()


class TestLayering:
    def test_generated_once_then_memo(self):
        first = get()
        second = get()
        assert second is first
        assert store.counters.generated == 1
        assert store.counters.memo_hits == 1
        assert store.counters.lookups == 2

    def test_clear_memo_regenerates(self):
        first = get()
        store.clear_memo()
        second = get()
        assert second is not first
        assert second == first
        assert store.counters.generated == 2
        assert store.counters.memo_hits == 0

    def test_other_key_generates(self):
        get()
        get(seed=9)
        assert store.counters.generated == 2

    def test_threads_sharing_the_memo_build_once(self, monkeypatch):
        first, second = lookups_together(monkeypatch, threads=2)
        assert first is second
        assert store.counters.generated == 1
        assert store.counters.memo_hits == 1

    def test_many_threads_switching_often_build_once(self, monkeypatch):
        """More threads than cores, switching every microsecond."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            traces = lookups_together(monkeypatch, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert all(trace is traces[0] for trace in traces)
        assert store.counters.generated == 1

    def test_disk_disabled_never_spools(self, tmp_path, monkeypatch):
        # The benchmark harness still passes the keyword; it is ignored.
        monkeypatch.chdir(tmp_path)
        first = get(disk_enabled=False)
        assert get(disk_enabled=True) is first
        store.clear_memo()
        get(disk_enabled=False)
        assert store.counters.generated == 2
        assert not list(tmp_path.iterdir())
