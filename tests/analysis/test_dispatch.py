"""Tests for the sweep-point executors and graceful interruption.

A ``KeyboardInterrupt`` / SIGTERM during a parallel sweep cancels pending
futures, drains the pool — even with a *blocked* worker — and leaves the
result cache consistent (every entry loads, no temp files).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.analysis import dispatch, runner
from repro.workloads import store as trace_store
from tests.conftest import tiny_config

OPS = 150


def tiny_point(seed: int = 1, workload: str = "blackscholes-like"):
    return runner.SweepPoint(
        workload, tiny_config(check_invariants=False), OPS, seed
    )


@pytest.fixture(autouse=True)
def fresh_state():
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


def _double_batch(batch):
    return [item * 2 for item in batch]


def _sleep_batch(batch):
    time.sleep(300)
    return batch


class TestMakeExecutor:
    def test_known_names(self):
        for name, cls in (("inproc", ThreadPoolExecutor),
                          ("pool", ProcessPoolExecutor)):
            with dispatch.make_executor(name, 2) as executor:
                assert type(executor) is cls

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dispatch backend"):
            dispatch.make_executor("carrier-pigeon", 1)

    def test_at_least_one_worker(self):
        with dispatch.make_executor("inproc", 0) as executor:
            assert executor._max_workers == 1


class TestDrain:
    def test_blocked_worker_cannot_wedge_drain(self):
        """A worker stuck in a 300s sleep must not stall ``drain``."""
        pool = dispatch.make_executor("pool", 1)
        blocked = pool.submit(_sleep_batch, [1])
        queued = pool.submit(_double_batch, [2])
        # Give the pool a moment to hand the blocked batch to the worker.
        deadline = time.monotonic() + 30
        while not blocked.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        start = time.monotonic()
        dispatch.drain(pool)
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"drain took {elapsed:.1f}s with a blocked worker"
        # Neither batch may ever produce a result: each future is still
        # pending (stuck in the call queue when the worker died), cancelled,
        # or failed (BrokenProcessPool) — but never successful.
        for future in (queued, blocked):
            if future.done() and not future.cancelled():
                assert future.exception(timeout=5) is not None
        # A fresh pool still works after the hard drain.
        with dispatch.make_executor("pool", 1) as replacement:
            assert replacement.submit(_double_batch, [3]).result(timeout=60) == [6]

    def test_thread_pool_drain_cancels_queued_without_waiting(self):
        started, release = threading.Event(), threading.Event()

        def _hold():
            started.set()
            return release.wait(timeout=30)

        executor = dispatch.make_executor("inproc", 1)
        running = executor.submit(_hold)
        queued = executor.submit(_double_batch, [1])
        assert started.wait(timeout=30)
        start = time.monotonic()
        dispatch.drain(executor)
        assert time.monotonic() - start < 5
        assert queued.cancelled()
        release.set()
        assert running.result(timeout=30) is True

    def test_drain_idempotent(self):
        for name in ("inproc", "pool"):
            executor = dispatch.make_executor(name, 1)
            assert executor.submit(_double_batch, [1]).result(timeout=60) == [2]
            dispatch.drain(executor)
            dispatch.drain(executor)
            with pytest.raises(RuntimeError):
                executor.submit(_double_batch, [1])


class TestRunBatches:
    @pytest.mark.parametrize("name", ["inproc", "pool"])
    def test_batches_complete(self, name):
        with dispatch.make_executor(name, 2) as executor:
            outputs = dispatch.run_each(
                executor, _double_batch, [[i] for i in range(6)]
            )
        assert outputs == [[0], [2], [4], [6], [8], [10]]

    def test_outputs_in_input_order(self):
        with ThreadPoolExecutor(2) as executor:
            outputs = dispatch.run_each(
                executor, _double_batch, [[3], [1], [2]]
            )
        assert outputs == [[6], [2], [4]]

    def test_on_batch_sees_every_completion(self):
        seen = {}
        with ThreadPoolExecutor(2) as executor:
            dispatch.run_each(
                executor,
                _double_batch,
                [[i] for i in range(5)],
                on_result=lambda index, out: seen.__setitem__(index, out),
            )
        assert seen == {0: [0], 1: [2], 2: [4], 3: [6], 4: [8]}

    def test_interrupt_cancels_and_reraises(self):
        gate = threading.Event()

        def _interrupt_second(batch):
            if batch == ["bad"]:
                gate.wait(timeout=30)
                raise KeyboardInterrupt
            gate.set()
            return batch

        executor = ThreadPoolExecutor(2)
        with pytest.raises(KeyboardInterrupt):
            dispatch.run_each(
                executor, _interrupt_second, [["good"], ["bad"]]
            )
        # The executor was drained by the interrupt path.
        with pytest.raises(RuntimeError):
            executor.submit(_double_batch, [1])


class TestGracefulSigterm:
    def test_sigterm_becomes_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with dispatch.graceful_sigterm():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # interrupted by the handler

    def test_previous_handler_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with dispatch.graceful_sigterm():
            assert signal.getsignal(signal.SIGTERM) is dispatch._raise_interrupt
        assert signal.getsignal(signal.SIGTERM) is before


class TestRunnerGracefulShutdown:
    """Interrupting a parallel sweep keeps the cache consistent."""

    def test_interrupt_keeps_finished_points_and_clean_cache(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        points = [tiny_point(seed=s) for s in (1, 2, 3, 4)]
        real_compute_point = runner.compute_point
        calls = []
        lock = threading.Lock()

        def _wrapped(point):
            with lock:
                calls.append(point)
                first = len(calls) == 1
            if first:
                return real_compute_point(point)
            # Interrupt only once the first point's result has actually
            # been folded into the disk cache, so "finished work is kept"
            # is deterministic rather than a completion-order race.
            deadline = time.monotonic() + 30
            while not list(cache_dir.glob("*.json")):
                if time.monotonic() >= deadline:  # pragma: no cover
                    break
                time.sleep(0.005)
            raise KeyboardInterrupt

        # A closure cannot be pickled into a process pool: run on threads.
        monkeypatch.setattr(runner, "compute_point", _wrapped)
        monkeypatch.setitem(dispatch.EXECUTORS, "pool", ThreadPoolExecutor)
        with pytest.raises(KeyboardInterrupt):
            runner.run_points(
                points, workers=2, cache_dir=cache_dir, cache_enabled=True
            )

        # Cache is consistent: no temp droppings, every entry loads.
        entries = list(cache_dir.glob("*.json"))
        assert not list(cache_dir.glob("*.tmp.*"))
        disk = runner.DiskCache(cache_dir)
        loaded = [disk.load(path.stem) for path in entries]
        assert all(result is not None for result in loaded)
        # The point that completed before the interrupt was kept.
        assert len(entries) >= 1

        # Resuming the sweep serves the finished points from disk.
        monkeypatch.setattr(runner, "compute_point", real_compute_point)
        runner.clear_memo()
        runner.counters.reset()
        results = runner.run_points(
            points, workers=1, cache_dir=cache_dir, cache_enabled=True
        )
        assert len(results) == 4 and all(r is not None for r in results)
        assert runner.counters.disk_hits >= len(entries)

    def test_sweep_results_identical_across_backends(self, tmp_path, monkeypatch):
        points = [tiny_point(seed=s) for s in (1, 2)]
        serial = runner.run_points(points, workers=1, cache_enabled=False)
        for executor in (ProcessPoolExecutor, ThreadPoolExecutor):
            monkeypatch.setitem(dispatch.EXECUTORS, "pool", executor)
            runner.clear_memo()
            got = runner.run_points(points, workers=2, cache_enabled=False)
            assert got == serial, f"{executor.__name__} diverged"
