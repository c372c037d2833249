"""Tests for the pluggable dispatch backends and graceful interruption.

A ``KeyboardInterrupt`` / SIGTERM during a parallel sweep cancels pending
futures, drains the pool — even with a *blocked* worker — and leaves the
result cache consistent (every entry loads, no temp files).
"""

from __future__ import annotations

import os
import signal
import threading
import time

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


class TestInProcessBackend:
    def test_batches_complete(self):
        backend = dispatch.InProcessBackend(workers=2)
        try:
            futures = [backend.submit(_double_batch, [i]) for i in range(6)]
            assert [f.result(timeout=30) for f in futures] == [
                [0], [2], [4], [6], [8], [10]
            ]
        finally:
            backend.shutdown()

    def test_in_flight_returns_to_zero(self):
        backend = dispatch.InProcessBackend(workers=2)
        try:
            futures = [backend.submit(_double_batch, [i]) for i in range(4)]
            for future in futures:
                future.result(timeout=30)
            deadline = time.monotonic() + 5
            while backend.in_flight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert backend.in_flight == 0
            assert backend.utilization == 0.0
        finally:
            backend.shutdown()

    def test_shutdown_idempotent(self):
        backend = dispatch.InProcessBackend(workers=1)
        backend.submit(_double_batch, [1]).result(timeout=30)
        backend.shutdown()
        backend.shutdown()


class TestProcessPoolBackend:
    def test_batches_complete(self):
        backend = dispatch.ProcessPoolBackend(workers=1)
        try:
            future = backend.submit(_double_batch, [1, 2])
            assert future.result(timeout=60) == [2, 4]
        finally:
            backend.shutdown()

    def test_blocked_worker_cannot_wedge_shutdown(self):
        """The satellite regression: a worker stuck in a 300s sleep must
        not stall ``shutdown(cancel_pending=True)``."""
        backend = dispatch.ProcessPoolBackend(workers=1)
        blocked = backend.submit(_sleep_batch, [1])
        queued = backend.submit(_double_batch, [2])
        # Give the pool a moment to hand the blocked batch to the worker.
        deadline = time.monotonic() + 30
        while not blocked.running() and time.monotonic() < deadline:
            time.sleep(0.01)
        start = time.monotonic()
        backend.shutdown(cancel_pending=True)
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"shutdown took {elapsed:.1f}s with a blocked worker"
        # Neither batch may ever produce a result: each future is still
        # pending (stuck in the call queue when the worker died), cancelled,
        # or failed (BrokenProcessPool) — but never successful.
        for future in (queued, blocked):
            if future.done() and not future.cancelled():
                assert future.exception(timeout=5) is not None
        # A fresh backend still works after the hard drain.
        replacement = dispatch.ProcessPoolBackend(workers=1)
        try:
            assert replacement.submit(_double_batch, [3]).result(timeout=60) == [6]
        finally:
            replacement.shutdown()


class TestMakeBackend:
    def test_known_names(self):
        for name in ("inproc", "pool"):
            backend = dispatch.make_backend(name, 2)
            assert backend.name == name
            backend.shutdown()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dispatch backend"):
            dispatch.make_backend("carrier-pigeon")

    def test_describe(self):
        backend = dispatch.make_backend("inproc", 3)
        assert backend.describe() == {"backend": "inproc", "workers": 3}
        backend.shutdown()


class TestRunBatches:
    def test_outputs_in_input_order(self):
        backend = dispatch.InProcessBackend(workers=2)
        try:
            outputs = dispatch.run_each(
                backend, _double_batch, [[3], [1], [2]]
            )
            assert outputs == [[6], [2], [4]]
        finally:
            backend.shutdown()

    def test_on_batch_sees_every_completion(self):
        seen = {}
        backend = dispatch.InProcessBackend(workers=2)
        try:
            dispatch.run_each(
                backend,
                _double_batch,
                [[i] for i in range(5)],
                on_result=lambda index, out: seen.__setitem__(index, out),
            )
        finally:
            backend.shutdown()
        assert seen == {0: [0], 1: [2], 2: [4], 3: [6], 4: [8]}

    def test_interrupt_cancels_and_reraises(self):
        gate = threading.Event()

        def _interrupt_second(batch):
            if batch == ["bad"]:
                gate.wait(timeout=30)
                raise KeyboardInterrupt
            gate.set()
            return batch

        backend = dispatch.InProcessBackend(workers=2)
        with pytest.raises(KeyboardInterrupt):
            dispatch.run_each(
                backend, _interrupt_second, [["good"], ["bad"]]
            )
        # The backend was drained by the interrupt path.
        assert backend._pool is None


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
        monkeypatch.setattr(dispatch, "ProcessPoolBackend", dispatch.InProcessBackend)
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
        for backend in (dispatch.ProcessPoolBackend, dispatch.InProcessBackend):
            monkeypatch.setattr(dispatch, "ProcessPoolBackend", backend)
            runner.clear_memo()
            got = runner.run_points(points, workers=2, cache_enabled=False)
            assert got == serial, f"backend {backend.name} diverged"
