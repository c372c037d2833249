"""Pluggable dispatch backends for sweep-point execution.

The sweep engine (:mod:`repro.analysis.runner`) and the campaign service
(:mod:`repro.service`) both execute the same unit of work: one
:class:`~repro.analysis.runner.SweepPoint` through
:func:`~repro.analysis.runner.compute_point`, one future per point.  This
module is the seam between "what to run" and "where to run it":

* :class:`DispatchBackend` — the ABC.  ``submit(fn, item)`` returns a
  :class:`concurrent.futures.Future` of ``fn(item)``; callers consume
  completions in any order (idle workers pull the next queued item).
* :class:`InProcessBackend` — a thread pool.  GIL-bound for pure-Python
  simulation, but work completes concurrently with the caller, which is
  what the asyncio campaign service needs when it runs without process
  spawn, and what tests substitute for the pool when their work function
  cannot be pickled.
* :class:`ProcessPoolBackend` — a :class:`ProcessPoolExecutor`; the true
  parallel path.  ``shutdown(cancel_pending=True)`` cancels every queued
  item **and terminates running workers**, so a blocked or long-running
  worker can never wedge a Ctrl-C.

:func:`run_each` is the synchronous driver the runner uses: submit every
item, fold completions through a callback as they land, and on
``KeyboardInterrupt``/``SystemExit`` cancel + drain the backend before
re-raising — completed points keep their (atomically written) cache
entries, pending ones simply never run.  :func:`graceful_sigterm` routes
SIGTERM through the same path so ``kill <pid>`` behaves like Ctrl-C.
"""

from __future__ import annotations

import signal
import threading
from abc import ABC, abstractmethod
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "BACKENDS",
    "DispatchBackend",
    "InProcessBackend",
    "ProcessPoolBackend",
    "graceful_sigterm",
    "make_backend",
    "run_each",
]


class DispatchBackend(ABC):
    """Executes sweep work items; the one seam runner and service share.

    A backend is cheap to construct; resources (threads, processes) are
    created lazily on first ``submit`` (or explicitly via :meth:`start`)
    and released by :meth:`shutdown`.  ``fn`` must be picklable for the
    process-pool backend — the runner passes its top-level point worker.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._in_flight = 0
        self._lock = threading.Lock()

    def start(self) -> None:
        """Eagerly create the execution resources (optional)."""

    @abstractmethod
    def submit(self, fn: Callable, item: object) -> Future:
        """Schedule ``fn(item)``; returns a Future of its return value."""

    def shutdown(self, cancel_pending: bool = False) -> None:
        """Release resources; ``cancel_pending`` also drops queued items."""

    # -- introspection (metrics) -------------------------------------------

    @property
    def in_flight(self) -> int:
        """Items submitted but not yet completed."""
        return self._in_flight

    @property
    def utilization(self) -> float:
        """Fraction of workers currently busy (in-flight / workers, capped)."""
        return min(1.0, self._in_flight / self.workers) if self.workers else 0.0

    def describe(self) -> Dict[str, object]:
        """JSON-able backend description (service status endpoint)."""
        return {"backend": self.name, "workers": self.workers}

    # -- shared bookkeeping -------------------------------------------------

    def _track(self, future: Future) -> Future:
        with self._lock:
            self._in_flight += 1

        def _done(_):
            with self._lock:
                self._in_flight -= 1

        future.add_done_callback(_done)
        return future


class InProcessBackend(DispatchBackend):
    """Thread-pool backend: concurrent completion without process spawn.

    Simulation is pure Python, so threads do not add CPU parallelism; the
    value is asynchrony (the campaign service's event loop keeps serving
    while points run) and shared memory (observed points can hand their
    live :class:`~repro.obs.Observer` back to the caller).
    """

    name = "inproc"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-dispatch"
            )

    def submit(self, fn: Callable, item: object) -> Future:
        self.start()
        assert self._pool is not None
        return self._track(self._pool.submit(fn, item))

    def shutdown(self, cancel_pending: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not cancel_pending, cancel_futures=cancel_pending)


class ProcessPoolBackend(DispatchBackend):
    """Process-pool backend: the real parallel path.

    ``shutdown(cancel_pending=True)`` is the graceful-interrupt discipline:
    queued items are cancelled, then every live worker process is
    terminated — a worker blocked in a long simulation (or wedged outright)
    cannot stall the shutdown.  Results already handed back through
    completed futures are unaffected.
    """

    name = "pool"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)

    def submit(self, fn: Callable, item: object) -> Future:
        self.start()
        assert self._pool is not None
        return self._track(self._pool.submit(fn, item))

    def shutdown(self, cancel_pending: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if not cancel_pending:
            pool.shutdown(wait=True)
            return
        # Snapshot the worker table first: executor.shutdown() nulls
        # ``_processes`` even with wait=False.
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        # Drain: kill live workers so a blocked simulation cannot hold the
        # interpreter (the executor would otherwise join them at exit).
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
        for process in list(processes.values()):
            try:
                process.join(timeout=5.0)
            except (OSError, ValueError, AssertionError):
                pass


#: Backend registry: name -> class (CLI ``repro serve --backend``).
BACKENDS = {
    InProcessBackend.name: InProcessBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def make_backend(name: str, workers: int = 1) -> DispatchBackend:
    """Instantiate a registered backend by name."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown dispatch backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    return cls(workers)


@contextmanager
def graceful_sigterm():
    """Route SIGTERM to ``KeyboardInterrupt`` for the enclosed block.

    Only effective in the main thread of the main interpreter (signal
    handlers cannot be installed elsewhere); a no-op otherwise.  The
    previous handler is restored on exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    try:
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def run_each(
    backend: DispatchBackend,
    fn: Callable,
    items: Sequence,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List[object]:
    """Submit ``fn(item)`` for every item and fold completions as they land.

    Returns outputs in input order (``outputs[i]`` for ``items[i]``);
    ``on_result(index, output)`` fires in *completion* order, which is what
    incremental cache writes hang off.  On
    ``KeyboardInterrupt``/``SystemExit`` the pending items are cancelled,
    the backend is drained (``shutdown(cancel_pending=True)``) and the
    interrupt re-raised — work already completed stays completed.

    An item that raises any other exception propagates after the loop is
    abandoned; callers treat that as "this dispatch strategy failed"
    (the runner falls back to its serial loop).
    """
    futures: Dict[Future, int] = {}
    outputs: List[object] = [None] * len(items)
    try:
        for index, item in enumerate(items):
            futures[backend.submit(fn, item)] = index
        for future in as_completed(futures):
            index = futures[future]
            outputs[index] = future.result()
            if on_result is not None:
                on_result(index, outputs[index])
    except (KeyboardInterrupt, SystemExit):
        for future in futures:
            future.cancel()
        backend.shutdown(cancel_pending=True)
        raise
    return outputs
