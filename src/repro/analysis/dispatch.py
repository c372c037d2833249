"""Executors for sweep points, and graceful interruption.

The sweep engine (:mod:`repro.analysis.runner`) and the campaign service
(:mod:`repro.service`) both execute the same unit of work: one
:class:`~repro.analysis.runner.SweepPoint` through
:func:`~repro.analysis.runner.compute_point`, one future per point, on a
stdlib :class:`concurrent.futures.Executor` that :func:`make_executor`
builds by name (``repro serve --backend``):

* ``inproc`` — a :class:`ThreadPoolExecutor`.  GIL-bound for pure-Python
  simulation, but work completes concurrently with the caller, which is
  what the asyncio campaign service needs when it runs without process
  spawn, and what tests substitute for the pool when their work function
  cannot be pickled.
* ``pool`` — a :class:`ProcessPoolExecutor`; the true parallel path.

:func:`drain` is the hard stop: it cancels every queued item **and
terminates a process pool's workers**, so a blocked or long-running
worker can never wedge a Ctrl-C.

:func:`run_each` is the synchronous driver the runner uses: submit every
item, fold completions through a callback as they land, and on
``KeyboardInterrupt``/``SystemExit`` cancel and drain the executor before
re-raising — completed points keep their (atomically written) cache
entries, pending ones simply never run.  :func:`graceful_sigterm` routes
SIGTERM through the same path so ``kill <pid>`` behaves like Ctrl-C.
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "EXECUTORS",
    "drain",
    "graceful_sigterm",
    "make_executor",
    "run_each",
]

#: Executor registry: name -> class (CLI ``repro serve --backend``).
EXECUTORS = {"inproc": ThreadPoolExecutor, "pool": ProcessPoolExecutor}


def make_executor(name: str, workers: int) -> Executor:
    """A registered executor with ``workers`` workers (at least one)."""
    try:
        cls = EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown dispatch backend {name!r}; known: {sorted(EXECUTORS)}"
        ) from None
    return cls(max_workers=max(1, int(workers)))


def drain(executor: Executor) -> None:
    """Stop ``executor`` now: cancel queued items, kill a pool's workers.

    A process pool's workers are terminated and joined, so a simulation
    that is blocked (or wedged outright) cannot stall the stop.  A thread
    pool's running items cannot be killed and are not waited for.
    Results already handed back through completed futures are unaffected.
    """
    # Snapshot the worker table first: shutdown() nulls ``_processes``
    # even with wait=False.
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):
            pass


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
    executor: Executor,
    fn: Callable,
    items: Sequence,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List[object]:
    """Submit ``fn(item)`` for every item and fold completions as they land.

    Returns outputs in input order (``outputs[i]`` for ``items[i]``);
    ``on_result(index, output)`` fires in *completion* order, which is what
    incremental cache writes hang off.  On
    ``KeyboardInterrupt``/``SystemExit`` the pending items are cancelled,
    the executor is drained (:func:`drain`) and the interrupt re-raised —
    work already completed stays completed.

    An item that raises any other exception propagates after the loop is
    abandoned; callers treat that as "this dispatch strategy failed"
    (the runner falls back to its serial loop).
    """
    futures: Dict[Future, int] = {}
    outputs: List[object] = [None] * len(items)
    try:
        for index, item in enumerate(items):
            futures[executor.submit(fn, item)] = index
        for future in as_completed(futures):
            index = futures[future]
            outputs[index] = future.result()
            if on_result is not None:
                on_result(index, outputs[index])
    except (KeyboardInterrupt, SystemExit):
        for future in futures:
            future.cancel()
        drain(executor)
        raise
    return outputs
