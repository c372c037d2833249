"""The name perfbench's weak-scaling run builds: the vector engine.

The bank-parallel run-length batching engine that lived here is deleted.
On perfbench's own 1024-core shape (weakscale-like, stash@1/8, 1024 x
2000 ops) it lost to :class:`~repro.sim.vector.VectorEngine` on every
seed, because at that many cores its bulk commits almost never fire
(docs/PERFORMANCE.md).  ``perfbench/worker.py`` still constructs
``ParallelEngine(config, workers="auto", speculate=True)`` and
``perfbench/run.py`` reads its ``spec_stats`` and ``heap_stats``, so this
class keeps that call working until the benchmark's own change routes the
run through :func:`repro.sim.simulator.run_trace` (ROADMAP item 1); then
the module goes.
"""

from __future__ import annotations

from typing import Union

from ..common.config import SystemConfig
from .vector import VectorEngine


class ParallelEngine(VectorEngine):
    """:class:`~repro.sim.vector.VectorEngine` under perfbench's name.

    ``workers`` and ``speculate`` are accepted and ignored.
    ``spec_stats`` holds the five counters perfbench/run.py reads and
    ``heap_stats`` its ``neheap_max``, all zero.  Results are the vector
    engine's, ``result.engine == "vector"`` included.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        workers: Union[int, str] = 0,
        speculate: bool = False,
    ) -> None:
        super().__init__(config)
        self.spec_stats = dict.fromkeys(
            ("chunks", "ops", "squashes", "squashed_ops", "flushes"), 0
        )
        self.heap_stats = {"neheap_max": 0}
