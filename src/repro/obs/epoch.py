"""Epoch sampler: per-run time-series of selected statistics counters.

The end-of-run statistics tree answers *how much*; the epoch sampler
answers *when*.  Every ``interval`` operations the simulator calls
:meth:`EpochSampler.sample`, which snapshots a selected slice of the
flattened statistics tree plus a handful of live gauges (directory
occupancy, stash-bit population, effective tracking) into one epoch
record.

Counter fields are **delta-encoded**: each epoch stores only the change
since the previous epoch (zero deltas are omitted entirely), so a quiet
epoch costs a few bytes and the cumulative series is recoverable exactly
via :meth:`EpochSampler.series`.  Gauges are instantaneous values and are
stored absolute.

Epoch records are plain dicts ready for JSONL/CSV export
(:mod:`repro.obs.export`)::

    {"op": 4096, "clock": 10234,
     "d": {"system.protocol.l1_misses": 312.0, ...},
     "g": {"dir_occupancy": 504.0, "stash_bits": 122.0, ...}}

Sampling happens off the hot path (every N thousand ops) so it favors
clarity over speed; the only hot-path cost of an *enabled* sampler is the
simulator's epoch-threshold compare.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Counters sampled by default: the keys behind the evaluation's headline
#: metrics (miss rates, directory behaviour, invalidations, NoC traffic).
DEFAULT_EPOCH_KEYS: Tuple[str, ...] = (
    "system.protocol.accesses",
    "system.protocol.l1_misses",
    "system.protocol.coverage_misses",
    "system.protocol.upgrade_misses",
    "system.protocol.llc_misses",
    "system.protocol.latency_total",
    "system.protocol.dir_induced_invalidations",
    "system.protocol.dir_eviction_inval_msgs",
    "system.protocol.write_inval_msgs",
    "system.directory.allocations",
    "system.directory.evictions",
    "system.directory.evictions_invalidate",
    "system.directory.evictions_stash",
    "system.discovery.broadcasts",
    "system.discovery.false_discoveries",
    "system.noc.msgs.total",
    "system.noc.flit_hops.total",
)


class EpochSampler:
    """Samples one system's statistics into delta-encoded epoch records."""

    def __init__(
        self,
        system,
        interval: int,
        keys: Optional[Sequence[str]] = None,
    ) -> None:
        if interval < 1:
            raise ValueError(f"epoch interval must be >= 1, got {interval}")
        self.system = system
        self.interval = interval
        #: None means "every counter in the tree" (keys can appear lazily).
        self.keys: Optional[Tuple[str, ...]] = (
            tuple(keys) if keys is not None else DEFAULT_EPOCH_KEYS
        )
        self.epochs: List[Dict[str, object]] = []
        self._prev: Dict[str, float] = {}

    # -- sampling -----------------------------------------------------------

    def _selected(self) -> Dict[str, float]:
        flat = self.system.flat_stats()
        if self.keys is None:
            return flat
        return {key: flat[key] for key in self.keys if key in flat}

    def _gauges(self) -> Dict[str, float]:
        system = self.system
        gauges: Dict[str, float] = {}
        for name, value in system.directory.obs_gauges().items():
            gauges[f"dir_{name}"] = float(value)
        gauges["stash_bits"] = float(system.llc.stash_bit_count())
        gauges["effective_tracking"] = float(system.effective_tracking())
        return gauges

    def sample(self, op: int, clock: int) -> Dict[str, object]:
        """Record one epoch at operation ``op`` / requester clock ``clock``."""
        current = self._selected()
        prev = self._prev
        deltas = {}
        for key, value in current.items():
            delta = value - prev.get(key, 0.0)
            if delta:
                deltas[key] = delta
        record: Dict[str, object] = {
            "op": op,
            "clock": clock,
            "d": deltas,
            "g": self._gauges(),
        }
        self.epochs.append(record)
        self._prev = current
        return record

    # -- reconstruction -----------------------------------------------------

    def series(self, key: str) -> List[float]:
        """Cumulative per-epoch values of one counter (deltas re-summed)."""
        out: List[float] = []
        running = 0.0
        for epoch in self.epochs:
            running += epoch["d"].get(key, 0.0)  # type: ignore[union-attr]
            out.append(running)
        return out

    def delta_series(self, key: str) -> List[float]:
        """Per-epoch deltas of one counter (the rate-over-time view)."""
        return [epoch["d"].get(key, 0.0) for epoch in self.epochs]  # type: ignore[union-attr]

    def gauge_series(self, name: str) -> List[float]:
        """Per-epoch values of one gauge (absolute, not delta-encoded)."""
        return [epoch["g"].get(name, 0.0) for epoch in self.epochs]  # type: ignore[union-attr]

    def latest_gauges(self) -> Dict[str, float]:
        """The most recent epoch's gauges plus its op/clock position.

        The live-metrics view of an observed run: the campaign service
        surfaces this dict as Prometheus gauges
        (``repro_obs_gauge{gauge="dir_occupancy", ...}``), so ``/metrics``
        tracks directory occupancy, stash-bit population and effective
        tracking of whatever observed point finished last.  Empty before
        the first sample.
        """
        if not self.epochs:
            return {}
        latest = self.epochs[-1]
        gauges = dict(latest["g"])  # type: ignore[arg-type]
        gauges["epoch_op"] = float(latest["op"])  # type: ignore[arg-type]
        gauges["epoch_clock"] = float(latest["clock"])  # type: ignore[arg-type]
        return gauges

    def field_names(self) -> Tuple[List[str], List[str]]:
        """(counter keys, gauge names) appearing anywhere in the series."""
        counter_keys: Dict[str, None] = {}
        gauge_names: Dict[str, None] = {}
        for epoch in self.epochs:
            for key in epoch["d"]:  # type: ignore[union-attr]
                counter_keys.setdefault(key)
            for name in epoch["g"]:  # type: ignore[union-attr]
                gauge_names.setdefault(name)
        return list(counter_keys), list(gauge_names)
