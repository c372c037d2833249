"""``repro.obs`` — zero-cost observability: epochs, event traces, invariants.

Three orthogonal probes over one simulated system, all **off by default**:

* **Epoch sampler** (:mod:`repro.obs.epoch`) — every N operations,
  snapshot selected statistics counters (delta-encoded) plus live gauges
  (directory occupancy, stash bits, effective tracking) into a per-run
  time-series; export as JSONL or CSV.
* **Event tracer** (:mod:`repro.obs.events`) — a bounded ring buffer of
  typed coherence events (miss, grant, directory eviction, stash
  spill/discovery, invalidation, LLC eviction) emitted by the L1 and home
  controllers; export as Chrome-trace/Perfetto JSON
  (:mod:`repro.obs.export`) and open the run in a trace viewer.
* **Sampled invariant checking** — run the full
  :mod:`repro.coherence.invariants` suite every N operations from inside
  the simulator's run loop (CLI ``--check-invariants N``).

The null-probe contract: with everything off, :func:`attach` returns
``None`` and **touches nothing** — the controllers keep their ``_obs is
None`` fast test, the simulator's epoch threshold never fires, no counter
is added to the statistics tree, and the golden hot-path capture stays
bit-identical (``tests/integration/test_golden_hotpath.py`` enforces
this).  Even with probes *on*, the statistics tree is unchanged:
observability data lives beside the stats, never inside them, so an
observed run reports the exact numbers an unobserved run does
(``tests/obs/test_integration_obs.py`` proves it).

Usage::

    from repro.obs import ObsConfig, attach
    system = build_system(config)
    observer = attach(system, ObsConfig(epoch_interval=512,
                                        trace_capacity=65536))
    result = Simulator(system, observer=observer).run(trace)
    observer.write_all("myrun")   # myrun.epochs.jsonl/.csv, myrun.trace.json

See docs/OBSERVABILITY.md for the event schema and the overhead table.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .epoch import DEFAULT_EPOCH_KEYS, EpochSampler
from .events import (
    CAUSE_DIR_EVICT,
    CAUSE_LLC_EVICT,
    CAUSE_WRITE,
    EV_DIR_EVICT,
    EV_DISCOVERY,
    EV_GRANT,
    EV_INVAL,
    EV_LLC_EVICT,
    EV_MISS,
    EV_STASH_SPILL,
    EV_UPGRADE,
    EVENT_NAMES,
    EventRing,
    decode_args,
)
from .export import (
    chrome_trace,
    read_epochs_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_epochs_csv,
    write_epochs_jsonl,
)

__all__ = [
    "ObsConfig",
    "Observer",
    "attach",
    "EpochSampler",
    "EventRing",
    "DEFAULT_EPOCH_KEYS",
    "EVENT_NAMES",
    "decode_args",
    "chrome_trace",
    "write_chrome_trace",
    "write_epochs_jsonl",
    "write_epochs_csv",
    "read_epochs_jsonl",
    "validate_chrome_trace",
    "EV_MISS",
    "EV_GRANT",
    "EV_UPGRADE",
    "EV_DIR_EVICT",
    "EV_STASH_SPILL",
    "EV_DISCOVERY",
    "EV_INVAL",
    "EV_LLC_EVICT",
    "CAUSE_WRITE",
    "CAUSE_DIR_EVICT",
    "CAUSE_LLC_EVICT",
]

#: Default event-ring capacity when tracing is enabled without a size.
DEFAULT_TRACE_CAPACITY = 65_536


@dataclass(frozen=True)
class ObsConfig:
    """What to observe.  All-zero (the default) means observe nothing.

    Frozen and built from primitives so it crosses process boundaries —
    the sweep runner forwards one per :class:`~repro.analysis.runner.
    SweepPoint` to its worker processes.

    Attributes:
        epoch_interval: sample the epoch series every N operations
            (0 = off).
        trace_capacity: event-ring size; newest events win on overflow
            (0 = off).
        invariant_interval: run the full invariant suite every N
            operations inside the simulator loop (0 = off).
        epoch_keys: statistics keys the sampler snapshots; ``None`` uses
            :data:`~repro.obs.epoch.DEFAULT_EPOCH_KEYS`.
        out_prefix: where :meth:`Observer.write_all` (and the sweep
            runner) write exports: ``<prefix>.epochs.jsonl``,
            ``<prefix>.epochs.csv``, ``<prefix>.trace.json``.
    """

    epoch_interval: int = 0
    trace_capacity: int = 0
    invariant_interval: int = 0
    epoch_keys: Optional[Tuple[str, ...]] = None
    out_prefix: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("epoch_interval", "trace_capacity", "invariant_interval"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def enabled(self) -> bool:
        """Does this configuration observe anything at all?"""
        return bool(
            self.epoch_interval or self.trace_capacity or self.invariant_interval
        )


class Observer:
    """One attached observation session over one system.

    Holds the live probes (sampler, ring) plus the invariant cadence the
    simulator honors.  Construct via :func:`attach`, which also wires the
    event probe into the protocol controllers.
    """

    def __init__(self, system, config: ObsConfig) -> None:
        self.system = system
        self.config = config
        self.epoch_interval = config.epoch_interval
        self.invariant_interval = config.invariant_interval
        self.sampler: Optional[EpochSampler] = (
            EpochSampler(system, config.epoch_interval, config.epoch_keys)
            if config.epoch_interval
            else None
        )
        self.ring: Optional[EventRing] = (
            EventRing(config.trace_capacity) if config.trace_capacity else None
        )

    # -- simulator-facing ---------------------------------------------------

    def sample_epoch(self, op: int, clock: int) -> None:
        """Record one epoch (no-op when the sampler is off)."""
        if self.sampler is not None:
            self.sampler.sample(op, clock)

    # -- exports ------------------------------------------------------------

    def write_all(
        self,
        prefix: Optional[str] = None,
        meta: Optional[Dict] = None,
    ) -> List[Path]:
        """Write every enabled export under ``<prefix>.*``; returns paths.

        ``prefix`` falls back to ``config.out_prefix``; with neither set,
        nothing is written.
        """
        prefix = prefix if prefix is not None else self.config.out_prefix
        if not prefix:
            return []
        written: List[Path] = []
        if self.sampler is not None:
            written.append(
                write_epochs_jsonl(self.sampler, f"{prefix}.epochs.jsonl", meta)
            )
            written.append(write_epochs_csv(self.sampler, f"{prefix}.epochs.csv"))
        if self.ring is not None:
            written.append(write_chrome_trace(self.ring, f"{prefix}.trace.json", meta))
        return written

    def detach(self) -> None:
        """Unhook the event probe; the system reverts to the null probe."""
        system = self.system
        system.home._obs = None
        for controller in system.l1_controllers:
            controller._obs = None


def attach(system, config: ObsConfig) -> Optional[Observer]:
    """Attach observability to a built system; ``None`` when all-off.

    The ``None`` return *is* the null probe: nothing on the system is
    touched, so a disabled run is byte-identical — in results and in
    per-op cost — to a build that never imported this package.
    """
    if not config.enabled:
        return None
    observer = Observer(system, config)
    if observer.ring is not None:
        emit = observer.ring.append
        system.home._obs = emit
        for controller in system.l1_controllers:
            controller._obs = emit
    return observer
