"""The NoC counts two facts per message and derives the rest, on every run.

``Network.send`` and ``broadcast`` update only a class's ``msgs`` and
``hops`` cells; ``flit_hops.<class>``, ``msgs.total`` and
``flit_hops.total`` are derived counters of the NoC group.  These tests
check the derivation through every reader (the flattened tree, ``get``,
the traffic meter and the epoch sampler) on all five evaluation
organizations, under MESI and MOESI, with and without a warm-up reset.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.common.stats import DerivedCounter, StatCounter
from repro.noc.traffic import MessageClass, flits_of
from repro.obs import ObsConfig, attach
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads.suite import build_workload

KINDS = (
    DirectoryKind.SPARSE,
    DirectoryKind.CUCKOO,
    DirectoryKind.SCD,
    DirectoryKind.IDEAL,
    DirectoryKind.STASH,
)
CORES = 16
OPS = 120
WARMUP = 960
PREFIX = "system.noc."


def _noc(stats: dict) -> dict:
    return {k[len(PREFIX):]: v for k, v in stats.items() if k.startswith(PREFIX)}


def _classes(noc: dict) -> list:
    return [k[len("msgs."):] for k in noc if k.startswith("msgs.") and k != "msgs.total"]


def _check_derivation(noc: dict) -> list:
    classes = _classes(noc)
    assert classes
    for name in classes:
        assert noc[f"flit_hops.{name}"] == (
            noc[f"hops.{name}"] * flits_of(MessageClass(name))
        ), name
    assert noc["msgs.total"] == sum(noc[f"msgs.{c}"] for c in classes)
    assert noc["flit_hops.total"] == sum(noc[f"flit_hops.{c}"] for c in classes)
    expected = {
        f"{field}.{c}" for field in ("msgs", "hops", "flit_hops") for c in classes
    } | {"msgs.total", "flit_hops.total"}
    assert set(noc) == expected
    return classes


def _run(kind, moesi, warmup, clean_notification=False, obs=None, ops=OPS):
    config = make_config(
        kind, ratio=0.125, moesi=moesi, clean_notification=clean_notification
    )
    trace = build_workload("mix", CORES, ops, seed=3, block_bytes=config.block_bytes)
    system = build_system(config)
    observer = attach(system, obs) if obs is not None else None
    simulator = Simulator(system, warmup_ops=warmup, observer=observer)
    return system, observer, simulator.run(trace)


@pytest.mark.parametrize("warmup", [0, WARMUP], ids=["cold", "warm"])
@pytest.mark.parametrize("moesi", [False, True], ids=["mesi", "moesi"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_flit_hops_and_totals_derive_from_msgs_and_hops(kind, moesi, warmup):
    system, _, result = _run(kind, moesi, warmup)
    classes = _check_derivation(_noc(result.stats))
    group = system.stats.child("noc")
    meter = system.network.traffic
    for name in classes:
        cls = MessageClass(name)
        assert meter.messages(cls) == group.get(f"msgs.{name}")
        assert meter.flit_hops(cls) == group.get(f"flit_hops.{name}")
        assert isinstance(group._cells[f"msgs.{name}"], StatCounter)
        assert isinstance(group._cells[f"hops.{name}"], StatCounter)
        assert isinstance(group._cells[f"flit_hops.{name}"], DerivedCounter)
    assert meter.total_messages() == result.stats[PREFIX + "msgs.total"]
    assert meter.total_flit_hops() == result.stats[PREFIX + "flit_hops.total"]


def test_every_message_class_is_derived():
    """Stash, with and without clean-eviction notices, puts all twelve
    classes on the NoC (L1 writebacks need a longer trace)."""
    seen = set()
    for clean_notification in (False, True):
        _, _, result = _run(
            DirectoryKind.STASH, False, 0,
            clean_notification=clean_notification, ops=4 * OPS,
        )
        seen.update(_check_derivation(_noc(result.stats)))
    assert seen == {cls.value for cls in MessageClass}


def test_epoch_sampler_reads_the_derived_totals():
    keys = tuple(
        PREFIX + name
        for name in ("msgs.total", "flit_hops.total", "hops.request",
                     "flit_hops.request", "hops.data_response",
                     "flit_hops.data_response")
    )
    obs = ObsConfig(epoch_interval=97, epoch_keys=keys)
    _, observer, result = _run(DirectoryKind.STASH, False, 0, obs=obs)
    sampler = observer.sampler
    for key in keys:
        assert sampler.series(key)[-1] == result.stats[key]
    for name in ("request", "data_response"):
        flits = flits_of(MessageClass(name))
        for hops, flit_hops in zip(
            sampler.delta_series(PREFIX + f"hops.{name}"),
            sampler.delta_series(PREFIX + f"flit_hops.{name}"),
        ):
            assert flit_hops == hops * flits
