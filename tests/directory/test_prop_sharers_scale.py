"""Property tests for sharer representations at scaling-regime core counts.

The weak-scaling benchmark pushes configurations to 1024 cores, where
the sharer format is what decides whether directory state stays affordable
(the paper's §6 scaling argument, and SCD's two-level encoding for the
hierarchical format).  These tests pin, for N from 16 to 1024 and for
deliberately awkward non-power-of-two N (tail groups / tail clusters):

* the protocol-soundness invariant — ``targets()`` is always a superset
  of the live (added-and-not-removed) cores — for every format;
* ``targets()`` never names a core outside ``[0, N)`` (the clamping bug
  class the fuzzer's ``coarse-unclamped`` fault injects on purpose);
* HierarchicalRep's local-overflow semantics: an overflowed cluster
  broadcasts cluster-wide and is sticky, while *other* clusters keep
  exact pointers;
* the centralized constructor validation (every format rejects bad
  parameters with :class:`~repro.common.errors.ConfigError`);
* the storage model: hierarchical per-entry bits grow as O(sqrt(N) *
  log N) — strictly sublinear — while the full bit-vector grows as N.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SharerFormat
from repro.common.errors import ConfigError
from repro.directory.sharers import (
    CoarseVector,
    FullBitVector,
    HierarchicalRep,
    LimitedPointer,
    hier_auto_cluster,
    make_sharer_rep,
    sharer_storage_bits,
)

#: The weak-scaling sweep's core counts plus non-power-of-two stragglers
#: that leave a short tail group/cluster in the grouped formats.
SCALE_NS = [16, 64, 256, 1024]
RAGGED_NS = [17, 100, 513, 1000]


@pytest.mark.parametrize("num_cores", SCALE_NS + RAGGED_NS)
@pytest.mark.parametrize("fmt", list(SharerFormat))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_targets_superset_and_clamped_at_scale(fmt, num_cores, data):
    """After any history: live cores ⊆ targets() ⊆ [0, num_cores)."""
    rep = make_sharer_rep(fmt, num_cores, group=4, pointers=2)
    live = set()
    for add, core in data.draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, num_cores - 1)),
            max_size=60,
        )
    ):
        if add:
            rep.add(core)
            live.add(core)
        else:
            rep.remove(core)
            live.discard(core)
    targets = rep.targets()
    assert live.issubset(set(targets))
    assert all(0 <= t < num_cores for t in targets)
    rep.clear()
    assert rep.targets() == []


@pytest.mark.parametrize("num_cores", SCALE_NS + RAGGED_NS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hierarchical_overflow_is_local_and_sticky(num_cores, data):
    """Overflow hurts one cluster only, and never un-happens via remove."""
    rep = HierarchicalRep(num_cores)  # auto cluster = ceil(sqrt(N))
    cluster = rep.cluster
    num_clusters = (num_cores + cluster - 1) // cluster
    victim = data.draw(st.integers(0, num_clusters - 1))
    start = victim * cluster
    width = min(cluster, num_cores - start)
    # Overflow the victim cluster (needs pointers+1 distinct cores).
    overflow_cores = list(range(start, start + min(width, rep.pointers + 1)))
    for core in overflow_cores:
        rep.add(core)
    # One exact sharer in a different cluster keeps its precision.
    other = data.draw(
        st.integers(0, num_cores - 1).filter(lambda c: c // cluster != victim)
    )
    rep.add(other)
    targets = set(rep.targets())
    if len(overflow_cores) > rep.pointers:  # the cluster actually overflowed
        whole_cluster = set(range(start, start + width))
        assert whole_cluster.issubset(targets)
        # Sticky: removals cannot restore precision.
        for core in overflow_cores:
            rep.remove(core)
        assert whole_cluster.issubset(set(rep.targets()))
    # The precise cluster names exactly its one sharer, not its neighbours.
    other_start = (other // cluster) * cluster
    other_members = set(
        range(other_start, min(other_start + cluster, num_cores))
    )
    assert targets & other_members == {other}
    rep.remove(other)
    assert other not in set(rep.targets())


@pytest.mark.parametrize("num_cores", SCALE_NS)
def test_hierarchical_storage_is_sublinear(num_cores):
    """The O(sqrt(N)) pin: hier bits/entry ≪ full-bit-vector bits/entry."""
    hier = sharer_storage_bits(SharerFormat.HIERARCHICAL, num_cores)
    full = sharer_storage_bits(SharerFormat.FULL_BIT_VECTOR, num_cores)
    assert full == num_cores
    # ceil(sqrt(N)) clusters x (2 + 2 * ptr_bits) bits each.
    root = hier_auto_cluster(num_cores)
    ptr_bits = max(1, (root - 1).bit_length())
    assert hier == ((num_cores + root - 1) // root) * (2 + 2 * ptr_bits)
    # sqrt(N)*log(N) overtakes N's growth from 256 up; the monotone-ratio
    # test below pins the asymptotic claim itself.
    if num_cores >= 256:
        assert hier < full
    if num_cores >= 1024:
        assert hier < full // 2


def test_hierarchical_storage_shrinks_relative_to_full():
    """The ratio hier/full must fall monotonically with N (scaling claim)."""
    ratios = [
        sharer_storage_bits(SharerFormat.HIERARCHICAL, n)
        / sharer_storage_bits(SharerFormat.FULL_BIT_VECTOR, n)
        for n in SCALE_NS
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: FullBitVector(0),
        lambda: FullBitVector(-4),
        lambda: CoarseVector(16, group=0),
        lambda: CoarseVector(16, group=-1),
        lambda: LimitedPointer(16, pointers=0),
        lambda: HierarchicalRep(16, cluster=-2),
        lambda: HierarchicalRep(16, pointers=0),
        lambda: HierarchicalRep(0),
    ],
    ids=[
        "fbv-zero-cores", "fbv-negative-cores", "coarse-zero-group",
        "coarse-negative-group", "limited-zero-pointers",
        "hier-negative-cluster", "hier-zero-pointers", "hier-zero-cores",
    ],
)
def test_centralized_validation_rejects_bad_params(ctor):
    """Every format funnels through SharerRep.__init__'s checks."""
    with pytest.raises(ConfigError):
        ctor()


@pytest.mark.parametrize("fmt", list(SharerFormat))
@pytest.mark.parametrize("num_cores", [16, 100, 1024])
def test_fresh_clones_behave_like_new(fmt, num_cores):
    """fresh() skips validation but must yield an empty, working rep."""
    template = make_sharer_rep(fmt, num_cores, group=4, pointers=2)
    template.add(3)
    clone = template.fresh()
    assert clone.targets() == []
    clone.add(num_cores - 1)
    assert num_cores - 1 in set(clone.targets())
    # The template is unaffected by the clone's history.
    assert num_cores - 1 not in set(template.targets()) or num_cores - 1 == 3
