"""Unit tests for the hierarchical statistics tree."""

import pytest

from repro.common.errors import StatsError
from repro.common.stats import DerivedCounter, StatGroup, per_kilo, ratio


class TestCounters:
    def test_add_creates_on_first_use(self):
        group = StatGroup("g")
        group.add("hits")
        assert group.get("hits") == 1.0

    def test_add_amount(self):
        group = StatGroup("g")
        group.add("latency", 12.5)
        group.add("latency", 7.5)
        assert group.get("latency") == 20.0

    def test_missing_reads_zero(self):
        assert StatGroup("g").get("nothing") == 0.0

    def test_set_overwrites(self):
        group = StatGroup("g")
        group.add("size", 5)
        group.set("size", 2)
        assert group.get("size") == 2

    def test_counters_copy_is_isolated(self):
        group = StatGroup("g")
        group.add("x")
        copy = group.counters()
        copy["x"] = 99
        assert group.get("x") == 1


class TestHierarchy:
    def test_child_created_once(self):
        group = StatGroup("root")
        assert group.child("a") is group.child("a")

    def test_to_dict_flattens_with_paths(self):
        root = StatGroup("sys")
        root.add("top", 1)
        root.child("l1").add("hits", 3)
        root.child("l1").child("array").add("fills", 2)
        flat = root.to_dict()
        assert flat == {
            "sys.top": 1,
            "sys.l1.hits": 3,
            "sys.l1.array.fills": 2,
        }

    def test_walk_order_deterministic(self):
        root = StatGroup("s")
        root.child("b").add("x")
        root.child("a").add("y")
        paths = [p for p, _, _ in root.walk()]
        assert paths == sorted(paths)

    def test_total_sums_descendants(self):
        root = StatGroup("s")
        root.add("evictions", 1)
        root.child("a").add("evictions", 2)
        root.child("a").child("b").add("evictions", 4)
        assert root.total("evictions") == 7

    def test_merge_accumulates_recursively(self):
        a = StatGroup("a")
        a.child("sub").add("hits", 1)
        b = StatGroup("b")
        b.child("sub").add("hits", 2)
        b.child("sub").add("misses", 5)
        a.merge(b)
        assert a.child("sub").get("hits") == 3
        assert a.child("sub").get("misses") == 5

    def test_reset_zeroes_everything(self):
        root = StatGroup("s")
        root.add("x", 3)
        root.child("c").add("y", 4)
        root.reset()
        assert root.to_dict() == {}


class TestBoundCells:
    """Regression contract for lazily bound cells vs ``reset``/``merge``.

    Controllers bind hot-path cells once (``counter()``) and increment them
    forever; epoch sampling and sweep aggregation call ``reset()`` and
    ``merge()`` around them.  These tests pin the interaction: bound handles
    must never go stale.
    """

    def test_counter_rebinds_same_cell(self):
        group = StatGroup("g")
        cell = group.counter("hits")
        assert group.counter("hits") is cell
        cell.add(2)
        assert group.get("hits") == 2.0

    def test_counter_binds_cell_created_by_add(self):
        group = StatGroup("g")
        group.add("hits", 3)
        cell = group.counter("hits")
        assert cell.value == 3.0
        group.add("hits")
        assert cell.value == 4.0

    def test_reset_keeps_bound_handles_live(self):
        group = StatGroup("g")
        cell = group.counter("hits")
        cell.add(5)
        group.reset()
        assert cell.value == 0.0
        cell.add(1)
        assert group.get("hits") == 1.0  # same cell, not a detached orphan

    def test_reset_drops_unbound_counters_only(self):
        group = StatGroup("g")
        group.counter("bound").add(1)
        group.add("unbound", 1)
        group.reset()
        assert "bound" in group.counters()
        assert "unbound" not in group.counters()
        group.add("unbound")  # reappears on next increment, as before
        assert group.get("unbound") == 1.0

    def test_binding_after_reset_works(self):
        group = StatGroup("g")
        group.add("hits", 9)
        group.reset()
        cell = group.counter("hits")
        cell.add(2)
        assert group.get("hits") == 2.0

    def test_merge_accumulates_into_bound_cells_in_place(self):
        dest = StatGroup("dest")
        cell = dest.counter("hits")
        cell.add(1)
        src = StatGroup("src")
        src.add("hits", 10)
        dest.merge(src)
        assert cell.value == 11.0  # the outstanding handle saw the merge
        assert src.get("hits") == 10.0  # source untouched

    def test_merge_then_reset_then_increment(self):
        dest = StatGroup("dest")
        cell = dest.counter("hits")
        src = StatGroup("src")
        src.add("hits", 7)
        dest.merge(src)
        dest.reset()
        cell.add(1)
        assert dest.get("hits") == 1.0

    def test_child_bound_cells_survive_parent_reset(self):
        root = StatGroup("root")
        cell = root.child("l1").counter("misses")
        cell.add(4)
        root.reset()
        assert cell.value == 0.0
        cell.add(2)
        assert root.to_dict() == {"root.l1.misses": 2.0}


class TestEventCells:
    """An event cell is a bound handle with the tree shape of ``add``."""

    def test_absent_until_first_event(self):
        group = StatGroup("g")
        cell = group.event_counter("reads")
        assert group.to_dict() == {}
        assert group.counters() == {}
        cell.value += 1
        assert group.to_dict() == {"g.reads": 1.0}

    def test_reset_drops_the_key_until_the_next_event(self):
        group = StatGroup("g")
        cell = group.event_counter("reads")
        group.add("added")
        cell.value += 3
        group.reset()
        assert group.to_dict() == {}
        cell.value += 1  # the handle outlives the reset
        assert group.to_dict() == {"g.reads": 1.0}

    def test_same_shape_as_add(self):
        """Interleave events and resets: both trees keep the same keys."""
        added = StatGroup("g")
        bound = StatGroup("g")
        cell = bound.event_counter("reads")
        for step in range(12):
            if step % 5 == 4:
                added.reset()
                bound.reset()
            elif step % 3:
                added.add("reads")
                cell.value += 1
            assert bound.to_dict() == added.to_dict()

    def test_add_and_merge_reach_the_cell(self):
        group = StatGroup("g")
        cell = group.event_counter("reads")
        group.add("reads", 2)
        src = StatGroup("src")
        src.add("reads", 3)
        group.merge(src)
        assert cell.value == 5.0

    def test_merge_skips_a_zero_event_cell(self):
        src = StatGroup("src")
        src.event_counter("reads")
        dest = StatGroup("dest")
        dest.merge(src)
        assert dest.to_dict() == {}


class TestDerivedCells:
    """A derived counter is computed on every read and refuses writes."""

    def make(self):
        group = StatGroup("noc")
        hops = group.counter("hops.x")
        group.derive("flit_hops.x", lambda: hops.value * 5)
        return group, hops

    def test_every_reader_computes_it(self):
        group, hops = self.make()
        hops.value += 2
        assert group.get("flit_hops.x") == 10.0
        assert group.to_dict()["noc.flit_hops.x"] == 10.0
        assert group.counters()["flit_hops.x"] == 10.0
        assert group.total("flit_hops.x") == 10.0

    def test_write_through_the_cell_raises(self):
        group, _ = self.make()
        cell = group.derive("msgs.total", lambda: 0.0)
        assert isinstance(cell, DerivedCounter)
        with pytest.raises(StatsError, match="msgs.total"):
            cell.value += 1

    def test_add_and_set_raise_and_keep_the_value(self):
        group, hops = self.make()
        hops.value += 1
        with pytest.raises(StatsError):
            group.add("flit_hops.x")
        with pytest.raises(StatsError):
            group.set("flit_hops.x", 99)
        assert group.get("flit_hops.x") == 5.0

    def test_binding_a_derived_name_raises(self):
        group, _ = self.make()
        with pytest.raises(StatsError):
            group.counter("flit_hops.x")
        with pytest.raises(StatsError):
            group.event_counter("flit_hops.x")

    def test_deriving_an_existing_name_raises(self):
        group, _ = self.make()
        group.add("msgs.x", 4)
        with pytest.raises(StatsError):
            group.derive("msgs.x", lambda: 0.0)
        with pytest.raises(StatsError):
            group.derive("flit_hops.x", lambda: 0.0)
        assert group.get("msgs.x") == 4.0

    def test_survives_reset_computed_from_zeroed_inputs(self):
        group, hops = self.make()
        hops.value += 3
        group.reset()
        assert group.to_dict() == {"noc.flit_hops.x": 0.0, "noc.hops.x": 0.0}
        hops.value += 1
        assert group.get("flit_hops.x") == 5.0

    def test_merge_from_a_deriving_group_copies_the_values(self):
        src, hops = self.make()
        hops.value += 2
        dest = StatGroup("sum")
        dest.merge(src)
        assert dest.to_dict() == {"sum.flit_hops.x": 10.0, "sum.hops.x": 2.0}
        dest.add("flit_hops.x")  # a plain count in the destination
        assert dest.get("flit_hops.x") == 11.0

    def test_merge_into_a_deriving_group_raises_before_merging(self):
        dest, hops = self.make()
        src = StatGroup("src")
        src.add("hops.x", 2)
        src.add("hops.y", 7)  # no derived flit_hops.y would count it
        with pytest.raises(StatsError):
            dest.merge(src)
        assert hops.value == 0.0  # nothing was merged

    def test_merge_into_a_deriving_child_raises_before_merging(self):
        root = StatGroup("root")
        noc = root.child("noc")
        hops = noc.counter("hops.x")
        noc.derive("flit_hops.x", lambda: hops.value)
        src = StatGroup("src")
        src.add("top", 1)
        src.child("noc").add("hops.x", 1)
        with pytest.raises(StatsError):
            root.merge(src)
        assert root.to_dict() == {"root.noc.flit_hops.x": 0.0, "root.noc.hops.x": 0.0}


class TestHelpers:
    def test_ratio(self):
        assert ratio(1, 2) == 0.5

    def test_ratio_zero_denominator_uses_default(self):
        assert ratio(5, 0) == 0.0
        assert ratio(5, 0, default=1.0) == 1.0

    def test_per_kilo(self):
        assert per_kilo(5, 1000) == 5.0
        assert per_kilo(1, 2000) == 0.5
        assert per_kilo(1, 0) == 0.0
