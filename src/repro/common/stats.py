"""Hierarchical statistics collection.

Every component of the simulator (caches, directories, NoC, protocol engine)
owns a :class:`StatGroup` and increments named counters on it.  Groups nest,
so a finished simulation exposes one tree such as::

    system
      l1.0          hits=..., misses=...
      llc           hits=..., misses=..., stash_bits_set=...
      directory     allocs=..., stash_evictions=..., inval_evictions=...
      noc           msgs.request=..., hops.request=...

Counters are created on first use, which keeps instrumentation code free of
declarations, and :meth:`StatGroup.to_dict` flattens the tree for reporting,
assertions in tests, and the benchmark harness.

Hot-path increments go through **bound counters**: :meth:`StatGroup.counter`
returns the mutable :class:`StatCounter` cell backing one name, so code that
fires an event millions of times does ``cell.value += 1`` — one attribute
add — instead of a string-keyed dict get/set per event.  The cell *is* the
storage: ``add``/``get``/``to_dict`` observe bound increments immediately,
and a handle stays valid across :meth:`StatGroup.reset` (the cell is zeroed
in place, so a bound counter remains materialized at 0.0 after a reset while
never-bound counters disappear exactly as before).

Two more kinds of cell keep per-event work to one attribute add without
changing the tree's shape:

* **event cells** (:meth:`StatGroup.event_counter`) are bound handles with
  the shape of an added counter: a key appears once its cell has counted
  an event and disappears at :meth:`StatGroup.reset` until the next one
  (the cell is in the tree while its value is non-zero, and every event
  adds one);
* **derived cells** (:meth:`StatGroup.derive`, a :class:`DerivedCounter`)
  hold no count of their own: every reader computes them from other cells,
  and a write raises :class:`~repro.common.errors.StatsError` instead of
  being absorbed.  The NoC derives its flit-hop counts and totals this
  way from the two facts a message has, its class and its hops.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Set, Tuple

from .errors import StatsError


class StatCounter:
    """The mutable cell backing one counter: mutate ``value`` directly."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        """Add ``amount`` (hot code inlines ``cell.value += amount``)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatCounter({self.value!r})"


class DerivedCounter:
    """A read-only counter computed from other cells on every read.

    ``value`` calls ``compute``.  Writing it (``cell.value += 1``,
    :meth:`StatGroup.add`, :meth:`StatGroup.set`) raises
    :class:`~repro.common.errors.StatsError`: the next read would recompute
    the value and silently drop the write.
    """

    __slots__ = ("name", "_compute")

    def __init__(self, name: str, compute: Callable[[], float]) -> None:
        self.name = name
        self._compute = compute

    @property
    def value(self) -> float:
        """The value computed from the cells this counter derives from."""
        return self._compute()

    @value.setter
    def value(self, _value: float) -> None:
        raise StatsError(
            f"counter {self.name!r} is derived from other counters; "
            "write those instead"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DerivedCounter({self.name!r})"


class StatGroup:
    """A named bag of counters with nested child groups.

    Counters are floats internally so they can also hold accumulated
    latencies and derived averages, but integer increments stay exact.
    """

    __slots__ = ("name", "_cells", "_bound", "_events", "_derived", "_children")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cells: Dict[str, object] = {}
        self._bound: Set[str] = set()
        self._events: Set[str] = set()
        self._derived: Set[str] = set()
        self._children: Dict[str, "StatGroup"] = {}

    # -- counter operations -------------------------------------------------

    def counter(self, name: str) -> StatCounter:
        """The bound :class:`StatCounter` cell for ``name`` (hot-path handle).

        Creates the counter at zero if absent.  The returned cell survives
        :meth:`reset` (zeroed in place), so components may bind once and
        increment forever.
        """
        cell = self._plain_cell(name)
        self._bound.add(name)
        return cell

    def event_counter(self, name: str) -> StatCounter:
        """A bound cell for ``name`` with the tree shape of :meth:`add`.

        Increment it by one per event.  The key is in the tree only while
        the cell is non-zero: it appears at the first event, and
        :meth:`reset` zeroes the cell in place, so the key is absent again
        until the next event, exactly like a counter :meth:`add` creates.
        """
        cell = self._plain_cell(name)
        self._events.add(name)
        return cell

    def derive(self, name: str, compute: Callable[[], float]) -> DerivedCounter:
        """Register ``name`` as a :class:`DerivedCounter` computed by ``compute``.

        It stays in the tree from now on, across :meth:`reset` too (its
        inputs are zeroed, so it reads what they imply).

        Raises:
            StatsError: ``name`` already exists, so its count would be lost.
        """
        if name in self._cells:
            raise StatsError(f"counter {name!r} already exists in {self.name!r}")
        cell = DerivedCounter(name, compute)
        self._cells[name] = cell
        self._derived.add(name)
        return cell

    def _plain_cell(self, name: str) -> StatCounter:
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = StatCounter()
        elif name in self._derived:
            raise StatsError(f"counter {name!r} is derived and cannot be bound")
        return cell  # type: ignore[return-value]

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Add ``amount`` to ``counter``, creating it at zero if absent."""
        cell = self._cells.get(counter)
        if cell is None:
            self._cells[counter] = StatCounter(0.0 + amount)
        else:
            cell.value += amount

    def set(self, counter: str, value: float) -> None:
        """Set ``counter`` to an absolute value (for gauges like sizes)."""
        cell = self._cells.get(counter)
        if cell is None:
            self._cells[counter] = StatCounter(value)
        else:
            cell.value = value

    def get(self, counter: str) -> float:
        """Read a counter; absent counters read as zero."""
        cell = self._cells.get(counter)
        return cell.value if cell is not None else 0.0

    def counters(self) -> Dict[str, float]:
        """A copy of this group's own (non-nested) counters."""
        return dict(self._present())

    def _present(self) -> Iterator[Tuple[str, float]]:
        """``(name, value)`` of every counter in the tree, in insertion order.

        An event cell at zero has counted nothing since the last reset and
        is left out, as an added counter would be absent.
        """
        events = self._events
        for name, cell in self._cells.items():
            value = cell.value
            if value or name not in events:
                yield name, value

    # -- hierarchy -----------------------------------------------------------

    def child(self, name: str) -> "StatGroup":
        """Return the child group ``name``, creating it if needed."""
        group = self._children.get(name)
        if group is None:
            group = StatGroup(name)
            self._children[name] = group
        return group

    def children(self) -> Dict[str, "StatGroup"]:
        """A copy of the child-group mapping."""
        return dict(self._children)

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "StatGroup") -> None:
        """Accumulate ``other``'s counters (recursively) into this group.

        Used to aggregate per-core groups (e.g. all L1s) into one summary.
        ``other``'s derived counters arrive as plain counts of their value.

        Raises:
            StatsError: a group that would receive counts derives counters
                of its own (their inputs might not cover what arrives); it
                is checked before anything is merged.
        """
        self._check_merge(other)
        self._merge(other)

    def _check_merge(self, other: "StatGroup") -> None:
        if self._derived and other._cells:
            raise StatsError(
                f"cannot merge into {self.name!r}: it derives "
                f"{sorted(self._derived)} from its own counters"
            )
        for name, group in other._children.items():
            mine = self._children.get(name)
            if mine is not None:
                mine._check_merge(group)

    def _merge(self, other: "StatGroup") -> None:
        for counter, value in list(other._present()):
            self.add(counter, value)
        for name, group in other._children.items():
            self.child(name)._merge(group)

    def to_dict(self, prefix: str = "") -> Dict[str, float]:
        """Flatten the tree to ``{"group.sub.counter": value}``."""
        flat: Dict[str, float] = {}
        base = f"{prefix}{self.name}" if prefix or self.name else self.name
        for counter, value in sorted(self._present()):
            key = f"{base}.{counter}" if base else counter
            flat[key] = value
        for name in sorted(self._children):
            flat.update(self._children[name].to_dict(prefix=f"{base}." if base else ""))
        return flat

    def walk(self) -> Iterator[Tuple[str, str, float]]:
        """Yield ``(group_path, counter, value)`` in deterministic order."""
        for key, value in self.to_dict().items():
            path, _, counter = key.rpartition(".")
            yield path, counter, value

    def total(self, counter: str) -> float:
        """Sum ``counter`` over this group and all descendants."""
        result = self.get(counter)
        for group in self._children.values():
            result += group.total(counter)
        return result

    def reset(self) -> None:
        """Zero every counter in this group and all descendants.

        Counters that were never handed out as bound cells are removed (they
        reappear on their next increment, as before); bound and event cells
        are zeroed in place so outstanding handles stay live (an event cell
        at zero is out of the tree), and derived counters stay, computed
        from their zeroed inputs.
        """
        cells = self._cells
        bound = self._bound
        events = self._events
        derived = self._derived
        if bound or events or derived:
            for name in list(cells):
                if name in bound or name in events:
                    cells[name].value = 0.0
                elif name not in derived:
                    del cells[name]
        else:
            cells.clear()
        for group in self._children.values():
            group.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatGroup({self.name!r}, counters={len(self._cells)}, children={len(self._children)})"


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Safe division used all over the analysis code."""
    if denominator == 0:
        return default
    return numerator / denominator


def per_kilo(count: float, base: float) -> float:
    """Events per 1000 of ``base`` (the paper's 'per 1k accesses' metric)."""
    return ratio(count * 1000.0, base)
