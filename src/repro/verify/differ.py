"""Differential execution: one engine × kind matrix over a flat program.

The IDEAL directory (infinite duplicate-tag, no conflicts) defines the
architectural contract: every other organization may differ in *latency*
and *traffic* but never in the values a program observes.  The vector
engine carries a stricter contract: it must reproduce the interpreter
bit-for-bit, statistics included.  :func:`run_differential` checks both
on one flat program (one global operation order) as a matrix.  Its rows
are directory kinds, IDEAL included; its :data:`COLUMNS` are engines:

* ``interp`` — the program replays op by op on the live controllers,
  with the invariant suite (:mod:`repro.coherence.invariants`) every
  ``check_every`` ops and at the end.  The cell is judged against the
  (interp, ideal) cell by its kind's oracle: the per-op observed versions
  (the data version the issuing core holds after each op) must match
  exactly, or, for Tardis, satisfy the bounded-staleness contract (its
  leases make some stale reads architecturally legal, see
  :func:`diff_results`).  The committed-version map after the program
  must match in both cases.
* ``vector`` — the program replays op by op on the vector engine's flat
  machine (:func:`repro.sim.vector.flat_machine`).  The per-op versions,
  the final state and the full statistics tree must equal the clean
  interp cell of the same kind.
* ``vector-trace`` — the program is regrouped into per-core streams
  (per-core order kept) and runs end to end through
  :meth:`repro.sim.vector.VectorEngine.run`, the inlined hit loop and
  core interleave every sweep runs.  Per-core cycles, the full
  statistics tree and the effective-tracking samples must equal the
  interpreter's run of the same whole trace.

Every cell must also satisfy the accounting identities of
:func:`check_stat_sanity` (reads + writes = accesses, ...).

A :class:`Divergence` names the kind, a category and the first offending
operation where one applies.  Interp cells report ``crash``,
``invariant``, ``value``, ``final-state`` and ``stats``, and Tardis's
oracle ``tardis-write``, ``tardis-value`` and ``tardis-stale``.  Fast
cells prefix their category with ``engine-`` (vector) or ``trace-``
(vector-trace), so failure-corpus signatures, the ``(kind, category)``
pairs the minimizer keys on, stay disjoint across columns.

Fault injection: :data:`FAULTS` maps names to test-only mutations.  Each
names what it corrupts — a built system or the derived transition tables
— and with it the cells it reaches.  They exist to prove the harness
*can* catch bugs.  The references always run clean: no cell is ever
judged against a faulted cell.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Dict, List, Optional, Sequence

from ..common.addr import log2_exact
from ..common.config import (
    CacheConfig,
    DirectoryKind,
    NoCConfig,
    SharerFormat,
    SystemConfig,
)
from ..common.errors import ReproError, InvariantViolation
from ..common.mesi import CoherenceProtocol
from ..coherence.protocol import CoherentSystem
from ..coherence.tables import L1Tables, corrupt_l1_tables, l1_tables
from ..directory.sharers import CoarseVector, LimitedPointer, make_sharer_rep
from ..sim.simulator import run_trace
from ..sim.system import build_system
from ..sim.trace import FlatOp, PackedTrace
from ..sim.vector import VectorEngine, flat_machine, vector_supports

#: Rows the matrix runs by default: every directory kind, IDEAL included.
DEFAULT_FUZZ_KINDS = tuple(DirectoryKind)

#: The judged columns, in the order a row runs them.
COLUMNS = ("interp", "vector", "vector-trace")

#: The interpreter on the whole regrouped trace: the vector-trace
#: column's reference, never judged itself.
_WHOLE_TRACE_REFERENCE = "interp-trace"

#: Category prefix of each column's divergences.
_PREFIX = {
    "interp": "",
    "vector": "engine-",
    "vector-trace": "trace-",
}

#: The vector-trace column's decode batch: tiny, so a few hundred ops
#: cross many batch refills.
_EPOCH_OPS = 96


@dataclass(frozen=True)
class RunOptions:
    """One fuzz parameterization (everything but the program and kind).

    The geometry is deliberately tiny — two-set L1s, an eight-set LLC and
    a directory of ``entries`` tracking slots — so a few hundred ops
    generate the displacement, overflow and conflict pressure a realistic
    configuration would need millions for.
    """

    num_cores: int = 4
    sharer_format: SharerFormat = SharerFormat.FULL_BIT_VECTOR
    coarse_group: int = 4
    limited_pointers: int = 2
    protocol: CoherenceProtocol = CoherenceProtocol.MESI
    entries: int = 8
    check_every: int = 8
    clean_eviction_notification: bool = False
    discovery_filter_slots: int = 0
    tardis_lease: int = 16
    seed: int = 1

    def to_meta(self) -> Dict[str, object]:
        """JSON-serializable form (corpus headers)."""
        return {
            "num_cores": self.num_cores,
            "sharer_format": self.sharer_format.value,
            "coarse_group": self.coarse_group,
            "limited_pointers": self.limited_pointers,
            "protocol": self.protocol.value,
            "entries": self.entries,
            "check_every": self.check_every,
            "clean_eviction_notification": self.clean_eviction_notification,
            "discovery_filter_slots": self.discovery_filter_slots,
            "tardis_lease": self.tardis_lease,
            "seed": self.seed,
        }

    @classmethod
    def from_meta(cls, meta: Dict[str, object]) -> "RunOptions":
        """Inverse of :meth:`to_meta` (replay path)."""
        return cls(
            num_cores=int(meta["num_cores"]),
            sharer_format=SharerFormat(meta["sharer_format"]),
            coarse_group=int(meta["coarse_group"]),
            limited_pointers=int(meta["limited_pointers"]),
            protocol=CoherenceProtocol(meta["protocol"]),
            entries=int(meta["entries"]),
            check_every=int(meta["check_every"]),
            clean_eviction_notification=bool(
                meta.get("clean_eviction_notification", False)
            ),
            discovery_filter_slots=int(meta.get("discovery_filter_slots", 0)),
            tardis_lease=int(meta.get("tardis_lease", 16)),
            seed=int(meta.get("seed", 1)),
        )


def make_fuzz_config(kind: DirectoryKind, options: RunOptions) -> SystemConfig:
    """The tiny differential-fuzz system for one organization."""
    mesh_height = (options.num_cores + 1) // 2
    return SystemConfig(
        num_cores=options.num_cores,
        l1=CacheConfig(sets=2, ways=2),
        llc=CacheConfig(sets=8, ways=2),
        noc=NoCConfig(mesh_width=2, mesh_height=max(mesh_height, 2)),
        protocol=options.protocol,
        seed=options.seed,
    ).with_directory(
        kind=kind,
        entries_override=options.entries,
        ways=2,
        sharer_format=options.sharer_format,
        coarse_group=options.coarse_group,
        limited_pointers=options.limited_pointers,
        clean_eviction_notification=options.clean_eviction_notification,
        discovery_filter_slots=options.discovery_filter_slots,
        tardis_lease=options.tardis_lease,
    )


# -- fault injection --------------------------------------------------------------

#: The columns each fault target reaches.  A system fault skips IDEAL's
#: interp cell, the reference of every other interp cell.
_FAULT_COLUMNS = {
    "system": ("interp",),
    "tables": ("vector", "vector-trace"),
}


@dataclass(frozen=True)
class FaultSpec:
    """A named, test-only mutation of the part of a cell ``corrupts`` names.

    ``"system"``: ``inject`` mutates a built interpreter system in place.
    ``"tables"``: it maps the derived L1 transition tables to a corrupted
    copy.
    """

    name: str
    corrupts: str
    description: str
    inject: Callable

    @property
    def columns(self) -> tuple:
        """The matrix columns this fault corrupts."""
        return _FAULT_COLUMNS[self.corrupts]


class _ResurrectingLimitedPointer(LimitedPointer):
    """Buggy rep: remove() after overflow restores (false) precision."""

    def remove(self, core: int) -> None:
        if self.overflowed:
            self.overflowed = False  # forgets the unnamed sharers
            return
        if core in self.ids:
            self.ids.remove(core)

    def fresh(self) -> "_ResurrectingLimitedPointer":
        rep = _ResurrectingLimitedPointer.__new__(_ResurrectingLimitedPointer)
        rep.num_cores = self.num_cores
        rep.pointers = self.pointers
        rep.ids = []
        rep.overflowed = False
        return rep


class _UnclampedCoarseVector(CoarseVector):
    """Buggy rep: targets() names every group slot, existent or not."""

    def targets(self) -> List[int]:
        result: List[int] = []
        num_groups = (self.num_cores + self.group - 1) // self.group
        for g in range(num_groups):
            if self.mask & (1 << g):
                start = g * self.group
                result.extend(range(start, start + self.group))
        return result

    def fresh(self) -> "_UnclampedCoarseVector":
        rep = _UnclampedCoarseVector.__new__(_UnclampedCoarseVector)
        rep.num_cores = self.num_cores
        rep.group = self.group
        rep.mask = 0
        return rep


def _inject_drop_invalidation(system: CoherentSystem) -> None:
    # Core 1 stops acting on invalidation messages from the home: its
    # copy survives while the directory believes it is gone.
    system.home._l1_invalidate[1] = lambda addr: None


def _inject_stash_bit_lost(system: CoherentSystem) -> None:
    # The LLC forgets to record stashed entries, so discovery never runs
    # and hidden (possibly dirty) copies are simply lost.
    system.llc.set_stash_bit = lambda addr: None


def _swap_rep_template(
    system: CoherentSystem, cls, fmt: SharerFormat, param: str
) -> None:
    """Swap the directory's sharer template for the buggy ``cls``.

    ``cls`` breaks the representation of ``fmt``, and it replaces the
    template whatever format the system runs.  Its ``param`` is read from
    the validated template of ``fmt`` under the system's directory
    configuration, so :mod:`repro.directory.sharers` stays the one reader
    of the format's parameters.
    """
    directory = system.directory
    if getattr(directory, "_rep_template", None) is None:
        return
    config = system.config
    valid = make_sharer_rep(
        dataclasses.replace(config.directory, sharer_format=fmt), config.num_cores
    )
    directory._rep_template = cls(config.num_cores, **{param: getattr(valid, param)})


def _inject_pointer_resurrect(system: CoherentSystem) -> None:
    _swap_rep_template(
        system, _ResurrectingLimitedPointer, SharerFormat.LIMITED_POINTER, "pointers"
    )


def _inject_coarse_unclamped(system: CoherentSystem) -> None:
    _swap_rep_template(
        system, _UnclampedCoarseVector, SharerFormat.COARSE_VECTOR, "group"
    )


def _inject_ts_rollover(system: CoherentSystem) -> None:
    # Tardis timestamps stored in 6 bits without rollover handling: once
    # the op clock passes 63, the L1 lease comparison sees the wrapped
    # clock and expired leases look live forever — stale reads escape the
    # bounded-staleness window.  No-op on non-timestamp backends.
    home = system.home
    if hasattr(home, "ts_wrap_mask"):
        home.ts_wrap_mask = 63


def _corrupt_e_write_cell(tables: L1Tables) -> L1Tables:
    # Cell 5 = (EXCLUSIVE, write): the silent E->M upgrade becomes a plain
    # read hit, so both vector columns lose a version mint the interpreter
    # performs — the signature of a mis-generated table.
    return corrupt_l1_tables(tables, cell=5)


#: Registry of injectable faults (``repro fuzz --inject-fault <name>``).
FAULTS: Dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "drop-invalidation",
            "system",
            "core 1 ignores home-initiated invalidations (lost message)",
            _inject_drop_invalidation,
        ),
        FaultSpec(
            "stash-bit-lost",
            "system",
            "LLC drops set_stash_bit writes; stashed copies become unreachable",
            _inject_stash_bit_lost,
        ),
        FaultSpec(
            "pointer-resurrect",
            "system",
            "LimitedPointer.remove() clears the overflow flag (forgets sharers)",
            _inject_pointer_resurrect,
        ),
        FaultSpec(
            "coarse-unclamped",
            "system",
            "CoarseVector.targets() names nonexistent tail-group cores",
            _inject_coarse_unclamped,
        ),
        FaultSpec(
            "ts-rollover",
            "system",
            "tardis timestamps wrap at 6 bits; expired leases look live again",
            _inject_ts_rollover,
        ),
        FaultSpec(
            "table-corrupt",
            "tables",
            "flip the (EXCLUSIVE, write) cell of the derived L1 action table",
            _corrupt_e_write_cell,
        ),
    )
}


# -- execution --------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Everything one cell exposes for comparison.

    The op-by-op columns fill ``versions`` (the data version the issuing
    core's private cache holds after each op) and ``final_versions`` (the
    committed-version map); whole-trace runs fill ``cycles`` (per core)
    and ``samples`` (the effective-tracking series); all fill ``stats``.
    """

    kind: DirectoryKind
    column: str = "interp"
    versions: List[int] = field(default_factory=list)
    final_versions: Dict[int, int] = field(default_factory=dict)
    cycles: List[int] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    samples: List[int] = field(default_factory=list)
    error_category: Optional[str] = None
    error_detail: Optional[str] = None
    error_op: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Did the run complete without raising?"""
        return self.error_category is None


def execute_program(
    program: Sequence[FlatOp],
    config: SystemConfig,
    *,
    column: str = "interp",
    check_every: int = 8,
    fault: Optional[FaultSpec] = None,
) -> ExecutionResult:
    """Run one flat program in one column on a fresh ``config`` machine.

    ``interp`` and ``vector`` replay the program op by op; ``interp``
    also runs the invariant suite every ``check_every`` ops (0 disables
    the cadence; the final check always runs).  ``vector-trace`` and
    ``interp-trace`` regroup it into per-core streams and run the whole
    trace.  ``fault`` applies only to the columns it corrupts.  Exceptions
    never escape: they are folded into the result as a ``crash`` or
    ``invariant`` record.
    """
    result = ExecutionResult(kind=config.directory.kind, column=column)
    if fault is not None and column not in fault.columns:
        fault = None
    index = -1
    try:
        tables = None
        if fault is not None and fault.corrupts == "tables":
            tables = fault.inject(l1_tables(config.protocol))
        versions = result.versions
        if column == "interp":
            system = build_system(config)
            if fault is not None:
                fault.inject(system)
            access = system.access
            l1s = system.l1s
            for index, (core, block, is_write) in enumerate(program):
                access(core, block, is_write)
                held = l1s[core].probe(block, touch=False)
                versions.append(-1 if held is None else held.version)
                if check_every and (index + 1) % check_every == 0:
                    system.check_invariants()
            system.check_invariants()
            result.final_versions = dict(system.home.latest_version)
            result.stats = system.flat_stats()
        elif column == "vector":
            machine = flat_machine(config, tables=tables)
            access = machine.access
            held_version = machine.held_version
            for index, (core, block, is_write) in enumerate(program):
                access(core, block, 1 if is_write else 0)
                versions.append(held_version(core, block))
            result.final_versions = dict(machine.latest_version)
            result.stats = machine.flat_stats()
        else:
            trace = PackedTrace(config.num_cores)
            shift = log2_exact(config.block_bytes)
            for core, block, is_write in program:
                trace.append(core, block << shift, is_write)
            if column == _WHOLE_TRACE_REFERENCE:
                run = run_trace(config, trace, engine="interp")
            else:
                run = VectorEngine(
                    config, tables=tables, epoch_ops=_EPOCH_OPS
                ).run(trace)
            result.cycles = list(run.cycles_per_core)
            result.stats = dict(run.stats)
            result.samples = list(run.effective_tracking_samples)
    except InvariantViolation as exc:
        result.error_category = "invariant"
        result.error_detail = str(exc)
        result.error_op = index
    except (ReproError, IndexError, KeyError, AssertionError) as exc:
        result.error_category = "crash"
        result.error_detail = f"{type(exc).__name__}: {exc}"
        result.error_op = index
    return result


# -- comparison -------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """One confirmed disagreement between a cell and its reference."""

    kind: str
    category: str  # see the module docstring
    detail: str
    op_index: Optional[int] = None

    @property
    def signature(self) -> tuple:
        """What the minimizer must preserve while shrinking."""
        return (self.kind, self.category)

    def __str__(self) -> str:
        where = "" if self.op_index is None else f" at op {self.op_index}"
        return f"[{self.kind}/{self.category}]{where}: {self.detail}"


def check_stat_sanity(result: ExecutionResult, num_ops: int) -> Optional[str]:
    """Accounting identities that hold for any correct replay.

    Returns a description of the first broken identity, or None.
    """
    stats = result.stats
    proto = {
        name.rsplit(".", 1)[1]: value
        for name, value in stats.items()
        if name.startswith("system.protocol.")
    }
    accesses = proto.get("accesses", 0)
    checks = [
        ("accesses == ops", accesses == num_ops),
        (
            "reads + writes == accesses",
            proto.get("reads", 0) + proto.get("writes", 0) == accesses,
        ),
        (
            "l1_hits + l2_hits + upgrade_misses + l1_misses == accesses",
            proto.get("l1_hits", 0)
            + proto.get("l2_hits", 0)
            + proto.get("upgrade_misses", 0)
            + proto.get("l1_misses", 0)
            == accesses,
        ),
        (
            "coverage_misses <= l1_misses",
            proto.get("coverage_misses", 0) <= proto.get("l1_misses", 0),
        ),
    ]
    for label, ok in checks:
        if not ok:
            return f"stat identity broken: {label} ({proto})"
    for name, value in stats.items():
        if value < 0:
            return f"negative counter {name} = {value}"
    return None


#: What a fast cell must reproduce exactly, in reporting order: the
#: captured field, its category suffix and how to name one entry of it.
_FIELDS = (
    ("versions", "value", "op {}"),
    ("final_versions", "final-state", "block {:#x}"),
    ("cycles", "cycles", "core {}"),
    ("stats", "stats", "{}"),
    ("samples", "samples", "sample {}"),
)


def diff_results(
    reference: ExecutionResult,
    candidate: ExecutionResult,
    program: Sequence[FlatOp],
    *,
    lease: int = 16,
) -> Optional[Divergence]:
    """First divergence of one cell from its reference.

    An ``interp`` cell is judged against the (interp, ideal) cell by its
    kind's oracle.  The exact oracle wants identical per-op versions.
    Tardis's oracle (``lease`` = the configured ``tardis_lease``) wants
    the bounded-staleness contract, because a leased S copy stays legally
    readable after a remote write supersedes it, until the lease expires:

    * **Writes observe their own mint.**  Version minting is global and
      program order is shared, so the k-th write mints version k in both
      runs — any write disagreement is a real bug (``tardis-write``).
    * **Reads observe a committed version, never from the future.**  An
      observed version must appear in the block's write history (or be 0
      for a never-written block) and must not exceed the latest version
      at that op (``tardis-value``).
    * **Per-core reads are monotone.**  A core that observed version v
      of a block may never observe an older version of it later — grants
      always hand out the latest, so staleness can only age out, not
      regress (``tardis-value``).
    * **Staleness is bounded by the lease.**  A read at op ``i``
      observing a version superseded by the write at op ``j`` is legal
      iff ``i - j < lease``: the copy's lease was granted before op
      ``j`` (a grant hands out the then-latest version) and expires at
      most ``lease`` ticks after the grant, one tick per op
      (``tardis-stale``).

    Both oracles then want the same committed-version map.  A fast cell
    must equal its clean interp reference bit-for-bit in every captured
    field: per-op versions, final state, per-core cycles, the full
    statistics tree and the samples.  Every cell must satisfy
    :func:`check_stat_sanity`.
    """
    kind = candidate.kind.value
    column = candidate.column
    prefix = _PREFIX[column]
    label = "" if column == "interp" else f"{column}: "
    if not candidate.ok:
        return Divergence(
            kind,
            prefix + (candidate.error_category or "crash"),
            label + (candidate.error_detail or "unknown failure"),
            candidate.error_op,
        )
    if not reference.ok:
        return Divergence(
            kind,
            prefix + "crash",
            f"{label}reference failed: {reference.error_detail}",
            reference.error_op,
        )
    fields = _FIELDS
    if column == "interp":
        fields = _FIELDS[:2]
        if candidate.kind is DirectoryKind.TARDIS:
            divergence = _bounded_staleness(program, reference, candidate, lease)
            if divergence is not None:
                return divergence
            fields = _FIELDS[1:2]
    against = "ideal" if column == "interp" else "interp"
    for name, suffix, key_format in fields:
        want, got = getattr(reference, name), getattr(candidate, name)
        if want == got:
            continue
        if isinstance(want, dict):
            keys = sorted(set(want) | set(got))
            pairs = [(k, want.get(k), got.get(k)) for k in keys]
        else:
            pairs = [(k, w, g) for k, (w, g) in enumerate(zip_longest(want, got))]
        diffs = [(k, w, g) for k, w, g in pairs if w != g]
        shown = "; ".join(
            f"{key_format.format(k)}: {against}={w} got={g}"
            for k, w, g in diffs[:4]
        )
        return Divergence(
            kind,
            prefix + suffix,
            f"{label}{name} differ: {shown}",
            diffs[0][0] if name == "versions" else None,
        )
    broken = check_stat_sanity(candidate, len(program))
    if broken is not None:
        return Divergence(kind, prefix + "stats", label + broken)
    return None


def _bounded_staleness(
    program: Sequence[FlatOp],
    reference: ExecutionResult,
    candidate: ExecutionResult,
    lease: int,
) -> Optional[Divergence]:
    """Tardis's per-op oracle (see :func:`diff_results`)."""
    kind = candidate.kind.value
    # Reconstruct each block's write history from the reference capture:
    # the reference observes its own mint on every write, so entry k of a
    # block's history is (k-th committed version, op index of that write).
    births: Dict[int, List[tuple]] = {}
    ref_versions = reference.versions
    for index, (_, block, is_write) in enumerate(program):
        if is_write:
            births.setdefault(block, []).append((ref_versions[index], index))
    last_observed: Dict[tuple, int] = {}
    for index, (core, block, is_write) in enumerate(program):
        want = ref_versions[index]
        got = candidate.versions[index]
        if is_write:
            if got != want:
                return Divergence(
                    kind,
                    "tardis-write",
                    f"write minted version {got}, ideal minted {want}",
                    index,
                )
        elif got != want:
            if got > want:
                return Divergence(
                    kind,
                    "tardis-value",
                    f"read observed future version {got}, latest is {want}",
                    index,
                )
            history = births.get(block, [])
            if got != 0 and got not in {version for version, _ in history}:
                return Divergence(
                    kind,
                    "tardis-value",
                    f"read observed version {got}, never committed for "
                    f"block {block:#x}",
                    index,
                )
            prev = last_observed.get((core, block))
            if prev is not None and got < prev:
                return Divergence(
                    kind,
                    "tardis-value",
                    f"read observed version {got} after already observing "
                    f"{prev} (non-monotone)",
                    index,
                )
            # The write that superseded the observed version (history is
            # version-sorted: minting is globally monotone).
            superseded_at = next(
                (birth for version, birth in history if version > got), None
            )
            if superseded_at is not None and index - superseded_at >= lease:
                return Divergence(
                    kind,
                    "tardis-stale",
                    f"read observed version {got}, superseded "
                    f"{index - superseded_at} ops earlier (lease {lease})",
                    index,
                )
        last_observed[(core, block)] = got
    return None


# -- the matrix -------------------------------------------------------------------


class Divergences(List[Divergence]):
    """Every divergence one matrix run found, in cell order.

    ``cells`` counts the cells the run judged, per column.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cells: Counter = Counter()


def run_differential(
    program: Sequence[FlatOp],
    *,
    kinds: Sequence[DirectoryKind] = DEFAULT_FUZZ_KINDS,
    options: RunOptions = RunOptions(),
    fault: Optional[FaultSpec] = None,
) -> Divergences:
    """Run the matrix with ``kinds`` as rows and :data:`COLUMNS` on one program.

    The (interp, ideal) cell always runs first: it is the reference of
    every interp cell, so when it fails (or breaks a stat identity) its
    divergence is the only one returned.  A row's fast cells run when the
    flat engines model its configuration.  Discovery presence filters are
    interpreter-only, so the fast cells run the row without one, against
    a clean interp capture of that same configuration: the row's own
    interp cell when it is identical and unfaulted, else a fresh one.
    ``fault`` reaches the cells of the columns it corrupts; IDEAL's interp
    cell always runs clean.  Empty result: every cell agrees with its
    reference.
    """
    found = Divergences()
    check_every = options.check_every

    def judge(reference: ExecutionResult, cell: ExecutionResult) -> None:
        found.cells[cell.column] += 1
        divergence = diff_results(
            reference, cell, program, lease=options.tardis_lease
        )
        if divergence is not None:
            found.append(divergence)

    ideal = execute_program(
        program,
        make_fuzz_config(DirectoryKind.IDEAL, options),
        check_every=check_every,
    )
    judge(ideal, ideal)
    if found:
        return found
    flat_options = dataclasses.replace(options, discovery_filter_slots=0)
    for kind in kinds:
        config = make_fuzz_config(kind, options)
        interp: Optional[ExecutionResult] = ideal
        if kind is not DirectoryKind.IDEAL:
            interp = execute_program(
                program, config, check_every=check_every, fault=fault
            )
            judge(ideal, interp)
            if fault is not None and "interp" in fault.columns:
                interp = None  # faulted: never a reference
        flat_config = make_fuzz_config(kind, flat_options)
        if vector_supports(flat_config) is not None:
            continue
        if interp is None or flat_config != config:
            interp = execute_program(program, flat_config, check_every=check_every)
        whole = execute_program(
            program, flat_config, column=_WHOLE_TRACE_REFERENCE
        )
        for column in COLUMNS[1:]:
            cell = execute_program(
                program, flat_config, column=column, fault=fault
            )
            judge(interp if column == "vector" else whole, cell)
    return found
