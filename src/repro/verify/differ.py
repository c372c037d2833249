"""Differential execution: every organization vs. the IDEAL reference.

The IDEAL directory (infinite duplicate-tag, no conflicts) defines the
architectural contract; every other organization may differ in *latency*
and *traffic* but never in the values a program observes.  This module
replays one flat program (identical global operation order) on each
organization and compares three things against the reference:

1. **Observed values** — after every operation, the data version the
   issuing core's private cache holds.  Writes mint one version each and
   program order is shared, so the per-op version sequence of a correct
   organization is identical to IDEAL's.
2. **Invariants** — the full suite from
   :mod:`repro.coherence.invariants`, run every ``check_every`` ops and
   at the end.
3. **Final architectural state** — the committed-version map
   (``latest_version``) after the program drains.

On top of the differential comparison, :func:`check_stat_sanity` asserts
per-organization accounting identities (reads + writes = accesses, hit +
upgrade + miss = accesses, ...) that hold for *any* correct run.

A :class:`Divergence` names the organization, a category (``crash``,
``invariant``, ``value``, ``final-state``, ``stats``) and the first
offending operation where applicable.  The minimizer keys on the
``(kind, category)`` signature.

The Tardis backend gets its own differ
(:func:`diff_tardis_results`, categories ``tardis-value``,
``tardis-stale``, ``tardis-write``): its leases make some stale reads
*architecturally legal*, so instead of exact version equality it checks
the bounded-staleness contract — reads observe committed versions,
monotonically per core, never more than ``tardis_lease`` ops after the
superseding write; writes and final state must still match exactly.

Fault injection: :data:`FAULTS` maps names to test-only mutations of a
built system (a lost invalidation message, a dropped stash bit, a sharer
representation that violates its encoding contract).  They exist to prove
the harness *can* catch bugs — ``repro fuzz --inject-fault`` wires them
into every non-ideal system while the reference stays clean.

A second axis, :func:`run_engine_differential`, diffs *engines* instead
of organizations: the same program replays on the interpreter and on the
vector engine (:mod:`repro.sim.vector`) over the identical configuration,
and the two captures must agree bit-for-bit — including the complete
statistics tree, which the organization differ deliberately does not
compare.  :data:`ENGINE_FAULTS` corrupts the vector engine's derived
transition tables to prove this axis catches table-generation bugs.

A third axis, :func:`run_parallel_differential`, regroups the flat
program into per-core streams and runs the full timestamp-ordered
interleave end-to-end on the serial interpreter and on the run-length
batching engine (:mod:`repro.sim.parallel`) with speculation off and
on; the complete simulation results must match bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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
from ..directory.sharers import CoarseVector, LimitedPointer
from ..sim.system import build_system
from ..sim.trace import FlatOp
from ..sim.vector import flat_machine, vector_supports

#: Organizations the fuzzer exercises by default: everything but the
#: reference itself.
DEFAULT_FUZZ_KINDS = tuple(
    kind for kind in DirectoryKind if kind is not DirectoryKind.IDEAL
)

#: Organizations the engine differential exercises: the flat engine's
#: supported kinds, *including* IDEAL (here the interpreter — not the
#: ideal directory — is the reference, so IDEAL is a real candidate).
ENGINE_KINDS = (DirectoryKind.SPARSE, DirectoryKind.IDEAL, DirectoryKind.STASH)


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


@dataclass(frozen=True)
class FaultSpec:
    """A named, test-only mutation applied to a built system."""

    name: str
    description: str
    inject: Callable[[CoherentSystem], None]


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


def _swap_rep_template(system: CoherentSystem, cls, **params) -> None:
    directory = system.directory
    template = getattr(directory, "_rep_template", None)
    if template is None:
        return
    directory._rep_template = cls(system.config.num_cores, **params)


def _inject_pointer_resurrect(system: CoherentSystem) -> None:
    _swap_rep_template(
        system,
        _ResurrectingLimitedPointer,
        pointers=system.config.directory.limited_pointers,
    )


def _inject_coarse_unclamped(system: CoherentSystem) -> None:
    _swap_rep_template(
        system, _UnclampedCoarseVector, group=system.config.directory.coarse_group
    )


def _inject_ts_rollover(system: CoherentSystem) -> None:
    # Tardis timestamps stored in 6 bits without rollover handling: once
    # the op clock passes 63, the L1 lease comparison sees the wrapped
    # clock and expired leases look live forever — stale reads escape the
    # bounded-staleness window.  No-op on non-timestamp backends.
    home = system.home
    if hasattr(home, "ts_wrap_mask"):
        home.ts_wrap_mask = 63


#: Registry of injectable faults (``repro fuzz --inject-fault <name>``).
FAULTS: Dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "drop-invalidation",
            "core 1 ignores home-initiated invalidations (lost message)",
            _inject_drop_invalidation,
        ),
        FaultSpec(
            "stash-bit-lost",
            "LLC drops set_stash_bit writes; stashed copies become unreachable",
            _inject_stash_bit_lost,
        ),
        FaultSpec(
            "pointer-resurrect",
            "LimitedPointer.remove() clears the overflow flag (forgets sharers)",
            _inject_pointer_resurrect,
        ),
        FaultSpec(
            "coarse-unclamped",
            "CoarseVector.targets() names nonexistent tail-group cores",
            _inject_coarse_unclamped,
        ),
        FaultSpec(
            "ts-rollover",
            "tardis timestamps wrap at 6 bits; expired leases look live again",
            _inject_ts_rollover,
        ),
    )
}


def _corrupt_e_write_cell(tables: L1Tables) -> L1Tables:
    # Cell 5 = (EXCLUSIVE, write): the silent E->M upgrade becomes a plain
    # read hit, so the vector run loses a version mint the interpreter
    # performs — the signature of a mis-generated table.
    return corrupt_l1_tables(tables, cell=5)


def _undo_log_fault(tables: L1Tables) -> L1Tables:
    # The tables stay clean: this fault lives inside the parallel engine's
    # speculation layer (the first deferred write surfaced from an undo
    # log downgrades to SHARED), so :func:`run_parallel_differential`
    # recognizes it by name and arms ``ParallelEngine._corrupt_flush``
    # on the speculative runs instead of corrupting the table copy.
    return tables


#: Engine-mode faults (``repro fuzz --engine --inject-fault <name>``).
#: Unlike :data:`FAULTS` these do not mutate a built system: ``inject``
#: maps the derived :class:`L1Tables` to a corrupted copy handed to the
#: vector side only, while the interpreter reference stays clean.
ENGINE_FAULTS: Dict[str, FaultSpec] = {
    spec.name: spec
    for spec in (
        FaultSpec(
            "table-corrupt",
            "flip the (EXCLUSIVE, write) cell of the derived L1 action table",
            _corrupt_e_write_cell,
        ),
        FaultSpec(
            "undo-corrupt",
            "corrupt the first deferred write the speculation layer"
            " surfaces from an undo log (parallel engine only)",
            _undo_log_fault,
        ),
    )
}


# -- execution --------------------------------------------------------------------


@dataclass
class ExecutionResult:
    """Everything one replay exposes for comparison."""

    kind: DirectoryKind
    versions: List[int] = field(default_factory=list)
    final_versions: Dict[int, int] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    error_category: Optional[str] = None
    error_detail: Optional[str] = None
    error_op: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Did the replay complete without raising?"""
        return self.error_category is None


def execute_program(
    program: Sequence[FlatOp],
    config: SystemConfig,
    *,
    check_every: int = 8,
    fault: Optional[FaultSpec] = None,
) -> ExecutionResult:
    """Replay one flat program on a fresh system built from ``config``.

    Captures, per operation, the data version the issuing core's private
    cache holds immediately afterwards (the "observed value"), runs the
    invariant suite every ``check_every`` ops (0 disables the cadence;
    the final check always runs), and snapshots the committed-version map
    and flat statistics at the end.  Exceptions never escape: they are
    folded into the result as a ``crash`` or ``invariant`` record.
    """
    result = ExecutionResult(kind=config.directory.kind)
    index = -1
    try:
        system = build_system(config)
        if fault is not None:
            fault.inject(system)
        versions = result.versions
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
    """One confirmed disagreement between an organization and IDEAL."""

    kind: str
    category: str  # crash | invariant | value | final-state | stats
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


def diff_results(
    reference: ExecutionResult, candidate: ExecutionResult, num_ops: int
) -> Optional[Divergence]:
    """First divergence of ``candidate`` from the IDEAL ``reference``."""
    kind = candidate.kind.value
    if not candidate.ok:
        return Divergence(
            kind,
            candidate.error_category or "crash",
            candidate.error_detail or "unknown failure",
            candidate.error_op,
        )
    for index, (want, got) in enumerate(
        zip(reference.versions, candidate.versions)
    ):
        if want != got:
            return Divergence(
                kind,
                "value",
                f"observed version {got}, ideal observed {want}",
                index,
            )
    if candidate.final_versions != reference.final_versions:
        keys = set(reference.final_versions) | set(candidate.final_versions)
        diffs = [
            f"{addr:#x}: ideal={reference.final_versions.get(addr)} "
            f"got={candidate.final_versions.get(addr)}"
            for addr in sorted(keys)
            if reference.final_versions.get(addr)
            != candidate.final_versions.get(addr)
        ]
        return Divergence(
            kind, "final-state", "committed versions differ: " + "; ".join(diffs[:4])
        )
    broken = check_stat_sanity(candidate, num_ops)
    if broken is not None:
        return Divergence(kind, "stats", broken)
    return None


def diff_tardis_results(
    program: Sequence[FlatOp],
    reference: ExecutionResult,
    candidate: ExecutionResult,
    num_ops: int,
    *,
    lease: int,
) -> Optional[Divergence]:
    """First divergence of a Tardis replay from IDEAL, staleness-aware.

    Tardis deliberately serves *bounded-stale* reads: a leased S copy
    remains legally readable after a remote write supersedes it, until
    its lease expires.  The exact-version comparison of
    :func:`diff_results` would flag every such read, so this differ
    checks the precise architectural contract instead:

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
    * **Final state and statistics** match exactly, as for every other
      organization.
    """
    kind = candidate.kind.value
    if not candidate.ok:
        return Divergence(
            kind,
            candidate.error_category or "crash",
            candidate.error_detail or "unknown failure",
            candidate.error_op,
        )
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
    if candidate.final_versions != reference.final_versions:
        keys = set(reference.final_versions) | set(candidate.final_versions)
        diffs = [
            f"{addr:#x}: ideal={reference.final_versions.get(addr)} "
            f"got={candidate.final_versions.get(addr)}"
            for addr in sorted(keys)
            if reference.final_versions.get(addr)
            != candidate.final_versions.get(addr)
        ]
        return Divergence(
            kind, "final-state", "committed versions differ: " + "; ".join(diffs[:4])
        )
    broken = check_stat_sanity(candidate, num_ops)
    if broken is not None:
        return Divergence(kind, "stats", broken)
    return None


def run_differential(
    program: Sequence[FlatOp],
    *,
    kinds: Sequence[DirectoryKind] = DEFAULT_FUZZ_KINDS,
    options: RunOptions = RunOptions(),
    fault: Optional[FaultSpec] = None,
    fault_kinds: Optional[Sequence[DirectoryKind]] = None,
) -> List[Divergence]:
    """Run every organization against IDEAL on one program.

    ``fault`` (when given) is injected into each non-ideal system whose
    kind is in ``fault_kinds`` (default: all of ``kinds``); the reference
    always runs clean.  Returns every divergence found — empty means all
    organizations agree with IDEAL and satisfy the stat identities.
    """
    reference = execute_program(
        program,
        make_fuzz_config(DirectoryKind.IDEAL, options),
        check_every=options.check_every,
    )
    if not reference.ok:
        return [
            Divergence(
                DirectoryKind.IDEAL.value,
                reference.error_category or "crash",
                f"IDEAL reference failed: {reference.error_detail}",
                reference.error_op,
            )
        ]
    broken = check_stat_sanity(reference, len(program))
    if broken is not None:
        return [Divergence(DirectoryKind.IDEAL.value, "stats", broken)]
    divergences: List[Divergence] = []
    for kind in kinds:
        if kind is DirectoryKind.IDEAL:
            continue
        this_fault = fault
        if fault is not None and fault_kinds is not None and kind not in fault_kinds:
            this_fault = None
        candidate = execute_program(
            program,
            make_fuzz_config(kind, options),
            check_every=options.check_every,
            fault=this_fault,
        )
        if kind is DirectoryKind.TARDIS:
            # Exact-version comparison would flag every legally stale
            # read; check the bounded-staleness contract instead.
            divergence = diff_tardis_results(
                program,
                reference,
                candidate,
                len(program),
                lease=options.tardis_lease,
            )
        else:
            divergence = diff_results(reference, candidate, len(program))
        if divergence is not None:
            divergences.append(divergence)
    return divergences


# -- engine differential: interpreter vs vector engine ----------------------------


def execute_program_vector(
    program: Sequence[FlatOp],
    config: SystemConfig,
    *,
    tables: Optional[L1Tables] = None,
) -> ExecutionResult:
    """Replay one flat program op-by-op on the vector engine's flat machine.

    The capture mirrors :func:`execute_program` exactly — per-op held
    version, committed-version map, flattened statistics — so the two
    results can be compared field-for-field.  ``tables`` substitutes the
    derived transition tables (fault injection); the flat machine has no
    invariant walker, so only crashes and the captured state can diverge.
    """
    result = ExecutionResult(kind=config.directory.kind)
    index = -1
    try:
        machine = flat_machine(config, tables=tables)
        versions = result.versions
        access = machine.access
        held = machine.held_version
        for index, (core, block, is_write) in enumerate(program):
            access(core, block, 1 if is_write else 0)
            versions.append(held(core, block))
        result.final_versions = dict(machine.latest_version)
        result.stats = machine.flat_stats()
    except (ReproError, IndexError, KeyError, AssertionError) as exc:
        result.error_category = "crash"
        result.error_detail = f"{type(exc).__name__}: {exc}"
        result.error_op = index
    return result


def diff_engine_results(
    reference: ExecutionResult, candidate: ExecutionResult, num_ops: int
) -> Optional[Divergence]:
    """First disagreement between an interpreter and a vector replay.

    Unlike :func:`diff_results` (which tolerates latency and traffic
    differences between *organizations*), the two engines model the same
    organization and must agree **bit-for-bit**: observed versions, the
    committed-version map, and the complete statistics tree.  Categories
    are prefixed ``engine-`` so failure corpus signatures stay disjoint
    from organization-vs-IDEAL ones.
    """
    kind = reference.kind.value
    if not reference.ok:
        return Divergence(
            kind,
            "engine-crash",
            f"interpreter reference failed: {reference.error_detail}",
            reference.error_op,
        )
    if not candidate.ok:
        return Divergence(
            kind,
            "engine-crash",
            candidate.error_detail or "unknown failure",
            candidate.error_op,
        )
    for index, (want, got) in enumerate(
        zip(reference.versions, candidate.versions)
    ):
        if want != got:
            return Divergence(
                kind,
                "engine-value",
                f"vector observed version {got}, interpreter observed {want}",
                index,
            )
    if candidate.final_versions != reference.final_versions:
        keys = set(reference.final_versions) | set(candidate.final_versions)
        diffs = [
            f"{addr:#x}: interp={reference.final_versions.get(addr)} "
            f"vector={candidate.final_versions.get(addr)}"
            for addr in sorted(keys)
            if reference.final_versions.get(addr)
            != candidate.final_versions.get(addr)
        ]
        return Divergence(
            kind,
            "engine-final-state",
            "committed versions differ: " + "; ".join(diffs[:4]),
        )
    if candidate.stats != reference.stats:
        keys = set(reference.stats) | set(candidate.stats)
        diffs = [
            f"{name}: interp={reference.stats.get(name)} "
            f"vector={candidate.stats.get(name)}"
            for name in sorted(keys)
            if reference.stats.get(name) != candidate.stats.get(name)
        ]
        return Divergence(
            kind, "engine-stats", "stat trees differ: " + "; ".join(diffs[:4])
        )
    broken = check_stat_sanity(candidate, num_ops)
    if broken is not None:
        return Divergence(kind, "engine-stats", broken)
    return None


def run_parallel_differential(
    program: Sequence[FlatOp],
    *,
    kinds: Sequence[DirectoryKind] = ENGINE_KINDS,
    options: RunOptions = RunOptions(),
    fault: Optional[FaultSpec] = None,
    epoch_ops: int = 96,
    speculate: Sequence[bool] = (False, True),
    spec_min: int = 4,
) -> List[Divergence]:
    """Run the parallel engine against the interpreter on one program.

    Where :func:`run_engine_differential` replays the *global* flat order
    op by op, this axis exercises the full timestamp-ordered interleave:
    the program's ops are regrouped into per-core streams (per-core order
    preserved) and the whole trace runs end-to-end on the serial
    interpreter and on :class:`repro.sim.parallel.ParallelEngine` — once
    per ``speculate`` setting — over the same configuration.  The complete
    :class:`~repro.sim.results.SimulationResult` must agree bit-for-bit:
    per-core cycles, the flattened statistics tree and the
    effective-tracking samples.  ``epoch_ops`` is deliberately tiny so a
    few hundred ops cross many scan windows (stale-snapshot revalidation,
    window refills and warp commits all fire), and the speculative runs
    drop the chunk threshold to ``spec_min`` so short adversarial
    programs still build, flush, validate and squash undo logs.
    ``fault`` (from :data:`ENGINE_FAULTS`) corrupts the tables handed to
    the parallel side only — except ``undo-corrupt``, which instead arms
    the speculation layer's undo-log corruption hook on the speculative
    runs.  Categories are prefixed ``parallel-``.
    """
    from ..common.addr import log2_exact
    from ..sim.parallel import ParallelEngine
    from ..sim.simulator import run_trace
    from ..sim.trace import PackedTrace, Trace

    undo_fault = fault is not None and fault.name == "undo-corrupt"
    divergences: List[Divergence] = []
    for kind in kinds:
        config = make_fuzz_config(kind, options)
        if vector_supports(config) is not None:
            continue
        shift = log2_exact(config.block_bytes)
        trace = Trace(config.num_cores)
        for core, block, is_write in program:
            trace.append(core, block << shift, is_write)
        packed = PackedTrace.from_trace(trace)
        reference = run_trace(config, trace, engine="interp")
        ref_stats = sorted(reference.stats.items())
        tables = None
        if fault is not None and not undo_fault:
            tables = fault.inject(l1_tables(config.protocol))
        for spec in speculate:
            label = f"{kind.value} (speculate={'on' if spec else 'off'})"
            try:
                engine = ParallelEngine(
                    config,
                    tables=tables,
                    epoch_ops=epoch_ops,
                    speculate=spec,
                    spec_min=spec_min if spec else None,
                )
                if undo_fault and spec:
                    engine._corrupt_flush = True
                candidate = engine.run(packed)
            except (ReproError, IndexError, KeyError, AssertionError) as exc:
                divergences.append(
                    Divergence(
                        kind.value,
                        "parallel-crash",
                        f"{label}: {type(exc).__name__}: {exc}",
                    )
                )
                continue
            if candidate.cycles_per_core != reference.cycles_per_core:
                diffs = [
                    f"core {c}: interp={want} parallel={got}"
                    for c, (want, got) in enumerate(
                        zip(reference.cycles_per_core, candidate.cycles_per_core)
                    )
                    if want != got
                ]
                divergences.append(
                    Divergence(
                        kind.value,
                        "parallel-cycles",
                        f"{label}: per-core cycles differ: " + "; ".join(diffs[:4]),
                    )
                )
            elif sorted(candidate.stats.items()) != ref_stats:
                keys = set(reference.stats) | set(candidate.stats)
                diffs = [
                    f"{name}: interp={reference.stats.get(name)} "
                    f"parallel={candidate.stats.get(name)}"
                    for name in sorted(keys)
                    if reference.stats.get(name) != candidate.stats.get(name)
                ]
                divergences.append(
                    Divergence(
                        kind.value,
                        "parallel-stats",
                        f"{label}: stat trees differ: " + "; ".join(diffs[:4]),
                    )
                )
            elif (
                candidate.effective_tracking_samples
                != reference.effective_tracking_samples
            ):
                divergences.append(
                    Divergence(
                        kind.value,
                        "parallel-samples",
                        f"{label}: effective-tracking sample series differ",
                    )
                )
    return divergences


def run_engine_differential(
    program: Sequence[FlatOp],
    *,
    kinds: Sequence[DirectoryKind] = ENGINE_KINDS,
    options: RunOptions = RunOptions(),
    fault: Optional[FaultSpec] = None,
) -> List[Divergence]:
    """Run the vector engine against the interpreter on one program.

    For every kind in ``kinds`` the flat engine supports (the rest are
    skipped — they have no flat view to compare), the identical global
    operation order replays on both engines over the same tiny fuzz
    configuration and the captures must match bit-for-bit.  ``fault``
    (from :data:`ENGINE_FAULTS`) corrupts the transition tables handed to
    the vector side only.  Empty result = the engines agree everywhere.
    """
    divergences: List[Divergence] = []
    for kind in kinds:
        config = make_fuzz_config(kind, options)
        if vector_supports(config) is not None:
            continue
        reference = execute_program(
            program, config, check_every=options.check_every
        )
        tables = None
        if fault is not None:
            tables = fault.inject(l1_tables(config.protocol))
        candidate = execute_program_vector(program, config, tables=tables)
        divergence = diff_engine_results(reference, candidate, len(program))
        if divergence is not None:
            divergences.append(divergence)
    return divergences
