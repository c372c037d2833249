"""The matrix's fast columns: vector and vector-trace vs the interpreter."""

import inspect
import textwrap

import pytest

from repro.analysis.experiments import KINDS
from repro.coherence.tables import (
    corrupt_l1_tables,
    l1_tables,
    validate_l1_tables,
)
from repro.common.config import DirectoryKind, SharerFormat
from repro.common.errors import ProtocolError
from repro.common.mesi import CoherenceProtocol
from repro.common.rng import DeterministicRng
from repro.sim import vector
from repro.sim.vector import VectorEngine, _CuckooMachine
from repro.verify import (
    FAULTS,
    RunOptions,
    diff_results,
    execute_program,
    generate_program,
    make_fuzz_config,
    run_differential,
)

#: The rows the flat engines model: each runs every fast column.
FLAT_KINDS = tuple(KINDS)

#: Two ops that drive core 0's line through EXCLUSIVE into a silent
#: write upgrade — the cell the table-corrupt fault flips.
E_WRITE_PROGRAM = [(0, 1, False), (0, 1, True)]

#: Categories of interp cells judged against IDEAL.
ORGANIZATION_CATEGORIES = {
    "crash", "invariant", "value", "final-state", "stats",
    "tardis-value", "tardis-stale", "tardis-write",
}


def program_for(profile, options, ops=150, seed=1):
    return generate_program(
        profile, options.num_cores, ops, DeterministicRng(seed)
    )


class TestCleanAgreement:
    """Every flat row runs each fast column, and each agrees bit-for-bit."""

    def agree(self, program, options):
        divergences = run_differential(program, kinds=FLAT_KINDS, options=options)
        assert divergences == []
        rows = len(FLAT_KINDS)
        assert divergences.cells == {
            "interp": rows, "vector": rows, "vector-trace": rows,
        }

    def test_engines_agree_on_mixed_program(self):
        options = RunOptions()
        self.agree(program_for("mixed", options), options)

    def test_engines_agree_under_moesi(self):
        options = RunOptions(protocol=CoherenceProtocol.MOESI)
        self.agree(program_for("stash_race", options), options)

    def test_engines_agree_six_cores_coarse(self):
        options = RunOptions(
            num_cores=6,
            sharer_format=SharerFormat.COARSE_VECTOR,
            coarse_group=4,
        )
        self.agree(program_for("group_alias", options), options)

    def test_engines_agree_limited_pointer_overflow(self):
        options = RunOptions(
            sharer_format=SharerFormat.LIMITED_POINTER,
            limited_pointers=2,
            protocol=CoherenceProtocol.MOESI,
        )
        self.agree(program_for("pointer_overflow", options), options)

    def test_discovery_filter_runs_fast_cells_without_it(self):
        # Presence filters are interpreter-only: the interp cells keep the
        # filter, the fast cells run the row without one.
        options = RunOptions(discovery_filter_slots=8)
        self.agree(program_for("mixed", options, ops=40), options)


class TestVectorExecution:
    def test_capture_matches_interpreter_exactly(self):
        options = RunOptions()
        program = program_for("set_conflict", options, ops=200)
        for kind in FLAT_KINDS:
            config = make_fuzz_config(kind, options)
            interp = execute_program(program, config)
            vector = execute_program(program, config, column="vector")
            assert interp.ok and vector.ok
            assert vector.versions == interp.versions
            assert vector.final_versions == interp.final_versions
            assert vector.stats == interp.stats
            assert diff_results(interp, vector, program) is None

    def test_out_of_range_core_is_crash_not_raise(self):
        config = make_fuzz_config(DirectoryKind.SPARSE, RunOptions(num_cores=4))
        for column in ("vector", "vector-trace"):
            result = execute_program([(7, 1, True)], config, column=column)
            assert not result.ok
            assert result.error_category == "crash"


class TestFaultDetection:
    def test_table_corrupt_caught_on_every_kind(self):
        divergences = run_differential(
            E_WRITE_PROGRAM,
            kinds=FLAT_KINDS,
            options=RunOptions(),
            fault=FAULTS["table-corrupt"],
        )
        vector = [d for d in divergences if d.category.startswith("engine-")]
        assert {d.kind for d in vector} == {k.value for k in FLAT_KINDS}
        for divergence in vector:
            assert divergence.category == "engine-value"
            assert divergence.op_index == 1  # the write that lost its mint

    def test_table_corrupt_caught_by_generated_program(self):
        # The harness finds the fault from fuzz programs too, not only
        # the hand-built repro.
        options = RunOptions(seed=2)
        program = program_for("stash_race", options, ops=400, seed=2)
        divergences = run_differential(
            program, options=options, fault=FAULTS["table-corrupt"]
        )
        assert divergences
        assert all(
            d.category.startswith(("engine-", "trace-")) for d in divergences
        )

    def test_corrupted_table_fails_validation_too(self):
        # Independent second line of defense: the analytic cross-check
        # rejects the same corruption the differ catches dynamically.
        corrupted = FAULTS["table-corrupt"].inject(
            l1_tables(CoherenceProtocol.MESI)
        )
        with pytest.raises(ProtocolError):
            validate_l1_tables(corrupted)

    @pytest.mark.parametrize(
        "protocol", [CoherenceProtocol.MESI, CoherenceProtocol.MOESI]
    )
    def test_corruption_leaves_memoized_table_intact(self, protocol):
        # A corrupted copy must not write through to the per-process
        # memo, or the next clean run would dispatch the flipped cell.
        clean = l1_tables(protocol).flat_action()
        corrupted = corrupt_l1_tables(l1_tables(protocol))
        assert corrupted.flat_action() != clean
        validate_l1_tables(l1_tables(protocol))
        assert l1_tables(protocol).flat_action() == clean

    def test_table_rows_are_immutable(self):
        tables = l1_tables(CoherenceProtocol.MESI)
        with pytest.raises(TypeError):
            tables.action[2][1] = 0
        with pytest.raises(TypeError):
            tables.grant_state[0] = 0

    def test_stats_only_divergence_detected(self):
        options = RunOptions()
        config = make_fuzz_config(DirectoryKind.SPARSE, options)
        interp = execute_program(E_WRITE_PROGRAM, config)
        vector = execute_program(E_WRITE_PROGRAM, config, column="vector")
        vector.stats = dict(vector.stats)
        vector.stats["system.protocol.latency_total"] += 1.0
        divergence = diff_results(interp, vector, E_WRITE_PROGRAM)
        assert divergence is not None
        assert divergence.category == "engine-stats"
        assert "latency_total" in divergence.detail

    def test_signature_disjoint_from_organization_differ(self):
        divergences = run_differential(
            E_WRITE_PROGRAM,
            kinds=[DirectoryKind.STASH],
            options=RunOptions(),
            fault=FAULTS["table-corrupt"],
        )
        assert ("stash", "engine-value") in {d.signature for d in divergences}
        assert {d.kind for d in divergences} == {"stash"}
        assert not {d.category for d in divergences} & ORGANIZATION_CATEGORIES


class TestFlatModelMutations:
    """A broken flat directory model diverges on its own row, and only there.

    Each test breaks one rule of one flat model for the duration of the
    test, then runs the whole matrix on a fixed program that reaches the
    rule.  The interpreter cells stay clean, so the fast cells of that one
    row must diverge from them.
    """

    PROGRAM = program_for("mixed", RunOptions(), ops=200, seed=1)

    def assert_caught_on(self, kind):
        divergences = run_differential(
            self.PROGRAM, kinds=FLAT_KINDS, options=RunOptions()
        )
        assert {d.kind for d in divergences} == {kind.value}
        assert any(d.category.startswith("engine-") for d in divergences)

    def test_program_reaches_both_mechanisms(self):
        for kind, counter in (
            (DirectoryKind.CUCKOO, "system.directory.relocations"),
            (DirectoryKind.SCD, "system.directory.evictions"),
        ):
            config = make_fuzz_config(kind, RunOptions())
            result = execute_program(self.PROGRAM, config, column="vector")
            assert result.stats.get(counter, 0) > 0

    def test_cuckoo_ignoring_last_way_is_caught(self, monkeypatch):
        # Mutate the live allocator's source: the way just filled loses
        # its last-resort status, so chains may bounce straight back.
        source = textwrap.dedent(
            inspect.getsource(_CuckooMachine._dir_allocate)
        )
        assert source.count("way == last_way") == 1
        namespace = dict(vars(vector))
        exec(source.replace("way == last_way", "False"), namespace)
        monkeypatch.setattr(
            _CuckooMachine, "_dir_allocate", namespace["_dir_allocate"]
        )
        self.assert_caught_on(DirectoryKind.CUCKOO)

    def test_scd_one_line_per_entry_is_caught(self, monkeypatch):
        monkeypatch.setattr(vector, "scd_lines", lambda mask: 1)
        self.assert_caught_on(DirectoryKind.SCD)


    def test_run_loop_dropping_the_dirty_bit_is_caught(self, monkeypatch):
        # Mutate the engine's inlined hit loop: a silent E->M upgrade no
        # longer marks the line dirty.  Only the vector-trace column runs
        # that loop; the vector column replays through the flat machine.
        source = textwrap.dedent(inspect.getsource(VectorEngine.run))
        assert source.count("rec[2] = 1") == 1
        namespace = dict(vars(vector))
        exec(source.replace("rec[2] = 1", "pass"), namespace)
        monkeypatch.setattr(VectorEngine, "run", namespace["run"])
        divergences = run_differential(
            self.PROGRAM, kinds=FLAT_KINDS, options=RunOptions()
        )
        assert divergences
        assert all(d.category.startswith("trace-") for d in divergences)
