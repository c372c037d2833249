"""The differential matrix: clean agreement, fault detection, stat sanity."""

import pytest

from repro.common.config import DirectoryKind, SharerFormat
from repro.common.mesi import CoherenceProtocol
from repro.common.rng import DeterministicRng
from repro.verify import (
    DEFAULT_FUZZ_KINDS,
    FAULTS,
    RunOptions,
    check_stat_sanity,
    execute_program,
    generate_program,
    make_fuzz_config,
    run_differential,
)


def program_for(profile, options, ops=150, seed=1):
    return generate_program(
        profile, options.num_cores, ops, DeterministicRng(seed)
    )


class TestCleanAgreement:
    def test_all_kinds_agree_with_ideal(self):
        options = RunOptions()
        program = program_for("mixed", options)
        assert run_differential(program, options=options) == []

    def test_moesi_all_kinds_agree(self):
        options = RunOptions(protocol=CoherenceProtocol.MOESI)
        program = program_for("stash_race", options)
        assert run_differential(program, options=options) == []

    def test_six_cores_coarse_group_four(self):
        """Satellite end-to-end: non-multiple core/group fuzzing is clean."""
        options = RunOptions(
            num_cores=6,
            sharer_format=SharerFormat.COARSE_VECTOR,
            coarse_group=4,
        )
        program = program_for("group_alias", options)
        assert run_differential(program, options=options) == []

    def test_limited_pointer_overflow_clean(self):
        options = RunOptions(
            sharer_format=SharerFormat.LIMITED_POINTER,
            limited_pointers=2,
            protocol=CoherenceProtocol.MOESI,
        )
        program = program_for("pointer_overflow", options)
        assert run_differential(program, options=options) == []


class TestExecution:
    def test_versions_recorded_per_op(self):
        options = RunOptions()
        program = [(0, 1, True), (1, 1, False), (0, 2, False)]
        result = execute_program(
            program, make_fuzz_config(DirectoryKind.IDEAL, options)
        )
        assert result.ok
        assert len(result.versions) == 3
        assert result.versions[0] == 1  # first write mints version 1
        assert result.versions[1] == 1  # reader observes it
        assert result.final_versions == {1: 1}

    def test_stat_sanity_on_clean_run(self):
        options = RunOptions()
        program = program_for("eviction_storm", options, ops=120)
        for kind in DEFAULT_FUZZ_KINDS:
            result = execute_program(
                program, make_fuzz_config(kind, options), check_every=0
            )
            assert result.ok, result.error_detail
            assert check_stat_sanity(result, len(program)) is None

    def test_stat_sanity_catches_broken_identity(self):
        options = RunOptions()
        result = execute_program(
            [(0, 1, True)], make_fuzz_config(DirectoryKind.SPARSE, options)
        )
        result.stats["system.protocol.accesses"] += 1
        assert "identity broken" in check_stat_sanity(result, 1)

    def test_out_of_range_core_is_crash_not_raise(self):
        options = RunOptions(num_cores=4)
        result = execute_program(
            [(7, 1, True)], make_fuzz_config(DirectoryKind.SPARSE, options)
        )
        assert not result.ok
        assert result.error_category == "crash"


class TestFaultDetection:
    """Every registry fault must be caught by some profile/parameterization
    (these are the acceptance cases for the harness's bug-finding power)."""

    def hunt(self, fault_name, profile, options, kinds, seeds=range(1, 10)):
        fault = FAULTS[fault_name]
        for seed in seeds:
            program = generate_program(
                profile, options.num_cores, 300, DeterministicRng(seed)
            )
            divergences = run_differential(
                program, kinds=kinds, options=options, fault=fault
            )
            if divergences:
                return divergences[0]
        return None

    def test_drop_invalidation_caught(self):
        divergence = self.hunt(
            "drop-invalidation", "eviction_storm", RunOptions(),
            [DirectoryKind.SPARSE],
        )
        assert divergence is not None
        assert divergence.category in ("invariant", "value")

    def test_stash_bit_lost_caught(self):
        divergence = self.hunt(
            "stash-bit-lost", "stash_race", RunOptions(),
            [DirectoryKind.STASH],
        )
        assert divergence is not None
        assert divergence.kind == "stash"

    def test_pointer_resurrect_caught(self):
        divergence = self.hunt(
            "pointer-resurrect", "pointer_overflow",
            RunOptions(
                sharer_format=SharerFormat.LIMITED_POINTER,
                limited_pointers=2,
                protocol=CoherenceProtocol.MOESI,
            ),
            [DirectoryKind.SPARSE],
        )
        assert divergence is not None

    def test_coarse_unclamped_caught(self):
        divergence = self.hunt(
            "coarse-unclamped", "group_alias",
            RunOptions(
                num_cores=6,
                sharer_format=SharerFormat.COARSE_VECTOR,
                coarse_group=4,
            ),
            [DirectoryKind.SPARSE],
        )
        assert divergence is not None
        assert divergence.category == "crash"

    @pytest.mark.parametrize("fault_name", ["drop-invalidation", "stash-bit-lost"])
    def test_system_fault_never_yields_fast_divergence(self, fault_name):
        # The fault breaks the stash row's interp cell, yet its fast cells
        # are judged against a clean interp capture, never the faulted one.
        options = RunOptions()
        program = program_for("stash_race", options, ops=300, seed=2)
        divergences = run_differential(
            program, options=options, fault=FAULTS[fault_name]
        )
        assert ("stash", "invariant") in {d.signature for d in divergences}
        assert divergences.cells["vector"] == 5  # every flat kind
        assert not [
            d for d in divergences
            if d.category.startswith(("engine-", "trace-"))
        ]


class TestOptionsRoundTrip:
    def test_to_from_meta(self):
        options = RunOptions(
            num_cores=6,
            sharer_format=SharerFormat.COARSE_VECTOR,
            protocol=CoherenceProtocol.MOESI,
            clean_eviction_notification=True,
            discovery_filter_slots=8,
            seed=17,
        )
        assert RunOptions.from_meta(options.to_meta()) == options
