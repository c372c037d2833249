"""Tests for the Tardis bounded-staleness oracle of the differential matrix.

The Tardis backend legally serves bounded-stale reads, so its interp cells
get their own oracle in :func:`repro.verify.differ.diff_results`.  These tests pin
the contract from both sides: correct runs produce no divergences, and
each way of breaking the contract — future reads, phantom versions,
non-monotone reads, beyond-lease staleness, write mismatches — is caught
with the right category.  The ``ts-rollover`` fault closes the loop
end-to-end: inject, catch, minimize, replay.
"""

import pytest

from repro.common.config import DirectoryKind
from repro.common.rng import DeterministicRng
from repro.verify import (
    FAULTS,
    RunOptions,
    generate_program,
    run_differential,
)
from repro.verify.differ import (
    ExecutionResult,
    diff_results,
    execute_program,
    make_fuzz_config,
)

TARDIS = DirectoryKind.TARDIS


class TestCleanRuns:
    @pytest.mark.parametrize("profile", ["mixed", "eviction_storm"])
    def test_tardis_agrees_with_ideal(self, profile):
        program = generate_program(profile, 4, 400, DeterministicRng(11))
        assert run_differential(program, kinds=[TARDIS]) == []

    def test_tardis_agrees_under_moesi_option_cycling(self):
        # The fuzz driver cycles protocol=MOESI on odd seeds; tardis
        # ignores the knob but must still run clean under it.
        from repro.common.mesi import CoherenceProtocol

        program = generate_program("stash_race", 4, 300, DeterministicRng(5))
        options = RunOptions(protocol=CoherenceProtocol.MOESI)
        assert run_differential(program, kinds=[TARDIS], options=options) == []


def _capture(program, versions, final=None):
    result = ExecutionResult(kind=TARDIS)
    result.versions = list(versions)
    result.final_versions = dict(final or {})
    return result


def _reference(program, versions, final=None):
    result = ExecutionResult(kind=DirectoryKind.IDEAL)
    result.versions = list(versions)
    result.final_versions = dict(final or {})
    return result


class TestContract:
    # program: core 0 writes block 1 twice, core 1 reads it in between.
    PROGRAM = [(0, 1, True), (1, 1, False), (0, 1, True), (1, 1, False)]
    REF = [1, 1, 2, 2]
    FINAL = {1: 2}

    def _diff(self, got, lease=16, final=None):
        reference = self._reference()
        candidate = _capture(self.PROGRAM, got, final=final or self.FINAL)
        return diff_results(reference, candidate, self.PROGRAM, lease=lease)

    def _reference(self):
        return _reference(self.PROGRAM, self.REF, final=self.FINAL)

    def test_exact_match_passes(self):
        divergence = self._diff([1, 1, 2, 2])
        # Only the stats identity can complain on a hand-built capture.
        assert divergence is None or divergence.category == "stats"

    def test_stale_read_within_lease_is_legal(self):
        # Op 3 observes version 1, superseded at op 2: staleness 1 < 16.
        divergence = self._diff([1, 1, 2, 1])
        assert divergence is None or divergence.category == "stats"

    def test_stale_read_beyond_lease_flagged(self):
        divergence = self._diff([1, 1, 2, 1], lease=1)
        assert divergence is not None
        assert divergence.category == "tardis-stale"
        assert divergence.op_index == 3

    def test_future_read_flagged(self):
        divergence = self._diff([1, 1, 2, 3])
        assert divergence is not None and divergence.category == "tardis-value"

    def test_phantom_version_flagged(self):
        # Version 7 was never committed for block 1 — not in the history.
        reference = _reference(self.PROGRAM, [1, 1, 9, 9], final={1: 9})
        candidate = _capture(self.PROGRAM, [1, 1, 9, 7], final={1: 9})
        divergence = diff_results(reference, candidate, self.PROGRAM, lease=16)
        assert divergence is not None and divergence.category == "tardis-value"

    def test_write_mismatch_flagged(self):
        divergence = self._diff([1, 1, 5, 2])
        assert divergence is not None and divergence.category == "tardis-write"
        assert divergence.op_index == 2

    def test_non_monotone_read_flagged(self):
        program = [(0, 1, True), (0, 1, True), (1, 1, False), (1, 1, False)]
        reference = _reference(program, [1, 2, 2, 2], final={1: 2})
        candidate = _capture(program, [1, 2, 2, 1], final={1: 2})
        divergence = diff_results(reference, candidate, program, lease=16)
        assert divergence is not None and divergence.category == "tardis-value"
        assert "non-monotone" in divergence.detail

    def test_final_state_mismatch_flagged(self):
        divergence = self._diff([1, 1, 2, 2], final={1: 1})
        assert divergence is not None and divergence.category == "final-state"

    def test_crash_passes_through(self):
        candidate = _capture(self.PROGRAM, [])
        candidate.error_category = "invariant"
        candidate.error_detail = "boom"
        candidate.error_op = 2
        divergence = diff_results(
            self._reference(), candidate, self.PROGRAM, lease=16
        )
        assert divergence is not None and divergence.category == "invariant"


class TestRolloverFault:
    def test_rollover_caught_as_stale_read(self):
        program = generate_program("stash_race", 4, 2000, DeterministicRng(2))
        divergences = run_differential(
            program, kinds=[TARDIS], fault=FAULTS["ts-rollover"]
        )
        assert divergences, "rollover fault escaped the differential harness"
        assert {d.category for d in divergences} <= {
            "tardis-stale",
            "tardis-value",
            "invariant",
        }
        assert any(d.category == "tardis-stale" for d in divergences)

    def test_rollover_noops_on_conventional_backends(self):
        program = generate_program("mixed", 4, 300, DeterministicRng(3))
        divergences = run_differential(
            program,
            kinds=[DirectoryKind.SPARSE],
            fault=FAULTS["ts-rollover"],
        )
        assert divergences == []

    def test_minimized_case_still_fails(self):
        from repro.verify import minimize

        program = generate_program("stash_race", 4, 2000, DeterministicRng(2))
        options = RunOptions()
        fault = FAULTS["ts-rollover"]
        divergences = run_differential(
            program, kinds=[TARDIS], fault=fault, options=options
        )
        signature = divergences[0].signature

        def still_fails(candidate):
            found = run_differential(
                candidate, kinds=[TARDIS], fault=fault, options=options
            )
            return any(d.signature == signature for d in found)

        small = minimize(program, still_fails)
        assert len(small) < len(program)
        assert still_fails(small)


class TestOptionsRoundTrip:
    def test_tardis_lease_survives_meta(self):
        options = RunOptions(tardis_lease=7)
        assert RunOptions.from_meta(options.to_meta()).tardis_lease == 7

    def test_legacy_meta_defaults_lease(self):
        meta = RunOptions().to_meta()
        del meta["tardis_lease"]
        assert RunOptions.from_meta(meta).tardis_lease == 16

    def test_fuzz_config_carries_lease(self):
        config = make_fuzz_config(TARDIS, RunOptions(tardis_lease=7))
        assert config.directory.tardis_lease == 7

    def test_smaller_lease_tightens_the_bound(self):
        # The same replay judged under its real lease passes, and under a
        # 1-op lease fails: the differ's bound tracks the config.
        program = generate_program("stash_race", 4, 600, DeterministicRng(4))
        options = RunOptions(tardis_lease=16)
        reference = execute_program(
            program,
            make_fuzz_config(DirectoryKind.IDEAL, options),
            check_every=options.check_every,
        )
        candidate = execute_program(
            program,
            make_fuzz_config(TARDIS, options),
            check_every=options.check_every,
        )
        assert diff_results(reference, candidate, program, lease=16) is None
        strict = diff_results(reference, candidate, program, lease=1)
        assert strict is not None and strict.category == "tardis-stale"
