"""Differential verification: adversarial fuzzing against reference cells.

The stash directory's whole claim is that silently dropping entries is
architecturally invisible; this package *hunts* for counterexamples.  It
generates adversarial flat programs (:mod:`.generator`), runs each on an
engine × kind matrix whose interp cells are judged against the
infinite-capacity IDEAL reference and whose fast-engine cells are judged
bit-for-bit against the interpreter (:mod:`.differ`), shrinks any failure
with a delta-debugging minimizer (:mod:`.minimizer`) and serializes the
result as a replayable repro case (:mod:`.corpus`).

Entry point: ``repro fuzz`` (see :mod:`repro.cli`) or the library calls::

    from repro.verify import generate_program, run_differential, RunOptions
    program = generate_program("eviction_storm", 4, 400, DeterministicRng(1))
    divergences = run_differential(program, options=RunOptions())
"""

from .differ import (
    COLUMNS,
    DEFAULT_FUZZ_KINDS,
    FAULTS,
    Divergence,
    Divergences,
    ExecutionResult,
    RunOptions,
    check_stat_sanity,
    diff_results,
    execute_program,
    make_fuzz_config,
    run_differential,
)
from .corpus import (
    FailureCase,
    case_key,
    default_failure_root,
    load_case,
    repro_command,
    save_case,
    seed_corpus,
)
from .generator import PROFILES, generate_program
from .minimizer import minimize

__all__ = [
    "COLUMNS",
    "DEFAULT_FUZZ_KINDS",
    "Divergence",
    "Divergences",
    "ExecutionResult",
    "FAULTS",
    "FailureCase",
    "PROFILES",
    "RunOptions",
    "case_key",
    "check_stat_sanity",
    "default_failure_root",
    "diff_results",
    "execute_program",
    "generate_program",
    "load_case",
    "make_fuzz_config",
    "minimize",
    "repro_command",
    "run_differential",
    "save_case",
    "seed_corpus",
]
