"""Delta-debugging trace minimizer.

Given a failing flat program and a predicate that re-runs the differential
check, shrink the program while preserving the failure *signature* (the
``(kind, category)`` pair of the original divergence).  Three passes, each
cheap and deterministic:

1. **Drop-op halving (ddmin)** — remove progressively smaller chunks of
   the program, doubling granularity when no chunk can be dropped.
2. **Per-core reduction** — try dropping every operation issued by one
   core at a time (a failure rarely needs all cores).
3. **Per-address reduction** — likewise for each distinct block.

A final single-op sweep catches stragglers the coarser passes left
behind.  The predicate is invoked at most ``max_checks`` times; each
invocation reruns one row of the differential matrix on tiny systems,
so the whole minimization stays in the seconds range even for
multi-thousand-op programs.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .generator import FlatOp

#: Failure predicate: True when the candidate program still fails with
#: the original signature.
Predicate = Callable[[List[FlatOp]], bool]


class _Budget:
    """Mutable check counter shared across passes."""

    __slots__ = ("left",)

    def __init__(self, max_checks: int) -> None:
        self.left = max_checks

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def _ddmin(program: List[FlatOp], fails: Predicate, budget: _Budget) -> List[FlatOp]:
    chunks = 2
    while len(program) >= 2:
        chunk_len = max(1, len(program) // chunks)
        shrunk = False
        start = 0
        while start < len(program):
            candidate = program[:start] + program[start + chunk_len:]
            if not candidate or not budget.spend():
                start += chunk_len
                continue
            if fails(candidate):
                program = candidate
                chunks = max(2, chunks - 1)
                shrunk = True
                # Re-test from the same offset: the next chunk slid left.
            else:
                start += chunk_len
        if not shrunk:
            if chunk_len == 1:
                break
            chunks = min(len(program), chunks * 2)
        if budget.left <= 0:
            break
    return program


def _drop_group(
    program: List[FlatOp],
    fails: Predicate,
    budget: _Budget,
    key: Callable[[FlatOp], int],
) -> List[FlatOp]:
    for value in sorted({key(op) for op in program}):
        candidate = [op for op in program if key(op) != value]
        if not candidate or candidate == program or not budget.spend():
            continue
        if fails(candidate):
            program = candidate
    return program


def _single_op_sweep(
    program: List[FlatOp], fails: Predicate, budget: _Budget
) -> List[FlatOp]:
    index = 0
    while index < len(program) and len(program) > 1:
        candidate = program[:index] + program[index + 1:]
        if not budget.spend():
            break
        if fails(candidate):
            program = candidate
        else:
            index += 1
    return program


def minimize(
    program: Sequence[FlatOp],
    fails: Predicate,
    *,
    max_checks: int = 2000,
) -> List[FlatOp]:
    """Shrink ``program`` to a (locally) 1-minimal failing core.

    ``fails`` must return True for the input program; if it does not (a
    flaky failure), the input is returned unchanged.  The result is the
    smallest program found within ``max_checks`` predicate evaluations —
    every remaining op is necessary, in the sense that dropping any single
    one makes the failure disappear (when the budget sufficed to prove it).
    """
    program = list(program)
    budget = _Budget(max_checks)
    if not budget.spend() or not fails(program):
        return program
    program = _ddmin(program, fails, budget)
    program = _drop_group(program, fails, budget, key=lambda op: op[0])  # core
    program = _drop_group(program, fails, budget, key=lambda op: op[1])  # block
    program = _single_op_sweep(program, fails, budget)
    return program
