"""Greedy 1-minimal reduction of a failing test over its statement tree.

The reducer repeatedly sweeps the retained statements and tries to delete one
subtree at a time, keeping a deletion only when the oracle still reports the
(policy-matching) failure. Within a sweep, tree statements are attempted
before leaves (a subtree deletion removes many statements for one oracle
call), and each group is visited in source order descending, so assertions
near the end are attempted before the setup code they depend on.

A sweep that accepts nothing is the 1-minimality certificate: every single
subtree removal from the final set was just attempted and rejected.

Invalid verdicts (non-compiling candidates, timeouts) count as "not failing":
the statement is kept, the standard treatment of unresolved outcomes in
delta debugging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .model import Category, TestCaseAst, render
from .oracle import (
    Oracle,
    OracleVerdict,
    VerdictStatus,
    baseline_signature,
    evaluate,
    verdict_accepted,
)


class TooLargeError(ValueError):
    """Exhaustive search refused beyond the statement bound."""


@dataclass(frozen=True)
class TraceEntry:
    """One removal attempt, for audit."""

    node_id: int
    accepted: bool
    status: VerdictStatus


@dataclass(frozen=True)
class ReductionOutcome:
    """The minimal test plus bookkeeping about what was removed."""

    test_name: str
    retained: frozenset[int]
    removed: frozenset[int]
    removed_ntn: int
    removed_tn: int
    oracle_calls: int
    wall_time_ms: float
    minimal_source: str
    baseline: str
    passes: int
    trace: tuple[TraceEntry, ...]

    def to_report(self) -> dict:
        """JSON-ready per-test reduction report."""
        return {
            "test_name": self.test_name,
            "retained": sorted(self.retained),
            "removed": sorted(self.removed),
            "removed_ntn": self.removed_ntn,
            "removed_tn": self.removed_tn,
            "oracle_calls": self.oracle_calls,
            "wall_time_ms": self.wall_time_ms,
            "passes": self.passes,
            "baseline_signature": self.baseline,
            "minimal_source": self.minimal_source,
            "trace": [
                {"node": t.node_id, "decision": "accepted" if t.accepted else "rejected",
                 "verdict": t.status.value}
                for t in self.trace
            ],
        }


class _Session:
    """Shared state for one reduction: oracle plumbing and counters."""

    def __init__(self, ast: TestCaseAst, oracle: Oracle, baseline: str):
        self.ast = ast
        self.oracle = oracle
        self.baseline = baseline
        self.policy = oracle.match_policy
        self.calls = 0
        self.trace: list[TraceEntry] = []

    def candidate_verdict(self, retained: frozenset[int]) -> OracleVerdict:
        self.calls += 1
        return evaluate(self.oracle, retained, self.ast)

    def accepts(self, retained: frozenset[int]) -> tuple[bool, OracleVerdict]:
        verdict = self.candidate_verdict(retained)
        return verdict_accepted(verdict, self.baseline, self.policy), verdict


def _sweep(session: _Session,
           retained: frozenset[int]) -> tuple[frozenset[int], bool]:
    ast = session.ast
    tree_ids = [i for i in retained if ast.node(i).category is Category.TREE]
    leaf_ids = [i for i in retained if ast.node(i).category is Category.NON_TREE]

    def by_start_desc(node_id: int) -> int:
        return -ast.node(node_id).span[0]

    tree_ids.sort(key=by_start_desc)
    leaf_ids.sort(key=by_start_desc)

    changed = False
    for node_id in tree_ids + leaf_ids:
        if node_id not in retained:
            continue  # removed along with an earlier accepted subtree
        attempt = retained - ast.subtree_ids(node_id)
        ok, verdict = session.accepts(attempt)
        session.trace.append(TraceEntry(node_id, ok, verdict.status))
        if ok:
            retained = attempt
            changed = True
    return retained, changed


def reduce_test(ast: TestCaseAst, oracle: Oracle) -> ReductionOutcome:
    """Reduce a failing test to a 1-minimal set of statements.

    Raises :class:`~redustat.oracle.OriginalDoesNotFailError` when the
    unreduced test does not fail. Oracle spawn failures propagate and abort
    the reduction.
    """
    started = time.monotonic()
    baseline = baseline_signature(oracle, ast)
    session = _Session(ast, oracle, baseline)
    session.calls += 1  # the baseline evaluation above

    retained = ast.all_ids()
    passes = 0
    while True:
        passes += 1
        retained, changed = _sweep(session, retained)
        if not changed:
            break

    removed = ast.all_ids() - retained
    removed_tn = sum(1 for i in removed if ast.node(i).category is Category.TREE)
    return ReductionOutcome(
        test_name=ast.test_name,
        retained=retained,
        removed=removed,
        removed_ntn=len(removed) - removed_tn,
        removed_tn=removed_tn,
        oracle_calls=session.calls,
        wall_time_ms=(time.monotonic() - started) * 1000.0,
        minimal_source=render(ast, retained),
        baseline=baseline,
        passes=passes,
        trace=tuple(session.trace),
    )


def verify_one_minimal(ast: TestCaseAst, oracle: Oracle,
                       retained: frozenset[int],
                       baseline: str | None = None) -> bool:
    """Post-hoc 1-minimality check: every single-subtree removal must not fail."""
    if baseline is None:
        baseline = baseline_signature(oracle, ast)
    session = _Session(ast, oracle, baseline)
    for node_id in retained:
        ok, _ = session.accepts(retained - ast.subtree_ids(node_id))
        if ok:
            return False
    return True


#: Exhaustive enumeration refuses above this many statements.
BRUTE_FORCE_BOUND = 20


def brute_force_minimal(ast: TestCaseAst, oracle: Oracle) -> frozenset[int]:
    """Minimum-cardinality ancestor-closed failing subset, by enumeration.

    Ties break toward the lexicographically smallest id sequence, so the
    result is deterministic. Only usable at desk scale
    (<= ``BRUTE_FORCE_BOUND`` statements); this is the independent oracle the
    greedy reducer is validated against.
    """
    n = ast.total_statements
    if n > BRUTE_FORCE_BOUND:
        raise TooLargeError(
            f"{n} statements exceed the exhaustive bound of {BRUTE_FORCE_BOUND}")
    baseline = baseline_signature(oracle, ast)
    session = _Session(ast, oracle, baseline)
    ids = list(range(n))
    for size in range(n + 1):
        for combo in combinations(ids, size):
            subset = frozenset(combo)
            if not ast.is_ancestor_closed(subset):
                continue
            ok, _ = session.accepts(subset)
            if ok:
                return subset
    # The full set fails by precondition, so this is unreachable.
    raise AssertionError("no failing subset found despite failing baseline")
