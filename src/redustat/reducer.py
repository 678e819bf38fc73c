"""Greedy 1-minimal reduction of a failing test over its statement tree.

The reducer repeatedly sweeps the retained statements and tries to delete one
subtree at a time, keeping a deletion only when the oracle still reports the
(policy-matching) failure. Within a sweep, tree statements are attempted
before leaves, since a subtree deletion removes many statements for one
oracle call. Trees go outer before inner, later before earlier (descending
span end; spans nest strictly, so a tree ends after all it holds): once an
outer tree is accepted, no call was spent inside it. This is the
coarse-before-fine order of hierarchical delta debugging. Leaves go in source
order descending, so assertions near the end are attempted before the setup
code they depend on.

A rejection stays settled while the candidate it judged still exists.
Rejecting node ``x`` judges ``kept - subtree(x)``, and a later commit of the
subtree of ``n`` leaves that set as it was exactly when ``n`` lies inside
``subtree(x)``: subtrees are nested or disjoint, so a commit unsettles every
rejection except those of ``n``'s ancestors. A sweep skips a settled node
without an oracle call. This is a cache of rejected candidate sets (kept sets
only shrink, so a repeat of ``kept - subtree(x)`` can only be ``x``'s own
earlier rejection) that stores no sets. It reads a verdict as a property of
the candidate's text, as the certificate below does.

The reduction ends with a sweep that accepts nothing. That is the
1-minimality certificate: each retained statement was rejected on the very
candidate it would be now, the final set minus its subtree.

A sweep keeps the retained ids in one mutable set, ``kept``. Each candidate
is a read-only view of that set minus the attempted subtree, one view that the
sweep re-points at each attempt, so it is valid until the sweep moves on. An
accepted candidate is committed by removing the subtree in place, so the
bookkeeping per candidate costs the subtree's size, not the test's.
``kept`` shrinks only through commits, so a view's memo of ``candidate >= fs``
for a frozenset ``fs`` holds for the sweep: False stays False, and True stays
True until a commit removes one of ``fs``'s members.

Invalid verdicts (non-compiling candidates, timeouts) count as "not failing":
the statement is kept, the standard treatment of unresolved outcomes in
delta debugging.
"""

from __future__ import annotations

import time
from collections.abc import Set
from dataclasses import dataclass
from itertools import combinations

from .model import TestCaseAst, render
from .oracle import Oracle, baseline_signature, evaluate, verdict_accepted


class TooLargeError(ValueError):
    """Exhaustive search refused beyond the statement bound."""


@dataclass(frozen=True)
class ReductionOutcome:
    """The minimal test plus bookkeeping about what was removed.

    Each field is the report key of its name. ``trace`` holds one entry per
    removal attempt, in call order: ``{"node": id, "decision": "accepted" or
    "rejected", "verdict": "Fail", "Pass" or "Invalid"}``.
    """

    test_name: str
    retained: frozenset[int]
    removed: frozenset[int]
    removed_ntn: int
    removed_tn: int
    oracle_calls: int
    wall_time_ms: float
    passes: int
    baseline_signature: str
    minimal_source: str
    trace: list[dict]

    def to_report(self) -> dict:
        """JSON-ready per-test reduction report."""
        return dict(vars(self), retained=sorted(self.retained),
                    removed=sorted(self.removed))


class _Candidate(Set):
    """Read-only view of ``kept - dropped``, one candidate's retained ids.

    ``kept`` is the sweep's live retained set and ``dropped`` the attempted
    subtree's ids within it. The sweep re-points ``dropped`` for each
    candidate, so the view is valid until the sweep moves on. It
    implements ``in``, ``len``, iteration and the memoised ``>=`` itself.
    Every other ``Set`` operation (``&``, ``isdisjoint``, ``<=``, ``==``)
    comes from ``collections.abc.Set`` at the cost of its other operand.

    ``within`` is shared by the candidates of one sweep: it maps each
    frozenset that a candidate was compared with to whether it lies within
    ``kept``. :func:`_commit` keeps it true as ``kept`` shrinks.
    """

    __slots__ = ("kept", "dropped", "within")
    _from_iterable = frozenset

    def __init__(self, kept: Set[int], dropped: frozenset[int],
                 within: dict[frozenset[int], bool]):
        self.kept = kept
        self.dropped = dropped
        self.within = within

    def __contains__(self, node_id: object) -> bool:
        return node_id in self.kept and node_id not in self.dropped

    def __len__(self) -> int:
        return len(self.kept) - len(self.dropped)

    def __iter__(self):
        return iter(self.kept - self.dropped)

    def __ge__(self, other: object) -> bool:
        # The ABC's isinstance check costs more than the rest of the test.
        if type(other) is not frozenset and not isinstance(other, Set):
            return NotImplemented
        # The subtree is checked first: a candidate that drops a needed
        # statement is rejected at the subtree's cost.
        if not other.isdisjoint(self.dropped):
            return False
        if type(other) is not frozenset:
            return other <= self.kept  # a mutable set may change between calls
        inside = self.within.get(other)
        if inside is None:
            inside = self.within[other] = other <= self.kept
        return inside

    def __hash__(self) -> int:  # ``Set`` defines ``__eq__``, so its ``__hash__`` is None
        return hash(frozenset(self.kept - self.dropped))


def _commit(kept: set[int], within: dict[frozenset[int], bool],
            dropped: frozenset[int]) -> None:
    """Remove an accepted subtree from ``kept``. A set that was within
    ``kept`` and loses a member is not within it for the rest of the sweep."""
    kept -= dropped
    for other, inside in within.items():
        if inside and not other.isdisjoint(dropped):
            within[other] = False


def _sweep_order(ast: TestCaseAst) -> list[int]:
    """Trees before leaves. Trees by descending span end, so outer before
    inner and later before earlier: an accepted outer tree wastes no call on
    the trees it holds. Leaves by descending span start. Ties go by id (a
    reverse sort keeps equal keys in ascending id order)."""
    trees = ast.tree_ids
    by_end = sorted(sorted(trees), key=lambda i: ast.statements[i].span[1],
                    reverse=True)
    starts = [node.span[0] for node in ast.statements]
    by_start = sorted(range(len(starts)), key=starts.__getitem__, reverse=True)
    return by_end + [i for i in by_start if i not in trees]


def _sweep(ast: TestCaseAst, oracle: Oracle, baseline: str, order: list[int],
           retained: frozenset[int], settled: set[int],
           trace: list[dict]) -> tuple[frozenset[int], bool]:
    """One pass over ``order``. ``settled`` holds the ids whose last rejection
    judged the candidate that removing them would give now; it and ``trace``
    carry over from pass to pass."""
    statements = ast.statements
    trees = ast.tree_ids
    kept = set(retained)
    within: dict[frozenset[int], bool] = {}
    candidate = _Candidate(kept, frozenset(), within)
    changed = False
    for node_id in order:
        if node_id not in kept or node_id in settled:
            continue  # removed already, or rejected on this very candidate
        candidate.dropped = (ast.subtree_ids(node_id) & kept if node_id in trees
                             else frozenset((node_id,)))
        verdict = evaluate(oracle, candidate, ast)
        ok = verdict_accepted(verdict, baseline, oracle.match_policy)
        # ``_value_`` is a plain attribute; the ``value`` property would cost
        # a Python-level call per trace entry.
        trace.append({"node": node_id, "decision": "accepted" if ok else "rejected",
                      "verdict": verdict.status._value_})
        if ok:
            _commit(kept, within, candidate.dropped)
            if settled:
                # The commit removed nodes inside its ancestors' subtrees
                # only, so their candidates alone are unchanged.
                ancestors = []
                parent = statements[node_id].parent
                while parent is not None:
                    ancestors.append(parent)
                    parent = statements[parent].parent
                settled.intersection_update(ancestors)
            changed = True
        else:
            settled.add(node_id)
    return frozenset(kept), changed


def reduce_test(ast: TestCaseAst, oracle: Oracle) -> ReductionOutcome:
    """Reduce a failing test to a 1-minimal set of statements.

    Raises :class:`~redustat.oracle.OriginalDoesNotFailError` when the
    unreduced test does not fail. Oracle spawn failures propagate and abort
    the reduction.
    """
    started = time.monotonic()
    baseline = baseline_signature(oracle, ast)
    order = _sweep_order(ast)
    retained = ast.all_ids()
    settled: set[int] = set()
    trace: list[dict] = []
    passes = 0
    while True:
        passes += 1
        retained, changed = _sweep(ast, oracle, baseline, order, retained,
                                   settled, trace)
        if not changed:
            break

    removed = ast.all_ids() - retained
    removed_tn = len(removed & ast.tree_ids)
    return ReductionOutcome(
        test_name=ast.test_name,
        retained=retained,
        removed=removed,
        removed_ntn=len(removed) - removed_tn,
        removed_tn=removed_tn,
        oracle_calls=1 + len(trace),  # the baseline, then one per candidate
        wall_time_ms=(time.monotonic() - started) * 1000.0,
        passes=passes,
        baseline_signature=baseline,
        minimal_source=render(ast, retained),
        trace=trace,
    )


def verify_one_minimal(ast: TestCaseAst, oracle: Oracle,
                       retained: frozenset[int],
                       baseline: str | None = None) -> bool:
    """Post-hoc 1-minimality check: every single-subtree removal must not fail."""
    if baseline is None:
        baseline = baseline_signature(oracle, ast)
    within: dict[frozenset[int], bool] = {}  # ``retained`` never changes
    for node_id in retained:
        dropped = ast.subtree_ids(node_id) & retained
        verdict = evaluate(oracle, _Candidate(retained, dropped, within), ast)
        if verdict_accepted(verdict, baseline, oracle.match_policy):
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
    ids = list(range(n))
    for size in range(n + 1):
        for combo in combinations(ids, size):
            subset = frozenset(combo)
            if not ast.is_ancestor_closed(subset):
                continue
            verdict = evaluate(oracle, subset, ast)
            if verdict_accepted(verdict, baseline, oracle.match_policy):
                return subset
    # The full set fails by precondition, so this is unreachable.
    raise AssertionError("no failing subset found despite failing baseline")
