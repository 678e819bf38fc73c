#!/usr/bin/env python3
"""Regenerate the shipped synthetic corpus and its pinned expected metrics.

The expected records come from the exhaustive search defined here,
``brute_force_minimal``, not from the greedy reducer, so the pinned CSV is an
independent target the reducer must hit. The search is a reference check and
not part of the installed package; the tests load it from this file. Every
entry uses a single-failure-set scripted oracle: for those the minimum failing
set is unique (the ancestor closure of the failure set), hence the expectation
is well-defined.

Deterministic: fixed seed, stable templates. Run from the repo root:

    python tools/gen_synthetic_corpus.py
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

from redustat.metrics import compute_metrics, records_to_csv
from redustat.model import Category, TestCaseAst, count_categories
from redustat.oracle import (Oracle, ScriptedOracle, baseline_signature, evaluate,
                             verdict_accepted)
from redustat.parser import parse_test

OUT = Path(__file__).resolve().parent.parent / "src" / "redustat" / "data" / "synthetic"
PROJECTS = ("synthetic-alpha", "synthetic-beta", "synthetic-gamma")
MAX_STATEMENTS = 18
#: Exhaustive enumeration refuses above this many statements.
BRUTE_FORCE_BOUND = 20


class TooLargeError(ValueError):
    """Exhaustive search refused beyond the statement bound."""


def ancestor_closure(ast: TestCaseAst, ids: frozenset[int]) -> frozenset[int]:
    """Smallest ancestor-closed superset of ``ids``."""
    closed = set()
    for node_id in ids:
        while node_id is not None and node_id not in closed:
            closed.add(node_id)
            node_id = ast.statements[node_id].parent
    return frozenset(closed)


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
            if ancestor_closure(ast, subset) != subset:
                continue  # not ancestor-closed
            verdict = evaluate(oracle, subset, ast)
            if verdict_accepted(verdict, baseline, oracle.match_policy):
                return subset
    # The full set fails by precondition, so this is unreachable.
    raise AssertionError("no failing subset found despite failing baseline")


def leaf(rng: random.Random, k: int) -> str:
    templates = (
        f"int v{k} = {rng.randint(0, 99)};",
        f"helper{k}(v{max(k - 1, 0)});",
        f"assertEquals({rng.randint(0, 9)}, v{max(k - 1, 0)});",
        f"values.add({rng.randint(0, 99)});",
        f"String s{k} = builder.toString();",
        f"obj.method{k}();",
    )
    return rng.choice(templates)


def tree(rng: random.Random, k: int, body: list[list[str]]) -> list[str]:
    """Wrap whole statements (each a line group) in a random tree construct."""
    indented = ["    " + line for group in body for line in group]
    choice = rng.randrange(5)
    if choice == 0:
        return [f"if (flag{k}) {{"] + indented + ["}"]
    if choice == 1:
        return [f"for (int i{k} = 0; i{k} < {rng.randint(2, 9)}; i{k}++) {{"] + indented + ["}"]
    if choice == 2:
        return [f"while (hasNext{k}()) {{"] + indented + ["}"]
    if choice == 3:
        split = len(body) // 2  # between statements, never inside one
        first = ["    " + line for group in body[:split] for line in group]
        second = ["    " + line for group in body[split:] for line in group]
        return (["try {"] + first
                + [f"}} catch (Exception e{k}) {{"] + second + ["}"])
    return [f"for (String item{k} : items) {{"] + indented + ["}"]


def gen_source(rng: random.Random) -> str:
    counter = 0

    def statements(budget: int, depth: int) -> tuple[list[list[str]], int]:
        nonlocal counter
        groups: list[list[str]] = []
        used = 0
        while used < budget:
            counter += 1
            k = counter
            remaining = budget - used
            if depth < 3 and remaining >= 3 and rng.random() < 0.35:
                inner_budget = rng.randint(1, min(remaining - 1, 4))
                body, inner_used = statements(inner_budget, depth + 1)
                groups.append(tree(rng, k, body))
                used += inner_used + 1
            else:
                groups.append([leaf(rng, k)])
                used += 1
        return groups, used

    total = rng.randint(6, MAX_STATEMENTS)
    groups, _ = statements(total, 1)
    return "\n".join(line for group in groups for line in group) + "\n"


def main() -> None:
    rng = random.Random(20240601)
    tests_dir = OUT / "tests"
    tests_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    records = []
    for index in range(1, 31):
        name = f"t{index:02d}"
        while True:
            source = gen_source(rng)
            ast = parse_test(source, test_name=name)
            if ast.total_statements <= MAX_STATEMENTS:
                break
        node_count = ast.total_statements
        failure_size = rng.randint(1, min(3, node_count))
        failure_set = frozenset(rng.sample(range(node_count), failure_size))
        oracle = ScriptedOracle(failure_sets=(failure_set,))

        minimal = brute_force_minimal(ast, oracle)
        assert minimal == ancestor_closure(ast, failure_set)
        removed = ast.all_ids() - minimal
        removed_tn = sum(1 for i in removed
                         if ast.statements[i].category is Category.TREE)
        project = PROJECTS[(index - 1) % len(PROJECTS)]
        records.append(compute_metrics(
            count_categories(ast),
            (len(removed) - removed_tn, removed_tn),
            test_name=name,
            project=project,
        ))

        (tests_dir / f"{name}.java").write_text(source, encoding="utf-8")
        entries.append({
            "name": name,
            "project": project,
            "test_file": f"tests/{name}.java",
            "oracle": {
                "mode": "scripted",
                "failure_sets": [sorted(failure_set)],
                "blockers": [],
            },
        })

    config = {
        "corpus_name": "synthetic-30",
        "output_dir": "out",
        "policy": "same",
        "parallelism": 2,
        "entries": entries,
    }
    (OUT / "corpus.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8")
    (OUT / "expected_metrics.csv").write_text(records_to_csv(records),
                                              encoding="utf-8")
    stmt_total = sum(r["stmts"] for r in records)
    print(f"wrote 30 tests ({stmt_total} statements), corpus.json, "
          f"expected_metrics.csv under {OUT}")


if __name__ == "__main__":
    main()
