"""Shared helpers: deterministic random test-body generation, token
comparison, ancestor closure, the published probability tables and the
import of repository files that the package does not ship.

The generator mirrors the supported grammar (leaves plus braced tree
statements) so parser, reducer and acceptance tests all draw from the same
instance space: bounded statement count, bounded nesting depth.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import ModuleType

import pytest

from redustat.metrics import parse_cell
from redustat.model import TestCaseAst
from redustat.parser import parse_test, tokenize

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO = Path(__file__).resolve().parent.parent

#: Published per-category probability tables, for reference comparisons.
PUBLISHED_PROBABILITY_TABLES = {"I": "table3.csv", "II": "table4.csv"}

_LEAVES = (
    "int v{k} = {n};",
    "helper{k}(v{p});",
    "assertEquals({n}, v{p});",
    "values.add({n});",
    "obj.method{k}();",
)

_TREES = ("if", "for", "foreach", "while", "try")


def random_test_source(rng: random.Random, max_statements: int = 12,
                       max_depth: int = 3) -> str:
    counter = 0

    def leaf() -> list[str]:
        nonlocal counter
        counter += 1
        template = rng.choice(_LEAVES)
        return [template.format(k=counter, p=max(counter - 1, 0),
                                n=rng.randint(0, 99))]

    def tree(body: list[list[str]]) -> list[str]:
        nonlocal counter
        counter += 1
        k = counter
        lines = ["    " + line for group in body for line in group]
        shape = rng.choice(_TREES)
        if shape == "if":
            return [f"if (flag{k}) {{"] + lines + ["}"]
        if shape == "for":
            return [f"for (int i{k} = 0; i{k} < {rng.randint(2, 5)}; i{k}++) {{"] + lines + ["}"]
        if shape == "foreach":
            return [f"for (String s{k} : items) {{"] + lines + ["}"]
        if shape == "while":
            return [f"while (more{k}()) {{"] + lines + ["}"]
        split = len(body) // 2
        first = ["    " + line for group in body[:split] for line in group]
        second = ["    " + line for group in body[split:] for line in group]
        return ["try {"] + first + [f"}} catch (Exception e{k}) {{"] + second + ["}"]

    def statements(budget: int, depth: int) -> tuple[list[list[str]], int]:
        groups: list[list[str]] = []
        used = 0
        while used < budget:
            remaining = budget - used
            if depth < max_depth and remaining >= 2 and rng.random() < 0.4:
                inner, inner_used = statements(rng.randint(1, min(remaining - 1, 4)),
                                               depth + 1)
                groups.append(tree(inner))
                used += inner_used + 1
            else:
                groups.append(leaf())
                used += 1
        return groups, used

    total = rng.randint(1, max_statements)
    groups, _ = statements(total, 1)
    return "\n".join(line for group in groups for line in group) + "\n"


def random_ast(rng: random.Random, max_statements: int = 12,
               max_depth: int = 3, test_name: str = "random") -> TestCaseAst:
    return parse_test(random_test_source(rng, max_statements, max_depth),
                      test_name=test_name)


def token_texts(source: str) -> list[str]:
    """Token sequence used for whitespace-insensitive source comparison."""
    return tokenize(source)[0]


def ancestors(ast: TestCaseAst, node_id: int) -> Iterator[int]:
    """The ids of a node's enclosing statements, innermost first."""
    cur = ast.statements[node_id].parent
    while cur is not None:
        yield cur
        cur = ast.statements[cur].parent


def ancestor_closure(ast: TestCaseAst, ids: Iterable[int]) -> frozenset[int]:
    """Smallest ancestor-closed superset of ``ids``."""
    closed = set(ids)
    for node_id in list(closed):
        closed.update(ancestors(ast, node_id))
    return frozenset(closed)


@functools.cache
def load_module(name: str, path: str) -> ModuleType:
    """Import the repository file ``path`` (relative to the root), which the
    package does not ship, as module ``name``. It is registered in
    ``sys.modules`` before it runs, since dataclasses look their module up
    there and other files may import it by name."""
    spec = importlib.util.spec_from_file_location(name, REPO / path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def derive_probability_table(records: list[dict]) -> list[tuple[str, float, float]]:
    """Rows ``(test, prntrs, prtrs)`` where both probabilities are defined.

    This is the exclusion rule behind the published probability tables:
    tests with an undefined probability (zero statements in the category)
    cannot participate in the comparison.
    """
    return [
        (r["test"], r["prntrs"], r["prtrs"])
        for r in records
        if r["prntrs"] is not None and r["prtrs"] is not None
    ]


def published_probability_rows(table: str) -> list[tuple[str, float, float]]:
    """The probability table exactly as published (percent values / 100)."""
    text = (FIXTURES / PUBLISHED_PROBABILITY_TABLES[table]).read_text("utf-8")
    rows = []
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        name, prntrs, prtrs = line.split(",")
        rows.append((name, parse_cell(prntrs) / 100.0, parse_cell(prtrs) / 100.0))
    return rows


@pytest.fixture
def flat_five() -> TestCaseAst:
    return parse_test("a();\nb();\nc();\nd();\ne();\n", test_name="flat5")
