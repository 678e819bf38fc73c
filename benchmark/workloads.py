"""Seeded input generators for the three benchmark workloads.

Every generated test is built here as an explicit statement forest (ids in
depth-first pre-order, parent links, leaf/tree category), rendered to Java-like
source with known spans, and optionally exported as a JSON tree document. The
checks in ``checks.py`` use these structures, never the program's own parse,
to decide what a correct reduction keeps.

The same seed always gives byte-identical inputs. Sizes and shapes follow a
fixed schedule per workload; the seed picks tree structure, statement text and
which statements the oracle needs, so totals such as oracle calls move only a
little from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

#: Fixed wait of the stand-in test run, in seconds.
STANDIN_WAIT_S = 0.02
#: Exit code the stand-in uses for a compile error (not in fail_exit_codes).
STANDIN_COMPILE_ERROR = 3
STANDIN_SCRIPT = Path(__file__).resolve().parent / "standin.sh"
SIGNATURE_PATTERN = r"(java\.lang\.AssertionError: .*)"

_TREE_KINDS = ("If", "For", "ForEach", "While", "Try", "Block")
_FOREIGN_LEAF_KIND = "MethodCallExpr"  # unknown to redustat: maps to a leaf
_FOREIGN_TREE_KIND = "IfStmt"          # unknown to redustat: maps to Block


@dataclass
class Node:
    id: int
    parent: int | None
    tree: bool
    kind: str
    text: str = ""                       # leaf statement, or tree header detail
    children: list[int] = field(default_factory=list)
    span: tuple[int, int] = (0, 0)


@dataclass
class GenTest:
    """One generated test plus everything the checks need to judge it."""

    name: str
    project: str
    shape: str                           # monotone | blocker | every-other | command
    nodes: list[Node]
    roots: list[int]
    source: str = ""
    as_tree_document: bool = False
    failure_set: frozenset[int] = frozenset()
    blockers: frozenset[int] = frozenset()
    markers: tuple[tuple[int, int], ...] = ()   # (marker node, declaration node)

    @property
    def leaf_ids(self) -> list[int]:
        return [n.id for n in self.nodes if not n.tree]

    def subtree(self, node_id: int) -> frozenset[int]:
        out, stack = [], [node_id]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.nodes[cur].children)
        return frozenset(out)

    def closure(self, ids) -> frozenset[int]:
        """Smallest ancestor-closed superset of ``ids``."""
        out = set()
        for node_id in ids:
            cur = node_id
            while cur is not None and cur not in out:
                out.add(cur)
                cur = self.nodes[cur].parent
        return frozenset(out)

    def scripted_fails(self, retained: frozenset[int]) -> bool:
        """The scripted failure predicate, re-implemented from its contract."""
        if self.blockers:
            present = len(self.blockers & retained)
            if 0 < present < len(self.blockers):
                return False
        return self.failure_set <= retained

    def marker_keys(self) -> list[tuple[str, str]]:
        return [(f"MARK{m}_", f"DECL{d}_") for m, d in self.markers]

    def oracle_spec(self, workdir: Path | None) -> dict:
        if self.shape != "command":
            return {"mode": "scripted", "failure_sets": [sorted(self.failure_set)],
                    "blockers": sorted(self.blockers)}
        pairs = " ".join(f"{m}:{d}" for m, d in self.marker_keys())
        return {
            "mode": "command",
            "command_template": f"sh {STANDIN_SCRIPT} {{candidate}} {STANDIN_WAIT_S} {pairs}",
            "workdir": str(workdir),
            "timeout_ms": 30_000,
            "fail_exit_codes": [1],
            "signature_pattern": SIGNATURE_PATTERN,
        }

    def tree_document(self) -> dict:
        nodes = []
        for index, node in enumerate(self.nodes):
            kind = node.kind
            # A few foreign kind strings exercise ingest's fallback mapping.
            if index % 7 == 3:
                kind = _FOREIGN_TREE_KIND if node.tree else _FOREIGN_LEAF_KIND
            nodes.append({"id": node.id, "kind": kind, "has_children": node.tree,
                          "span": list(node.span), "children": list(node.children)})
        return {"test_name": self.name, "project": self.project,
                "source": self.source, "nodes": nodes, "roots": list(self.roots)}


# -- structure and text ------------------------------------------------------


def _leaf_text(rng: random.Random, k: int) -> tuple[str, str]:
    choice = rng.randrange(5)
    if choice == 0:
        return "LocalDeclaration", f"int v{k} = {rng.randint(0, 99)};"
    if choice == 1:
        return "ExpressionStmt", f"helper{k}(v{max(k - 1, 0)});"
    if choice == 2:
        return "ExpressionStmt", f"assertEquals({rng.randint(0, 9)}, v{max(k - 1, 0)});"
    if choice == 3:
        return "ExpressionStmt", f"values.add({rng.randint(0, 99)});"
    return "LocalDeclaration", f"String s{k} = builder.toString();"


def _forest(rng: random.Random, size: int, max_depth: int = 4,
            p_tree: float = 0.15, p_close: float = 0.18) -> tuple[list[Node], list[int]]:
    """Random statement forest of ``size`` nodes, ids in pre-order."""
    nodes: list[Node] = []
    roots: list[int] = []
    open_trees: list[int] = []
    for k in range(size):
        while open_trees and rng.random() < p_close:
            open_trees.pop()
        parent = open_trees[-1] if open_trees else None
        is_tree = len(open_trees) < max_depth and k < size - 1 and rng.random() < p_tree
        if is_tree:
            node = Node(k, parent, True, rng.choice(_TREE_KINDS), text=str(k))
        else:
            kind, text = _leaf_text(rng, k)
            node = Node(k, parent, False, kind, text)
        nodes.append(node)
        if parent is None:
            roots.append(k)
        else:
            nodes[parent].children.append(k)
        if is_tree:
            open_trees.append(k)
    return nodes, roots


def _render(test: GenTest) -> None:
    """Write ``test.source`` and every node's span, as the parser would see them."""
    parts: list[str] = []
    pos = 0

    def emit(text: str) -> int:
        nonlocal pos
        start = pos
        parts.append(text)
        pos += len(text)
        return start

    def line(depth: int, text: str) -> tuple[int, int]:
        emit("    " * depth)
        start = emit(text)
        end = pos
        emit("\n")
        return start, end

    def visit(node_id: int, depth: int) -> None:
        node = test.nodes[node_id]
        if not node.tree:
            node.span = line(depth, node.text)
            return
        k = node.text
        headers = {
            "If": f"if (flag{k}) {{",
            "For": f"for (int i{k} = 0; i{k} < 3; i{k}++) {{",
            "ForEach": f"for (String item{k} : items) {{",
            "While": f"while (hasNext{k}()) {{",
            "Try": "try {",
            "Block": "{",
        }
        start, _ = line(depth, headers[node.kind])
        split = len(node.children) // 2
        for index, child in enumerate(node.children):
            if node.kind == "Try" and index == split:
                line(depth, f"}} catch (Exception e{k}) {{")
            visit(child, depth + 1)
        if node.kind == "Try" and split == len(node.children):
            line(depth, f"}} catch (Exception e{k}) {{")
        _, end = line(depth, "}")
        node.span = (start, end)

    for root in test.roots:
        visit(root, 0)
    test.source = "".join(parts)


def _pick(rng: random.Random, ids: list[int], k: int) -> frozenset[int]:
    return frozenset(rng.sample(ids, min(k, len(ids))))


def scripted_test(rng: random.Random, name: str, project: str, size: int,
                  shape: str, failures: tuple[int, int] = (3, 8)) -> GenTest:
    nodes, roots = _forest(rng, size)
    test = GenTest(name, project, shape, nodes, roots)
    leaves = test.leaf_ids
    if shape == "every-other":
        test.failure_set = frozenset(leaves[::2])
    else:
        test.failure_set = _pick(rng, leaves, rng.randint(*failures))
    if shape == "blocker":
        rest = [i for i in leaves if i not in test.failure_set]
        test.blockers = _pick(rng, rest, rng.randint(2, 4))
        if len(test.blockers) < 2:  # too few spare leaves for a blocker pair
            test.shape, test.blockers = "monotone", frozenset()
    _render(test)
    return test


def command_test(rng: random.Random, name: str, project: str, size: int,
                 n_markers: int) -> GenTest:
    """A test whose stand-in run fails while every marker and its declaration stay.

    Declarations sit among the first third of the leaves, markers after them.
    Tree statements are fewer and smaller than in the scripted workloads, so
    that an entry's oracle calls, and so its time, follow its size closely.
    """
    nodes, roots = _forest(rng, size, p_tree=0.1, p_close=0.25)
    test = GenTest(name, project, "command", nodes, roots)
    leaves = test.leaf_ids
    third = max(n_markers, len(leaves) // 3)
    decls = sorted(rng.sample(leaves[:third], n_markers))
    marks = sorted(rng.sample(leaves[third:], n_markers))
    rng.shuffle(marks)
    for d, m in zip(decls, marks):
        nodes[d].kind, nodes[d].text = ("LocalDeclaration",
                                        f'Widget w{d} = Widgets.make("DECL{d}_");')
        nodes[m].kind, nodes[m].text = ("ExpressionStmt",
                                        f'assertValid(w{d}, "MARK{m}_");')
    test.markers = tuple(zip(marks, decls))
    _render(test)
    return test


# -- workloads -----------------------------------------------------------------


_PROJECTS = ("proj-alpha", "proj-beta", "proj-gamma")


def scripted_large_tests(seed: int, count: int = 24) -> list[GenTest]:
    """Log-spaced sizes from 200 to 3000 statements; shapes and tree documents
    rotate through the schedule so each shows up small and large."""
    rng = random.Random(f"scripted-large:{seed}")
    shapes = ("monotone", "blocker", "every-other")
    tests = []
    for i in range(count):
        size = round(200 * 15 ** (i / max(count - 1, 1)))
        test = scripted_test(rng, f"L{i:02d}", _PROJECTS[i % 3], size, shapes[i % 3])
        test.as_tree_document = i % 4 == 1
        tests.append(test)
    return tests


def command_tests(seed: int, count: int = 24) -> list[GenTest]:
    """Sizes evenly spaced from 15 to 60 statements, two or three markers each."""
    rng = random.Random(f"command-oracle:{seed}")
    return [command_test(rng, f"C{i:02d}", _PROJECTS[i % 3],
                         15 + (45 * i) // max(count - 1, 1), 2 + i % 2)
            for i in range(count)]


def study_tests(seed: int, count: int = 400) -> list[GenTest]:
    """Small tests cycling through 6..40 statements; every fifth one has blockers."""
    rng = random.Random(f"study:{seed}")
    return [scripted_test(rng, f"S{i:03d}", _PROJECTS[i % 3], 6 + i % 35,
                          "blocker" if i % 5 == 4 else "monotone", failures=(1, 3))
            for i in range(count)]


def synthetic_dir(root: Path) -> Path:
    return root / "src" / "redustat" / "data" / "synthetic"


@dataclass
class Inputs:
    """Generated inputs of one workload, laid out under ``base``."""

    workload: str
    seed: int
    base: Path
    config_path: Path
    tests: list[GenTest]
    synthetic_names: list[str]
    parallelism: int

    @property
    def output_dir(self) -> Path:
        return self.base / "out"

    def workdir(self, test: GenTest) -> Path:
        return self.base / "work" / test.name


def write_inputs(workload: str, seed: int, base: Path, root: Path,
                 count: int | None = None) -> Inputs:
    """Generate a workload's tests and corpus config under ``base``.

    ``root`` is the checkout holding ``src/redustat``; the study workload
    reads the shipped synthetic corpus from there.
    """
    makers = {"scripted-large": scripted_large_tests,
              "command-oracle": command_tests,
              "study": study_tests}
    tests = makers[workload](seed) if count is None else makers[workload](seed, count)
    parallelism = 2 if workload == "command-oracle" else 1
    (base / "tests").mkdir(parents=True, exist_ok=True)
    (base / "trees").mkdir(exist_ok=True)
    inputs = Inputs(workload, seed, base, base / "corpus.json", tests, [], parallelism)
    entries = []
    for test in tests:
        entry = {"name": test.name, "project": test.project}
        if test.as_tree_document:
            path = base / "trees" / f"{test.name}.json"
            path.write_text(json.dumps(test.tree_document()), encoding="utf-8")
            entry["tree_file"] = f"trees/{test.name}.json"
        else:
            (base / "tests" / f"{test.name}.java").write_text(test.source,
                                                              encoding="utf-8")
            entry["test_file"] = f"tests/{test.name}.java"
        workdir = None
        if test.shape == "command":
            workdir = inputs.workdir(test)
            workdir.mkdir(parents=True, exist_ok=True)
        entry["oracle"] = test.oracle_spec(workdir)
        entries.append(entry)
    if workload == "study":
        shipped = json.loads((synthetic_dir(root) / "corpus.json").read_text("utf-8"))
        for entry in shipped["entries"]:
            entry = dict(entry)
            entry["test_file"] = os.path.relpath(
                synthetic_dir(root) / entry["test_file"], base)
            entries.append(entry)
            inputs.synthetic_names.append(entry["name"])
    config = {"corpus_name": f"bench-{workload}-{seed}", "output_dir": "out",
              "policy": "same", "parallelism": parallelism, "entries": entries}
    inputs.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return inputs
