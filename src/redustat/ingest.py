"""Ingestion of serialized parse trees produced by external parsers.

Real Java or C# tests can be parsed by any full-language frontend and fed to
the pipeline as a JSON document::

    {"test_name": str, "source": str,
     "nodes": [{"id": int, "kind": str, "has_children": bool,
                "span": [int, int], "children": [int]}],
     "roots": [int]}

Every field must have exactly the type ``json.loads`` gives it (an ``int`` is
never a ``bool``); a subclass, such as an ``IntEnum`` id, is a wrong type.
The ``source`` must encode to UTF-8: a lone surrogate is refused.

Kind strings that match the statement-kind enum are taken as-is; anything
else maps to ``Block`` when ``has_children`` is true and ``ExpressionStmt``
otherwise, so foreign grammars degrade gracefully to the tree/leaf split.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any

from .model import StmtKind, TestCaseAst, TREE_KINDS, ModelError, new_node


class SchemaError(ValueError):
    """Document does not match the tree-ingestion schema."""

    def __init__(self, message: str, path: str):
        self.path = path
        super().__init__(f"{message} (at {path})")


class CycleError(ValueError):
    """Child references form a cycle."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"child references form a cycle through node {node_id}")


_KIND_BY_NAME = {kind.value: kind for kind in StmtKind}
_NODE_FIELDS = (("id", int), ("kind", str), ("has_children", bool), ("span", list),
                ("children", list))
_node_fields = itemgetter(*(key for key, _ in _NODE_FIELDS))


def _require(mapping: Any, key: str, expected: type, path: str) -> Any:
    if type(mapping) is not dict:
        raise SchemaError("expected an object", path)
    if key not in mapping:
        raise SchemaError(f"missing field {key!r}", path)
    value = mapping[key]
    if type(value) is not expected:
        raise SchemaError(f"field {key!r} has wrong type", f"{path}.{key}")
    return value


def ingest_tree(document: dict | str, project: str = "") -> TestCaseAst:
    """Build a :class:`TestCaseAst` from a tree document (dict or JSON text).

    Raises :class:`SchemaError` with the offending path on malformed
    documents and :class:`CycleError` when child references loop.

    Ingest checks the schema, the field types, that the ids are the range
    ``0..n-1``, that roots and children name nodes, and that each node has at
    most one parent, in one pass over the nodes. Spans, nesting and
    reachability are left to :class:`TestCaseAst`, whose checks also reject
    every cycle; only then are the parent links searched for a loop to report.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}", "$") from None

    test_name = _require(document, "test_name", str, "$")
    source = _require(document, "source", str, "$")
    try:
        source.encode("utf-8")  # each candidate is written out as UTF-8
    except UnicodeEncodeError:
        raise SchemaError("source cannot be written as UTF-8", "$.source") from None
    raw_nodes = _require(document, "nodes", list, "$")
    raw_roots = _require(document, "roots", list, "$")
    project = document.get("project", project)
    if type(project) is not str:
        raise SchemaError("field 'project' has wrong type", "$.project")

    n = len(raw_nodes)
    kinds: list[StmtKind | None] = [None] * n
    spans: list[tuple[int, int]] = [(0, 0)] * n
    children_of: list[tuple[int, ...]] = [()] * n
    parents: list[int | None] = [None] * n
    stray_ids: set[int] = set()  # ids outside 0..n-1, kept to report duplicates
    # A missing child or a second parent is reported only once the ids and
    # roots have passed, as those errors take precedence.
    link_error = None
    for idx, raw in enumerate(raw_nodes):
        try:
            node_id, kind_name, has_children, span, children = _node_fields(raw)
            typed = (type(raw) is dict and type(node_id) is int and type(kind_name) is str
                     and type(has_children) is bool and type(span) is list
                     and type(children) is list)
        except (KeyError, TypeError):
            typed = False
        if not typed:
            node_id, kind_name, has_children, span, children = (
                _require(raw, key, expected, f"$.nodes[{idx}]")
                for key, expected in _NODE_FIELDS)
        placed = 0 <= node_id < n
        if placed:
            duplicate = kinds[node_id] is not None
        else:
            duplicate = node_id in stray_ids
            stray_ids.add(node_id)
        if duplicate:
            raise SchemaError(f"duplicate node id {node_id}", f"$.nodes[{idx}]")
        if not (len(span) == 2 and type(span[0]) is int and type(span[1]) is int):
            raise SchemaError("span must be [start, end]", f"$.nodes[{idx}].span")
        for child in children:
            if type(child) is not int:  # not children.index(child), as True == 1
                c_idx = next(i for i, c in enumerate(children) if type(c) is not int)
                raise SchemaError("child ids must be integers",
                                  f"$.nodes[{idx}].children[{c_idx}]")
            if not 0 <= child < n:
                link_error = link_error or (f"child {child} does not exist", idx)
            elif parents[child] is None:
                parents[child] = node_id
            else:
                link_error = link_error or (f"node {child} has two parents", idx)
        kind = _KIND_BY_NAME.get(kind_name)
        if kind is None:
            kind = StmtKind.BLOCK if has_children else StmtKind.EXPRESSION
        if children and kind not in TREE_KINDS:
            raise SchemaError(f"leaf kind {kind.value!r} cannot have children",
                              f"$.nodes[{idx}]")
        if placed:
            kinds[node_id] = kind
            spans[node_id] = (span[0], span[1])
            children_of[node_id] = tuple(children)

    if stray_ids:
        raise SchemaError(f"node ids must be the contiguous range 0..{n - 1}", "$.nodes")
    for r_idx, root in enumerate(raw_roots):
        if type(root) is not int or not 0 <= root < n:
            raise SchemaError("root ids must reference nodes", f"$.roots[{r_idx}]")
    if link_error:
        message, idx = link_error
        raise SchemaError(message, f"$.nodes[{idx}]")

    statements = tuple(map(new_node, zip(range(n), kinds, spans, children_of, parents)))
    try:
        return TestCaseAst(
            test_name=test_name,
            source=source,
            statements=statements,
            roots=tuple(raw_roots),
            project=project,
        )
    except ModelError as exc:
        _check_acyclic([raw["id"] for raw in raw_nodes], parents)
        raise SchemaError(str(exc), "$") from None


def _check_acyclic(order: list[int], parents: list[int | None]) -> None:
    """Raise :class:`CycleError` at the first node in ``order`` on a loop of
    parent links. Each node has one parent at most, so no node off a loop
    reaches one through child links: the loop node it entered by would have
    two parents."""
    walk_of = [0] * len(parents)  # the walk, from 1, that first met a node; -1 on a loop
    for walk, node in enumerate(order, 1):
        while node is not None and not walk_of[node]:
            walk_of[node] = walk
            node = parents[node]
        while node is not None and walk_of[node] == walk:  # met itself: go round the loop
            walk_of[node] = -1
            node = parents[node]
    for node in order:
        if walk_of[node] < 0:
            raise CycleError(node)
