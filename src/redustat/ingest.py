"""Ingestion of serialized parse trees produced by external parsers.

Real Java or C# tests can be parsed by any full-language frontend and fed to
the pipeline as a JSON document::

    {"test_name": str, "source": str,
     "nodes": [{"id": int, "kind": str, "has_children": bool,
                "span": [int, int], "children": [int]}],
     "roots": [int]}

Kind strings that match the statement-kind enum are taken as-is; anything
else maps to ``Block`` when ``has_children`` is true and ``ExpressionStmt``
otherwise, so foreign grammars degrade gracefully to the tree/leaf split.
"""

from __future__ import annotations

import json
from typing import Any

from .model import StatementNode, StmtKind, TestCaseAst, TREE_KINDS, ModelError


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


def _require(mapping: Any, key: str, types: type | tuple, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise SchemaError("expected an object", path)
    if key not in mapping:
        raise SchemaError(f"missing field {key!r}", path)
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is int:
        raise SchemaError(f"field {key!r} has wrong type", f"{path}.{key}")
    return value


def ingest_tree(document: dict | str, project: str = "") -> TestCaseAst:
    """Build a :class:`TestCaseAst` from a tree document (dict or JSON text).

    Raises :class:`SchemaError` with the offending path on malformed
    documents and :class:`CycleError` when child references loop.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}", "$") from None

    test_name = _require(document, "test_name", str, "$")
    source = _require(document, "source", str, "$")
    raw_nodes = _require(document, "nodes", list, "$")
    raw_roots = _require(document, "roots", list, "$")
    project = document.get("project", project)
    if not isinstance(project, str):
        raise SchemaError("field 'project' has wrong type", "$.project")

    n = len(raw_nodes)
    seen_ids = set()
    parsed = {}
    for idx, raw in enumerate(raw_nodes):
        path = f"$.nodes[{idx}]"
        node_id = _require(raw, "id", int, path)
        kind_name = _require(raw, "kind", str, path)
        has_children = _require(raw, "has_children", bool, path)
        span = _require(raw, "span", list, path)
        children = _require(raw, "children", list, path)
        if node_id in seen_ids:
            raise SchemaError(f"duplicate node id {node_id}", path)
        seen_ids.add(node_id)
        if not (len(span) == 2 and all(isinstance(v, int) and not isinstance(v, bool)
                                       for v in span)):
            raise SchemaError("span must be [start, end]", f"{path}.span")
        for c_idx, child in enumerate(children):
            if not isinstance(child, int) or isinstance(child, bool):
                raise SchemaError("child ids must be integers",
                                  f"{path}.children[{c_idx}]")
        kind = _KIND_BY_NAME.get(kind_name)
        if kind is None:
            kind = StmtKind.BLOCK if has_children else StmtKind.EXPRESSION
        if kind not in TREE_KINDS and children:
            raise SchemaError(f"leaf kind {kind.value!r} cannot have children", path)
        parsed[node_id] = {
            "kind": kind,
            "span": (span[0], span[1]),
            "children": list(children),
            "path": path,
        }

    if seen_ids != set(range(n)):
        raise SchemaError(f"node ids must be the contiguous range 0..{n - 1}",
                          "$.nodes")
    for r_idx, root in enumerate(raw_roots):
        if not isinstance(root, int) or isinstance(root, bool) or root not in parsed:
            raise SchemaError("root ids must reference nodes", f"$.roots[{r_idx}]")

    parents: dict[int, int] = {}
    for node_id, info in parsed.items():
        for child in info["children"]:
            if child not in parsed:
                raise SchemaError(f"child {child} does not exist", info["path"])
            if child in parents:
                raise SchemaError(f"node {child} has two parents", info["path"])
            parents[child] = node_id

    _check_acyclic(parsed)

    statements = tuple(
        StatementNode(
            id=node_id,
            kind=parsed[node_id]["kind"],
            span=parsed[node_id]["span"],
            children=tuple(parsed[node_id]["children"]),
            parent=parents.get(node_id),
        )
        for node_id in range(n)
    )
    try:
        return TestCaseAst(
            test_name=test_name,
            source=source,
            statements=statements,
            roots=tuple(raw_roots),
            project=project,
        )
    except ModelError as exc:
        raise SchemaError(str(exc), "$") from None


def _check_acyclic(parsed: dict[int, dict]) -> None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node_id: WHITE for node_id in parsed}
    for start in parsed:
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = GREY
        while stack:
            node_id, child_idx = stack[-1]
            children = parsed[node_id]["children"]
            if child_idx == len(children):
                stack.pop()
                color[node_id] = BLACK
                continue
            stack[-1] = (node_id, child_idx + 1)
            child = children[child_idx]
            if color[child] == GREY:
                raise CycleError(child)
            if color[child] == WHITE:
                color[child] = GREY
                stack.append((child, 0))


def to_document(ast: TestCaseAst) -> dict:
    """Serialize an AST back to the tree-ingestion schema.

    Kinds are emitted in canonical enum form, so ingest -> serialize is
    idempotent even for documents that used foreign kind strings.
    """
    return {
        "test_name": ast.test_name,
        "project": ast.project,
        "source": ast.source,
        "nodes": [
            {
                "id": node.id,
                "kind": node.kind.value,
                "has_children": node.kind in TREE_KINDS,
                "span": [node.span[0], node.span[1]],
                "children": list(node.children),
            }
            for node in ast.statements
        ],
        "roots": list(ast.roots),
    }


def canonical_json(ast: TestCaseAst) -> str:
    """Byte-stable serialization: sorted keys, minimal separators, newline."""
    return json.dumps(to_document(ast), sort_keys=True, separators=(",", ":")) + "\n"
