import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redustat.ingest import CycleError, SchemaError, canonical_json, ingest_tree, to_document
from redustat.model import StmtKind, count_categories
from redustat.parser import parse_test

from conftest import random_test_source


def doc(nodes, roots, source="x" * 64, name="t"):
    return {"test_name": name, "source": source, "nodes": nodes, "roots": roots}


def node(node_id, kind, span, children=(), has_children=None):
    return {
        "id": node_id,
        "kind": kind,
        "has_children": bool(children) if has_children is None else has_children,
        "span": list(span),
        "children": list(children),
    }


def test_single_leaf_node():
    ast = ingest_tree(doc([node(0, "ExpressionStmt", (0, 4))], [0]))
    assert count_categories(ast) == (1, 1, 0)


def test_if_with_two_leaves():
    ast = ingest_tree(doc(
        [
            node(0, "If", (0, 20), children=(1, 2)),
            node(1, "ExpressionStmt", (5, 10)),
            node(2, "ExpressionStmt", (12, 18)),
        ],
        [0],
    ))
    assert count_categories(ast) == (3, 2, 1)


def test_unknown_kinds_map_by_has_children_flag():
    ast = ingest_tree(doc(
        [
            node(0, "CompoundStatement", (0, 30), children=(1,), has_children=True),
            node(1, "CallExpressionStatement", (5, 12), has_children=False),
        ],
        [0],
    ))
    assert ast.statements[0].kind is StmtKind.BLOCK
    assert ast.statements[1].kind is StmtKind.EXPRESSION


def test_known_tree_kind_may_be_childless():
    ast = ingest_tree(doc([node(0, "While", (0, 12), has_children=False)], [0]))
    assert count_categories(ast) == (1, 0, 1)


def test_accepts_json_text_input():
    text = json.dumps(doc([node(0, "Return", (0, 9))], [0]))
    ast = ingest_tree(text)
    assert ast.statements[0].kind is StmtKind.RETURN


def test_missing_field_reports_path():
    bad = doc([{"id": 0, "kind": "Return", "span": [0, 2], "children": []}], [0])
    with pytest.raises(SchemaError) as info:
        ingest_tree(bad)
    assert "$.nodes[0]" in str(info.value)
    assert "has_children" in str(info.value)


def test_boolean_node_id_is_schema_error():
    with pytest.raises(SchemaError) as info:
        ingest_tree(doc([node(True, "ExpressionStmt", (0, 4))], [0]))
    assert "$.nodes[0].id" in str(info.value)


def test_known_leaf_kind_with_children_is_schema_error():
    bad = doc(
        [node(0, "Return", (0, 20), children=(1,)),
         node(1, "ExpressionStmt", (4, 10))],
        [0],
    )
    with pytest.raises(SchemaError):
        ingest_tree(bad)


def test_duplicate_parent_reference_is_schema_error():
    bad = doc(
        [
            node(0, "Block", (0, 30), children=(2,)),
            node(1, "Block", (32, 60), children=(2,)),
            node(2, "ExpressionStmt", (5, 10)),
        ],
        [0, 1],
    )
    with pytest.raises(SchemaError) as info:
        ingest_tree(bad)
    assert "two parents" in str(info.value)


def test_non_contiguous_ids_are_schema_error():
    bad = doc([node(0, "ExpressionStmt", (0, 4)), node(5, "ExpressionStmt", (6, 10))],
              [0, 5])
    with pytest.raises(SchemaError):
        ingest_tree(bad)


def test_cycle_is_cycle_error():
    bad = doc(
        [
            node(0, "Block", (0, 40), children=(1,)),
            node(1, "Block", (5, 35), children=(0,)),
        ],
        [0],
    )
    with pytest.raises(CycleError):
        ingest_tree(bad)


def test_self_cycle_is_cycle_error():
    bad = doc([node(0, "Block", (0, 40), children=(0,))], [0])
    with pytest.raises((CycleError, SchemaError)):
        ingest_tree(bad)


def test_span_outside_parent_is_rejected():
    bad = doc(
        [node(0, "Block", (0, 10), children=(1,)),
         node(1, "ExpressionStmt", (12, 20))],
        [0],
    )
    with pytest.raises(SchemaError):
        ingest_tree(bad)


def test_unreferenced_node_is_rejected():
    bad = doc([node(0, "ExpressionStmt", (0, 4)), node(1, "ExpressionStmt", (6, 10))],
              [0])
    with pytest.raises(SchemaError):
        ingest_tree(bad)


def test_round_trip_through_parser_document():
    source = "if (a) { x(); y(); }\nz();\n"
    ast = parse_test(source, test_name="round")
    again = ingest_tree(to_document(ast))
    assert to_document(again) == to_document(ast)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_reserialization_is_byte_identical(seed):
    source = random_test_source(random.Random(seed))
    ast = parse_test(source, test_name=f"seed{seed}")
    first = canonical_json(ast)
    second = canonical_json(ingest_tree(json.loads(first)))
    assert first == second


def test_foreign_kinds_reserialize_canonically():
    original = doc(
        [
            node(0, "weird_branch", (0, 30), children=(1,), has_children=True),
            node(1, "weird_leaf", (5, 12), has_children=False),
        ],
        [0],
    )
    once = ingest_tree(original)
    text = canonical_json(once)
    assert canonical_json(ingest_tree(text)) == text
    assert '"kind":"Block"' in text
