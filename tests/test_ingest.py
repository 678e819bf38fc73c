import json
import random
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redustat.ingest import CycleError, SchemaError, _check_acyclic, ingest_tree
from redustat.model import TREE_KINDS, StmtKind, TestCaseAst, count_categories
from redustat.parser import parse_test

from conftest import random_test_source


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


def test_invalid_json_text_is_schema_error():
    with pytest.raises(SchemaError) as info:
        ingest_tree('{"test_name": ')
    assert str(info.value).startswith("not valid JSON: ")
    assert info.value.path == "$"


# JSON text may escape a lone surrogate, but no candidate holding one can be
# written out for the oracle.
_SURROGATE_SOURCE = doc([node(0, "ExpressionStmt", (0, 7)), node(1, "ExpressionStmt", (7, 11))],
                        [0, 1], source='a("\ud800");b();')


@pytest.mark.parametrize("document", [_SURROGATE_SOURCE, json.dumps(_SURROGATE_SOURCE)],
                         ids=["dict", "json text"])
def test_source_that_utf8_cannot_encode_is_schema_error(document):
    with pytest.raises(SchemaError) as info:
        ingest_tree(document)
    assert str(info.value) == "source cannot be written as UTF-8 (at $.source)"
    assert info.value.path == "$.source"


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


def test_local_declaration_is_a_leaf_kind():
    # The parser no longer emits it, but tree documents still name it.
    ast = ingest_tree(doc([node(0, "LocalDeclaration", (0, 10))], [0]))
    assert ast.statements[0].kind is StmtKind.LOCAL_DECLARATION
    assert count_categories(ast) == (1, 1, 0)
    bad = doc(
        [node(0, "LocalDeclaration", (0, 20), children=(1,)),
         node(1, "ExpressionStmt", (4, 10))],
        [0],
    )
    with pytest.raises(SchemaError) as info:
        ingest_tree(bad)
    assert str(info.value) == \
        "leaf kind 'LocalDeclaration' cannot have children (at $.nodes[0])"


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


def _six_nodes():
    """"{ a; if (c) { b; d; } } e;" as nodes: a block holding a leaf and an
    ``if`` with two leaves, then a leaf."""
    return [
        node(0, "Block", (0, 30), children=(1, 2)),
        node(1, "ExpressionStmt", (2, 8)),
        node(2, "If", (10, 28), children=(3, 4)),
        node(3, "ExpressionStmt", (12, 18)),
        node(4, "ExpressionStmt", (20, 26)),
        node(5, "ExpressionStmt", (32, 40)),
    ]


def test_nodes_listed_out_of_id_order_ingest_like_sorted_ones():
    nodes = _six_nodes()
    shuffled = [nodes[i] for i in (4, 0, 5, 2, 1, 3)]
    expected = ingest_tree(doc(nodes, [0, 5]))
    assert ingest_tree(doc(shuffled, [0, 5])) == expected
    assert [n.parent for n in expected.statements] == [None, 0, 0, 2, 2, None]


def _fault(index, **changes):
    nodes = _six_nodes()
    nodes[index] = {**nodes[index], **changes}
    return doc(nodes, [0, 5])


def _missing(index, key):
    nodes = _six_nodes()
    del nodes[index][key]
    return doc(nodes, [0, 5])


def _cycle():
    """Nodes 1 -> 2 -> 3 -> 1 loop and hang from no root; the document lists
    node 2 first, so the search meets the loop again at node 2."""
    return doc([
        node(2, "Block", (10, 20), children=(3,)),
        node(0, "ExpressionStmt", (0, 4)),
        node(1, "Block", (5, 30), children=(2,)),
        node(3, "Block", (12, 18), children=(1,)),
    ], [0])


# Each document has one fault, past node 0. The class, message and path are
# those the multi-pass ingest gave, which the one-pass ingest must keep.
@pytest.mark.parametrize("document, error, message", [
    (_fault(3, span=[12]), SchemaError, "span must be [start, end] (at $.nodes[3].span)"),
    (_fault(3, span=[12, 18.0]), SchemaError,
     "span must be [start, end] (at $.nodes[3].span)"),
    (_fault(2, children=[3, "4"]), SchemaError,
     "child ids must be integers (at $.nodes[2].children[1])"),
    (_fault(2, children=[3, True]), SchemaError,
     "child ids must be integers (at $.nodes[2].children[1])"),
    (_fault(2, children=[3, 4, 1]), SchemaError, "node 1 has two parents (at $.nodes[2])"),
    (_fault(2, children=[3, 4, 9]), SchemaError, "child 9 does not exist (at $.nodes[2])"),
    (_fault(2, children=[3, -1]), SchemaError, "child -1 does not exist (at $.nodes[2])"),
    (_fault(3, id=1), SchemaError, "duplicate node id 1 (at $.nodes[3])"),
    (_fault(3, id=6), SchemaError,
     "node ids must be the contiguous range 0..5 (at $.nodes)"),
    (_fault(4, id=True), SchemaError, "field 'id' has wrong type (at $.nodes[4].id)"),
    (_fault(4, has_children=0), SchemaError,
     "field 'has_children' has wrong type (at $.nodes[4].has_children)"),
    (_missing(5, "kind"), SchemaError, "missing field 'kind' (at $.nodes[5])"),
    (doc(_six_nodes()[:5] + ["leaf"], [0]), SchemaError, "expected an object (at $.nodes[5])"),
    (_fault(4, kind="Return", children=[5]), SchemaError,
     "leaf kind 'Return' cannot have children (at $.nodes[4])"),
    (_fault(3, span=[12, 29]), SchemaError,
     "node 3: span (12, 29) not strictly inside parent span (10, 28) (at $)"),
    (_cycle(), CycleError, "child references form a cycle through node 2"),
])
def test_single_fault_past_node_zero_keeps_its_error(document, error, message):
    with pytest.raises(error) as info:
        ingest_tree(document)
    assert type(info.value) is error
    assert str(info.value) == message


def test_root_past_the_first_that_names_no_node_keeps_its_error():
    with pytest.raises(SchemaError) as info:
        ingest_tree(doc(_six_nodes(), [0, 5, 6]))
    assert str(info.value) == "root ids must reference nodes (at $.roots[2])"
    assert info.value.path == "$.roots[2]"


class _Id(IntEnum):
    FOUR = 4


class _Int(int):
    pass


class _Str(str):
    pass


class _Document(dict):
    pass


# A field must have exactly the type json.loads gives it; JSON text never
# holds a subclass, so only dict documents can meet these errors.
@pytest.mark.parametrize("document, message", [
    (_fault(4, id=_Id.FOUR), "field 'id' has wrong type (at $.nodes[4].id)"),
    (_fault(3, span=[12, _Int(18)]), "span must be [start, end] (at $.nodes[3].span)"),
    (_fault(2, children=[_Int(3), 4]),
     "child ids must be integers (at $.nodes[2].children[0])"),
    # 1 == True, so children.index(True) would name children[0].
    (_fault(2, children=[1, True]), "child ids must be integers (at $.nodes[2].children[1])"),
    (doc(_six_nodes(), [0, _Int(5)]), "root ids must reference nodes (at $.roots[1])"),
    (doc(_six_nodes()[:5] + [OrderedDict(_six_nodes()[5])], [0, 5]),
     "expected an object (at $.nodes[5])"),
    (_Document(doc(_six_nodes(), [0, 5])), "expected an object (at $)"),
    ({**doc(_six_nodes(), [0, 5]), "project": _Str("p")},
     "field 'project' has wrong type (at $.project)"),
])
def test_subclass_of_a_json_type_is_a_wrong_type(document, message):
    with pytest.raises(SchemaError) as info:
        ingest_tree(document)
    assert str(info.value) == message


def _loop_case(order, roots=(0,)):
    """Nodes 1 -> 2 -> 1 and 3 -> 4 -> 3 loop, node 1 also holds leaf 5, and
    leaf 0 stands alone; ``order`` lists the node ids in document order."""
    nodes = {
        0: node(0, "ExpressionStmt", (0, 4)),
        1: node(1, "Block", (5, 30), children=(2, 5)),
        2: node(2, "Block", (6, 29), children=(1,)),
        3: node(3, "Block", (31, 50), children=(4,)),
        4: node(4, "Block", (32, 49), children=(3,)),
        5: node(5, "ExpressionStmt", (7, 9)),
    }
    return doc([nodes[i] for i in order], list(roots))


# Each case names the node the parent's depth-first search reported.
@pytest.mark.parametrize("document, node_id", [
    # A loop's descendant is listed before any loop node.
    (_loop_case([5, 0, 2, 1, 3, 4]), 2),
    # The later loop is listed first.
    (_loop_case([0, 4, 3, 1, 2, 5]), 4),
    (_loop_case([5, 3, 0, 1, 2, 4]), 3),
    # A self-loop after a tree.
    (doc([node(0, "Block", (0, 20), children=(1,)), node(1, "ExpressionStmt", (2, 8)),
          node(2, "Block", (22, 40), children=(2,))], [0]), 2),
])
def test_loop_is_reported_at_its_first_listed_node(document, node_id):
    with pytest.raises(CycleError) as info:
        ingest_tree(document)
    assert info.value.node_id == node_id
    assert str(info.value) == f"child references form a cycle through node {node_id}"


def _colour_search(order, children_of):
    """The depth-first search over child links that ingest used before it
    searched the parent links: the reference for ``_check_acyclic``."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * len(children_of)
    for start in order:
        if color[start] != WHITE:
            continue
        stack = [(start, 0)]
        color[start] = GREY
        while stack:
            node_id, child_idx = stack[-1]
            children = children_of[node_id]
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


def _reported_loop_node(search, *args):
    try:
        search(*args)
    except CycleError as exc:
        return exc.node_id
    return None


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_parent_link_search_reports_the_node_the_colour_search_did(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 24)
    # At most one parent per node, as ingest guarantees before the search;
    # a parent drawn from every node gives loops, self-loops and trees.
    parents = [None if rng.random() < 0.3 else rng.randrange(n) for _ in range(n)]
    children_of = [[] for _ in range(n)]
    for child in rng.sample(range(n), n):
        if parents[child] is not None:
            children_of[parents[child]].append(child)
    order = rng.sample(range(n), n)
    assert (_reported_loop_node(_check_acyclic, order, parents)
            == _reported_loop_node(_colour_search, order, children_of))
