import random
import re

import pytest

from redustat.model import (
    Category,
    ModelError,
    StatementNode,
    StmtKind,
    TestCaseAst,
    TREE_KINDS,
    count_categories,
    render,
)
from redustat.parser import parse_test

from conftest import ancestor_closure, ancestors, load_module, random_ast, token_texts


def is_ancestor_closed(ast, ids):
    """The exhaustive search's test: a set is closed when it is its own closure."""
    gen_synthetic_corpus = load_module("gen_synthetic_corpus", "tools/gen_synthetic_corpus.py")
    return gen_synthetic_corpus.ancestor_closure(ast, ids) == ids


def test_category_is_decided_by_kind_alone():
    for kind in StmtKind:
        node = StatementNode(id=0, kind=kind, span=(0, 1))
        expected = Category.TREE if kind in TREE_KINDS else Category.NON_TREE
        assert node.category is expected


@pytest.mark.parametrize("field", StatementNode._fields)
def test_statement_node_fields_cannot_be_assigned(field):
    node = StatementNode(id=0, kind=StmtKind.IF, span=(0, 9), children=(1,), parent=None)
    with pytest.raises(AttributeError):
        setattr(node, field, getattr(node, field))
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node == StatementNode(0, StmtKind.IF, (0, 9), (1,))


def test_equal_statement_nodes_hash_equal():
    first = StatementNode(id=3, kind=StmtKind.BLOCK, span=(2, 8), children=(4, 5), parent=1)
    second = StatementNode(3, StmtKind.BLOCK, (2, 8), (4, 5), 1)
    assert first == second and hash(first) == hash(second)
    assert first == (3, StmtKind.BLOCK, (2, 8), (4, 5), 1)
    assert len({first, second, first._replace(parent=None)}) == 2
    assert repr(StatementNode(0, StmtKind.RETURN, (0, 9))) == (
        "StatementNode(id=0, kind=<StmtKind.RETURN: 'Return'>, span=(0, 9), "
        "children=(), parent=None)")


def test_parsed_nodes_hold_only_immutable_values():
    # What makes a TestCaseAst safe to share between threads: every node,
    # down to its span and children, is a tuple, so it hashes and no reader
    # can change what another sees.
    ast = parse_test("if (a) { x(); while (b) { y(); } }\nz();\n")
    for node in ast.statements:
        assert type(node.span) is tuple and type(node.children) is tuple
        assert hash(node) == hash(tuple(node))
    assert hash(ast.statements) == hash(parse_test(ast.source).statements)


def test_tree_kinds_are_exactly_the_nesting_statements():
    assert {k.value for k in TREE_KINDS} == {
        "If", "For", "ForEach", "While", "DoWhile", "Try",
        "SynchronizedBlock", "Block", "LabeledStmt",
    }


def test_count_categories_leaf_only_body():
    ast = parse_test("int x = 1; assertEquals(1, x);")
    assert count_categories(ast) == (2, 2, 0)


def test_count_categories_if_with_two_children():
    ast = parse_test("if (a) { foo(); bar(); }")
    assert count_categories(ast) == (3, 2, 1)


def test_count_categories_thirteen_leaf_flat_body():
    # same shape as the widest leaf-only corpus row: 13 statements, no trees
    ast = parse_test("\n".join(f"check{i}();" for i in range(13)))
    assert count_categories(ast) == (13, 13, 0)


def test_count_categories_seven_statement_tree_with_one_tree_stmt():
    # 7 statements of which 6 leaves and 1 tree statement
    ast = parse_test(
        "setUp();\n"
        "int x = 1;\n"
        "try {\n"
        "    mightThrow(x);\n"
        "    fail();\n"
        "} catch (Exception e) {\n"
        "    log(e);\n"
        "}\n"
        "tearDown();\n"
    )
    assert count_categories(ast) == (7, 6, 1)


def test_count_categories_empty_body():
    ast = parse_test("")
    assert count_categories(ast) == (0, 0, 0)


def test_counts_match_independent_recursive_tally():
    rng = random.Random(7)
    for _ in range(100):
        ast = random_ast(rng)

        def tally(node_id):
            node = ast.statements[node_id]
            total = 1
            leaves = 0 if node.kind in TREE_KINDS else 1
            for child in node.children:
                sub_total, sub_leaves = tally(child)
                total += sub_total
                leaves += sub_leaves
            return total, leaves

        total = leaves = 0
        for root in ast.roots:
            t, l = tally(root)
            total += t
            leaves += l
        stmts, ntn, tn = count_categories(ast)
        assert stmts == total
        assert ntn == leaves
        assert tn == total - leaves


def test_category_partition_is_total():
    rng = random.Random(8)
    for _ in range(50):
        ast = random_ast(rng)
        stmts, ntn, tn = count_categories(ast)
        assert stmts == ntn + tn == ast.total_statements


def test_render_identity_keeps_all_tokens(flat_five):
    assert token_texts(render(flat_five, flat_five.all_ids())) == \
        token_texts(flat_five.source)


def test_render_empty_retained_set_is_empty_body(flat_five):
    assert token_texts(render(flat_five, set())) == []


def test_render_keeps_empty_shell_of_tree_statement():
    ast = parse_test("if (a) { foo(); bar(); }")
    shell = render(ast, {0})
    reparsed = parse_test(shell)
    assert count_categories(reparsed) == (1, 0, 1)
    assert reparsed.statements[0].kind is StmtKind.IF


def test_render_rejects_non_ancestor_closed_set():
    ast = parse_test("if (a) { foo(); }")
    with pytest.raises(ModelError) as info:
        render(ast, {1})
    assert str(info.value) == ("retained set is not ancestor-closed: node 1 "
                               "is retained but an ancestor is not")


def test_render_removed_subtree_drops_descendants():
    ast = parse_test("if (a) { foo(); bar(); }\nafter();\n")
    kept = render(ast, {3})
    assert token_texts(kept) == token_texts("after();")


def test_parse_render_round_trip_is_isomorphic():
    rng = random.Random(9)
    for _ in range(100):
        ast = random_ast(rng)
        reparsed = parse_test(render(ast, ast.all_ids()))
        assert _shape(ast) == _shape(reparsed)


def test_count_additivity_over_random_splits():
    rng = random.Random(10)
    for _ in range(50):
        ast = random_ast(rng)
        ids = sorted(ast.all_ids())
        removed = {i for i in ids if rng.random() < 0.5}
        removed_tn = sum(1 for i in removed
                         if ast.statements[i].category is Category.TREE)
        removed_ntn = sum(1 for i in removed
                          if ast.statements[i].category is Category.NON_TREE)
        assert removed_ntn + removed_tn == len(removed)


def test_subtree_ids_and_ancestors():
    ast = parse_test("if (a) { x(); if (b) { y(); } }\nz();\n")
    # ids: 0=outer if, 1=x, 2=inner if, 3=y, 4=z
    assert ast.subtree_ids(0) == {0, 1, 2, 3}
    assert ast.subtree_ids(2) == {2, 3}
    assert list(ancestors(ast, 3)) == [2, 0]
    assert ancestor_closure(ast, {3}) == {0, 2, 3}
    assert is_ancestor_closed(ast, frozenset({0, 2, 3}))
    assert not is_ancestor_closed(ast, frozenset({2, 3}))


def test_closure_check_agrees_with_parent_membership():
    rng = random.Random(11)
    for _ in range(300):
        ast = random_ast(rng)
        ids = sorted(ast.all_ids())
        subset = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        for candidate in (subset, ancestor_closure(ast, subset)):
            parents = [ast.statements[i].parent for i in candidate]
            parents_kept = all(p is None or p in candidate for p in parents)
            assert is_ancestor_closed(ast, candidate) is parents_kept


def test_construction_rejects_bad_ids():
    with pytest.raises(ModelError):
        TestCaseAst(
            test_name="bad",
            source="a();",
            statements=(StatementNode(id=1, kind=StmtKind.EXPRESSION, span=(0, 4)),),
            roots=(1,),
        )


def test_construction_rejects_leaf_with_children():
    nodes = (
        StatementNode(id=0, kind=StmtKind.RETURN, span=(0, 9), children=(1,)),
        StatementNode(id=1, kind=StmtKind.EXPRESSION, span=(2, 6), parent=0),
    )
    with pytest.raises(ModelError):
        TestCaseAst(test_name="bad", source="return x;", statements=nodes, roots=(0,))


#: "{ a(); b(); } c();": a block holding two leaves, then a leaf.
_SOURCE = "{ a(); b(); } c();"
_NODES = (
    StatementNode(0, StmtKind.BLOCK, (0, 13), (1, 2)),
    StatementNode(1, StmtKind.EXPRESSION, (2, 6), parent=0),
    StatementNode(2, StmtKind.EXPRESSION, (7, 11), parent=0),
    StatementNode(3, StmtKind.EXPRESSION, (14, 18)),
)


def _hand_built(roots=(0, 3), **changes):
    """The test above with some nodes' fields replaced: ``node<i>={...}``."""
    nodes = tuple(node._replace(**changes.get(f"node{node.id}", {}))
                  for node in _NODES)
    return TestCaseAst("hand", _SOURCE, nodes, roots)


def test_hand_built_test_is_valid():
    assert _hand_built().tree_ids == {0}


@pytest.mark.parametrize("changes, message", [
    ({"node3": {"id": 4}}, "ids must be contiguous from 0; position 3 holds id 4"),
    ({"node3": {"span": (14, 19)}}, "node 3: span (14, 19) outside source"),
    ({"node3": {"span": (-1, 18)}}, "node 3: span (-1, 18) outside source"),
    ({"node0": {"kind": StmtKind.EXPRESSION}}, "node 0: ExpressionStmt is a leaf kind"),
    ({"node0": {"children": (1, 2, 7)}}, "node 0: child 7 out of range"),
    ({"node2": {"parent": None}}, "node 2: parent link does not match"),
    ({"node1": {"span": (0, 6)}}, "node 1: span (0, 6) not strictly inside"),
    ({"node0": {"children": (2, 1)}}, "children of node 0: spans overlap or are out"),
    ({"node2": {"span": (5, 11)}}, "children of node 0: spans overlap or are out"),
    ({"roots": (3, 0)}, "roots: spans overlap or are out of source order"),
    ({"roots": (0, 1, 3)}, "root 1 has a parent"),
    ({"roots": (0, 3, 9)}, "root 9 out of range"),
    ({"roots": (0,)}, "statements not reachable from roots: [3]"),
    ({"node0": {"children": (1,)}}, "statements not reachable from roots: [2]"),
])
def test_construction_rejects_each_broken_invariant(changes, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        _hand_built(**changes)


def test_construction_rejects_a_node_reachable_twice():
    # Empty spans are never out of order with themselves, so only the walk
    # notices that a node is listed twice.
    empty = StatementNode(0, StmtKind.EMPTY, (1, 1))
    with pytest.raises(ModelError, match="node 0 reachable twice"):
        TestCaseAst("twice", "x;", (empty,), (0, 0))
    block = StatementNode(0, StmtKind.BLOCK, (0, 2), (1, 1))
    inner = StatementNode(1, StmtKind.EMPTY, (1, 1), parent=0)
    with pytest.raises(ModelError, match="node 1 reachable twice"):
        TestCaseAst("twice", "{}", (block, inner), (0,))


def _shape(ast):
    return [
        (node.kind, tuple(node.children), node.parent)
        for node in ast.statements
    ]
