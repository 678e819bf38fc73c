import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import textwrap
import types
from ast import literal_eval
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redustat import reducer
from redustat.model import (
    Category,
    StatementNode,
    StmtKind,
    TestCaseAst,
    count_categories,
)
from redustat.oracle import (
    MatchPolicy,
    OracleConfig,
    OriginalDoesNotFailError,
    ScriptedOracle,
    VerdictStatus,
    evaluate,
    verdict_accepted,
)
from redustat.parser import parse_test
from redustat.reducer import _Candidate, reduce_test, verify_one_minimal

from conftest import ancestor_closure, load_module, random_ast, token_texts

# The exhaustive reference search lives with the generator it feeds.
gen_synthetic_corpus = load_module("gen_synthetic_corpus", "tools/gen_synthetic_corpus.py")
brute_force_minimal = gen_synthetic_corpus.brute_force_minimal
TooLargeError = gen_synthetic_corpus.TooLargeError


def scripted(*sets, blockers=()):
    return ScriptedOracle(failure_sets=tuple(frozenset(s) for s in sets),
                          blockers=frozenset(blockers))


def test_flat_singleton_cause(flat_five):
    outcome = reduce_test(flat_five, scripted({3}))
    assert outcome.retained == {3}
    assert outcome.removed == {0, 1, 2, 4}
    assert outcome.removed_ntn == 4 and outcome.removed_tn == 0
    assert evaluate(scripted({3}), outcome.retained,
                    flat_five).status is VerdictStatus.FAIL


def test_ancestor_must_stay_retained():
    # If(children 1, 2) plus trailing leaf 3; the failure needs only node 2
    ast = parse_test("if (a) { one();\n two(); }\nthree();\n")
    outcome = reduce_test(ast, scripted({2}))
    assert outcome.retained == {0, 2}
    assert outcome.removed == {1, 3}
    assert outcome.removed_ntn == 2 and outcome.removed_tn == 0
    assert brute_force_minimal(ast, scripted({2})) == {0, 2}


def test_thirteen_leaf_flat_with_six_leaf_cause():
    ast = parse_test("\n".join(f"s{i}();" for i in range(13)))
    cause = {1, 3, 5, 7, 9, 11}
    outcome = reduce_test(ast, scripted(cause))
    assert outcome.retained == cause
    stmts, _, _ = count_categories(ast)
    ars = len(outcome.removed)
    assert ars == 7
    assert abs(ars / stmts * 100 - 53.84) < 0.01


def test_minimal_source_still_fails_and_reparses(flat_five):
    oracle = scripted({1, 4})
    outcome = reduce_test(flat_five, oracle)
    assert outcome.retained == {1, 4}
    reparsed = parse_test(outcome.minimal_source)
    assert count_categories(reparsed) == (2, 2, 0)


def test_outcome_bookkeeping(flat_five):
    outcome = reduce_test(flat_five, scripted({0}))
    assert outcome.retained | outcome.removed == flat_five.all_ids()
    assert not outcome.retained & outcome.removed
    assert outcome.removed_ntn + outcome.removed_tn == len(outcome.removed)
    assert outcome.oracle_calls <= outcome.passes * 5 + 1
    assert outcome.wall_time_ms >= 0
    trace_ids = [entry["node"] for entry in outcome.trace]
    assert set(trace_ids) <= flat_five.all_ids()


def test_report_schema(flat_five):
    report = reduce_test(flat_five, scripted({2})).to_report()
    assert report["retained"] == [2]
    assert report["removed"] == [0, 1, 3, 4]
    assert report["baseline_signature"] == "scripted"
    assert all(entry["decision"] in ("accepted", "rejected")
               for entry in report["trace"])
    assert all(entry["verdict"] in ("Fail", "Pass", "Invalid")
               for entry in report["trace"])


def test_original_must_fail(flat_five):
    with pytest.raises(OriginalDoesNotFailError):
        reduce_test(flat_five, scripted({17}))


def test_pass_on_one_minimal_set_is_fixpoint(flat_five):
    # the last sweep starts from the 1-minimal set and rejects every removal
    outcome = reduce_test(flat_five, scripted({2}))
    assert outcome.retained == {2}
    last_pass = outcome.trace[-len(outcome.retained):]
    assert [entry["node"] for entry in last_pass] == [2]
    assert all(entry["decision"] == "rejected" for entry in last_pass)


def test_subtrees_are_attempted_before_leaves():
    # deleting the whole if first takes both its children in one call
    ast = parse_test("if (a) { x();\n y(); }\nz();\n")
    outcome = reduce_test(ast, scripted({3}))
    assert outcome.retained == {3}
    # z() was rejected after the last commit, so the certifying pass has
    # nothing left to try
    assert [entry["node"] for entry in outcome.trace] == [0, 3]
    assert outcome.oracle_calls == 3


def test_outer_trees_are_attempted_before_the_trees_they_hold():
    # the outer if goes in one call, so its inner if is never attempted
    ast = parse_test("if (a) { if (b) { x(); }\n y(); }\nz();\n")
    outcome = reduce_test(ast, scripted({4}))
    assert outcome.retained == {4}
    assert [entry["node"] for entry in outcome.trace] == [0, 4]


def test_monotone_oracles_reduce_to_the_closure_of_the_cause():
    rng = random.Random(21)
    for _ in range(50):
        ast = random_ast(rng)
        ids = sorted(ast.all_ids())
        cause = frozenset(rng.sample(ids, rng.randint(1, min(3, len(ids)))))
        outcome = reduce_test(ast, scripted(cause))
        assert outcome.retained == ancestor_closure(ast, cause)


def test_brute_force_trivial_cases(flat_five):
    assert brute_force_minimal(flat_five, scripted({3})) == {3}
    assert brute_force_minimal(flat_five, scripted({1, 4})) == {1, 4}


def test_brute_force_tie_breaks_lexicographically(flat_five):
    oracle = scripted({4}, {1})  # two singleton causes; {1} sorts first
    assert brute_force_minimal(flat_five, oracle) == {1}


def test_brute_force_bound():
    ast = parse_test("\n".join(f"s{i}();" for i in range(21)))
    with pytest.raises(TooLargeError):
        brute_force_minimal(ast, scripted({0}))


def test_greedy_is_one_minimal_but_not_always_minimum(flat_five):
    # Two overlapping causes: the descending sweep commits to {0, 1} even
    # though {3} alone is smaller. 1-minimality still holds; global
    # minimality is only guaranteed for single-failure-set oracles.
    oracle = scripted({0, 1}, {3})
    outcome = reduce_test(flat_five, oracle)
    assert outcome.retained == {0, 1}
    assert verify_one_minimal(flat_five, oracle, outcome.retained)
    assert brute_force_minimal(flat_five, oracle) == {3}


def test_reference_check_rejects_a_set_that_is_not_one_minimal(flat_five):
    oracle = scripted({2})
    assert not verify_one_minimal(flat_five, oracle, frozenset(flat_five.all_ids()))
    assert verify_one_minimal(flat_five, oracle, frozenset({2}))


def test_empty_retained_set_is_reachable():
    ast = parse_test("a();\n")
    oracle = scripted({0})
    outcome = reduce_test(ast, oracle)
    assert outcome.retained == {0}  # removing everything would pass


def test_blockers_keep_soundness_and_one_minimality():
    rng = random.Random(22)
    for _ in range(100):
        ast = random_ast(rng, max_statements=10)
        ids = sorted(ast.all_ids())
        cause = frozenset(rng.sample(ids, rng.randint(1, min(2, len(ids)))))
        blockers = frozenset(rng.sample(ids, min(len(ids), rng.randint(2, 3))))
        oracle = scripted(cause, blockers=blockers)
        outcome = reduce_test(ast, oracle)
        assert evaluate(oracle, outcome.retained, ast).status is VerdictStatus.FAIL
        assert verify_one_minimal(ast, oracle, outcome.retained,
                                  baseline="scripted")


def test_invalid_candidates_keep_statements(tmp_path):
    # the command oracle reports Invalid unless node 2 ("third") is retained,
    # and fails only while "second" is present: Invalid must not be treated
    # as a successful removal
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent(
        """\
        import sys
        text = open(sys.argv[1], encoding="utf-8").read()
        if "third();" not in text:
            sys.exit(9)
        if "second();" in text:
            print("AssertionError: still broken")
            sys.exit(1)
        sys.exit(0)
        """
    ), encoding="utf-8")
    config = OracleConfig(
        command_template=f"{sys.executable} {script} {{candidate}}",
        workdir=str(tmp_path),
        signature_pattern=r"AssertionError[^\n]*",
        match_policy=MatchPolicy.SAME_SIGNATURE,
    )
    ast = parse_test("first();\nsecond();\nthird();\n", test_name="inv")
    outcome = reduce_test(ast, config)
    assert outcome.retained == {1, 2}
    assert any(entry["verdict"] == "Invalid" for entry in outcome.trace)


def test_reduction_with_command_oracle_end_to_end(tmp_path):
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent(
        """\
        import sys
        text = open(sys.argv[1], encoding="utf-8").read()
        if "mustKeep();" in text:
            print("AssertionError: expected:<a> but was:<b>")
            sys.exit(1)
        sys.exit(0)
        """
    ), encoding="utf-8")
    config = OracleConfig(
        command_template=f"{sys.executable} {script} {{candidate}}",
        workdir=str(tmp_path),
        signature_pattern=r"AssertionError[^\n]*",
        match_policy=MatchPolicy.SAME_SIGNATURE,
    )
    ast = parse_test(
        "prepare();\nif (ready) { mustKeep();\n other(); }\ncleanup();\n",
        test_name="e2e",
    )
    outcome = reduce_test(ast, config)
    assert token_texts(outcome.minimal_source) == token_texts(
        "if (ready) { mustKeep(); }")
    assert outcome.removed_ntn == 3 and outcome.removed_tn == 0


def test_readme_library_example_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    *source, row = printed.getvalue().splitlines()
    # The row's comment: the lines that start with "#", up to the dict's end.
    comment = " ".join(line.lstrip("# ") for line in block.splitlines()
                       if line.startswith("#"))
    assert literal_eval(row) == literal_eval(comment[:comment.index("}") + 1])
    assert token_texts("\n".join(source)) == token_texts("if (ready) { explode(x); }")


def test_package_namespace_holds_the_readme_names_and_load_corpus_config():
    import redustat

    public = {name for name, value in vars(redustat).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"load_corpus_config", "metrics_from_reduction", "parse_test",
                      "reduce_test", "ScriptedOracle"}
    assert redustat.__version__ == "0.1.0"


# -- candidates as views of the retained set -----------------------------------


def end_descending(node):
    """The reducer's tree order: outer before inner, later before earlier."""
    return -node.span[1]


def start_descending(node):
    """The tree order before outer trees were swept first: inner before outer."""
    return -node.span[0]


def frozenset_sweep(ast, oracle, baseline, order, retained, settled, trace,
                    tree_key=end_descending, rejected=None):
    """The reference sweep: every candidate is a new frozenset. Trees go by
    ``tree_key``, leaves by descending span start, ties by id; the reducer's
    ``order`` is not read. ``rejected``, a dict kept for one reduction, maps
    each rejected candidate to its verdict, and a candidate found there is not
    sent again; without it every candidate is sent. ``settled`` is not read."""
    tree_ids = [i for i in retained if ast.statements[i].category is Category.TREE]
    leaf_ids = [i for i in retained if ast.statements[i].category is Category.NON_TREE]
    tree_ids.sort(key=lambda i: (tree_key(ast.statements[i]), i))
    leaf_ids.sort(key=lambda i: (-ast.statements[i].span[0], i))
    changed = False
    for node_id in tree_ids + leaf_ids:
        if node_id not in retained:
            continue
        attempt = retained - ast.subtree_ids(node_id)
        if rejected is not None and attempt in rejected:
            continue
        verdict = evaluate(oracle, attempt, ast)
        ok = verdict_accepted(verdict, baseline, oracle.match_policy)
        trace.append({"node": node_id, "decision": "accepted" if ok else "rejected",
                      "verdict": verdict.status.value})
        if ok:
            retained = attempt
            changed = True
        elif rejected is not None:
            rejected[attempt] = verdict.status
    return retained, changed


def cached_sweep(**options):
    """The reference sweep with a cache of its own, for one reduction."""
    return functools.partial(frozenset_sweep, rejected={}, **options)


def forest_ast(shape):
    """A test from a pre-order list of ``(depth, is_tree)``, cut to fit.

    A node is one level deeper than the one before it at most, and only
    below a tree; depths run 0..3.
    """
    nodes = []   # [is_tree, child ids]
    stack = []   # ids of the open trees, outermost first
    for depth, is_tree in shape:
        depth = min(depth, len(stack))
        del stack[depth:]
        node_id = len(nodes)
        nodes.append([is_tree, []])
        if stack:
            nodes[stack[-1]][1].append(node_id)
        if is_tree and depth < 3:
            stack.append(node_id)
    parents = {child: i for i, (_, children) in enumerate(nodes) for child in children}
    roots = [i for i in range(len(nodes)) if i not in parents]
    source, spans = [], {}

    def emit(node_id):
        start = sum(map(len, source))
        is_tree, children = nodes[node_id]
        if is_tree:
            source.append("{ ")
            for child in children:
                emit(child)
                source.append(" ")
            source.append("}")
        else:
            source.append(f"s{node_id}();")
        spans[node_id] = (start, sum(map(len, source)))

    for root in roots:
        emit(root)
        source.append("\n")
    statements = tuple(
        StatementNode(i, StmtKind.BLOCK if is_tree else StmtKind.EXPRESSION,
                      spans[i], tuple(children), parents.get(i))
        for i, (is_tree, children) in enumerate(nodes))
    return TestCaseAst("forest", "".join(source), statements, tuple(roots))


class RecordingOracle:
    """A scripted oracle that notes each candidate's members, size and hash."""

    def __init__(self, scripted):
        self.scripted = scripted
        self.match_policy = scripted.match_policy
        self.seen = []

    def verdict(self, retained, ast):
        self.seen.append((frozenset(retained), len(retained), hash(retained)))
        return self.scripted.verdict(retained, ast)


_SHAPES = st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=60)


def draw_scripted(ast, data):
    """1-3 failure sets of 1-3 statements each, and up to 4 blockers."""
    ids = st.sampled_from(range(ast.total_statements))
    failure_sets = data.draw(st.lists(st.frozensets(ids, min_size=1, max_size=3),
                                      min_size=1, max_size=3))
    blockers = data.draw(st.frozensets(ids, max_size=4))
    return ScriptedOracle(tuple(failure_sets), blockers)


@settings(max_examples=300, deadline=None)
@given(_SHAPES, st.data())
def test_view_sweep_equals_the_frozenset_sweep(shape, data):
    ast = forest_ast(shape)
    oracle = RecordingOracle(draw_scripted(ast, data))
    with mock.patch.object(reducer, "_sweep", cached_sweep()):
        expected = reduce_test(ast, oracle)
    expected_candidates, oracle.seen = oracle.seen, []
    outcome = reduce_test(ast, oracle)
    assert outcome.retained == expected.retained
    assert outcome.trace == expected.trace
    assert outcome.oracle_calls == expected.oracle_calls
    assert outcome.passes == expected.passes
    assert oracle.seen == expected_candidates


@settings(max_examples=300, deadline=None)
@given(_SHAPES, st.data())
def test_settled_rejections_drop_exactly_the_repeated_candidates(shape, data):
    # Without the cache, the reference sends every candidate; a repeat can
    # only be one the oracle rejected before. Skipping those changes no
    # decision, so results and passes stay and the repeats leave the trace.
    ast = forest_ast(shape)
    oracle = RecordingOracle(draw_scripted(ast, data))
    with mock.patch.object(reducer, "_sweep", frozenset_sweep):
        uncached = reduce_test(ast, oracle)
    candidates, oracle.seen = [members for members, _, _ in oracle.seen[1:]], []
    sent, fresh = set(), []
    for entry, members in zip(uncached.trace, candidates, strict=True):
        if members in sent:
            assert entry["decision"] == "rejected"
        else:
            fresh.append(entry)
        sent.add(members)
    outcome = reduce_test(ast, oracle)
    assert outcome.retained == uncached.retained
    assert outcome.passes == uncached.passes
    assert list(outcome.trace) == fresh
    assert len({members for members, _, _ in oracle.seen}) == len(oracle.seen)
    assert verify_one_minimal(ast, oracle.scripted, outcome.retained)


@settings(max_examples=300, deadline=None)
@given(_SHAPES, st.data())
def test_outer_first_order_keeps_results_and_saves_calls(shape, data):
    # Within one sweep, the trees a tree holds sit right after it in the new
    # order and right before it in the old one. Dropping the tree leaves the
    # same set either way, so the sweep ends in the same state, and an
    # accepted tree skips the calls spent inside it.
    ast = forest_ast(shape)
    oracle = draw_scripted(ast, data)
    with mock.patch.object(reducer, "_sweep", cached_sweep(tree_key=start_descending)):
        old = reduce_test(ast, oracle)
    outcome = reduce_test(ast, oracle)
    assert outcome.retained == old.retained
    assert verify_one_minimal(ast, oracle, outcome.retained)
    assert outcome.oracle_calls <= old.oracle_calls
    assert outcome.passes == old.passes


def test_flat_test_is_reduced_in_linear_time():
    # With a new frozenset per candidate, 40 000 leaves took 3.9 s and each
    # doubling 4-5 times as long, so this would take about a minute; the
    # child is killed at the timeout.
    script = textwrap.dedent("""\
        from redustat.model import StatementNode, StmtKind, TestCaseAst
        from redustat.oracle import ScriptedOracle
        from redustat.reducer import reduce_test
        n = 150_000
        ast = TestCaseAst("flat", "s();" * n, tuple(
            StatementNode(i, StmtKind.EXPRESSION, (4 * i, 4 * i + 4))
            for i in range(n)), tuple(range(n)))
        outcome = reduce_test(ast, ScriptedOracle((frozenset({n - 1}),)))
        assert outcome.retained == {n - 1}, sorted(outcome.retained)[:5]
        assert (outcome.oracle_calls, outcome.passes) == (n + 2, 2)
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=30)


_IDS = st.integers(0, 30)


class _FrozensetSubclass(frozenset):
    pass


@settings(max_examples=300, deadline=None)
@given(st.sets(_IDS), st.data(), st.frozensets(_IDS))
def test_candidate_view_agrees_with_its_frozenset(kept, data, other):
    dropped = data.draw(st.frozensets(st.sampled_from(sorted(kept)))) if kept else frozenset()
    view = _Candidate(kept, dropped, {})
    expected = frozenset(kept - dropped)
    assert [i in view for i in range(-1, 32)] == [i in expected for i in range(-1, 32)]
    assert len(view) == len(expected)
    assert sorted(view) == sorted(expected)
    assert (view >= other) == (expected >= other)
    # Operands other than an exact frozenset take the ABC path.
    assert (view >= _FrozensetSubclass(other)) == (expected >= other)
    assert view.__ge__(sorted(other)) is NotImplemented
    assert (view <= other) == (expected <= other)
    assert (other <= view) == (other <= expected)
    assert (other >= view) == (other >= expected)
    for intersection in (view & other, other & view):
        assert type(intersection) is frozenset and intersection == expected & other
    assert view.isdisjoint(other) == expected.isdisjoint(other)
    assert view == expected and expected == view
    assert (view == other) == (expected == other)
    assert hash(view) == hash(expected)


@settings(max_examples=300, deadline=None)
@given(st.frozensets(_IDS, min_size=1),
       st.lists(st.frozensets(_IDS, max_size=6), min_size=1, max_size=4), st.data())
def test_subset_memo_agrees_with_frozensets_across_commits(retained, failure_sets, data):
    # The same frozenset objects are asked about again and again while
    # commits shrink ``kept``, as a scripted oracle does within one sweep.
    kept, within = set(retained), {}
    for _ in range(data.draw(st.integers(1, 12))):
        if not kept:
            break
        dropped = data.draw(st.frozensets(st.sampled_from(sorted(kept)), min_size=1))
        view = _Candidate(kept, dropped, within)
        expected = frozenset(kept - dropped)
        for fs in failure_sets + failure_sets:
            assert (view >= fs) == (expected >= fs)
            assert (view >= set(fs)) == (expected >= fs)
        if data.draw(st.booleans()):
            reducer._commit(kept, within, dropped)
            assert kept == expected


@settings(max_examples=300, deadline=None)
@given(st.frozensets(_IDS, min_size=1),
       st.lists(st.frozensets(_IDS, min_size=1, max_size=6), min_size=1, max_size=4),
       st.data())
def test_blocker_rule_on_views_agrees_with_frozensets_across_commits(
        retained, failure_sets, data):
    # Blockers are drawn from the retained ids and one id no test retains,
    # so that all, some and none of them are kept as commits go on.
    blockers = data.draw(st.frozensets(st.sampled_from(sorted(retained | {31})),
                                       max_size=4))
    oracle = ScriptedOracle(tuple(failure_sets), blockers)
    kept, within = set(retained), {}
    for _ in range(data.draw(st.integers(1, 12))):
        if not kept:
            break
        dropped = data.draw(st.frozensets(st.sampled_from(sorted(kept)), min_size=1))
        expected = frozenset(kept - dropped)
        some_not_all = 0 < len(expected & blockers) < len(blockers)
        literal = not some_not_all and any(expected >= fs for fs in failure_sets)
        assert oracle.fails(_Candidate(kept, dropped, within)) == literal
        if data.draw(st.booleans()):
            reducer._commit(kept, within, dropped)


def _every_other_leaf_test():
    """About 1 000 statements nested up to four deep; the failure needs every
    other leaf, 440 of them."""
    rng = random.Random("every-other-leaf")
    lines, depth = [], 0
    for k in range(1200):
        draw = rng.random()
        if depth and draw < 0.15:
            lines.append("}")
            depth -= 1
        elif depth < 4 and draw < 0.3:
            lines.append(f"if (c{k}) {{")
            depth += 1
        else:
            lines.append(f"s{k}();")
    ast = parse_test("\n".join(lines + ["}"] * depth), test_name="every-other")
    leaves = [node.id for node in ast.statements if node.category is Category.NON_TREE]
    return ast, frozenset(leaves[::2])


def test_every_other_leaf_reduction_is_pinned():
    # Both figures come from a separate greedy reducer with the same order
    # (trees by descending span end, then leaves by descending span start),
    # its own scripted predicate and a cache of the candidate sets it saw
    # rejected. Without the cache it gives the earlier pins, 1 603 calls and
    # a digest starting 88b6d1a4; with inner trees first as well, 1 604 and
    # ff40c14e.
    ast, needed = _every_other_leaf_test()
    assert (ast.total_statements, len(needed)) == (1041, 440)
    outcome = reduce_test(ast, ScriptedOracle((needed,)))
    assert outcome.retained == ancestor_closure(ast, needed)
    trace = json.dumps(outcome.to_report()["trace"], sort_keys=True)
    assert outcome.oracle_calls == 1602
    assert hashlib.sha256(trace.encode()).hexdigest() == \
        "097d70b919b8566bdc5fb22533b84cd875a7f7e8c39c2e8ad7bcaff2f6566613"
