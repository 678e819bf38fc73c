"""Self-tests of the benchmark: generators, checkers, counts and tracing.

Run from the repository root:

    python3 -m pytest -q benchmark/test_benchmark.py

They use small corpora and never pin today's oracle-call counts: a change
that truly cuts calls must not fail them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from redustat.ingest import ingest_tree  # noqa: E402
from redustat.metrics import CSV_COLUMNS, metrics_from_reduction, record_to_row  # noqa: E402
from redustat.model import Category  # noqa: E402
from redustat.oracle import ScriptedOracle  # noqa: E402
from redustat.parser import parse_test  # noqa: E402
from redustat.reducer import reduce_test  # noqa: E402
from redustat.stats import shapiro_wilk, wilcoxon_signed_rank  # noqa: E402

SMALL = {"scripted-large": 6, "command-oracle": 3, "study": 40}


@pytest.fixture(autouse=True)
def _checkout(monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.chdir(REPO)


def _bench(workload: str, seed: int, base: Path) -> run.Bench:
    inputs = workloads.write_inputs(workload, seed, base, REPO, count=SMALL[workload])
    return run.Bench(run._load_program(), workload, inputs, seconds=0.0)


def _files(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_gives_same_inputs(workload, tmp_path):
    base = tmp_path / "w"
    workloads.write_inputs(workload, 7, base, REPO, count=SMALL[workload])
    first = _files(base)
    workloads.write_inputs(workload, 7, base, REPO, count=SMALL[workload])
    assert _files(base) == first
    other = tmp_path / "other"
    workloads.write_inputs(workload, 8, other, REPO, count=SMALL[workload])
    assert _files(other)["corpus.json"] != first["corpus.json"]


def test_generated_structure_is_what_the_program_parses():
    """The checks judge by the generator's structure; it must be the program's."""
    for test in workloads.scripted_large_tests(3, count=4) + workloads.command_tests(3, 3):
        for ast in (parse_test(test.source, test_name=test.name),
                    ingest_tree(test.tree_document())):
            assert [n.span for n in ast.statements] == [n.span for n in test.nodes]
            assert [n.parent for n in ast.statements] == [n.parent for n in test.nodes]
            assert [n.category is Category.TREE for n in ast.statements] == \
                [n.tree for n in test.nodes]


def test_standin_model_matches_the_script(tmp_path):
    test = workloads.command_tests(5, 2)[1]
    keys = test.marker_keys()
    (marker, decl), other = test.markers[0], test.leaf_ids[0]
    if other in (marker, decl):
        other = next(i for i in test.leaf_ids if i not in dict(test.markers)
                     and i not in dict(test.markers).values())
    everything = frozenset(range(len(test.nodes)))
    cases = [everything, everything - test.subtree(marker),
             everything - test.subtree(decl), everything - test.subtree(other),
             test.closure([i for pair in test.markers for i in pair])]
    for retained in cases:
        path = tmp_path / "Candidate.java"
        path.write_text(checks.render(test, retained), encoding="utf-8")
        argv = ["sh", str(workloads.STANDIN_SCRIPT), str(path), "0"]
        argv += [f"{m}:{d}" for m, d in keys]
        code = subprocess.run(argv, cwd=tmp_path, capture_output=True).returncode
        assert code == checks.standin_exit(path.read_text(), keys)
    assert {checks.standin_exit(checks.render(test, r), keys) for r in cases} == {0, 1, 3}


# -- checkers reject wrong results ------------------------------------------------


def test_reduction_checker_rejects_a_dropped_failure_statement():
    tests = workloads.scripted_large_tests(2, count=3) + workloads.command_tests(2, 2)
    for test in tests:
        if test.shape == "blocker":
            ast = parse_test(test.source, test_name=test.name)
            oracle = ScriptedOracle((test.failure_set,), test.blockers)
            good = reduce_test(ast, oracle).retained
        else:
            good = checks.expected_retained(test)
        assert checks.check_reduction(test, good) == []
        needed = sorted(test.failure_set) or [test.markers[0][0]]
        assert checks.check_reduction(test, good - {needed[0]})


def test_metrics_checker_rejects_a_tampered_row():
    test = workloads.scripted_large_tests(4, count=1)[0]
    ast = parse_test(test.source, test_name=test.name, project=test.project)
    outcome = reduce_test(ast, ScriptedOracle((test.failure_set,)))
    row = dict(zip(CSV_COLUMNS, record_to_row(metrics_from_reduction(ast, outcome))))
    assert checks.check_metrics_row(test, row, outcome.retained) == []
    for column, value in (("antrs", str(int(row["antrs"]) + 1)), ("prs", "0.00"),
                          ("tn", str(int(row["tn"]) - 1))):
        assert checks.check_metrics_row(test, dict(row, **{column: value}),
                                        outcome.retained)


def test_stats_checker_rejects_a_p_value_off_by_a_thousandth():
    x = [3.1, 7.4, 2.2, 9.9, 5.0, 6.6, 1.3, 8.8]
    y = [2.0, 7.9, 1.1, 4.2, 5.5, 2.1, 0.4, 3.3]
    result = wilcoxon_signed_rank(x, y)
    wilcoxon = {"statistic": result.statistic, "p_value": result.p_value}
    assert checks.check_wilcoxon("w", wilcoxon, x, y) == []
    assert checks.check_wilcoxon("w", dict(wilcoxon, p_value=result.p_value + 1e-3), x, y)
    shapiro = shapiro_wilk(x)
    good = {"statistic": shapiro.statistic, "p_value": shapiro.p_value}
    assert checks.check_shapiro("s", good, x) == []
    assert checks.check_shapiro("s", dict(good, p_value=shapiro.p_value + 1e-3), x)
    assert checks.check_shapiro("s", dict(good, statistic=shapiro.statistic + 1e-3), x)


def test_published_v_checker():
    program = run._load_program()
    block = program.replicate.replicate_from_fixtures("I").stats
    assert checks.check_published_v("I", block) == []
    block["wilcoxon"]["pntrs_vs_ptrs"]["statistic"] = 434.0
    assert checks.check_published_v("I", block)


def test_synthetic_checker_rejects_a_changed_byte():
    expected = (workloads.synthetic_dir(REPO) / "expected_metrics.csv").read_text()
    names = [line.split(",")[0] for line in expected.splitlines()[1:]]
    assert checks.check_synthetic_rows(expected, names, expected) == []
    assert checks.check_synthetic_rows(expected.replace("71.43", "71.44", 1), names,
                                       expected)


# -- whole passes ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2])
def test_passes_repeat_their_oracle_calls_and_pass_the_checks(workload, seed, tmp_path):
    bench = _bench(workload, seed, tmp_path)
    bench.prepare(setup=False)
    bench.timed_pass()
    bench.timed_pass()
    bench.check_outputs()
    assert bench.errors == []
    assert bench.expected_calls and bench.expected_calls > len(bench.config.entries)
    assert bench.attempted == 2 * (len(bench.config.entries)
                                   + (2 if workload == "study" else 0))


def test_missing_hook_is_reported_unmeasured(monkeypatch, tmp_path):
    hooks = tuple(("reducer.sweep", "redustat.reducer", "_gone_sweep")
                  if name == "reducer.sweep" else (name, module, path)
                  for name, module, path in tracing.SPAN_HOOKS)
    monkeypatch.setattr(tracing, "SPAN_HOOKS", hooks)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    bench = _bench("scripted-large", 1, tmp_path / "in")
    result = bench.run_traced()
    assert result["correct"]
    assert result["metrics"]["reducer.certification_calls"]["value"] == 0
    assert "redustat.reducer._gone_sweep" in bench.unmeasured["reducer.certification_calls"]
    assert "reducer.candidates" not in bench.unmeasured
    assert set(result["metrics"]) == set(tracing.UNITS)
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
