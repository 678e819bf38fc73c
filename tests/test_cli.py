import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redustat.cli import DEFAULT_SIGNATURE_PATTERN, main

SYNTHETIC = Path(__file__).resolve().parent.parent / "src" / "redustat" / "data" / "synthetic"


@pytest.fixture
def failing_test(tmp_path):
    test = tmp_path / "failing.java"
    test.write_text("setup();\nint x = 1;\nexplode(x);\nteardown();\n",
                    encoding="utf-8")
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent(
        """\
        import sys
        text = open(sys.argv[1], encoding="utf-8").read()
        if "explode" in text:
            print("AssertionError: kaboom")
            sys.exit(1)
        sys.exit(0)
        """
    ), encoding="utf-8")
    return test, f"{sys.executable} {script} {{candidate}}"


def test_reduce_command(failing_test, tmp_path, capsys):
    test, oracle_cmd = failing_test
    out = tmp_path / "report.json"
    code = main(["reduce", str(test), "--oracle-cmd", oracle_cmd,
                 "--policy", "same", "--timeout", "30000",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    report = json.loads(text)
    assert report["retained"] == [2]
    assert report["removed_ntn"] == 3
    summary = capsys.readouterr()
    assert "retained 1/4 statements" in summary.err
    # Without --out the report is printed in the same encoding.
    assert main(["reduce", str(test), "--oracle-cmd", oracle_cmd,
                 "--policy", "same", "--timeout", "30000"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("\n") == 1
    assert json.loads(printed).keys() == report.keys()


def test_reduce_passing_test_exits_1(tmp_path, failing_test):
    _, oracle_cmd = failing_test
    passing = tmp_path / "passing.java"
    passing.write_text("fine();\n", encoding="utf-8")
    assert main(["reduce", str(passing), "--oracle-cmd", oracle_cmd]) == 1


def test_reduce_accepts_tree_documents(tmp_path, failing_test):
    _, oracle_cmd = failing_test
    document = {
        "test_name": "doc",
        "source": "keep(); explode();",
        "nodes": [
            {"id": 0, "kind": "ExpressionStmt", "has_children": False,
             "span": [0, 7], "children": []},
            {"id": 1, "kind": "ExpressionStmt", "has_children": False,
             "span": [8, 18], "children": []},
        ],
        "roots": [0, 1],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code = main(["reduce", str(path), "--oracle-cmd", oracle_cmd,
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["retained"] == [1]


def test_reduce_refuses_a_source_utf8_cannot_encode(tmp_path, capsys):
    marker = tmp_path / "oracle-ran"
    document = {
        "test_name": "surrogate",
        "source": 'a("\ud800");b();',
        "nodes": [
            {"id": 0, "kind": "ExpressionStmt", "has_children": False,
             "span": [0, 7], "children": []},
            {"id": 1, "kind": "ExpressionStmt", "has_children": False,
             "span": [7, 11], "children": []},
        ],
        "roots": [0, 1],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code = main(["reduce", str(path), "--oracle-cmd", f"touch {shlex.quote(str(marker))}"])
    assert code == 2
    assert not marker.exists()  # refused before any oracle run
    assert "source cannot be written as UTF-8 (at $.source)" in capsys.readouterr().err


@pytest.mark.parametrize("oracle_cmd, options, message", [
    ("touch {marker}", ["--signature-pattern", "("],
     "signature_pattern is not a regular expression"),
    ("touch {marker}", ["--fail-exit-codes", "0,1"], "fail_exit_codes cannot hold 0"),
    ("touch {marker} 'unclosed", [],
     "command_template cannot be split: No closing quotation"),
    ("", [], "command_template names no command"),
], ids=["pattern", "exit-code-0", "unclosed-quote", "empty-command"])
def test_reduce_refuses_an_oracle_it_can_never_honour(tmp_path, capsys, oracle_cmd,
                                                      options, message):
    marker = tmp_path / "oracle-ran"
    test = tmp_path / "T.java"
    test.write_text("a();\nb();\n", encoding="utf-8")
    oracle_cmd = oracle_cmd.format(marker=shlex.quote(str(marker)))
    assert main(["reduce", str(test), "--oracle-cmd", oracle_cmd, *options]) == 2
    assert not marker.exists()  # refused before any oracle run
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("out", [".", "missing/r.json", "file/r.json"],
                         ids=["directory", "missing-parent", "parent-is-a-file"])
def test_reduce_refuses_an_out_it_cannot_write(tmp_path, capsys, out):
    marker = tmp_path / "oracle-ran"
    test = tmp_path / "T.java"
    test.write_text("a();\nb();\n", encoding="utf-8")
    (tmp_path / "file").write_text("", encoding="utf-8")
    code = main(["reduce", str(test), "--oracle-cmd", f"touch {shlex.quote(str(marker))}",
                 "--out", str(tmp_path / out)])
    assert code == 2
    assert not marker.exists()  # refused before the baseline
    assert "must name a file in an existing directory" in capsys.readouterr().err


def test_reduce_with_non_utf8_test_output(tmp_path):
    test = tmp_path / "T.java"
    test.write_text("a();\nb();\n", encoding="utf-8")
    oracle_cmd = r"""sh -c "printf '\377 java.lang.AssertionError\n'; exit 1" """
    assert main(["reduce", str(test), "--oracle-cmd", oracle_cmd,
                 "--policy", "any", "--out", str(tmp_path / "r.json")]) == 0


THREE = "a();\nfoo(a);\nb();\n"
THREE_TREE = {"test_name": "three", "source": THREE, "roots": [0, 1, 2], "nodes": [
    {"id": i, "kind": "ExpressionStmt", "has_children": False, "span": span, "children": []}
    for i, span in enumerate(([0, 4], [5, 12], [13, 17]))]}


@pytest.mark.parametrize("suffix, key", [(".java", "test_file"), (".json", "tree_file")])
def test_reduce_writes_the_report_of_a_one_entry_corpus(tmp_path, suffix, key):
    test = tmp_path / f"three{suffix}"
    test.write_text(THREE if suffix == ".java" else json.dumps(THREE_TREE), encoding="utf-8")
    # Fails with a fingerprint for the default pattern while foo(a); is kept.
    oracle_cmd = ("""sh -c 'grep -qF "foo(a);" "$1" || exit 0; """
                  """echo "java.lang.AssertionError: kept"; exit 1' sh {candidate}""")
    assert main(["reduce", str(test), "--oracle-cmd", oracle_cmd,
                 "--out", str(tmp_path / "reduced.json")]) == 0
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({
        "corpus_name": "one", "output_dir": "out", "policy": "same",
        "entries": [{"name": "three", key: test.name,
                     "oracle": {"mode": "command", "command_template": oracle_cmd,
                                "signature_pattern": DEFAULT_SIGNATURE_PATTERN}}]}),
        encoding="utf-8")
    assert main(["corpus", str(config)]) == 0
    reduced = json.loads((tmp_path / "reduced.json").read_text(encoding="utf-8"))
    entry = json.loads((tmp_path / "out" / "reductions" / "three.json").read_text("utf-8"))
    assert (reduced["retained"], reduced["oracle_calls"]) == ([1], 5)
    assert reduced["baseline_signature"] == "java.lang.AssertionError: kept"
    del reduced["wall_time_ms"], entry["wall_time_ms"]
    assert reduced == entry


def test_corpus_command(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = main(["corpus", str(SYNTHETIC / "corpus.json"),
                 "--output-dir", str(out)])
    assert code == 0
    assert (out / "metrics.csv").read_bytes() == \
        (SYNTHETIC / "expected_metrics.csv").read_bytes()
    stdout = capsys.readouterr().out
    assert "t01: ok" in stdout
    assert "claim 1" in stdout


def test_corpus_with_failing_entry_exits_1(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "never.java").write_text("a();\n", encoding="utf-8")
    config = {
        "corpus_name": "broken",
        "output_dir": "out",
        "entries": [
            {"name": "never", "project": "p", "test_file": "tests/never.java",
             "oracle": {"mode": "scripted", "failure_sets": [[7]]}},
            {"name": "fine", "project": "p", "test_file": "tests/never.java",
             "oracle": {"mode": "scripted", "failure_sets": [[0]]}},
        ],
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["corpus", str(path)]) == 1


def test_corpus_usage_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["corpus", str(bad)]) == 2


def test_replicate_command(capsys, tmp_path):
    code = main(["replicate", "--table", "I", "--output-dir", str(tmp_path / "o")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "V=435" in stdout
    assert "prs=53.21" in stdout or "prs=53.22" in stdout
    assert "no significant difference" in stdout
    assert (tmp_path / "o" / "stats.json").exists()


def test_replicate_table2(capsys):
    assert main(["replicate", "--table", "II"]) == 0
    stdout = capsys.readouterr().out
    assert "V=465" in stdout


def test_stats_command_wilcoxon(tmp_path, capsys):
    from redustat.replicate import fixture_text

    csv_path = tmp_path / "table2.csv"
    csv_path.write_text(fixture_text("table2.csv"), encoding="utf-8")
    code = main(["stats", "--csv", str(csv_path), "--cols", "pntrs,ptrs",
                 "--test", "wilcoxon"])
    assert code == 0
    out = capsys.readouterr().out
    assert "statistic=465 " in out and "p=" in out


def test_stats_fills_empty_probability_cells_from_counts(capsys):
    # Table I prints some probabilities only as counts; replicate reads
    # them the same way and gets the published V = 109.5.
    code = main(["stats", "--csv", str(SYNTHETIC.parent / "table1.csv"),
                 "--cols", "prntrs,prtrs", "--test", "wilcoxon"])
    assert code == 0
    assert "statistic=109.5 " in capsys.readouterr().out


def test_stats_command_shapiro_on_fixture(tmp_path, capsys):
    from redustat.replicate import fixture_text

    csv_path = tmp_path / "table1.csv"
    csv_path.write_text(fixture_text("table1.csv"), encoding="utf-8")
    code = main(["stats", "--csv", str(csv_path), "--cols", "ptrs",
                 "--test", "shapiro"])
    assert code == 0
    assert "method=ShapiroWilk" in capsys.readouterr().out


def test_stats_missing_column_exit_2(tmp_path):
    csv_path = tmp_path / "cols.csv"
    csv_path.write_text("a,b\n1,2\n", encoding="utf-8")
    assert main(["stats", "--csv", str(csv_path), "--cols", "zzz",
                 "--test", "shapiro"]) == 2
    # A known column, but the file is not a metrics table.
    assert main(["stats", "--csv", str(csv_path), "--cols", "ptrs",
                 "--test", "shapiro"]) == 2


@pytest.mark.parametrize("test_name, cols, message", [
    ("shapiro", "pntrs,ptrs", "shapiro needs exactly one column"),
    ("wilcoxon", "pntrs", "wilcoxon needs exactly two columns"),
])
def test_stats_wrong_column_count_exit_2(capsys, test_name, cols, message):
    assert main(["stats", "--csv", str(SYNTHETIC / "expected_metrics.csv"),
                 "--cols", cols, "--test", test_name]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["stats", "--cols", "pntrs", "--test", "shapiro", "--csv"],
    ["stats", "--cols", "pntrs,ptrs", "--test", "wilcoxon", "--csv"],
    ["replicate", "--table", "I", "--fixture"],
], ids=["shapiro", "wilcoxon", "replicate"])
def test_metrics_cell_that_is_not_finite_exits_2(tmp_path, capsys, command, cell):
    lines = (SYNTHETIC / "expected_metrics.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[8] = cell  # pntrs
    lines[3] = ",".join(cells)
    fixture = tmp_path / "metrics.csv"
    fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main([*command, str(fixture)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 4: not a finite number: '{cell}'\n"
    assert captured.out == ""


def test_replicate_prints_skipped_wilcoxon(tmp_path, capsys):
    from redustat.metrics import CSV_COLUMNS

    # Every row removes as many leaves as tree statements: each pair ties.
    rows = [f"t{i},p,{4 * i},{2 * i},{2 * i},{2 * i},50,{i},25,{i},25,50,50"
            for i in range(1, 6)]
    fixture = tmp_path / "ties.csv"
    fixture.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n", encoding="utf-8")
    assert main(["replicate", "--table", "I", "--fixture", str(fixture)]) == 0
    stdout = capsys.readouterr().out
    assert "wilcoxon pntrs_vs_ptrs: skipped (all differences zero)\n" in stdout
    assert "wilcoxon prntrs_vs_prtrs: skipped (all differences zero)\n" in stdout
    assert "claim 1 (leaf statements are removed in large numbers): NOT EVALUATED" in stdout


#: The default signature pattern before it was made linear: the reference
#: for what it should match.
QUADRATIC_SIGNATURE_PATTERN = (r"(?:\w+\.)*\w*(?:Error|Exception|Failure)[^\n]*"
                               r"|FAIL(?:URE|ED)?[^\n]*")

_OUTPUT_PIECES = st.sampled_from([
    "java", "lang", "AssertionError", "Error", "Exception", "Failure", "FAIL",
    "FAILED", "FAILURE", "Err", "x", "a1", "_", "é", "²", "1", ".", "..", ":",
    " ", "\n", "\t", "$", "(", ")", "/", "-", "at org.Foo.bar(Foo.java:12)",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_OUTPUT_PIECES, max_size=25))
def test_default_signature_pattern_matches_as_before(pieces):
    output = "".join(pieces)
    old = re.search(QUADRATIC_SIGNATURE_PATTERN, output)
    new = re.search(DEFAULT_SIGNATURE_PATTERN, output)
    assert (new and new.group(0)) == (old and old.group(0))


def test_default_signature_pattern_is_linear_on_a_long_line():
    # The quadratic pattern took 0.8 s on 8 000 word characters, so it
    # would take hours here; the child is killed at the timeout.
    script = textwrap.dedent("""\
        import re
        from redustat.cli import DEFAULT_SIGNATURE_PATTERN as pattern
        for line in ("a" * 1_000_000, "a." * 500_000, "a" * 999_995 + "Error"):
            match = re.search(pattern, line)
            assert (match and match.group(0)) == (line if line.endswith("Error") else None)
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=30)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["replicate", "--table", "IX"])
    assert info.value.code == 2
