import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from redustat import corpus
from redustat.cli import main
from redustat.corpus import (
    CorpusConfigError,
    load_corpus_config,
    run_corpus,
)
from redustat.metrics import CSV_COLUMNS, EmptyCorpusError
from redustat.model import render
from redustat.oracle import MatchPolicy, OracleVerdict, VerdictStatus
from redustat.reducer import reduce_test

from conftest import load_module

REPO = Path(__file__).resolve().parent.parent
SYNTHETIC = REPO / "src" / "redustat" / "data" / "synthetic"
PINNED_BUNDLE = Path(__file__).resolve().parent / "fixtures" / "synthetic_bundle"


def write_corpus(tmp_path, entries, **overrides):
    config = {
        "corpus_name": "mini",
        "output_dir": "out",
        "policy": "same",
        "parallelism": 1,
        "entries": entries,
    }
    config.update(overrides)
    (tmp_path / "tests").mkdir(exist_ok=True)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def entry(name, source, failure_sets, tmp_path, project="proj"):
    (tmp_path / "tests").mkdir(exist_ok=True)
    (tmp_path / "tests" / f"{name}.java").write_text(source, encoding="utf-8")
    return {
        "name": name,
        "project": project,
        "test_file": f"tests/{name}.java",
        "oracle": {"mode": "scripted", "failure_sets": failure_sets,
                   "blockers": []},
    }


def test_small_corpus_end_to_end(tmp_path):
    entries = [
        entry("one", "a();\nb();\nc();\n", [[1]], tmp_path),
        entry("two", "x();\nif (f) { y();\n z(); }\n", [[3]], tmp_path),
        entry("three", "p();\nq();\n", [[0], [1]], tmp_path),
    ]
    config = load_corpus_config(write_corpus(tmp_path, entries))
    bundle = run_corpus(config)
    assert [s.ok for s in bundle.entry_statuses] == [True, True, True]
    by_name = {r["test"]: r for r in bundle.records}
    assert by_name["one"]["ars"] == 2 and by_name["one"]["stmts"] == 3
    assert by_name["two"]["stmts"] == 4 and by_name["two"]["atrs"] == 0
    assert by_name["two"]["ars"] == 2  # ancestor if stays, x and y removed
    out = tmp_path / "out"
    assert (out / "metrics.csv").exists()
    assert (out / "reductions" / "two.json").exists()
    trace = json.loads((out / "reductions" / "two.json").read_text())
    assert trace["retained"] == [1, 3]


def _written_reports(tmp_path):
    return sorted(p.name for p in (tmp_path / "out" / "reductions").iterdir())


def _listed_entries(tmp_path):
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    return {e["name"]: e["ok"] for e in report["entries"]}


def test_rerun_without_an_entry_removes_its_report(tmp_path):
    a = entry("a", "a();\nb();\n", [[1]], tmp_path)
    b = entry("b", "c();\nd();\n", [[0]], tmp_path)
    run_corpus(load_corpus_config(write_corpus(tmp_path, [a, b])))
    assert _written_reports(tmp_path) == ["a.json", "b.json"]
    run_corpus(load_corpus_config(write_corpus(tmp_path, [a])))
    assert _written_reports(tmp_path) == ["a.json"]
    assert _listed_entries(tmp_path) == {"a": True}


def test_rerun_where_an_entry_fails_removes_its_report(tmp_path):
    a = entry("a", "a();\nb();\n", [[1]], tmp_path)
    b = entry("b", "c();\nd();\n", [[0]], tmp_path)
    run_corpus(load_corpus_config(write_corpus(tmp_path, [a, b])))
    b["oracle"]["failure_sets"] = [[99]]  # the original no longer fails
    bundle = run_corpus(load_corpus_config(write_corpus(tmp_path, [a, b])))
    assert bundle.entry_errors == 1
    assert _written_reports(tmp_path) == ["a.json"]
    assert _listed_entries(tmp_path) == {"a": True, "b": False}


def test_entry_failures_are_isolated(tmp_path):
    entries = [
        entry("good", "a();\nb();\n", [[1]], tmp_path),
        entry("never-fails", "c();\nd();\n", [[99]], tmp_path),
        entry("bad-syntax", "e(;\n", [[0]], tmp_path),
        entry("bool-id", "f();\ng();\n", [[True]], tmp_path),
    ]
    config = load_corpus_config(write_corpus(tmp_path, entries))
    bundle = run_corpus(config)
    status = {s.name: s for s in bundle.entry_statuses}
    assert status["good"].ok
    assert not status["never-fails"].ok
    assert "OriginalDoesNotFail" in status["never-fails"].error
    assert not status["bad-syntax"].ok
    assert status["bool-id"].error == ("ValueError: failure_sets and blockers "
                                       "must hold integers")
    assert bundle.entry_errors == 3
    assert [r["test"] for r in bundle.records] == ["good"]


def test_empty_corpus_is_an_error(tmp_path):
    path = write_corpus(tmp_path, [])
    with pytest.raises(EmptyCorpusError):
        load_corpus_config(path)


def test_single_entry_corpus_marks_insufficient_n(tmp_path):
    entries = [entry("solo", "a();\nb();\nc();\n", [[2]], tmp_path)]
    config = load_corpus_config(write_corpus(tmp_path, entries))
    bundle = run_corpus(config)
    assert bundle.stats["wilcoxon"]["pntrs_vs_ptrs"] == {"skipped": "insufficient n"}


def test_duplicate_entry_names_rejected(tmp_path):
    entries = [
        entry("dup", "a();\n", [[0]], tmp_path),
        dict(entry("dup2", "b();\n", [[0]], tmp_path), name="dup"),
    ]
    with pytest.raises(CorpusConfigError):
        load_corpus_config(write_corpus(tmp_path, entries))


# "x" * 300 and "\u00e9" * 126 (252 bytes) make file names over 255 bytes; a
# lone surrogate cannot be written to metrics.csv or, here, as a file name.
@pytest.mark.parametrize("name", [
    "../escaped", "a/b", "a\\b", ".", "..", "", "a\u0000b",
    pytest.param("x" * 300, id="300 x"),
    pytest.param("\u00e9" * 126, id="126 e-acute"),
    pytest.param("a\ud800b", id="lone surrogate"),
])
def test_entry_names_that_are_not_file_names_rejected(tmp_path, monkeypatch, name):
    entries = [
        entry("fine", "a();\n", [[0]], tmp_path),
        dict(entry("other", "b();\n", [[0]], tmp_path), name=name),
    ]
    config = write_corpus(tmp_path, entries)
    with pytest.raises(CorpusConfigError):
        load_corpus_config(config)
    runs = []
    monkeypatch.setattr(corpus, "_run_entry", lambda *args: runs.append(args))
    assert main(["corpus", str(config)]) == 2
    assert runs == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.json", "tests"]


def test_entry_name_of_255_bytes_with_its_suffix_is_accepted(tmp_path):
    name = "x" * 250
    entries = [
        entry("fine", "a();\n", [[0]], tmp_path),
        dict(entry("other", "b();\n", [[0]], tmp_path), name=name),
    ]
    assert main(["corpus", str(write_corpus(tmp_path, entries))]) == 0
    assert (tmp_path / "out" / "reductions" / f"{name}.json").is_file()


@pytest.mark.parametrize("fields", [
    pytest.param({"name": "x" * 300}, id="long name"),
    pytest.param({"name": "a\ud800b"}, id="surrogate name"),
    pytest.param({"project": "q\udc00"}, id="surrogate project"),
])
def test_refused_config_leaves_the_earlier_bundle_as_it_was(tmp_path, fields):
    entries = [entry("fine", "a();\n", [[0]], tmp_path)]
    assert main(["corpus", str(write_corpus(tmp_path, entries))]) == 0
    out = tmp_path / "out"
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert out / "metrics.csv" in before
    entries.append(dict(entry("other", "b();\n", [[0]], tmp_path), **fields))
    config = write_corpus(tmp_path, entries)
    with pytest.raises(CorpusConfigError):
        load_corpus_config(config)
    assert main(["corpus", str(config)]) == 2
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before


#: A case's field set to MISSING is left out of the config.
MISSING = object()


def _present(fields):
    return {key: value for key, value in fields.items() if value is not MISSING}


# Each case maps a config (or, under "entry", fields that override a valid
# entry's; or the config's text) to the config error it raises.
MALFORMED_CONFIG_CASES = [
    ([], "config must be a JSON object"),
    ({"entries": {"a": 1}}, "entries must be a list"),
    ({"entries": [3]}, "entry 3 is not an object"),
    ({"output_dir": 3}, "output_dir must be a string"),
    ({"parallelism": "2"}, "parallelism must be an integer >= 1"),
    ({"parallelism": True}, "parallelism must be an integer >= 1"),
    ({"entry": {"name": 3}}, "entry 3: name must be a string"),
    ({"entry": {"project": None}}, "entry 'solo': project must be a string"),
    ({"entry": {"test_file": 1}}, "entry 'solo': test_file must be a string"),
    ({"entry": {"tree_file": ["t.json"]}}, "entry 'solo': tree_file must be a string"),
    ({"corpus_name": 3}, "corpus_name must be a string"),
    ({"policy": "bogus"}, "policy must be 'any' or 'same', not 'bogus'"),
    ({"entry": {"project": "q\udc00"}}, "entry 'solo': 'q\\udc00' cannot be written as UTF-8"),
    ("{not json", "config is not valid JSON: Expecting property name enclosed in "
                  "double quotes: line 1 column 2 (char 1)"),
    ({"corpus_name": MISSING}, "config missing field 'corpus_name'"),
    ({"entry": {"oracle": MISSING}}, "config missing field 'oracle'"),
    ({"entry": {"test_file": MISSING}}, "entry 'solo' needs test_file or tree_file"),
]


@pytest.mark.parametrize("config, message", MALFORMED_CONFIG_CASES)
def test_malformed_config_is_a_config_error(tmp_path, capsys, config, message):
    if isinstance(config, dict):
        fields = dict(entry("solo", "a();\n", [[0]], tmp_path), **config.get("entry", {}))
        config = _present({"corpus_name": "mini", "entries": [_present(fields)],
                           **{key: value for key, value in config.items() if key != "entry"}})
    path = tmp_path / "corpus.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config),
                    encoding="utf-8")
    with pytest.raises(CorpusConfigError) as info:
        load_corpus_config(path)
    assert str(info.value) == message
    assert main(["corpus", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def command_entry(name, tmp_path, **oracle):
    (tmp_path / "tests").mkdir(exist_ok=True)
    (tmp_path / "tests" / f"{name}.java").write_text("a();\n", encoding="utf-8")
    return {"name": name, "test_file": f"tests/{name}.java",
            "oracle": {"mode": "command", "command_template": "false", **oracle}}


@pytest.mark.parametrize("first, second", [
    ({}, {}),                                 # both default to "."
    ({"workdir": "."}, {"workdir": "./"}),    # one directory, spelled twice
])
def test_parallel_command_entries_must_not_share_a_workdir(tmp_path, first, second):
    entries = [command_entry("one", tmp_path, **first),
               entry("scripted", "a();\n", [[0]], tmp_path),
               command_entry("two", tmp_path, **second)]
    with pytest.raises(CorpusConfigError, match="'one' and 'two'"):
        load_corpus_config(write_corpus(tmp_path, entries, parallelism=2))
    # One at a time, the entries never run together.
    assert len(load_corpus_config(write_corpus(tmp_path, entries)).entries) == 3


def test_parallel_command_entries_without_a_workdir_string_are_entry_errors(tmp_path):
    # A null workdir is no directory the shared-workdir check can compare,
    # so OracleConfig refuses it before either command runs together.
    marker = tmp_path / "oracle-ran"
    touch = f"touch {shlex.quote(str(marker))}"
    entries = [entry("scripted", "a();\n", [[0]], tmp_path),
               command_entry("one", tmp_path, workdir=None, command_template=touch),
               command_entry("two", tmp_path, workdir=None, command_template=touch)]
    config = load_corpus_config(write_corpus(tmp_path, entries, parallelism=2))
    bundle = run_corpus(config)
    assert [s.ok for s in bundle.entry_statuses] == [True, False, False]
    for status in bundle.entry_statuses[1:]:
        assert status.error == "ValueError: workdir must be a string"
    assert not marker.exists()


def test_parallel_command_entries_with_own_workdirs_are_accepted(tmp_path):
    for name in ("w1", "w2"):
        (tmp_path / name).mkdir()
    entries = [command_entry("one", tmp_path, workdir=str(tmp_path / "w1")),
               command_entry("two", tmp_path, workdir=str(tmp_path / "w2"))]
    config = load_corpus_config(write_corpus(tmp_path, entries, parallelism=2))
    assert [e.name for e in config.entries] == ["one", "two"]


def test_relative_command_workdir_is_relative_to_the_config(tmp_path, monkeypatch):
    import shutil
    import sys

    from redustat.cli import main

    work = tmp_path / "work"
    work.mkdir()
    shutil.copy(Path(__file__).resolve().parent / "fixtures" / "assert_oracle.py",
                work / "oracle.py")
    entries = [command_entry("cmd", tmp_path, workdir="work",
                             command_template=f"{sys.executable} oracle.py {{candidate}}")]
    (tmp_path / "tests" / "cmd.java").write_text("setup();\nexplode();\n",
                                                 encoding="utf-8")
    config = write_corpus(tmp_path, entries, policy="any")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["corpus", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "reductions" / "cmd.json").read_text())
    assert report["retained"] == [1]
    # The shared-workdir check compares the directories the commands use.
    entries.append(command_entry("abs", tmp_path, workdir=str(work)))
    with pytest.raises(CorpusConfigError, match="'cmd' and 'abs'"):
        load_corpus_config(write_corpus(tmp_path, entries, parallelism=2))


def _growing_entries(tmp_path, count):
    """Entries listed smallest test file first, so largest-first dispatch
    runs them in the reverse of config order."""
    return [
        entry(f"t{i}", "".join(f"s{i}_{j}();\n" for j in range(i + 2)),
              [[i % (i + 2)]], tmp_path)
        for i in range(count)
    ]


def _without_wall_time(reports):
    return [{key: value for key, value in report.items() if key != "wall_time_ms"}
            for report in reports]


def test_parallel_run_equals_serial_run(tmp_path):
    entries = _growing_entries(tmp_path, 8)
    entries.insert(3, dict(entries[0], name="missing", test_file="tests/missing.java"))
    serial = run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    assert [r["test"] for r in serial.records] == [f"t{i}" for i in range(8)]
    missing = serial.entry_statuses[3]
    assert missing.name == "missing" and not missing.ok
    assert missing.error.startswith("FileNotFoundError: ")
    for parallelism in (2, 4):
        parallel = run_corpus(
            load_corpus_config(write_corpus(tmp_path, entries, parallelism=parallelism)))
        assert serial.records == parallel.records
        assert serial.entry_statuses == parallel.entry_statuses
        assert _without_wall_time(serial.reduction_reports) == \
            _without_wall_time(parallel.reduction_reports)


def test_parallel_run_starts_the_largest_test_files_first(tmp_path, monkeypatch):
    entries = _growing_entries(tmp_path, 5)
    # A missing file sorts as size 0; equal sizes keep config order.
    entries.insert(1, dict(entries[0], name="missing", test_file="tests/missing.java"))
    entries.append(dict(entries[-1], name="t4-again"))
    started = []
    run_entry = corpus._run_entry

    def recording(entry, policy):
        started.append(entry.name)
        return run_entry(entry, policy)

    workers = []

    def one_worker_pool(max_workers):
        # One worker takes the jobs in the order they were submitted.
        workers.append(max_workers)
        return ThreadPoolExecutor(max_workers=1)

    monkeypatch.setattr(corpus, "_run_entry", recording)
    monkeypatch.setattr(corpus, "ThreadPoolExecutor", one_worker_pool)
    bundle = run_corpus(load_corpus_config(write_corpus(tmp_path, entries, parallelism=3)))
    assert workers == [3]
    assert started == ["t4", "t4-again", "t3", "t2", "t1", "t0", "missing"]
    assert [s.name for s in bundle.entry_statuses] == [e["name"] for e in entries]
    started.clear()
    run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    assert workers == [3]  # a serial run uses no pool
    assert started == [e["name"] for e in entries]


def test_tree_document_entries_are_supported(tmp_path):
    document = {
        "test_name": "doc",
        "source": "lead(); inner();",
        "nodes": [
            {"id": 0, "kind": "ExpressionStmt", "has_children": False,
             "span": [0, 7], "children": []},
            {"id": 1, "kind": "ExpressionStmt", "has_children": False,
             "span": [8, 16], "children": []},
        ],
        "roots": [0, 1],
    }
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "doc.json").write_text(json.dumps(document),
                                                 encoding="utf-8")
    entries = [{
        "name": "doc",
        "project": "p",
        "tree_file": "tests/doc.json",
        "oracle": {"mode": "scripted", "failure_sets": [[1]]},
    }]
    config = load_corpus_config(write_corpus(tmp_path, entries))
    bundle = run_corpus(config)
    assert bundle.records[0]["ars"] == 1


def test_reports_of_documents_with_one_test_name_do_not_collide(tmp_path):
    document = {
        "test_name": "same",
        "source": "lead(); inner();",
        "nodes": [
            {"id": 0, "kind": "ExpressionStmt", "has_children": False,
             "span": [0, 7], "children": []},
            {"id": 1, "kind": "ExpressionStmt", "has_children": False,
             "span": [8, 16], "children": []},
        ],
        "roots": [0, 1],
    }
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "doc.json").write_text(json.dumps(document),
                                                 encoding="utf-8")
    entries = [
        {"name": name, "tree_file": "tests/doc.json",
         "oracle": {"mode": "scripted", "failure_sets": [[keep]]}}
        for name, keep in (("first", 0), ("second", 1))
    ]
    run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    reductions = tmp_path / "out" / "reductions"
    assert sorted(p.name for p in reductions.iterdir()) == ["first.json",
                                                            "second.json"]
    for name, keep in (("first", 0), ("second", 1)):
        report = json.loads((reductions / f"{name}.json").read_text())
        assert report["test_name"] == "same"
        assert report["retained"] == [keep]


def test_rows_of_documents_with_one_test_name_are_keyed_by_entry(tmp_path):
    document = {
        "test_name": "same",
        "project": "from-document",
        "source": "lead(); inner();",
        "nodes": [
            {"id": 0, "kind": "ExpressionStmt", "has_children": False,
             "span": [0, 7], "children": []},
            {"id": 1, "kind": "ExpressionStmt", "has_children": False,
             "span": [8, 16], "children": []},
        ],
        "roots": [0, 1],
    }
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "doc.json").write_text(json.dumps(document),
                                                 encoding="utf-8")
    entries = [
        {"name": name, "project": "p", "tree_file": "tests/doc.json",
         "oracle": {"mode": "scripted", "failure_sets": [[0]]}}
        for name in ("first", "second")
    ]
    run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["first", "p"],
                                                    ["second", "p"]]


def test_unknown_oracle_key_is_an_entry_error(tmp_path):
    entries = [
        entry("good", "a();\nb();\n", [[1]], tmp_path),
        entry("typo", "c();\nd();\n", [[1]], tmp_path),
    ]
    entries[1]["oracle"]["retries_typo"] = 3
    bundle = run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    status = {s.name: s for s in bundle.entry_statuses}
    assert status["good"].ok
    assert not status["typo"].ok
    assert status["typo"].error == ("CorpusConfigError: entry 'typo': "
                                    "unknown oracle key 'retries_typo'")


@pytest.mark.parametrize("setting, message", [
    ({"mode": ["scripted"]}, "unknown oracle mode ['scripted']"),
    ({"blockers": 5}, "blockers must be a list of integers"),
    ({"failure_sets": [0]}, "failure_sets must be a list of lists of integers"),
    ({"mode": "command", "command_template": "true", "fail_exit_codes": 1},
     "fail_exit_codes must be a list of integers"),
], ids=["mode", "blockers", "failure-sets", "fail-exit-codes"])
def test_oracle_key_of_the_wrong_type_is_an_entry_error(tmp_path, setting, message):
    entries = [
        entry("good", "a();\nb();\n", [[1]], tmp_path),
        entry("bad", "c();\nd();\n", [[1]], tmp_path),
    ]
    entries[1]["oracle"].update(setting)
    if "command_template" in setting:
        del entries[1]["oracle"]["failure_sets"], entries[1]["oracle"]["blockers"]
    bundle = run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    assert [s.ok for s in bundle.entry_statuses] == [True, False]
    assert bundle.entry_statuses[1].error == f"CorpusConfigError: entry 'bad': {message}"


def test_unknown_oracle_mode_is_an_entry_error(tmp_path):
    entries = [
        entry("good", "a();\nb();\n", [[1]], tmp_path),
        entry("bogus", "c();\nd();\n", [[1]], tmp_path),
    ]
    entries[1]["oracle"]["mode"] = "bogus"
    bundle = run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    assert [s.ok for s in bundle.entry_statuses] == [True, False]
    assert bundle.entry_statuses[1].error == ("CorpusConfigError: entry 'bogus': "
                                              "unknown oracle mode 'bogus'")


@pytest.mark.parametrize("spec", [None, "scripted", [1, 2]],
                         ids=["null", "string", "list"])
def test_oracle_that_is_not_an_object_is_an_entry_error(tmp_path, spec):
    entries = [
        entry("good", "a();\nb();\n", [[1]], tmp_path),
        entry("bad", "c();\nd();\n", [[1]], tmp_path),
    ]
    entries[1]["oracle"] = spec
    bundle = run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    assert [s.ok for s in bundle.entry_statuses] == [True, False]
    assert bundle.entry_statuses[1].error == ("CorpusConfigError: entry 'bad': "
                                              "oracle must be an object")


@pytest.mark.parametrize("setting, message", [
    ({"signature_pattern": "("}, "signature_pattern is not a regular expression"),
    ({"signature_pattern": 5}, "signature_pattern must be a string"),
    ({"fail_exit_codes": [0, 1]}, "fail_exit_codes cannot hold 0, which means Pass"),
    ({"command_template": ""}, "command_template names no command"),
    ({"command_template": None}, "command_template must be a string"),
], ids=["pattern", "pattern-type", "exit-code-0", "empty-command", "null-command"])
def test_oracle_that_can_never_be_honoured_is_an_entry_error(tmp_path, setting, message):
    marker = tmp_path / "oracle-ran"
    entries = [
        entry("good", "a();\nb();\n", [[1]], tmp_path),
        entry("cmd", "c();\nd();\n", [[1]], tmp_path),
    ]
    entries[1]["oracle"] = {"mode": "command",
                            "command_template": f"touch {shlex.quote(str(marker))}",
                            "signature_pattern": "x", **setting}
    bundle = run_corpus(load_corpus_config(write_corpus(tmp_path, entries)))
    assert [s.ok for s in bundle.entry_statuses] == [True, False]
    assert bundle.entry_statuses[1].error.startswith(f"ValueError: {message}")
    assert not marker.exists()  # refused before any oracle run


def test_corpus_whose_every_entry_fails_is_an_error(tmp_path, capsys):
    entries = [entry("never", "a();\n", [[7]], tmp_path),
               entry("bad-syntax", "e(;\n", [[0]], tmp_path)]
    path = write_corpus(tmp_path, entries)
    # The message says why each entry failed, in the form corpus prints after ERROR.
    message = ("every corpus entry failed; nothing to report\n"
               "never: OriginalDoesNotFailError: original test does not fail (verdict: Pass)\n"
               "bad-syntax: StatementSyntaxError: statement not terminated by ';' "
               "(line 1, column 1)")
    with pytest.raises(EmptyCorpusError) as raised:
        run_corpus(load_corpus_config(path))
    assert str(raised.value) == message
    assert main(["corpus", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# "bundle" is an earlier output directory whose reductions is a file: the
# bundle files would be rewritten before reductions/ could be made.
@pytest.mark.parametrize("output_dir", ["file", "file/sub", "bundle"])
def test_output_dir_under_a_file_is_refused_before_any_entry_runs(tmp_path, capsys,
                                                                  output_dir):
    marker = tmp_path / "oracle-ran"
    entries = [entry("cmd", "c();\nd();\n", [[1]], tmp_path)]
    entries[0]["oracle"] = {"mode": "command",
                            "command_template": f"touch {shlex.quote(str(marker))}"}
    path = write_corpus(tmp_path, entries, policy="any")
    (tmp_path / "file").write_text("kept", encoding="utf-8")
    earlier = b"test,project\nt01,p\n"
    (tmp_path / "bundle").mkdir()
    (tmp_path / "bundle" / "metrics.csv").write_bytes(earlier)
    (tmp_path / "bundle" / "reductions").write_text("kept", encoding="utf-8")
    code = main(["corpus", str(path), "--output-dir", str(tmp_path / output_dir)])
    assert code == 2
    assert not marker.exists()  # refused before any oracle run
    assert "is not a directory" in capsys.readouterr().err
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept"
    assert (tmp_path / "bundle" / "metrics.csv").read_bytes() == earlier
    assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == ["metrics.csv",
                                                                       "reductions"]


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT and runs sh")
def test_ctrl_c_at_parallelism_1_ends_the_run_and_its_oracle(tmp_path):
    """SIGINT during the baseline oracle run ends ``corpus`` at once, kills
    the run's process group and writes nothing.

    At ``parallelism`` 2 the executor still waits for the running entries,
    oracle calls included, before the interruption ends the run; that stays
    open and is not tested here."""
    pids = tmp_path / "pids"
    entries = [entry("cmd", "c();\nd();\n", [[1]], tmp_path)]
    script = f"echo $$ >> {shlex.quote(str(pids))}; sleep 30; exit 1"
    entries[0]["oracle"] = {"mode": "command",
                            "command_template": f"sh -c {shlex.quote(script)} sh {{candidate}}"}
    path = write_corpus(tmp_path, entries, policy="any")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    run = subprocess.Popen([sys.executable, "-m", "redustat.cli", "corpus", str(path)],
                           env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 20
        while not (pids.exists() and pids.read_text().strip()):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        run.send_signal(signal.SIGINT)
        assert run.wait(timeout=5) == -signal.SIGINT
    finally:
        run.kill()
        run.wait()
    recorded = [int(pid) for pid in pids.read_text().split()]
    deadline = time.monotonic() + 5
    while recorded:
        try:
            os.kill(recorded[-1], 0)
        except ProcessLookupError:
            recorded.pop()
            continue
        assert time.monotonic() < deadline, f"oracle process {recorded[-1]} outlived the run"
        time.sleep(0.02)
    assert not (tmp_path / "out").exists()


def test_command_oracle_entries_run_in_scratch_dirs(tmp_path, monkeypatch):
    import sys
    import tempfile
    import textwrap

    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent(
        """\
        import os, sys
        text = open(sys.argv[1], encoding="utf-8").read()
        # like a compiler, leave a build product next to the candidate
        out = os.path.join(os.path.dirname(os.environ["REDUSTAT_CANDIDATE"]),
                           "Out.class")
        open(out, "w").close()
        if "explode();" in text:
            print("AssertionError: boom")
            sys.exit(1)
        sys.exit(0)
        """
    ), encoding="utf-8")
    (tmp_path / "tests").mkdir(exist_ok=True)
    (tmp_path / "tests" / "cmd.java").write_text(
        "setup();\nexplode();\nteardown();\n", encoding="utf-8")
    entries = [{
        "name": "cmd",
        "project": "p",
        "test_file": "tests/cmd.java",
        "oracle": {
            "mode": "command",
            "command_template": f"{sys.executable} {script} {{candidate}}",
            "timeout_ms": 20000,
            "fail_exit_codes": [1],
            "signature_pattern": r"AssertionError[^\n]*",
        },
    }]
    config = load_corpus_config(write_corpus(tmp_path, entries))
    (cmd,) = config.entries
    outcome = reduce_test(cmd.load_ast(), cmd.build_oracle(config.policy))
    assert len(outcome.removed) == 2
    assert list(scratch.iterdir()) == []

    bundle = run_corpus(config)
    assert bundle.entry_errors == 0
    assert bundle.records[0]["ars"] == 2
    assert list(scratch.iterdir()) == []


def test_shipped_synthetic_corpus_matches_pinned_expectations(tmp_path):
    config = load_corpus_config(SYNTHETIC / "corpus.json")
    config.output_dir = tmp_path / "out"
    bundle = run_corpus(config)
    assert bundle.entry_errors == 0
    produced = (tmp_path / "out" / "metrics.csv").read_bytes()
    expected = (SYNTHETIC / "expected_metrics.csv").read_bytes()
    assert produced == expected
    # The other byte-stable files of the bundle, as pinned in the fixtures.
    for name in ("means.csv", "stats.json", "boxplot.json"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (PINNED_BUNDLE / name).read_bytes(), name


def test_corpus_records_match_reduction_reports(tmp_path):
    config = load_corpus_config(SYNTHETIC / "corpus.json")
    config.output_dir = tmp_path / "out"
    bundle = run_corpus(config)
    assert all(list(record) == list(CSV_COLUMNS) for record in bundle.records)
    by_name = {r["test"]: r for r in bundle.records}
    for report in bundle.reduction_reports:
        record = by_name[report["test_name"]]
        assert record["ars"] == len(report["removed"])
        assert record["antrs"] == report["removed_ntn"]
        assert record["atrs"] == report["removed_tn"]


#: Oracle calls per entry of the shipped synthetic corpus, t01 to t30,
#: baselines included, as a separate greedy reducer with the same sweep order
#: and a cache of the candidate sets it saw rejected counts them. Without the
#: cache it counts 399 in all.
SYNTHETIC_ORACLE_CALLS = [10, 7, 14, 8, 14, 15, 9, 17, 11, 10, 17, 18, 7, 12, 10,
                          13, 13, 22, 12, 18, 15, 13, 6, 18, 14, 18, 7, 10, 13, 17]


def assert_reports_certify_themselves(config, reports):
    """Each retained statement's last attempt was rejected, and every
    later commit lay inside its subtree: the rejection judged the very
    candidate that removing it from the result would give."""
    asts = {entry.name: entry.load_ast() for entry in config.entries}
    for report in reports:
        ast = asts[report["test_name"]]
        trace = report["trace"]
        assert report["oracle_calls"] == 1 + len(trace)
        last = {t["node"]: i for i, t in enumerate(trace)}
        for node_id in report["retained"]:
            assert trace[last[node_id]]["decision"] == "rejected"
            later = {t["node"] for t in trace[last[node_id]:] if t["decision"] == "accepted"}
            assert later <= ast.subtree_ids(node_id), (report["test_name"], node_id)


def test_synthetic_corpus_oracle_calls_are_pinned(tmp_path):
    config = load_corpus_config(SYNTHETIC / "corpus.json")
    config.output_dir = tmp_path / "out"
    bundle = run_corpus(config)
    reports = bundle.reduction_reports
    calls = [report["oracle_calls"] for report in reports]
    assert calls == SYNTHETIC_ORACLE_CALLS
    assert sum(calls) == 388
    assert {report["passes"] for report in reports} == {2}
    assert_reports_certify_themselves(config, reports)


#: The benchmark's input generators, imported without changing them.
bench_workloads = load_module("bench_workloads", "benchmark/workloads.py")


#: Total oracle calls and the digest of the retained sets on fixed-seed slices
#: of the benchmark's workload generators, as a separate greedy reducer with
#: the same sweep order and a cache of the candidate sets it saw rejected
#: counts them. The study slice holds the 30 shipped synthetic entries too.
#: The retained sets are those of the uncached reducer, which took 6 947 and
#: 1 236 calls, and of the earlier inner-tree-first order, which took 7 175
#: and 1 270.
WORKLOAD_SLICES = {
    ("scripted-large", 6): (
        6945, "18caddac5bfb8f806aca074e4ed492351b944d70d7c2a3d72856bb298c544104"),
    ("study", 40): (
        1209, "539e6e209b9fcf865cef08eb982a0a324615f2c9225cea191fed3dd89bd0b71e"),
}


@pytest.mark.parametrize("workload, count", sorted(WORKLOAD_SLICES))
def test_workload_slice_calls_are_pinned(tmp_path, workload, count):
    inputs = bench_workloads.write_inputs(workload, 1, tmp_path, REPO, count)
    config = load_corpus_config(inputs.config_path)
    bundle = run_corpus(config)
    assert bundle.entry_errors == 0
    assert_reports_certify_themselves(config, bundle.reduction_reports)
    retained = {r["test_name"]: r["retained"] for r in bundle.reduction_reports}
    digest = hashlib.sha256(json.dumps(retained, sort_keys=True).encode()).hexdigest()
    calls = sum(r["oracle_calls"] for r in bundle.reduction_reports)
    assert (calls, digest) == WORKLOAD_SLICES[workload, count]


#: The summed report ``oracle_calls`` of whole workloads at seed 1, the
#: figures that ``benchmark/run.py`` reports and that no change may raise.
WORKLOAD_CALLS = {"scripted-large": 21931, "command-oracle": 980, "study": 9464}


@pytest.mark.parametrize("workload", ["scripted-large", "study"])
def test_workload_oracle_calls_are_pinned(tmp_path, workload):
    inputs = bench_workloads.write_inputs(workload, 1, tmp_path, REPO)
    bundle = run_corpus(load_corpus_config(inputs.config_path))
    assert bundle.entry_errors == 0
    calls = sum(r["oracle_calls"] for r in bundle.reduction_reports)
    assert calls == WORKLOAD_CALLS[workload]


class _StandinModel:
    """In-process oracle over the benchmark's Python model of its stand-in
    test run: exit 1 fails with one signature, exit 0 passes, any other exit
    is Invalid. No process is spawned."""

    match_policy = MatchPolicy.SAME_SIGNATURE

    def __init__(self, standin_exit, keys):
        self.standin_exit = standin_exit
        self.keys = keys

    def verdict(self, retained, ast):
        code = self.standin_exit(render(ast, retained), self.keys)
        if code == 1:
            return OracleVerdict(VerdictStatus.FAIL, "standin")
        return OracleVerdict(VerdictStatus.PASS if code == 0 else VerdictStatus.INVALID)


def test_command_workload_oracle_calls_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "workloads", bench_workloads)  # checks imports it by name
    checks = load_module("bench_checks", "benchmark/checks.py")
    inputs = bench_workloads.write_inputs("command-oracle", 1, tmp_path, REPO)
    entries = load_corpus_config(inputs.config_path).entries
    assert [entry.name for entry in entries] == [test.name for test in inputs.tests]
    calls = sum(reduce_test(entry.load_ast(),
                            _StandinModel(checks.standin_exit, test.marker_keys())
                            ).oracle_calls
                for entry, test in zip(entries, inputs.tests))
    assert calls == WORKLOAD_CALLS["command-oracle"]
