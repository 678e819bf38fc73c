import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("bench_tool", ROOT / "tools" / "bench.py")
tracing = _load("bench_tracing", ROOT / "benchmark" / "tracing.py")

PARENT = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.03]


def _run(label, wall_s, trace=0):
    return {"label": label, "workload": "scripted-large", "seed": 1, "trace": trace,
            "exit": 0, "result": {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}}


def _alternating(change):
    runs = []
    for i, (old, new) in enumerate(zip(PARENT, change)):
        pair = [_run("parent", old), _run("change", new)]
        runs += pair if i % 2 == 0 else pair[::-1]
    return {"runs": runs}


def test_summary_holds_with_nine_of_ten_pairs_won_by_more_than_the_iqr():
    record = _alternating([0.80] * 9 + [1.05])
    record["runs"].append(_run("parent", 9.0, trace=1))  # traced runs are left out
    [line] = bench.summarize(record)
    assert line.startswith("scripted-large seed 1 wall_s [s]: parent 1 [0.9925, 1.01] "
                           "(10 runs), change 0.8 [0.8, 0.8] (10 runs), -20.0%;")
    assert "won 9 of 10 pairs" in line
    assert line.endswith("gain rule holds")


def test_summary_is_not_met_with_eight_wins_or_a_gap_inside_the_iqr():
    [eight] = bench.summarize(_alternating([0.80] * 8 + [1.05, 1.05]))
    assert "won 8 of 10 pairs" in eight and eight.endswith("gain rule not met")
    [close] = bench.summarize(_alternating([p - 0.01 for p in PARENT]))
    assert "won 10 of 10 pairs" in close and close.endswith("gain rule not met")


def test_a_failed_run_keeps_later_runs_paired():
    record = _alternating([0.80] * 10)
    failed = next(run for run in record["runs"] if run["label"] == "change")
    del failed["result"]
    [line] = bench.summarize(record)
    assert "change 0.8 [0.8, 0.8] (9 runs)" in line and "won 9 of 10" not in line
    assert "won 9 of 9 pairs" in line and line.endswith("gain rule not met")


def test_alternation_continues_across_invocations(tmp_path, monkeypatch):
    for label in ("parent", "change"):
        (tmp_path / label / "benchmark").mkdir(parents=True)
        (tmp_path / label / "benchmark" / "run.py").touch()
    order = []

    def run_once(root, workload, seed, trace):
        order.append(root.name)
        return {"workload": workload, "seed": seed, "trace": trace, "exit": 0}

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "commit_of", lambda root: "0" * 40)
    argv = [str(tmp_path / "BENCH.json"), "--repeat", "1", "--workload", "study",
            "--trace", "0", "--checkout", f"parent={tmp_path / 'parent'}",
            "--checkout", f"change={tmp_path / 'change'}"]
    assert bench.main(argv) == 0
    assert bench.main(argv) == 0
    assert order == ["parent", "change", "change", "parent"]


def test_a_checkout_that_is_not_a_git_work_tree_runs_with_a_marker(tmp_path, monkeypatch):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path / "repo"), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
                               *args], check=True, capture_output=True, text=True).stdout.strip()

    # A work tree with one commit and a changed tracked file, an export
    # beside it, and an export inside it, which git would take for the work
    # tree around it.
    for checkout in ("repo", "export", "repo/export"):
        (tmp_path / checkout / "benchmark").mkdir(parents=True)
        (tmp_path / checkout / "benchmark" / "run.py").write_text("")
    git("init", "-q")
    git("add", "benchmark/run.py")
    git("commit", "-q", "-m", "benchmark")
    (tmp_path / "repo" / "benchmark" / "run.py").write_text("changed\n")
    monkeypatch.setattr(bench, "run_once", lambda root, workload, seed, trace: {
        "workload": workload, "seed": seed, "trace": trace, "exit": 0})
    out = tmp_path / "BENCH.json"
    argv = [str(out), "--workload", "study", "--trace", "0",
            "--checkout", f"parent={tmp_path / 'export'}",
            "--checkout", f"change={tmp_path / 'repo'}",
            "--checkout", f"inner={tmp_path / 'repo' / 'export'}"]
    assert bench.main(argv) == 0
    commits = {run["label"]: run["commit"] for run in json.loads(out.read_text())["runs"]}
    assert commits == {"parent": bench.NO_COMMIT, "change": git("rev-parse", "HEAD") + "-dirty",
                       "inner": bench.NO_COMMIT}


def test_every_benchmark_hook_point_resolves():
    # A hook point that is gone is no error to the benchmark: its per-layer
    # metrics read "unmeasured". A rename must fail here instead.
    points = [(module, path) for _, module, path in tracing.SPAN_HOOKS + tracing.COUNT_HOOKS]
    points.append(("redustat.oracle", "ScriptedOracle.fails"))  # run.py's probe
    assert [f"{module}.{path}" for module, path in points
            if tracing.resolve(module, path) is None] == []
