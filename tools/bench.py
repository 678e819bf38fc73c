#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts and record the result lines.

Each checkout is named ``LABEL=DIR``. For every workload, seed and trace
setting, ``benchmark/run.py`` runs for ``SECONDS`` once per checkout from
that checkout's root, ``--repeat`` times, and the order of the checkouts
alternates from one repetition to the next, continuing from the runs that
the output file already holds for that workload, seed and trace setting.
The result line, the ``unmeasured:`` and ``measured, before rescaling:``
lines, and the checkout's commit id are appended to the output file's
``runs``, so several invocations can add to one ``BENCH_<n>.json``. A
checkout that is not a git work tree, such as a ``git archive`` export, runs
with the commit recorded as ``unknown: not a git work tree``.
Example, from the repository root:

    python3 tools/bench.py BENCH_6.json --checkout parent=../parent --checkout change=.

``--summary`` runs nothing. It reads the untraced runs of the file and, for
each workload, seed, label other than ``parent`` and end-to-end metric of
``BENCHMARK.json``, prints the parent's and that label's median and
quartiles, the number of pairs the label won (the i-th parent run against
its i-th run, in the order recorded; ties count for neither side), and
whether the gain rule holds: at least 10 pairs, at least nine tenths of
them won, and medians that differ by more than the parent's interquartile
range. Example: ``python3 tools/bench.py --summary BENCH_10.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scripted-large", "command-oracle", "study")
#: Length of every run, the same for every checkout so their runs compare.
SECONDS = 30.0
PREFIXES = {"unmeasured: ": "unmeasured", "measured, before rescaling: ": "measured"}
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: The commit recorded for a checkout that git cannot name.
NO_COMMIT = "unknown: not a git work tree"


def commit_of(root: Path) -> str:
    """HEAD of the checkout, with ``-dirty`` when tracked files differ from
    it, or :data:`NO_COMMIT` when the checkout is not the top of a git work
    tree with a commit (a ``git archive`` export, say), which still runs."""
    def git(*args: str) -> str | None:
        done = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True)
        return None if done.returncode else done.stdout.strip()

    top, head = git("rev-parse", "--show-toplevel"), git("rev-parse", "--verify", "HEAD")
    if top is None or head is None or Path(top).resolve() != root.resolve():
        return NO_COMMIT
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    run = {"workload": workload, "seed": seed, "seconds": SECONDS, "trace": trace,
           "exit": done.returncode}
    for line in lines:
        for prefix, key in PREFIXES.items():
            if line.startswith(prefix):
                run[key] = json.loads(line[len(prefix):])
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["stderr"] = done.stderr[-2000:]
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated between runs."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(record: dict) -> list[str]:
    """The lines ``--summary`` prints for one ``BENCH_<n>.json`` record."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    groups: dict[tuple[str, int], dict[str, list]] = {}
    for run in record["runs"]:
        if run["trace"] == 0:
            by_label = groups.setdefault((run["workload"], run["seed"]), {})
            # A failed run keeps its place, so that later runs stay paired.
            by_label.setdefault(run["label"], []).append(
                run.get("result", {}).get("metrics"))
    lines = []
    for (workload, seed), by_label in groups.items():
        base = by_label.get("parent", [])
        for label, runs in by_label.items():
            if label == "parent" or not base:
                continue
            for metric in metrics:
                name, lower = metric["name"], metric["better"] == "lower"
                old = [m[name]["value"] for m in base if m and name in m]
                new = [m[name]["value"] for m in runs if m and name in m]
                pairs = [(p[name]["value"], c[name]["value"]) for p, c in zip(base, runs)
                         if p and c and name in p and name in c]
                if not (old and new):
                    continue
                (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
                won = sum(c < p if lower else c > p for p, c in pairs)
                gap = o2 - n2 if lower else n2 - o2
                holds = len(pairs) >= 10 and won >= 0.9 * len(pairs) and gap > o3 - o1
                change = f"{100 * (n2 - o2) / o2:+.1f}%" if o2 else "n/a"
                lines.append(
                    f"{workload} seed {seed} {name} [{metric['unit']}]: "
                    f"parent {o2:.5g} [{o1:.5g}, {o3:.5g}] ({len(old)} runs), "
                    f"{label} {n2:.5g} [{n1:.5g}, {n3:.5g}] ({len(new)} runs), {change}; "
                    f"won {won} of {len(pairs)} pairs; gap {gap:.5g} against parent "
                    f"IQR {o3 - o1:.5g}; gain rule {'holds' if holds else 'not met'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="BENCH_<n>.json to create or extend")
    parser.add_argument("--summary", action="store_true",
                        help="print the comparison of the file's untraced runs; run nothing")
    parser.add_argument("--checkout", action="append", metavar="LABEL=DIR")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--trace", action="append", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.summary:
        print("\n".join(summarize(json.loads(args.out.read_text()))))
        return 0
    if not args.checkout:
        parser.error("--checkout is required unless --summary is given")

    checkouts = []
    for spec in args.checkout:
        label, _, directory = spec.partition("=")
        root = Path(directory).resolve()
        if not (label and (root / "benchmark" / "run.py").is_file()):
            parser.error(f"--checkout {spec!r}: expected LABEL=DIR of a checkout")
        checkouts.append((label, root, commit_of(root)))

    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    for workload in args.workload or WORKLOADS:
        for seed in args.seed or [1]:
            for trace in args.trace or [0, 1]:
                done = sum((run["workload"], run["seed"], run["trace"]) == (workload, seed, trace)
                           for run in record["runs"]) // len(checkouts)
                for repetition in range(done, done + args.repeat):
                    order = checkouts if repetition % 2 == 0 else checkouts[::-1]
                    for label, root, commit in order:
                        run = run_once(root, workload, seed, trace)
                        record["runs"].append({"label": label, "commit": commit, **run})
                        args.out.write_text(json.dumps(record, indent=1) + "\n")
                        print(f"{label} {workload} seed {seed} trace {trace}: "
                              f"exit {run['exit']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
