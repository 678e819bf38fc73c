#!/usr/bin/env python3
"""Run the benchmark on one or more checkouts and record the result lines.

Each checkout is named ``LABEL=DIR``. For every workload, seed and trace
setting, ``benchmark/run.py`` runs for ``SECONDS`` once per checkout from
that checkout's root, ``--repeat`` times, and the order of the checkouts
alternates from one repetition to the next. The result line, the
``unmeasured:`` and ``measured, before rescaling:`` lines, and the
checkout's commit id are appended to the output file's ``runs``, so several
invocations can add to one ``BENCH_<n>.json``. Example, from the repository root:

    python3 tools/bench.py BENCH_6.json --checkout parent=../parent --checkout change=.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scripted-large", "command-oracle", "study")
#: Length of every run, the same for every checkout so their runs compare.
SECONDS = 30.0
PREFIXES = {"unmeasured: ": "unmeasured", "measured, before rescaling: ": "measured"}


def commit_of(root: Path) -> str:
    """HEAD of the checkout, with ``-dirty`` when tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="BENCH_<n>.json to create or extend")
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--trace", action="append", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

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
                for repetition in range(args.repeat):
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
