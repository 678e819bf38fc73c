#!/usr/bin/env python3
"""Check that the working tree writes the same files as revision ``REV``.

``REV``'s ``src/`` is taken from local git (``git archive``) into a
temporary directory. Inputs are generated once: the three benchmark
workloads at seeds 1 to 3, with the working tree's ``benchmark/workloads.py``,
and the test files that ``reduce`` reads.
Both trees' ``redustat`` commands then run on the same inputs:

- ``corpus`` on the shipped synthetic corpus and on each workload;
- ``reduce --out`` on the README's three-statement test (``a();``,
  ``foo(a);``, ``b();``) with its grep oracle, once as a ``.java`` file and
  once as the same test in a ``.json`` tree document;
- ``replicate --table I`` and ``--table II``, each writing its bundle;
- the README's ``stats --csv <synthetic metrics.csv> --cols pntrs,ptrs
  --test wilcoxon``.

Every command's exit code, standard output and standard error are kept as
files next to the bundles it writes. Each file of one tree's outputs is
compared byte for byte with the other tree's, after the values of
``created_utc`` and ``wall_time_ms`` are blanked. Every differing file is
printed with the start of its diff, and the exit status is 1; with no
difference it is 0. The command-oracle workload spawns a 20 ms stand-in per
oracle call, so a run takes a few minutes. Example, from the repository root:

    python3 tools/differential.py HEAD^
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scripted-large", "command-oracle", "study")
SEEDS = (1, 2, 3)
#: The README's three-statement test, as a test file and as a tree document.
THREE = "a();\nfoo(a);\nb();\n"
THREE_TREE = {"test_name": "three", "source": THREE, "roots": [0, 1, 2], "nodes": [
    {"id": i, "kind": "ExpressionStmt", "has_children": False, "span": span, "children": []}
    for i, span in enumerate(([0, 4], [5, 12], [13, 17]))]}
#: The README's oracle: the test fails while it holds ``foo(a);``.
THREE_ORACLE = """sh -c '! grep -qF "foo(a);" "$1"' sh {candidate}"""
#: A JSON key whose value changes from run to run, with that value.
VOLATILE = re.compile(rb'("(?:created_utc|wall_time_ms)": )("[^"]*"|[^,}\s]+)')
DIFF_LINES = 20


class DifferentialError(Exception):
    """The comparison could not be made."""


def checkout(rev: str, dest: Path) -> Path:
    """``REV``'s ``src/`` under ``dest``, which is returned as that tree's root."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        raise DifferentialError(f"cannot take {rev} from git: "
                                f"{archive.stderr.decode(errors='replace').strip()}")
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def write_all_inputs(base: Path) -> list[tuple[str, list[str]]]:
    """``(name, arguments)`` of every ``corpus`` and ``reduce`` run, inputs
    written once. Each run writes under its name."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    from workloads import synthetic_dir, write_inputs

    # The base is absolute: command workdirs are written into the config as
    # given, and a relative one would be resolved against the config again.
    configs = [("synthetic", synthetic_dir(ROOT) / "corpus.json")]
    for workload in WORKLOADS:
        for seed in SEEDS:
            inputs = write_inputs(workload, seed, base / f"{workload}-{seed}", ROOT)
            configs.append((f"{workload}-{seed}", inputs.config_path))
    commands = [(name, ["corpus", str(config), "--output-dir", name])
                for name, config in configs]
    (base / "three.java").write_text(THREE, encoding="utf-8")
    (base / "three.json").write_text(json.dumps(THREE_TREE), encoding="utf-8")
    for suffix in ("java", "json"):
        commands.append((f"reduce-{suffix}", ["reduce", str(base / f"three.{suffix}"),
                                              "--oracle-cmd", THREE_ORACLE,
                                              "--out", f"reduce-{suffix}.json"]))
    return commands


def run_tree(tree: Path, commands: list[tuple[str, list[str]]], out: Path) -> None:
    """Run ``commands``, then ``replicate`` and ``stats``, with ``tree``'s
    program, writing under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    found = subprocess.run([sys.executable, "-c", "import redustat; print(redustat.__file__)"],
                           env=env, check=True, capture_output=True, text=True).stdout
    if not Path(found.strip()).is_relative_to(tree / "src"):
        raise DifferentialError(f"{tree / 'src'} is not the redustat that runs: {found}")
    commands = commands + [(f"replicate-{table}", ["replicate", "--table", table,
                                                   "--output-dir", f"replicate-{table}"])
                           for table in ("I", "II")]
    commands.append(("stats", ["stats", "--csv", "synthetic/metrics.csv",
                               "--cols", "pntrs,ptrs", "--test", "wilcoxon"]))
    out.mkdir()
    for name, args in commands:
        # Relative output paths, so that printed paths match between trees.
        done = subprocess.run([sys.executable, "-m", "redustat.cli", *args], cwd=out,
                              env=env, capture_output=True, text=True)
        (out / f"{name}.log").write_text(
            f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}",
            encoding="utf-8")


def _files(root: Path) -> set[str]:
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def _stripped(path: Path) -> bytes:
    return VOLATILE.sub(rb"\1null", path.read_bytes())


def compare(old: Path, new: Path) -> list[str]:
    """Relative paths of the files that differ between two output trees, or
    are in one only, after volatile values are blanked."""
    old_files, new_files = _files(old), _files(new)
    return sorted(name for name in old_files | new_files
                  if name not in old_files or name not in new_files
                  or _stripped(old / name) != _stripped(new / name))


def _diff(old: Path, new: Path, name: str) -> list[str]:
    def lines(path: Path) -> list[str]:
        text = _stripped(path).decode("utf-8", "replace") if path.is_file() else ""
        return text.splitlines()

    diff = difflib.unified_diff(lines(old / name), lines(new / name),
                                f"old/{name}", f"new/{name}", lineterm="")
    return list(diff)[:DIFF_LINES]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="redustat-differential-") as scratch:
        scratch = Path(scratch)
        try:
            old_tree = checkout(args.rev, scratch / "rev")
            commands = write_all_inputs(scratch / "inputs")
            for label, tree in (("old", old_tree), ("new", ROOT)):
                print(f"running {label} ({tree})", file=sys.stderr)
                run_tree(tree, commands, scratch / label)
        except DifferentialError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        differing = compare(scratch / "old", scratch / "new")
        for name in differing:
            print(f"differs: {name}")
            for line in _diff(scratch / "old", scratch / "new", name):
                print(f"    {line}")
        print(f"{len(differing)} of {len(_files(scratch / 'new'))} files differ "
              f"from {args.rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
