"""Benchmark for redustat: oracle calls and wall time of corpus reductions.

Run from the root of a checkout (it builds nothing; it imports ``src/``):

    python3 benchmark/run.py --workload scripted-large --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``scripted-large``, ``command-oracle``, ``study``.
The inputs are generated from ``--seed`` under ``.bench_work/`` and removed
at the end. The run reduces the generated corpus through ``run_corpus`` pass
after pass for ``--seconds`` (and at least the workload's minimum number of
passes), checks every output independently, and prints one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import STANDIN_WAIT_S, Inputs, synthetic_dir, write_inputs  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    min_passes: int
    tail_pct: float        # entry-time percentile reported as entry_ms_tail
    warmup: bool           # one uncounted pass first (counts the oracle calls)
    replicate: bool = False


WORKLOADS = {
    "scripted-large": Workload(min_passes=5, tail_pct=90.0, warmup=True),
    "command-oracle": Workload(min_passes=2, tail_pct=75.0, warmup=False),
    "study": Workload(min_passes=5, tail_pct=95.0, warmup=True, replicate=True),
}
#: Interpreter start-ups timed for setup_s: first ones before the passes,
#: then one after each pass up to the total.
SETUP_BEFORE, SETUP_TOTAL = 4, 15
SETUP_CODE = "import sys, redustat; redustat.load_corpus_config(sys.argv[1])"


def _load_program():
    """Import redustat from the checkout's ``src/``; None when it is not there."""
    src = ROOT / "src"
    if not (src / "redustat" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import redustat.corpus
    import redustat.replicate
    return redustat


class Bench:
    def __init__(self, redustat, name: str, inputs: Inputs, seconds: float):
        self.rs = redustat
        self.name = name
        self.spec = WORKLOADS[name]
        self.inputs = inputs
        self.seconds = seconds
        self.config = None
        self.entry_ms: list[float] = []
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.expected_calls: int | None = None
        self.first_digest: tuple | None = None
        self.last = None          # (bundle, tables) of the latest pass
        self.patches = tracing.Patches()
        self.command_oracle = any(t.shape == "command" for t in inputs.tests)
        self.probe = reference.Probe(self.command_oracle, inputs.base / "probe")
        self.raw_entry_ms: list[float] = []
        self.unmeasured: dict[str, str] = {}   # traced metric -> why it reads 0

    # -- measuring pieces ------------------------------------------------------

    def setup_sample(self) -> None:
        """One user start-up: interpreter, ``import redustat``, config load."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(self.inputs.config_path)],
                       cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        self.setup_samples.append(time.perf_counter() - start)

    def time_entries(self) -> None:
        """Time each corpus entry from outside, for the whole run."""
        found = (tracing.resolve("redustat.corpus", "_run_entry")
                 or tracing.resolve("redustat.corpus", "reduce_test"))
        if found is None:
            raise SystemExit("no entry hook: redustat.corpus._run_entry and "
                             "redustat.corpus.reduce_test are both gone")
        owner, attr, original = found
        samples = self.entry_ms

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append((time.perf_counter() - start) * 1000.0)

        self.patches.replace(owner, attr, timed)

    def one_pass(self):
        bundle = self.rs.corpus.run_corpus(self.config)
        tables = ([self.rs.replicate.replicate_from_fixtures(t) for t in ("I", "II")]
                  if self.spec.replicate else [])
        return bundle, tables

    def counted_pass(self) -> int:
        """A pass whose scripted oracle calls are counted at the oracle itself."""
        found = tracing.resolve("redustat.oracle", "ScriptedOracle.fails")
        calls = [0]
        patches = tracing.Patches()
        if found is not None:
            owner, attr, original = found

            def counting(*args, **kwargs):
                calls[0] += 1
                return original(*args, **kwargs)

            patches.replace(owner, attr, counting)
        else:
            print("warning: redustat.oracle.ScriptedOracle.fails not found; "
                  "oracle calls are taken from the reports", file=sys.stderr)
        try:
            bundle, tables = self.one_pass()
        finally:
            patches.restore()
        self.last = (bundle, tables)
        self.first_digest = self._digest(bundle)
        return calls[0] if found is not None else _reported_calls(bundle)

    def _standin_logs(self) -> list[Path]:
        return [self.inputs.workdir(t) / "calls.log" for t in self.inputs.tests
                if t.shape == "command"]

    def timed_pass(self) -> tuple[float, float]:
        """One checked pass: its measured wall time and its reference scale.

        Entry times of the pass are rescaled in place; the measured ones are
        kept in ``raw_entry_ms``.
        """
        logs = self._standin_logs()
        for log in logs:
            log.unlink(missing_ok=True)
        before = self.probe.measure()
        first_entry = len(self.entry_ms)
        start = time.perf_counter()
        bundle, tables = self.one_pass()
        wall = time.perf_counter() - start
        scale = self.probe.nominal / ((before + self.probe.measure()) / 2)
        entries = self.entry_ms[first_entry:]
        self.raw_entry_ms += entries
        self.entry_ms[first_entry:] = [ms * scale for ms in entries]
        self.last = (bundle, tables)
        reported = _reported_calls(bundle)
        if logs:
            counted = sum(len(log.read_bytes().splitlines())
                          for log in logs if log.exists())
        else:
            counted = self.expected_calls
        if reported != counted:
            self.errors.append(f"reports total {reported} oracle calls, "
                               f"counted {counted}")
        if self.expected_calls is None:
            self.expected_calls = counted
        elif counted != self.expected_calls:
            self.errors.append(f"oracle calls changed between passes: "
                               f"{counted} vs {self.expected_calls}")
        digest = self._digest(bundle)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            self.errors.append("retained sets changed between passes")
        self.attempted += len(self.config.entries) + len(tables)
        self.failed += bundle.entry_errors
        return wall, scale

    @staticmethod
    def _digest(bundle) -> tuple:
        return tuple(sorted((r["test_name"], tuple(r["retained"]))
                            for r in bundle.reduction_reports))

    def prepare(self, setup: bool) -> None:
        for _ in range(SETUP_BEFORE if setup else 0):
            self.setup_sample()
        self.config = self.rs.corpus.load_corpus_config(self.inputs.config_path)
        if self.spec.warmup:
            self.expected_calls = self.counted_pass()

    def keep_going(self, started: float, passes: int) -> bool:
        return passes < self.spec.min_passes or time.monotonic() - started < self.seconds

    # -- the two kinds of run -----------------------------------------------------

    def run_untraced(self) -> dict:
        self.prepare(setup=True)
        self.time_entries()
        walls, raw_walls = [], []
        started = time.monotonic()
        try:
            while self.keep_going(started, len(walls)):
                wall, scale = self.timed_pass()
                walls.append(wall * scale)
                raw_walls.append(wall)
                if len(self.setup_samples) < SETUP_TOTAL:
                    self.setup_sample()
        finally:
            self.patches.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check_outputs()
        raw = {"wall_s": statistics.median(raw_walls),
               "entry_ms_p50": statistics.median(self.raw_entry_ms),
               "entry_ms_tail": tracing.percentile(self.raw_entry_ms, self.spec.tail_pct),
               "probe_ms": statistics.median(self.probe.samples) * 1000.0}
        print("measured, before rescaling:", json.dumps(raw))
        metrics = {
            "setup_s": (statistics.median(self.setup_samples[1:]), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "entry_ms_p50": (statistics.median(self.entry_ms), "ms"),
            "entry_ms_tail": (tracing.percentile(self.entry_ms, self.spec.tail_pct), "ms"),
            "oracle_calls": (self.expected_calls, "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return self.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    def run_traced(self) -> dict:
        self.prepare(setup=False)
        loads = []
        for _ in range(5):
            start = time.perf_counter()
            self.rs.corpus.load_corpus_config(self.inputs.config_path)
            loads.append((time.perf_counter() - start) * 1000.0)
        tracer = tracing.Tracer()
        parsed = sum(len(t.nodes) for t in self.inputs.tests if not t.as_tree_document)
        if self.inputs.synthetic_names:
            parsed += _synthetic_statements(self.rs)
        untraced, figures, spans = [], [], []
        started = time.monotonic()
        while not figures or self.keep_going(started, len(untraced) + len(figures)):
            untraced.append(self.timed_pass()[0])
            before = _mtimes(self.inputs.output_dir)
            tracer.install()
            try:
                wall = self.timed_pass()[0]
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            figures.append(tracing.pass_figures(
                spans, counts, wall, self.inputs.parallelism, parsed,
                STANDIN_WAIT_S * 1000.0))
        bundle = self.last[0]
        trace = bundle.reduction_reports
        extra = {
            "accepted": sum(1 for r in trace for t in r["trace"]
                            if t["decision"] == "accepted"),
            "passes": sum(r["passes"] for r in trace),
            "files_written": sum(1 for path, mtime in _mtimes(self.inputs.output_dir).items()
                                 if before.get(path) != mtime),
            "load_config_ms": statistics.median(loads),
            "untraced_wall_s": statistics.median(untraced),
            "probe_ms": statistics.median(self.probe.samples) * 1000.0,
        }
        WORK.mkdir(exist_ok=True)
        tracing.write_spans(spans, WORK / f"spans-{self.name}-{self.inputs.seed}.jsonl")
        self.check_outputs()
        metrics, self.unmeasured = tracing.layer_metrics(
            figures, extra, tracer.missing, self.command_oracle)
        print("unmeasured:", json.dumps(self.unmeasured))
        return self.result(metrics)

    def result(self, metrics: dict) -> dict:
        for error in self.errors[:20]:
            print(f"check failed: {error}", file=sys.stderr)
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    # -- correctness ----------------------------------------------------------------

    def check_outputs(self) -> None:
        """Check the files the latest pass wrote, and its replicated tables."""
        bundle, tables = self.last
        out = self.inputs.output_dir
        errors = self.errors
        if bundle.entry_errors:
            errors += [f"entry {s.name}: {s.error}" for s in bundle.entry_statuses
                       if not s.ok]
        metrics_csv = (out / "metrics.csv").read_text("utf-8")
        rows = checks.read_csv_rows(metrics_csv)
        reports = {}
        for path in (out / "reductions").glob("*.json"):
            report = json.loads(path.read_text("utf-8"))
            reports[report["test_name"]] = report
        for test in self.inputs.tests:
            report = reports.get(test.name)
            if report is None:
                errors.append(f"{test.name}: no reduction report written")
                continue
            retained = frozenset(report["retained"])
            errors += checks.check_reduction(test, retained)
            errors += checks.check_metrics_row(test, rows.get(test.name), retained)
        if len(reports) != len(self.config.entries):
            errors.append(f"{len(reports)} reduction reports for "
                          f"{len(self.config.entries)} entries")
        if self.inputs.synthetic_names:
            expected = (synthetic_dir(ROOT) / "expected_metrics.csv").read_text("utf-8")
            errors += checks.check_synthetic_rows(metrics_csv,
                                                  self.inputs.synthetic_names, expected)
        stats = json.loads((out / "stats.json").read_text("utf-8"))
        errors += checks.check_stats_block(
            "corpus", stats, checks.percent_vectors(rows.values(), from_counts=True))
        for table, replicated in zip(("I", "II"), tables):
            errors += checks.check_published_v(table, replicated.stats)
            fixture = (ROOT / "src" / "redustat" / "data" /
                       f"table{1 if table == 'I' else 2}.csv").read_text("utf-8")
            errors += checks.check_stats_block(
                f"table {table}", replicated.stats,
                checks.percent_vectors(checks.read_csv_rows(fixture).values(),
                                       from_counts=False))


def _mtimes(directory: Path) -> dict[Path, int]:
    return {p: p.stat().st_mtime_ns for p in directory.rglob("*") if p.is_file()}


def _reported_calls(bundle) -> int:
    return sum(r["oracle_calls"] for r in bundle.reduction_reports)


def _synthetic_statements(redustat) -> int:
    corpus = redustat.corpus.load_corpus_config(synthetic_dir(ROOT) / "corpus.json")
    return sum(len(entry.load_ast().statements) for entry in corpus.entries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    redustat = _load_program()
    if redustat is None:
        print(f"redustat sources not found under {ROOT / 'src'}; run from the "
              f"root of a redustat checkout", file=sys.stderr)
        return 2
    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    (base / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(base / "tmp")   # the program's scratch files stay here
    try:
        inputs = write_inputs(args.workload, args.seed, base, ROOT)
        bench = Bench(redustat, args.workload, inputs, args.seconds)
        result = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        tempfile.tempdir = None
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
