"""Spans and counters at redustat's layer boundaries, recorded from outside.

Hooks wrap module attributes of the program (functions, and two methods) for
the length of a traced pass and put the originals back afterwards. A hook
point that no longer exists is not an error: every metric that needs it reads
0 and is listed as ``unmeasured`` with the missing name.

A span is ``(id, name, start, end, parent id, entry, extra)``. The parent is
the innermost open span of the same thread; ``entry`` is the corpus entry the
thread is reducing. Spans stay in memory for one pass and are turned into
per-layer figures right after it; the last traced pass's spans are written out
when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

#: (span name, module, attribute path). Names group hooks into layers.
SPAN_HOOKS = (
    ("corpus.entry", "redustat.corpus", "_run_entry"),
    ("parser.parse", "redustat.corpus", "parse_test"),
    ("parser.tokenize", "redustat.parser", "tokenize"),
    ("ingest.ingest", "redustat.corpus", "ingest_tree"),
    ("reducer.reduce", "redustat.corpus", "reduce_test"),
    ("reducer.sweep", "redustat.reducer", "_sweep"),
    ("oracle.baseline", "redustat.oracle", "evaluate"),
    ("oracle.candidate", "redustat.reducer", "evaluate"),
    ("oracle.external", "redustat.oracle", "_run_external_once"),
    ("oracle.normalize", "redustat.oracle", "normalize_signature"),
    ("model.render", "redustat.reducer", "render"),
    ("metrics.from_reduction", "redustat.corpus", "metrics_from_reduction"),
    ("metrics.records_csv", "redustat.reports", "records_to_csv"),
    ("metrics.summary_csv", "redustat.reports", "summary_to_csv"),
    ("stats.wilcoxon", "redustat.reports", "wilcoxon_signed_rank"),
    ("stats.shapiro", "redustat.reports", "shapiro_wilk"),
    ("reports.assemble", "redustat.corpus", "assemble_bundle"),
    ("reports.assemble", "redustat.replicate", "assemble_bundle"),
    ("reports.write", "redustat.reports", "ReportBundle.write"),
    ("replicate.table", "redustat.replicate", "replicate_from_fixtures"),
)
#: (counter name, module, attribute path): counted, not timed.
COUNT_HOOKS = (
    ("model.subtree_ids", "redustat.model", "TestCaseAst.subtree_ids"),
)


def resolve(module: str, path: str):
    """``(owner, attribute, value)`` of a hook point, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: dict[str, list[str]] = {}   # span name -> absent hooks
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = Patches()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        hooks = [(h, self._span_wrapper) for h in SPAN_HOOKS]
        hooks += [(h, self._count_wrapper) for h in COUNT_HOOKS]
        for (name, module, path), wrap in hooks:
            found = resolve(module, path)
            if found is None:
                absent = self.missing.setdefault(name, [])
                if f"{module}.{path}" not in absent:
                    absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            self._patches.replace(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        self._patches.restore()

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over and forget the spans and counts recorded so far."""
        spans, self.spans = self.spans, []
        counts = Counter(self.counts)
        self.counts.clear()
        return spans, counts

    # -- wrappers -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.entry = None
        return stack

    def _span_wrapper(self, name: str, original):
        tracer = self
        is_entry = name == "corpus.entry"
        is_candidate = name == "oracle.candidate"

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            entry = getattr(args[0], "name", None) if is_entry else tracer._local.entry
            tracer._local.entry = entry
            stack.append(span_id)
            extra = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_entry:
                    tracer._local.entry = None
            if is_candidate and args:
                candidate = args[1] if len(args) > 1 else None
                key = (hash(candidate), len(candidate)) if candidate is not None else None
                extra = (key, getattr(getattr(result, "status", None), "value", None))
            elif name == "oracle.baseline":
                extra = (None, getattr(getattr(result, "status", None), "value", None))
            elif name == "reducer.sweep" and isinstance(result, tuple):
                extra = bool(result[-1])
            tracer.spans.append((span_id, name, start, end, parent, entry, extra))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _count_wrapper(self, name: str, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper


def write_spans(spans: list[tuple], path: Path) -> None:
    fields = ("id", "name", "start", "end", "parent", "entry", "extra")
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(fields, span)), default=str) + "\n")


# -- per-layer figures -----------------------------------------------------------


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' quantile definition)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * p / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def pass_figures(spans: list[tuple], counts: Counter, wall_s: float,
                 workers: int, parsed_statements: int, standin_wait_ms: float) -> dict:
    """Per-layer figures of one traced pass: totals, counts and samples."""
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def total_ms(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name.get(name, ())) * 1000.0

    def durations_ms(name: str) -> list[float]:
        return [(s[3] - s[2]) * 1000.0 for s in by_name.get(name, ())]

    candidates = by_name.get("oracle.candidate", [])
    baselines = by_name.get("oracle.baseline", [])
    evaluations = candidates + baselines
    statuses = Counter(s[6][1] for s in evaluations if s[6])
    seen: dict[object, set] = {}
    repeats = 0
    for span in sorted(candidates, key=lambda s: s[2]):
        keys = seen.setdefault(span[5], set())
        if span[6][0] in keys:
            repeats += 1
        keys.add(span[6][0])
    certifying = {s[0] for s in by_name.get("reducer.sweep", []) if s[6] is False}
    children: dict[int, float] = {}
    for span in spans:
        children[span[4]] = children.get(span[4], 0.0) + (span[3] - span[2])
    entries = by_name.get("corpus.entry", [])
    entry_ms = [(s[3] - s[2]) * 1000.0 for s in entries]
    entry_self_ms = [((s[3] - s[2]) - children.get(s[0], 0.0)) * 1000.0 for s in entries]
    reduce_ms = total_ms("reducer.reduce")
    eval_ms = total_ms("oracle.candidate") + total_ms("oracle.baseline")
    external = durations_ms("oracle.external")
    return {
        "parser.parse_ms": total_ms("parser.parse"),
        "parser.tokenize_ms": total_ms("parser.tokenize"),
        "parser.parsed_statements": parsed_statements if by_name.get("parser.parse") else 0,
        "ingest.ingest_ms": total_ms("ingest.ingest"),
        "model.subtree_ids_calls": counts.get("model.subtree_ids", 0),
        "model.render_calls": len(by_name.get("model.render", ())),
        "model.render_ms": total_ms("model.render"),
        "reducer.self_ms": reduce_ms - eval_ms,
        "reducer.candidates": len(candidates),
        "reducer.certification_calls": sum(1 for s in candidates if s[4] in certifying),
        "reducer.repeat_candidates": repeats,
        "oracle.calls_fail": statuses.get("Fail", 0),
        "oracle.calls_pass": statuses.get("Pass", 0),
        "oracle.calls_invalid": statuses.get("Invalid", 0),
        "oracle.eval_samples_ms": [(s[3] - s[2]) * 1000.0 for s in evaluations],
        "oracle.spawn_overhead_samples_ms": [d - standin_wait_ms for d in external],
        "oracle.normalize_calls": len(by_name.get("oracle.normalize", ())),
        "oracle.normalize_ms": total_ms("oracle.normalize"),
        "metrics.from_reduction_ms": total_ms("metrics.from_reduction"),
        "metrics.csv_ms": total_ms("metrics.records_csv") + total_ms("metrics.summary_csv"),
        "stats.wilcoxon_ms": total_ms("stats.wilcoxon"),
        "stats.shapiro_ms": total_ms("stats.shapiro"),
        "reports.assemble_ms": total_ms("reports.assemble"),
        "reports.write_ms": total_ms("reports.write"),
        "replicate.table_ms": total_ms("replicate.table"),
        "replicate.calls": len(by_name.get("replicate.table", ())),
        "corpus.entries": len(entries),
        "corpus.entry_self_ms": sum(entry_self_ms),
        "corpus.worker_busy_ratio": (sum(entry_ms) / 1000.0) / (wall_s * workers),
        "wall_s": wall_s,
    }


#: Hooks each per-layer metric depends on (span or counter names).
NEEDS = {
    "parser.parse_ms": ("parser.parse",),
    "parser.tokenize_ms": ("parser.tokenize",),
    "parser.us_per_stmt": ("parser.parse",),
    "ingest.ingest_ms": ("ingest.ingest",),
    "model.subtree_ids_calls": ("model.subtree_ids",),
    "model.render_calls": ("model.render",),
    "model.render_us": ("model.render",),
    "reducer.self_ms": ("reducer.reduce", "oracle.candidate", "oracle.baseline"),
    "reducer.overhead_us_per_candidate": ("reducer.reduce", "oracle.candidate",
                                          "oracle.baseline"),
    "reducer.candidates": ("oracle.candidate",),
    "reducer.accepted": (),
    "reducer.accept_ratio": ("oracle.candidate",),
    "reducer.passes": (),
    "reducer.certification_calls": ("reducer.sweep", "oracle.candidate"),
    "reducer.repeat_candidates": ("oracle.candidate", "corpus.entry"),
    "oracle.calls_fail": ("oracle.candidate", "oracle.baseline"),
    "oracle.calls_pass": ("oracle.candidate", "oracle.baseline"),
    "oracle.calls_invalid": ("oracle.candidate", "oracle.baseline"),
    "oracle.eval_ms_p50": ("oracle.candidate", "oracle.baseline"),
    "oracle.eval_ms_tail": ("oracle.candidate", "oracle.baseline"),
    "oracle.spawn_overhead_ms": ("oracle.external",),
    "oracle.normalize_us": ("oracle.normalize",),
    "oracle.scripted_eval_us": ("oracle.candidate", "oracle.baseline"),
    "metrics.from_reduction_ms": ("metrics.from_reduction",),
    "metrics.csv_ms": ("metrics.records_csv", "metrics.summary_csv"),
    "stats.wilcoxon_ms": ("stats.wilcoxon",),
    "stats.shapiro_ms": ("stats.shapiro",),
    "reports.assemble_ms": ("reports.assemble",),
    "reports.write_ms": ("reports.write",),
    "reports.files_written": (),
    "replicate.table_ms": ("replicate.table",),
    "corpus.load_config_ms": (),
    "corpus.entry_overhead_ms": ("corpus.entry", "parser.parse", "ingest.ingest",
                                 "reducer.reduce", "metrics.from_reduction"),
    "corpus.worker_busy_ratio": ("corpus.entry",),
    "trace.overhead_s": (),
    "bench.wall_measured_s": (),
    "bench.probe_ms": (),
}

UNITS = {
    "parser.parse_ms": "ms", "parser.tokenize_ms": "ms", "parser.us_per_stmt": "us",
    "ingest.ingest_ms": "ms", "model.subtree_ids_calls": "count",
    "model.render_calls": "count", "model.render_us": "us", "reducer.self_ms": "ms",
    "reducer.overhead_us_per_candidate": "us", "reducer.candidates": "count",
    "reducer.accepted": "count", "reducer.accept_ratio": "ratio",
    "reducer.passes": "count", "reducer.certification_calls": "count",
    "reducer.repeat_candidates": "count", "oracle.calls_fail": "count",
    "oracle.calls_pass": "count", "oracle.calls_invalid": "count",
    "oracle.eval_ms_p50": "ms", "oracle.eval_ms_tail": "ms",
    "oracle.spawn_overhead_ms": "ms", "oracle.normalize_us": "us",
    "oracle.scripted_eval_us": "us", "metrics.from_reduction_ms": "ms",
    "metrics.csv_ms": "ms", "stats.wilcoxon_ms": "ms", "stats.shapiro_ms": "ms",
    "reports.assemble_ms": "ms", "reports.write_ms": "ms",
    "reports.files_written": "count", "replicate.table_ms": "ms",
    "corpus.load_config_ms": "ms", "corpus.entry_overhead_ms": "ms",
    "corpus.worker_busy_ratio": "ratio", "trace.overhead_s": "s",
    "bench.wall_measured_s": "s", "bench.probe_ms": "ms",
}



def layer_metrics(passes: list[dict], extra: dict, missing: dict[str, list[str]],
                  command_oracle: bool) -> tuple[dict, dict[str, str]]:
    """Per-layer metrics over the traced passes (medians of per-pass values).

    Returns the metrics, each ``{"value", "unit"}``, and the reason for every
    metric that could not be measured (its value is then 0).

    ``extra`` holds figures measured outside the spans: accepted and passes
    from the reduction reports, files written, config-load time, the
    untraced wall time of the same run and the reference operation's time.
    Times here are as measured, not rescaled.
    """
    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    def pooled(key: str) -> list[float]:
        return [v for p in passes for v in p[key]]

    out: dict[str, dict] = {}
    unmeasured: dict[str, str] = {}

    def put(name: str, value, reason: str | None = None) -> None:
        absent = sorted(h for n in NEEDS[name] for h in missing.get(n, ()))
        if absent:
            reason = "hook not found: " + ", ".join(absent)
        out[name] = {"value": 0 if reason else value, "unit": UNITS[name]}
        if reason:
            unmeasured[name] = reason

    def per_call(total_key: str, calls_key: str, scale: float, what: str, name: str) -> None:
        calls = med(calls_key)
        put(name, med(total_key) * scale / calls if calls else 0,
            None if calls else f"no {what} in this workload")

    candidates = med("reducer.candidates")
    put("parser.parse_ms", med("parser.parse_ms"))
    put("parser.tokenize_ms", med("parser.tokenize_ms"))
    per_call("parser.parse_ms", "parser.parsed_statements", 1000.0,
             "parsed statements", "parser.us_per_stmt")
    put("ingest.ingest_ms", med("ingest.ingest_ms"))
    put("model.subtree_ids_calls", med("model.subtree_ids_calls"))
    put("model.render_calls", med("model.render_calls"))
    per_call("model.render_ms", "model.render_calls", 1000.0, "render calls",
             "model.render_us")
    put("reducer.self_ms", med("reducer.self_ms"))
    per_call("reducer.self_ms", "reducer.candidates", 1000.0, "candidates",
             "reducer.overhead_us_per_candidate")
    put("reducer.candidates", candidates)
    put("reducer.accepted", extra["accepted"])
    put("reducer.accept_ratio", extra["accepted"] / candidates if candidates else 0,
        None if candidates else "no candidates in this workload")
    put("reducer.passes", extra["passes"])
    put("reducer.certification_calls", med("reducer.certification_calls"))
    put("reducer.repeat_candidates", med("reducer.repeat_candidates"))
    put("oracle.calls_fail", med("oracle.calls_fail"))
    put("oracle.calls_pass", med("oracle.calls_pass"))
    put("oracle.calls_invalid", med("oracle.calls_invalid"))
    samples = pooled("oracle.eval_samples_ms")
    put("oracle.eval_ms_p50", statistics.median(samples) if samples else 0,
        None if samples else "no oracle evaluations")
    tail = tail_percentile(len(samples))
    put("oracle.eval_ms_tail", percentile(samples, tail) if tail else 0,
        None if tail else "fewer than ten oracle evaluations")
    spawn = pooled("oracle.spawn_overhead_samples_ms")
    put("oracle.spawn_overhead_ms", statistics.median(spawn) if spawn else 0,
        None if spawn else "no external oracle runs in this workload")
    per_call("oracle.normalize_ms", "oracle.normalize_calls", 1000.0,
             "signature normalisations", "oracle.normalize_us")
    scripted = samples if not command_oracle else []
    put("oracle.scripted_eval_us",
        statistics.mean(scripted) * 1000.0 if scripted else 0,
        None if scripted else "no scripted oracle evaluations in this workload")
    put("metrics.from_reduction_ms", med("metrics.from_reduction_ms"))
    put("metrics.csv_ms", med("metrics.csv_ms"))
    put("stats.wilcoxon_ms", med("stats.wilcoxon_ms"))
    put("stats.shapiro_ms", med("stats.shapiro_ms"))
    put("reports.assemble_ms", med("reports.assemble_ms"))
    put("reports.write_ms", med("reports.write_ms"))
    put("reports.files_written", extra["files_written"])
    put("replicate.table_ms", med("replicate.table_ms"),
        None if med("replicate.calls") else "no table replication in this workload")
    put("corpus.load_config_ms", extra["load_config_ms"])
    per_call("corpus.entry_self_ms", "corpus.entries", 1.0, "corpus entries",
             "corpus.entry_overhead_ms")
    put("corpus.worker_busy_ratio", med("corpus.worker_busy_ratio"))
    put("trace.overhead_s", med("wall_s") - extra["untraced_wall_s"])
    put("bench.wall_measured_s", extra["untraced_wall_s"])
    put("bench.probe_ms", extra["probe_ms"])
    return out, unmeasured
