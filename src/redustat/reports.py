"""Report bundles: metric tables, statistics block, boxplot data, claims.

A bundle collects everything one corpus run (or one fixture replication)
produces. Written to a directory it becomes:

- ``metrics.csv``   per-test records in the fixed column order
- ``means.csv``     column means, with excluded-row counts for the
  probability columns
- ``stats.json``    Shapiro-Wilk per column, both paired Wilcoxon tests,
  and the claim verdict lines
- ``boxplot.json``  five-number summaries (plus outliers) per column
- ``report.json``   provenance, per-entry statuses, claim lines
- ``reductions/<name>.json``  one reduction report per ok entry, with its
  removal trace, as one line of JSON (``python -m json.tool`` pretty-prints
  it); the other JSON files are indented. Writing removes every other
  ``reductions/*.json``, so no report outlives its entry's failure or removal.
  A report's ``trace`` is the reducer's read-only
  :class:`~redustat.reducer.Trace`, 8 bytes per oracle call while the bundle
  is held, whose items read as fresh dicts. It is written from its codes with
  the bytes ``json.dumps`` gives its list of entries.

Each file is written over in place, never cut to zero: a longer file is cut
to the new length first, then the text goes in one write call. A process
stopped mid-rewrite leaves no new bytes followed by an old tail; a power loss
may leave any mix of old and new bytes.

Identical inputs give byte-identical files, except ``report.json`` whose
provenance carries a timestamp (and, after live reductions, wall times in
the per-test reduction reports).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

from .metrics import (
    PERCENT_COLUMNS,
    aggregate_means,
    percent_samples,
    records_to_csv,
    summary_to_csv,
)
from .reducer import Trace
from .stats import (
    AllZeroDifferencesError,
    StatsError,
    StatsResult,
    TooFewSamplesError,
    shapiro_wilk,
    wilcoxon_signed_rank,
)

SIGNIFICANCE_LEVEL = 0.05


# -- boxplot data -------------------------------------------------------------


def five_number_summary(values: Sequence[float]) -> dict:
    """A ``boxplot.json`` column: min, quartiles, max, sorted 1.5-IQR outliers.

    The column is sorted once. Each quartile is R's type 7: it interpolates
    linearly between the order statistics around position ``(n - 1) * q``.
    """
    if not values:
        raise ValueError("summary of empty data")
    data = sorted(values)

    def quartile(q: float) -> float:
        position = (len(data) - 1) * q
        low = int(position)
        frac = position - low
        if frac == 0.0:
            return data[low]
        return data[low] + (data[low + 1] - data[low]) * frac

    q1, med, q3 = quartile(0.25), quartile(0.5), quartile(0.75)
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    outliers = [v for v in data if v < lo or v > hi]
    return {"min": data[0], "q1": q1, "median": med, "q3": q3,
            "max": data[-1], "outliers": outliers}


def boxplot_table(records: Sequence[dict]) -> dict[str, dict]:
    """``boxplot.json``: five-number summaries per metric column, in percent.

    Undefined probability cells are excluded from their column, matching the
    published tables.
    """
    if not records:
        raise ValueError("no records to summarize")
    table = {}
    for column in PERCENT_COLUMNS:
        [values] = percent_samples(records, [column])
        if values:
            table[column] = five_number_summary(values)
    return table


# -- statistics block and claims ----------------------------------------------


def _try(test: Callable[..., StatsResult], *samples: list[float]) -> dict:
    """The test's result, or why it was skipped."""
    try:
        result = test(*samples)
    except TooFewSamplesError:
        return {"skipped": "insufficient n"}
    except AllZeroDifferencesError:
        return {"skipped": "all differences zero"}
    except StatsError as exc:
        return {"skipped": str(exc)}
    return asdict(result)


def _claim_line(number: int, description: str, comparison: str,
                wilcoxon: dict, leaf_mean: float, tree_mean: float) -> str:
    """Both claims assert the leaf-side column exceeds the tree-side one."""
    if "skipped" in wilcoxon:
        return (f"claim {number} ({description}): NOT EVALUATED "
                f"({comparison}: {wilcoxon['skipped']})")
    p = wilcoxon["p_value"]
    v = wilcoxon["statistic"]
    if p >= SIGNIFICANCE_LEVEL:
        verdict, finding = "FAIL", "no significant difference"
    elif leaf_mean > tree_mean:
        verdict, finding = "PASS", "significant difference"
    else:
        verdict, finding = "FAIL", "significant difference, opposite direction"
    return (f"claim {number} ({description}): {verdict} "
            f"({finding} between {comparison}: V={v:g}, p={p:.4g})")


def stats_block(records: Sequence[dict]) -> dict:
    """Shapiro-Wilk per column, the two paired Wilcoxon tests, claim lines.

    All columns are fed to the tests in percent units, as printed in the
    source tables. The probability comparison pairs only rows where both
    probabilities are defined.
    """
    pntrs, ptrs = percent_samples(records, ["pntrs", "ptrs"])
    prntrs, prtrs = percent_samples(records, ["prntrs", "prtrs"])

    block = {
        "shapiro": {
            "pntrs": _try(shapiro_wilk, pntrs),
            "ptrs": _try(shapiro_wilk, ptrs),
            "prntrs": _try(shapiro_wilk, prntrs),
            "prtrs": _try(shapiro_wilk, prtrs),
        },
        "wilcoxon": {
            "pntrs_vs_ptrs": _try(wilcoxon_signed_rank, pntrs, ptrs),
            "prntrs_vs_prtrs": _try(wilcoxon_signed_rank, prntrs, prtrs),
        },
        "probability_rows_used": len(prntrs),
        "probability_rows_excluded": len(records) - len(prntrs),
    }
    def mean(values):
        return sum(values) / len(values) if values else 0.0

    block["claims"] = [
        _claim_line(1, "leaf statements are removed in large numbers",
                    "PNTRS and PTRS", block["wilcoxon"]["pntrs_vs_ptrs"],
                    mean(pntrs), mean(ptrs)),
        _claim_line(2, "leaf statements are more likely to be removed",
                    "PrNTRS and PrTRS", block["wilcoxon"]["prntrs_vs_prtrs"],
                    mean(prntrs), mean(prtrs)),
    ]
    return block


# -- the bundle ---------------------------------------------------------------


@dataclass(frozen=True)
class EntryStatus:
    name: str
    ok: bool
    error: str = ""


@dataclass
class ReportBundle:
    corpus_name: str
    records: list[dict]
    means: dict
    stats: dict
    boxplot: dict[str, dict]
    provenance: dict
    entry_statuses: list[EntryStatus] = field(default_factory=list)
    #: One report per ok entry status, in the same order; each is written
    #: to ``reductions/<entry name>.json``.
    reduction_reports: list[dict] = field(default_factory=list)

    @property
    def entry_errors(self) -> int:
        return sum(1 for status in self.entry_statuses if not status.ok)

    def write(self, output_dir: str | Path) -> Path:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _rewrite(out / "metrics.csv", records_to_csv(self.records))
        _rewrite(out / "means.csv", summary_to_csv(self.means))
        _rewrite(out / "stats.json", _dump_json(self.stats))
        _rewrite(out / "boxplot.json", _dump_json(self.boxplot))
        report = {
            "corpus_name": self.corpus_name,
            "provenance": self.provenance,
            "entries": [asdict(status) for status in self.entry_statuses],
            "claims": self.stats["claims"],
            "records": len(self.records),
            "errors": self.entry_errors,
        }
        _rewrite(out / "report.json", _dump_json(report))
        reductions = out / "reductions"
        written = set()
        if self.reduction_reports:
            reductions.mkdir(exist_ok=True)
            names = [status.name for status in self.entry_statuses if status.ok]
            for name, reduction in zip(names, self.reduction_reports, strict=True):
                path = reductions / f"{name}.json"
                _rewrite(path, dump_reduction_report(reduction))
                written.add(path.name)
        # A report left by an earlier run, of an entry that failed this time
        # or is no longer configured, would contradict report.json.
        if reductions.is_dir():
            for path in reductions.iterdir():
                if path.suffix == ".json" and path.name not in written:
                    path.unlink()
        return out


def assemble_bundle(corpus_name: str, records: Sequence[dict],
                    provenance_source: str,
                    entry_statuses: Sequence[EntryStatus] = (),
                    reduction_reports: Sequence[dict] = ()) -> ReportBundle:
    records = list(records)
    return ReportBundle(
        corpus_name=corpus_name,
        records=records,
        means=aggregate_means(records),
        stats=stats_block(records),
        boxplot=boxplot_table(records),
        provenance=make_provenance(provenance_source),
        entry_statuses=list(entry_statuses),
        reduction_reports=list(reduction_reports),
    )


def make_provenance(source: str) -> dict:
    from . import __version__

    return {
        "tool": "redustat",
        "tool_version": __version__,
        "config_hash": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def _rewrite(path: str | Path, text: str) -> None:
    """Write ``text`` over ``path`` in UTF-8. Only a longer file is cut, and
    before the write; a new file, a pipe or /dev/null has size 0. A new file
    is created as ``open(path, "w")`` would create it."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def dump_reduction_report(report: dict) -> str:
    """One line of JSON: ``indent`` would swap in json's pure-Python encoder.
    A fresh ``to_report`` dict holds no cycle to check for. A
    :class:`~redustat.reducer.Trace` writes its own text, with the bytes that
    ``json.dumps`` gives its list of entries, between the sorted keys."""
    trace = report.get("trace")
    if not isinstance(trace, Trace):
        return json.dumps(report, sort_keys=True, check_circular=False) + "\n"
    head = {key: value for key, value in report.items() if key < "trace"}
    tail = {key: value for key, value in report.items() if key > "trace"}
    fields = [json.dumps(part, sort_keys=True, check_circular=False)[1:-1]
              for part in (head, tail)]
    fields.insert(1, '"trace": ' + trace.to_json())
    return "{" + ", ".join(filter(None, fields)) + "}\n"
