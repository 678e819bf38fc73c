"""Reduction-size metrics per test, plus corpus means and CSV transport.

Eight quantities are recorded per reduced test. With ``stmts`` statements in
the original test, split into ``ntn`` leaves and ``tn`` tree statements, and
``antrs``/``atrs`` removed from each category:

====== =============================================================
ars    statements removed (``antrs + atrs``)
prs    ``ars / stmts``, removed fraction of the whole test
antrs  leaf statements removed
pntrs  ``antrs / stmts``, leaf removals as a fraction of the test
atrs   tree statements removed
ptrs   ``atrs / stmts``, tree removals as a fraction of the test
prntrs ``antrs / ntn``, removal probability of a leaf (absent if no leaves)
prtrs  ``atrs / tn``, removal probability of a tree stmt (absent if none)
====== =============================================================

All three percentage-of-test quantities share the ``stmts`` denominator; the
two removal probabilities use their own category count and are stored as
``None`` (never 0 or NaN) when that count is zero, so exclusion from
downstream statistics is explicit.

Fractions are kept at full precision and rendered only at report time, as
percentages with two decimals, round-half-up.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path
from typing import Iterable, Sequence

from .model import TestCaseAst, count_categories
from .reducer import ReductionOutcome


class CountMismatchError(ValueError):
    """Removal counts inconsistent with category totals."""


class EmptyCorpusError(ValueError):
    """An aggregate was requested over zero records."""


class CsvSchemaError(ValueError):
    """A metrics CSV does not match the expected column layout."""


#: Fixed CSV column order of the metrics schema.
CSV_COLUMNS = ("test", "project", "stmts", "ntn", "tn", "ars", "prs",
               "antrs", "pntrs", "atrs", "ptrs", "prntrs", "prtrs")

#: Columns carrying fractions, rendered as percentages.
PERCENT_COLUMNS = ("prs", "pntrs", "ptrs", "prntrs", "prtrs")


@dataclass(frozen=True)
class MetricsRecord:
    test_name: str
    project: str
    stmts: int
    ntn: int
    tn: int
    ars: int
    prs: float
    antrs: int
    pntrs: float
    atrs: int
    ptrs: float
    prntrs: float | None
    prtrs: float | None


@dataclass(frozen=True)
class MeanSummary:
    """Column means over a corpus.

    The probability columns are averaged only over records where they are
    defined; ``prntrs_excluded``/``prtrs_excluded`` say how many records the
    filter dropped.
    """

    n: int
    stmts: float
    ntn: float
    tn: float
    ars: float
    prs: float
    antrs: float
    pntrs: float
    atrs: float
    ptrs: float
    prntrs: float | None
    prtrs: float | None
    prntrs_excluded: int
    prtrs_excluded: int


def compute_metrics(counts: tuple[int, int, int], removal: tuple[int, int],
                    test_name: str = "", project: str = "") -> MetricsRecord:
    """Build a record from category totals and per-category removal counts.

    ``counts`` is ``(stmts, ntn, tn)``; ``removal`` is ``(antrs, atrs)``.
    Raises :class:`CountMismatchError` when the counts cannot have come from
    one test.
    """
    stmts, ntn, tn = counts
    antrs, atrs = removal
    if stmts != ntn + tn:
        raise CountMismatchError(f"stmts={stmts} != ntn+tn={ntn + tn}")
    if not 0 <= antrs <= ntn:
        raise CountMismatchError(f"antrs={antrs} outside [0, ntn={ntn}]")
    if not 0 <= atrs <= tn:
        raise CountMismatchError(f"atrs={atrs} outside [0, tn={tn}]")
    ars = antrs + atrs
    return MetricsRecord(
        test_name=test_name,
        project=project,
        stmts=stmts,
        ntn=ntn,
        tn=tn,
        ars=ars,
        prs=ars / stmts if stmts else 0.0,
        antrs=antrs,
        pntrs=antrs / stmts if stmts else 0.0,
        atrs=atrs,
        ptrs=atrs / stmts if stmts else 0.0,
        prntrs=antrs / ntn if ntn else None,
        prtrs=atrs / tn if tn else None,
    )


def metrics_from_reduction(ast: TestCaseAst, outcome: ReductionOutcome,
                           project: str | None = None) -> MetricsRecord:
    """Record for one finished reduction."""
    return compute_metrics(
        count_categories(ast),
        (outcome.removed_ntn, outcome.removed_tn),
        test_name=ast.test_name,
        project=ast.project if project is None else project,
    )


def aggregate_means(records: Sequence[MetricsRecord]) -> MeanSummary:
    """Arithmetic mean of every column; probabilities over defined rows only."""
    if not records:
        raise EmptyCorpusError("cannot aggregate an empty corpus")
    n = len(records)

    def mean(values: Iterable[float]) -> float:
        values = list(values)
        return sum(values) / len(values)

    prntrs_rows = [r.prntrs for r in records if r.prntrs is not None]
    prtrs_rows = [r.prtrs for r in records if r.prtrs is not None]
    return MeanSummary(
        n=n,
        stmts=mean(r.stmts for r in records),
        ntn=mean(r.ntn for r in records),
        tn=mean(r.tn for r in records),
        ars=mean(r.ars for r in records),
        prs=mean(r.prs for r in records),
        antrs=mean(r.antrs for r in records),
        pntrs=mean(r.pntrs for r in records),
        atrs=mean(r.atrs for r in records),
        ptrs=mean(r.ptrs for r in records),
        prntrs=mean(prntrs_rows) if prntrs_rows else None,
        prtrs=mean(prtrs_rows) if prtrs_rows else None,
        prntrs_excluded=n - len(prntrs_rows),
        prtrs_excluded=n - len(prtrs_rows),
    )


# -- CSV transport -----------------------------------------------------------


def format_percent(fraction: float | None) -> str:
    """Render a fraction as a percentage with two decimals, round-half-up.

    ``None`` (undefined probability) renders as the empty cell.
    """
    if fraction is None:
        return ""
    quantized = Decimal(repr(fraction * 100)).quantize(Decimal("0.01"),
                                                       rounding=ROUND_HALF_UP)
    return f"{quantized:.2f}"


def record_to_row(record: MetricsRecord) -> list[str]:
    return [
        record.test_name,
        record.project,
        str(record.stmts),
        str(record.ntn),
        str(record.tn),
        str(record.ars),
        format_percent(record.prs),
        str(record.antrs),
        format_percent(record.pntrs),
        str(record.atrs),
        format_percent(record.ptrs),
        format_percent(record.prntrs),
        format_percent(record.prtrs),
    ]


def records_to_csv(records: Sequence[MetricsRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record_to_row(record))
    return buffer.getvalue()


def write_records_csv(records: Sequence[MetricsRecord], path: str | Path) -> None:
    Path(path).write_text(records_to_csv(records), encoding="utf-8")


def read_records_csv(text: str,
                     derive_probabilities: bool = False) -> list[MetricsRecord]:
    """Load metrics records from CSV text.

    Fixture rows are carried verbatim, without cross-column consistency
    checks, because published tables are transcribed as printed, typos
    included.
    With ``derive_probabilities`` set, empty probability cells are filled
    from the count columns at full precision (``antrs/ntn``, ``atrs/tn``)
    whenever the denominator is non-zero.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvSchemaError("empty CSV") from None
    if tuple(header) != CSV_COLUMNS:
        raise CsvSchemaError(f"expected columns {','.join(CSV_COLUMNS)}, "
                             f"found {','.join(header)}")
    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise CsvSchemaError(f"line {line_no}: expected "
                                 f"{len(CSV_COLUMNS)} cells, found {len(row)}")
        try:
            percents = [parse_cell(row[i]) for i in (6, 8, 10, 11, 12)]
            prs, pntrs, ptrs, prntrs, prtrs = (
                None if value is None else value / 100.0 for value in percents)
            record = MetricsRecord(
                test_name=row[0],
                project=row[1],
                stmts=int(row[2]),
                ntn=int(row[3]),
                tn=int(row[4]),
                ars=int(row[5]),
                prs=prs or 0.0,
                antrs=int(row[7]),
                pntrs=pntrs or 0.0,
                atrs=int(row[9]),
                ptrs=ptrs or 0.0,
                prntrs=prntrs,
                prtrs=prtrs,
            )
        except ValueError as exc:
            raise CsvSchemaError(f"line {line_no}: {exc}") from None
        if derive_probabilities:
            record = derive_record_probabilities(record)
        records.append(record)
    return records


def derive_record_probabilities(record: MetricsRecord) -> MetricsRecord:
    """Fill empty probability cells from counts, at full float precision."""
    updates = {}
    if record.prntrs is None and record.ntn > 0:
        updates["prntrs"] = record.antrs / record.ntn
    if record.prtrs is None and record.tn > 0:
        updates["prtrs"] = record.atrs / record.tn
    return replace(record, **updates) if updates else record


def parse_cell(cell: str) -> float | None:
    """A numeric cell as printed: trailing ``%`` dropped, empty is ``None``."""
    cell = cell.strip().rstrip("%")
    return float(cell) if cell else None


def summary_to_csv(summary: MeanSummary) -> str:
    """Single-row CSV for the mean summary (counts with four decimals)."""
    header = ("n", "stmts", "ntn", "tn", "ars", "prs", "antrs", "pntrs",
              "atrs", "ptrs", "prntrs", "prtrs", "prntrs_excluded",
              "prtrs_excluded")
    row = [
        str(summary.n),
        f"{summary.stmts:.4f}",
        f"{summary.ntn:.4f}",
        f"{summary.tn:.4f}",
        f"{summary.ars:.4f}",
        format_percent(summary.prs),
        f"{summary.antrs:.4f}",
        format_percent(summary.pntrs),
        f"{summary.atrs:.4f}",
        format_percent(summary.ptrs),
        format_percent(summary.prntrs),
        format_percent(summary.prtrs),
        str(summary.prntrs_excluded),
        str(summary.prtrs_excluded),
    ]
    return ",".join(header) + "\n" + ",".join(row) + "\n"
