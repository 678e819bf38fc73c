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

A record is the row ``metrics.csv`` holds, as a dict keyed by
``CSV_COLUMNS`` in that order: the ``test`` and ``project`` strings, the
counts as ints, and the fractions as floats. Fractions are kept at full
precision and rendered only at report time, as percentages with two
decimals, round-half-up.

A corpus's mean row is a dict keyed in ``means.csv`` column order: ``n``, the
mean of each numeric column, ``prntrs_excluded`` and ``prtrs_excluded``.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal, ROUND_HALF_UP
from typing import Sequence

from .model import TestCaseAst, count_categories
from .reducer import ReductionOutcome


class EmptyCorpusError(ValueError):
    """An aggregate was requested over zero records."""


#: Fixed CSV column order of the metrics schema.
CSV_COLUMNS = ("test", "project", "stmts", "ntn", "tn", "ars", "prs",
               "antrs", "pntrs", "atrs", "ptrs", "prntrs", "prtrs")

#: Columns carrying fractions, rendered as percentages.
PERCENT_COLUMNS = ("prs", "pntrs", "ptrs", "prntrs", "prtrs")

#: The numeric columns, after the test's name and project.
NUMBER_COLUMNS = CSV_COLUMNS[2:]

#: The removal probabilities, undefined (``None``) when their category is
#: empty, each with its ``(removed, total)`` count columns.
_PROBABILITIES = {"prntrs": ("antrs", "ntn"), "prtrs": ("atrs", "tn")}


def compute_metrics(counts: tuple[int, int, int], removal: tuple[int, int],
                    test_name: str = "", project: str = "") -> dict:
    """Build a record from category totals and per-category removal counts.

    ``counts`` is ``(stmts, ntn, tn)``; ``removal`` is ``(antrs, atrs)``.
    Raises ``ValueError`` when the counts cannot have come from one test.
    """
    stmts, ntn, tn = counts
    antrs, atrs = removal
    if stmts != ntn + tn:
        raise ValueError(f"stmts={stmts} != ntn+tn={ntn + tn}")
    if not 0 <= antrs <= ntn:
        raise ValueError(f"antrs={antrs} outside [0, ntn={ntn}]")
    if not 0 <= atrs <= tn:
        raise ValueError(f"atrs={atrs} outside [0, tn={tn}]")
    ars = antrs + atrs
    return {
        "test": test_name,
        "project": project,
        "stmts": stmts,
        "ntn": ntn,
        "tn": tn,
        "ars": ars,
        "prs": ars / stmts if stmts else 0.0,
        "antrs": antrs,
        "pntrs": antrs / stmts if stmts else 0.0,
        "atrs": atrs,
        "ptrs": atrs / stmts if stmts else 0.0,
        "prntrs": antrs / ntn if ntn else None,
        "prtrs": atrs / tn if tn else None,
    }


def metrics_from_reduction(ast: TestCaseAst,
                           outcome: ReductionOutcome) -> dict:
    """Record for one finished reduction."""
    return compute_metrics(
        count_categories(ast),
        (outcome.removed_ntn, outcome.removed_tn),
        test_name=ast.test_name,
        project=ast.project,
    )


def aggregate_means(records: Sequence[dict]) -> dict:
    """The mean row, keyed in ``means.csv`` order: ``n``, the mean of each of
    ``NUMBER_COLUMNS`` (a probability over the records that define it, ``None``
    if none does), then the records each probability mean left out."""
    if not records:
        raise EmptyCorpusError("cannot aggregate an empty corpus")
    n = len(records)
    defined = {column: [value for record in records
                        if (value := record[column]) is not None]
               for column in NUMBER_COLUMNS}
    return {
        "n": n,
        **{column: sum(values) / len(values) if values else None
           for column, values in defined.items()},
        **{f"{column}_excluded": n - len(defined[column])
           for column in _PROBABILITIES},
    }


def percent_samples(records: Sequence[dict],
                    columns: Sequence[str]) -> list[list[float]]:
    """One sample per column, over the records where every one of ``columns``
    is defined, with percent columns in percent units as the tables print
    them. Rows read from a table hold its two-decimal cells, so the tests see
    the ties the table shows; a corpus run's records hold full-precision
    fractions, so its ``stats.json`` can differ from ``redustat stats`` on its
    own ``metrics.csv`` (see the README)."""
    rows = [row for record in records
            if None not in (row := [record[column] for column in columns])]
    return [[row[i] * 100.0 if column in PERCENT_COLUMNS else row[i] for row in rows]
            for i, column in enumerate(columns)]


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


def record_to_row(record: dict) -> list[str]:
    """Cells in ``CSV_COLUMNS`` order: fractions as percentages."""
    return [format_percent(record[column]) if column in PERCENT_COLUMNS
            else str(record[column]) for column in CSV_COLUMNS]


def records_to_csv(records: Sequence[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record_to_row(record))
    return buffer.getvalue()


def read_records_csv(text: str) -> list[dict]:
    """Load metrics records from CSV text.

    Fixture rows are carried verbatim, without cross-column consistency
    checks, because published tables are transcribed as printed, typos
    included. An empty ``prs``/``pntrs``/``ptrs`` cell reads as 0. An empty
    probability cell is filled from the count columns at full precision
    (``antrs/ntn``, ``atrs/tn``) whenever the denominator is non-zero.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"expected columns {','.join(CSV_COLUMNS)}, "
                         f"found {','.join(header)}")
    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"line {line_no}: expected "
                             f"{len(CSV_COLUMNS)} cells, found {len(row)}")
        record = dict(zip(CSV_COLUMNS, row))
        try:
            for column in PERCENT_COLUMNS:
                value = parse_cell(record[column])
                value = None if value is None else value / 100.0
                record[column] = value if column in _PROBABILITIES else value or 0.0
            for column in NUMBER_COLUMNS:
                if column not in PERCENT_COLUMNS:
                    record[column] = int(record[column])
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        for column, (removed, total) in _PROBABILITIES.items():
            if record[column] is None and record[total] > 0:
                record[column] = record[removed] / record[total]
        records.append(record)
    return records


def parse_cell(cell: str) -> float | None:
    """A numeric cell as printed: trailing ``%`` dropped, empty is ``None``,
    and ``ValueError`` for ``nan``, ``inf`` or any other non-finite value."""
    cell = cell.strip().rstrip("%")
    value = float(cell) if cell else None
    if value is not None and not math.isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def summary_to_csv(summary: dict) -> str:
    """Single-row CSV for the mean row (count means with four decimals)."""
    row = []
    for column, value in summary.items():
        if column in PERCENT_COLUMNS:
            row.append(format_percent(value))
        elif column in NUMBER_COLUMNS:
            row.append(f"{value:.4f}")
        else:  # n and the excluded-row counts
            row.append(str(value))
    return ",".join(summary) + "\n" + ",".join(row) + "\n"
