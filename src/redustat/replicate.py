"""Replication of the published analysis from table fixtures.

The two study corpora are shipped as machine-readable CSV fixtures,
transcribed verbatim from the published tables (typos and all; see
``docs/fixtures.md``). Replication recomputes the mean row, derives the
per-category removal-probability tables by the defined-probability filter,
and runs the full statistics block.

The probability columns are *derived from the count columns at full float
precision* (``antrs/ntn``, ``atrs/tn``), not read from the published
probability tables; the published V statistics are only reproducible that
way. The PNTRS/PTRS comparison, by contrast, runs on the percentage columns
exactly as printed.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .metrics import read_records_csv
from .reports import ReportBundle, assemble_bundle

#: Fixture identifiers accepted by ``replicate``: live corpus tables.
FIXTURE_TABLES = {"I": "table1.csv", "II": "table2.csv"}


def fixture_text(filename: str) -> str:
    return (resources.files("redustat") / "data" / filename).read_text("utf-8")


def _table_source(table: str, fixture_path: str | Path | None) -> str:
    if table not in FIXTURE_TABLES:
        raise ValueError(f"unknown table {table!r}; expected one of "
                         f"{sorted(FIXTURE_TABLES)}")
    if fixture_path is not None:
        return Path(fixture_path).read_text(encoding="utf-8")
    return fixture_text(FIXTURE_TABLES[table])


def replicate_from_fixtures(table: str,
                            fixture_path: str | Path | None = None) -> ReportBundle:
    """Recompute means, derived probability tables and statistics for a table."""
    source = _table_source(table, fixture_path)
    return assemble_bundle(
        corpus_name=f"fixture-table-{table}",
        records=read_records_csv(source),
        provenance_source=source,
    )
