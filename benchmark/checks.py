"""Independent correctness checks for benchmark outputs.

Nothing here calls into ``redustat``. What a correct reduction keeps comes
from the generator's own parent links and from re-implementations of the
scripted predicate and of the stand-in test run; statistics are compared
against ``scipy.stats``. Each check returns a list of error strings, empty
when the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Iterable, Sequence

from workloads import STANDIN_COMPILE_ERROR, GenTest

#: Tolerance for p-values and W against scipy: relative, plus an absolute
#: floor for p-values so close to 0 that both sides have lost all precision.
STATS_RTOL, STATS_ATOL = 1e-6, 1e-12
#: Published V statistics of the replication study, per table.
PUBLISHED_V = {"I": {"pntrs_vs_ptrs": 435.0, "prntrs_vs_prtrs": 109.5},
               "II": {"pntrs_vs_ptrs": 465.0, "prntrs_vs_prtrs": 42.0}}


# -- reductions ----------------------------------------------------------------


def render(test: GenTest, retained: frozenset[int]) -> str:
    """The test source with every statement outside ``retained`` cut out."""
    cuts = sorted(node.span for node in test.nodes
                  if node.id not in retained
                  and (node.parent is None or node.parent in retained))
    pieces, pos = [], 0
    for start, end in cuts:
        pieces.append(test.source[pos:start])
        pos = end
    pieces.append(test.source[pos:])
    return "".join(pieces)


def standin_exit(text: str, keys: Sequence[tuple[str, str]]) -> int:
    """Exit code of ``standin.sh`` on a candidate text (model of the script)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    missing = False
    for marker, decl in keys:
        mline = dline = 0
        for number, line in enumerate(lines, start=1):
            if marker in line:
                mline = number
            elif decl in line:
                dline = number
        if not mline:
            missing = True
        elif not dline:
            return STANDIN_COMPILE_ERROR
    return 0 if missing else 1


def expected_retained(test: GenTest) -> frozenset[int] | None:
    """The unique correct retained set, or None where only properties are fixed."""
    if test.shape == "command":
        return test.closure([i for pair in test.markers for i in pair])
    if test.shape == "blocker":
        return None
    return test.closure(test.failure_set)


def check_reduction(test: GenTest, retained: frozenset[int]) -> list[str]:
    expected = expected_retained(test)
    if expected is not None:
        if retained != expected:
            missing = sorted(expected - retained)[:5]
            extra = sorted(retained - expected)[:5]
            return [f"{test.name}: retained set differs from the prediction "
                    f"(missing {missing}, extra {extra})"]
        if test.shape == "command" and standin_exit(render(test, retained),
                                                    test.marker_keys()) != 1:
            return [f"{test.name}: the stand-in model does not fail on the result"]
        return []
    errors = []
    if retained != test.closure(retained):
        errors.append(f"{test.name}: retained set is not ancestor-closed")
    if not test.scripted_fails(retained):
        errors.append(f"{test.name}: retained set no longer fails")
    for node_id in sorted(retained):
        if test.scripted_fails(retained - test.subtree(node_id)):
            errors.append(f"{test.name}: not 1-minimal, subtree {node_id} can go")
            break
    return errors


# -- metrics rows --------------------------------------------------------------


def read_csv_rows(text: str) -> dict[str, dict[str, str]]:
    return {row["test"]: row for row in csv.DictReader(io.StringIO(text))}


def _percent_ok(cell: str, value: Fraction | None) -> bool:
    if value is None:
        return cell == ""
    return cell != "" and abs(Fraction(cell) - value * 100) <= Fraction(1, 200)


def check_metrics_row(test: GenTest, row: dict[str, str] | None,
                      retained: frozenset[int]) -> list[str]:
    """Counts recomputed from the generator's kinds; percentages to 0.005."""
    if row is None:
        return [f"{test.name}: no metrics row"]
    stmts = len(test.nodes)
    tn = sum(1 for node in test.nodes if node.tree)
    ntn = stmts - tn
    removed = [test.nodes[i] for i in range(stmts) if i not in retained]
    atrs = sum(1 for node in removed if node.tree)
    antrs = len(removed) - atrs
    counts = {"stmts": stmts, "ntn": ntn, "tn": tn, "ars": antrs + atrs,
              "antrs": antrs, "atrs": atrs}
    errors = [f"{test.name}: {column}={row.get(column)!r}, expected {value}"
              for column, value in counts.items() if row.get(column) != str(value)]
    fractions = {
        "prs": Fraction(antrs + atrs, stmts), "pntrs": Fraction(antrs, stmts),
        "ptrs": Fraction(atrs, stmts),
        "prntrs": Fraction(antrs, ntn) if ntn else None,
        "prtrs": Fraction(atrs, tn) if tn else None,
    }
    errors += [f"{test.name}: {column}={row.get(column)!r} does not match {value}"
               for column, value in fractions.items()
               if not _percent_ok(row.get(column, ""), value)]
    if row.get("project") != test.project:
        errors.append(f"{test.name}: project {row.get('project')!r}")
    return errors


def check_synthetic_rows(metrics_csv: str, names: Iterable[str],
                         expected_csv: str) -> list[str]:
    """The shipped synthetic rows must equal ``expected_metrics.csv`` byte for byte."""
    wanted = set(names)
    got = [line for line in metrics_csv.split("\n")[1:]
           if line.split(",", 1)[0] in wanted]
    expected = [line for line in expected_csv.split("\n")[1:] if line]
    if got != expected:
        diff = [g for g, e in zip(got, expected) if g != e][:2]
        return [f"synthetic rows differ from expected_metrics.csv "
                f"({len(got)} vs {len(expected)} rows; first differences {diff})"]
    return []


# -- statistics ----------------------------------------------------------------


def positive_rank_sum(x: Sequence[float], y: Sequence[float]) -> tuple[float, int, bool, int]:
    """V (sum of midranks of positive differences), n used, ties, zeros dropped."""
    diffs = [a - b for a, b in zip(x, y)]
    nonzero = [d for d in diffs if d != 0.0]
    order = sorted(range(len(nonzero)), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * len(nonzero)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    v = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    ties = len({abs(d) for d in nonzero}) != len(nonzero)
    return v, len(nonzero), ties, len(diffs) - len(nonzero)


def close(a: float, b: float, rtol: float = STATS_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=STATS_ATOL)


def check_wilcoxon(label: str, result: dict, x: Sequence[float],
                   y: Sequence[float]) -> list[str]:
    from scipy import stats as sps

    v, n, ties, zeros = positive_rank_sum(x, y)
    if n == 0 or len(x) < 2:
        return [] if "skipped" in result else [f"{label}: expected a skipped test"]
    if "skipped" in result:
        return [f"{label}: skipped ({result['skipped']}) but n={n}"]
    exact = n < 50 and not ties and zeros == 0
    ref = sps.wilcoxon(x, y, zero_method="wilcox", correction=True,
                       method="exact" if exact else "asymptotic")
    errors = []
    if not close(result["statistic"], v, 1e-12):
        errors.append(f"{label}: V={result['statistic']}, positive rank sum is {v}")
    if not close(result["p_value"], float(ref.pvalue)):
        errors.append(f"{label}: p={result['p_value']!r}, scipy gives {float(ref.pvalue)!r}")
    return errors


def check_shapiro(label: str, result: dict, values: Sequence[float]) -> list[str]:
    from scipy import stats as sps

    if len(values) < 3 or max(values) - min(values) < 1e-19:
        return [] if "skipped" in result else [f"{label}: expected a skipped test"]
    if "skipped" in result:
        return [f"{label}: skipped ({result['skipped']}) with {len(values)} values"]
    ref = sps.shapiro(values)
    errors = []
    if not close(result["statistic"], float(ref.statistic)):
        errors.append(f"{label}: W={result['statistic']!r}, scipy gives {float(ref.statistic)!r}")
    if not close(result["p_value"], float(ref.pvalue)):
        errors.append(f"{label}: p={result['p_value']!r}, scipy gives {float(ref.pvalue)!r}")
    return errors


def percent_vectors(rows: Iterable[dict[str, str]], from_counts: bool) -> dict[str, list[float]]:
    """Per-column percent vectors as ``stats_block`` sees them.

    ``from_counts`` rebuilds the leaf/tree shares from the count columns, the
    way a live corpus run computes them; otherwise the printed percentages
    are used, the way a fixture table is read. Removal probabilities are
    printed or, when the cell is empty, derived from the counts. The float
    operations mirror the program's, so ties come out the same.
    """
    pntrs, ptrs, prntrs, prtrs = [], [], [], []
    for row in rows:
        stmts, ntn, tn = int(row["stmts"]), int(row["ntn"]), int(row["tn"])
        antrs, atrs = int(row["antrs"]), int(row["atrs"])
        if from_counts:
            pntrs.append(antrs / stmts * 100.0)
            ptrs.append(atrs / stmts * 100.0)
        else:
            pntrs.append(float(row["pntrs"]) / 100.0 * 100.0)
            ptrs.append(float(row["ptrs"]) / 100.0 * 100.0)
        pl = float(row["prntrs"]) / 100.0 if row["prntrs"] and not from_counts else (
            antrs / ntn if ntn else None)
        pt = float(row["prtrs"]) / 100.0 if row["prtrs"] and not from_counts else (
            atrs / tn if tn else None)
        if pl is not None and pt is not None:
            prntrs.append(pl * 100.0)
            prtrs.append(pt * 100.0)
    return {"pntrs": pntrs, "ptrs": ptrs, "prntrs": prntrs, "prtrs": prtrs}


def check_stats_block(label: str, block: dict, vectors: dict[str, list[float]]) -> list[str]:
    errors = []
    for column, values in vectors.items():
        errors += check_shapiro(f"{label} shapiro {column}",
                                block["shapiro"][column], values)
    errors += check_wilcoxon(f"{label} wilcoxon pntrs_vs_ptrs",
                             block["wilcoxon"]["pntrs_vs_ptrs"],
                             vectors["pntrs"], vectors["ptrs"])
    errors += check_wilcoxon(f"{label} wilcoxon prntrs_vs_prtrs",
                             block["wilcoxon"]["prntrs_vs_prtrs"],
                             vectors["prntrs"], vectors["prtrs"])
    return errors


def check_published_v(table: str, block: dict) -> list[str]:
    return [f"table {table} {name}: V={block['wilcoxon'][name].get('statistic')}, "
            f"published {v}"
            for name, v in PUBLISHED_V[table].items()
            if block["wilcoxon"][name].get("statistic") != v]
