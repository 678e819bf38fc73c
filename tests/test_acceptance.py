"""Acceptance suite: every check prints one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute. Tolerances are pinned here, not configurable.
"""

import random
import time
from pathlib import Path

from redustat.corpus import load_corpus_config, run_corpus
from redustat.oracle import ScriptedOracle, VerdictStatus, evaluate
from redustat.reducer import reduce_test, verify_one_minimal
from redustat.replicate import replicate_from_fixtures
from redustat.stats import shapiro_wilk, wilcoxon_signed_rank

from conftest import (derive_probability_table, load_module, published_probability_rows,
                      random_ast)

brute_force_minimal = load_module("gen_synthetic_corpus",
                                  "tools/gen_synthetic_corpus.py").brute_force_minimal

SYNTHETIC = Path(__file__).resolve().parent.parent / "src" / "redustat" / "data" / "synthetic"

COUNT_TOL = 0.1        # statement-count means
RATE_TOL = 0.1         # percentage-point means
SHAPIRO_PIN_TOL = 1e-6
EXACT_P_TOL = 1e-12


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _check_mean_row(table: str, expected: tuple, runtime_limit: float | None):
    started = time.perf_counter()
    bundle = replicate_from_fixtures(table)
    elapsed = time.perf_counter() - started
    means = bundle.means
    got = (means["stmts"], means["ntn"], means["tn"], means["ars"],
           means["prs"] * 100, means["antrs"], means["pntrs"] * 100,
           means["atrs"], means["ptrs"] * 100)
    labels = ("stmts", "ntn", "tn", "ars", "prs", "antrs", "pntrs", "atrs", "ptrs")
    rates = {"prs", "pntrs", "ptrs"}
    ok = True
    worst = ""
    for label, mine, published in zip(labels, got, expected):
        tolerance = RATE_TOL if label in rates else COUNT_TOL
        if abs(mine - published) > tolerance:
            ok = False
            worst = f"{label}: {mine:.4f} vs published {published}"
    detail = (f"mean row {' / '.join(f'{v:.2f}' for v in got)} in {elapsed:.3f}s"
              + (f"; MISMATCH {worst}" if worst else ""))
    if runtime_limit is not None and elapsed >= runtime_limit:
        ok = False
        detail += f"; runtime {elapsed:.3f}s over limit {runtime_limit}s"
    return ok, detail


def test_criterion_1_table1_fixture_means():
    ok, detail = _check_mean_row(
        "I", (20.9, 18.86, 2.03, 12.46, 53.21, 11.2, 47.64, 1.23, 5.38),
        runtime_limit=1.0)
    _report("criterion 1 (Table I means, runtime < 1 s)", ok, detail)


def test_criterion_2_table2_fixture_means():
    ok, detail = _check_mean_row(
        "II", (20.16, 18.06, 2.13, 15.5, 69.42, 13.73, 62.37, 1.76, 7.04),
        runtime_limit=None)
    _report("criterion 2 (Table II means)", ok, detail)


def test_criterion_3_wilcoxon_pntrs_vs_ptrs():
    results = []
    for table, v_expected, p_low, p_high in (
        ("I", 435.0, 2.4e-06, 3.0e-06),
        ("II", 465.0, 1.6e-06, 2.0e-06),
    ):
        records = replicate_from_fixtures(table).records
        result = wilcoxon_signed_rank([r["pntrs"] * 100 for r in records],
                                      [r["ptrs"] * 100 for r in records])
        results.append((table, result))
    ok = all(
        r.statistic == v and lo <= r.p_value <= hi
        for (table, r), (v, lo, hi) in zip(
            results, ((435.0, 2.4e-06, 3.0e-06), (465.0, 1.6e-06, 2.0e-06)))
    )
    detail = "; ".join(
        f"table {table}: V={r.statistic:g}, p={r.p_value:.4g}"
        for table, r in results)
    _report("criterion 3 (Wilcoxon PNTRS vs PTRS)", ok, detail)


def test_criterion_4_wilcoxon_probability_columns():
    outcomes = []
    for table, v_expected, p_expected, rows_expected in (
        ("I", 109.5, 0.5731, 22),
        ("II", 42.0, 0.5426, 14),
    ):
        rows = derive_probability_table(replicate_from_fixtures(table).records)
        result = wilcoxon_signed_rank([a * 100 for _, a, _ in rows],
                                      [b * 100 for _, _, b in rows])
        ok_here = (len(rows) == rows_expected
                   and result.statistic == v_expected
                   and abs(result.p_value - p_expected) <= 0.02)
        outcomes.append((table, result, ok_here))
    claim2 = replicate_from_fixtures("I").stats["claims"][1]
    claim_ok = "no significant difference" in claim2
    ok = all(flag for _, _, flag in outcomes) and claim_ok
    detail = "; ".join(
        f"table {table}: V={r.statistic:g}, p={r.p_value:.4g}"
        for table, r, _ in outcomes) + f"; claim-2 line: {claim2!r}"
    _report("criterion 4 (Wilcoxon PrNTRS vs PrTRS + claim 2)", ok, detail)


def test_criterion_5_probability_exclusion_rule():
    derived1 = derive_probability_table(replicate_from_fixtures("I").records)
    derived2 = derive_probability_table(replicate_from_fixtures("II").records)
    names1 = sorted(name for name, _, _ in derived1)
    names2 = sorted(name for name, _, _ in derived2)
    published1 = sorted(name for name, _, _ in published_probability_rows("I"))
    published2 = sorted(name for name, _, _ in published_probability_rows("II"))
    ok = (len(derived1) == 22 and len(derived2) == 14
          and names1 == published1 and names2 == published2)
    _report("criterion 5 (exclusion rule: 22 and 14 rows, names match)", ok,
            f"derived {len(derived1)} and {len(derived2)} rows; "
            f"name sets {'match' if ok else 'differ'}")


def test_criterion_6_shapiro_wilk():
    records = replicate_from_fixtures("I").records
    ptrs = shapiro_wilk([r["ptrs"] * 100 for r in records])
    pinned = shapiro_wilk([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    w_ref, p_ref = 0.970164611085606, 0.892367306190298
    ok = (ptrs.p_value < 0.05
          and abs(pinned.statistic - w_ref) <= SHAPIRO_PIN_TOL
          and abs(pinned.p_value - p_ref) <= SHAPIRO_PIN_TOL)
    _report("criterion 6 (Shapiro-Wilk)", ok,
            f"mutants PTRS p={ptrs.p_value:.3g} < 0.05; pinned fixture "
            f"W off by {abs(pinned.statistic - w_ref):.2e}, "
            f"p off by {abs(pinned.p_value - p_ref):.2e}")


def test_criterion_7_reducer_property_suite():
    started = time.perf_counter()
    rng = random.Random(987654321)

    monotone_checked = 0
    while monotone_checked < 500:
        ast = random_ast(rng, max_statements=12, max_depth=3)
        ids = sorted(ast.all_ids())
        cause = frozenset(rng.sample(ids, rng.randint(1, min(3, len(ids)))))
        oracle = ScriptedOracle(failure_sets=(cause,))
        outcome = reduce_test(ast, oracle)
        assert evaluate(oracle, outcome.retained, ast).status is VerdictStatus.FAIL
        assert verify_one_minimal(ast, oracle, outcome.retained,
                                  baseline="scripted")
        assert len(outcome.retained) == len(brute_force_minimal(ast, oracle))
        monotone_checked += 1

    non_monotone_checked = 0
    while non_monotone_checked < 200:
        ast = random_ast(rng, max_statements=12, max_depth=3)
        ids = sorted(ast.all_ids())
        if len(ids) < 3:
            continue
        cause = frozenset(rng.sample(ids, rng.randint(1, 2)))
        blockers = frozenset(rng.sample(ids, rng.randint(2, min(4, len(ids)))))
        oracle = ScriptedOracle(failure_sets=(cause,), blockers=blockers)
        outcome = reduce_test(ast, oracle)
        assert evaluate(oracle, outcome.retained, ast).status is VerdictStatus.FAIL
        assert verify_one_minimal(ast, oracle, outcome.retained,
                                  baseline="scripted")
        non_monotone_checked += 1

    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    _report("criterion 7 (reducer soundness/minimality/optimality, < 60 s)", ok,
            f"{monotone_checked} monotone + {non_monotone_checked} "
            f"non-monotone instances in {elapsed:.1f}s")


def test_criterion_8_wilcoxon_exact_path():
    rng = random.Random(24680)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 12)
        while True:
            diffs = [rng.uniform(-1, 1) for _ in range(n)]
            if 0.0 not in diffs and len({abs(d) for d in diffs}) == n:
                break
        result = wilcoxon_signed_rank(diffs, [0.0] * n)
        assert result.method == "WilcoxonSignedRankExact"
        worst = max(worst, abs(result.p_value - _sign_enumeration_p(diffs)))
    ok = worst <= EXACT_P_TOL
    _report("criterion 8 (exact Wilcoxon vs sign enumeration)", ok,
            f"100 cases, max |dp| = {worst:.2e}")


def _sign_enumeration_p(diffs):
    n = len(diffs)
    order = sorted(range(n), key=lambda i: abs(diffs[i]))
    v = sum(pos + 1 for pos, idx in enumerate(order) if diffs[idx] > 0)
    at_most = at_least = 0
    for mask in range(2 ** n):
        total = sum(pos + 1 for pos in range(n) if mask >> pos & 1)
        if total <= v:
            at_most += 1
        if total >= v:
            at_least += 1
    return min(2.0 * min(at_most, at_least) / 2 ** n, 1.0)


def test_criterion_9_synthetic_corpus_byte_for_byte(tmp_path):
    config = load_corpus_config(SYNTHETIC / "corpus.json")
    config.output_dir = tmp_path / "out"
    bundle = run_corpus(config)
    produced = (tmp_path / "out" / "metrics.csv").read_bytes()
    expected = (SYNTHETIC / "expected_metrics.csv").read_bytes()
    ok = produced == expected and bundle.entry_errors == 0
    _report("criterion 9 (synthetic corpus byte-for-byte)", ok,
            f"{len(bundle.records)} records, "
            f"{'identical' if produced == expected else 'DIFFERENT'} CSV, "
            f"{bundle.entry_errors} entry errors")
