from collections import Counter

import pytest

from redustat.replicate import replicate_from_fixtures

from conftest import derive_probability_table, published_probability_rows

# Cells where the published probability tables contradict their own corpus
# tables; the derived (count-based) value is the consistent one. Documented
# in docs/fixtures.md.
PUBLISHED_TYPOS = {
    ("I", "testParameters"),                            # 100% printed, counts say 0%
    ("II", "testRead7ZipMultiVolumeArchiveForStream"),  # 86.66% printed, counts say 66.67%
}


def test_fixture_row_counts():
    assert len(replicate_from_fixtures("I").records) == 30
    assert len(replicate_from_fixtures("II").records) == 30


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        replicate_from_fixtures("III")


def test_probability_filter_row_counts():
    assert len(derive_probability_table(replicate_from_fixtures("I").records)) == 22
    assert len(derive_probability_table(replicate_from_fixtures("II").records)) == 14


def test_derived_names_match_published_tables():
    for table in ("I", "II"):
        derived = derive_probability_table(replicate_from_fixtures(table).records)
        published = published_probability_rows("I" if table == "I" else "II")
        assert Counter(name for name, _, _ in derived) == \
            Counter(name for name, _, _ in published)


def test_derived_values_match_published_tables_modulo_typos():
    for table in ("I", "II"):
        records = replicate_from_fixtures(table).records
        derived = {name: (a, b) for name, a, b in derive_probability_table(records)}
        for name, prntrs, prtrs in published_probability_rows(table):
            mine = derived[name]
            if (table, name) in PUBLISHED_TYPOS:
                assert (abs(mine[0] - prntrs) > 0.001
                        or abs(mine[1] - prtrs) > 0.001)
                continue
            # published cells are two-decimal prints with occasional
            # truncation, so allow half a unit in the last place and a bit
            assert abs(mine[0] - prntrs) < 0.0006, (table, name)
            assert abs(mine[1] - prtrs) < 0.0006, (table, name)


def test_mean_row_table1():
    means = replicate_from_fixtures("I").means
    expected = (20.9, 18.86, 2.03, 12.46, 53.21, 11.2, 47.64, 1.23, 5.38)
    got = (means["stmts"], means["ntn"], means["tn"], means["ars"],
           means["prs"] * 100, means["antrs"], means["pntrs"] * 100,
           means["atrs"], means["ptrs"] * 100)
    for mine, published in zip(got, expected):
        assert abs(mine - published) <= 0.1


def test_mean_row_table2():
    means = replicate_from_fixtures("II").means
    expected = (20.16, 18.06, 2.13, 15.5, 69.42, 13.73, 62.37, 1.76, 7.04)
    got = (means["stmts"], means["ntn"], means["tn"], means["ars"],
           means["prs"] * 100, means["antrs"], means["pntrs"] * 100,
           means["atrs"], means["ptrs"] * 100)
    for mine, published in zip(got, expected):
        assert abs(mine - published) <= 0.1


def test_replicate_bundle_reports_exclusions():
    bundle = replicate_from_fixtures("I")
    assert bundle.stats["probability_rows_used"] == 22
    assert bundle.stats["probability_rows_excluded"] == 8
    bundle2 = replicate_from_fixtures("II")
    assert bundle2.stats["probability_rows_used"] == 14
    assert bundle2.stats["probability_rows_excluded"] == 16


def test_replicate_accepts_external_fixture_path(tmp_path):
    from redustat.replicate import fixture_text

    copy = tmp_path / "mytable.csv"
    copy.write_text(fixture_text("table1.csv"), encoding="utf-8")
    bundle = replicate_from_fixtures("I", copy)
    assert len(bundle.records) == 30
    assert bundle.stats["wilcoxon"]["pntrs_vs_ptrs"]["statistic"] == 435.0


def test_claim_verdicts_match_study_conclusions():
    for table in ("I", "II"):
        claims = replicate_from_fixtures(table).stats["claims"]
        assert "PASS" in claims[0]
        assert "no significant difference" in claims[1]
