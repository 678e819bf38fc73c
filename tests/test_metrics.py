import random

import pytest

from redustat.metrics import (
    CSV_COLUMNS,
    EmptyCorpusError,
    aggregate_means,
    compute_metrics,
    format_percent,
    metrics_from_reduction,
    read_records_csv,
    records_to_csv,
    summary_to_csv,
)
from redustat.oracle import ScriptedOracle
from redustat.reducer import reduce_test


def test_leaf_only_test_has_no_tree_probability():
    record = compute_metrics((13, 13, 0), (7, 0))
    assert record["ars"] == 7
    assert abs(record["prs"] * 100 - 53.84) < 0.01
    assert abs(record["pntrs"] * 100 - 53.84) < 0.01
    assert record["ptrs"] == 0.0
    assert record["prtrs"] is None


def test_mixed_test_with_full_tree_removal():
    record = compute_metrics((31, 29, 2), (25, 2))
    assert abs(record["prs"] * 100 - 87.09) < 0.01
    assert abs(record["pntrs"] * 100 - 80.64) < 0.01
    assert abs(record["ptrs"] * 100 - 6.45) < 0.01
    assert abs(record["prntrs"] * 100 - 86.20) < 0.01
    assert record["prtrs"] == 1.0


def test_nothing_removed():
    record = compute_metrics((9, 9, 0), (0, 0))
    assert record["ars"] == 0
    assert record["prs"] == record["pntrs"] == record["ptrs"] == 0.0
    assert record["prntrs"] == 0.0
    assert record["prtrs"] is None


def test_empty_test_is_all_zero():
    record = compute_metrics((0, 0, 0), (0, 0))
    assert record["prs"] == 0.0
    assert record["prntrs"] is None and record["prtrs"] is None


def test_count_mismatch_errors():
    for counts, removal, message in [
        ((10, 5, 4), (0, 0), "stmts=10 != ntn+tn=9"),
        ((10, 8, 2), (9, 0), "antrs=9 outside [0, ntn=8]"),
        ((10, 8, 2), (0, 3), "atrs=3 outside [0, tn=2]"),
        ((10, 8, 2), (-1, 0), "antrs=-1 outside [0, ntn=8]"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            compute_metrics(counts, removal)
        assert str(excinfo.value) == message


def test_metrics_match_recomputation_from_reduction():
    rng = random.Random(33)
    from conftest import random_ast

    for _ in range(50):
        ast = random_ast(rng)
        ids = sorted(ast.all_ids())
        cause = frozenset(rng.sample(ids, rng.randint(1, min(3, len(ids)))))
        outcome = reduce_test(ast, ScriptedOracle(failure_sets=(cause,)))
        record = metrics_from_reduction(ast, outcome)
        assert record["ars"] == len(outcome.removed)
        assert record["antrs"] == outcome.removed_ntn
        assert record["atrs"] == outcome.removed_tn
        assert record["stmts"] == ast.total_statements


def test_single_record_mean_is_identity():
    record = compute_metrics((10, 8, 2), (4, 1), test_name="only")
    means = aggregate_means([record])
    assert means["n"] == 1
    assert means["stmts"] == record["stmts"]
    assert means["prs"] == record["prs"]
    assert means["prntrs"] == record["prntrs"]
    assert means["prtrs"] == record["prtrs"]
    assert means["prtrs_excluded"] == 0


def test_mean_excludes_undefined_probabilities():
    defined = compute_metrics((10, 8, 2), (4, 2))
    undefined = compute_metrics((5, 5, 0), (1, 0))
    means = aggregate_means([defined, undefined])
    assert means["prtrs"] == defined["prtrs"]  # only one row defines it
    assert means["prtrs_excluded"] == 1
    assert means["prntrs_excluded"] == 0


def test_empty_corpus_error():
    with pytest.raises(EmptyCorpusError):
        aggregate_means([])


def test_concatenation_mean_is_weighted_average():
    rng = random.Random(34)

    def random_record(i):
        tn = rng.randint(0, 4)
        ntn = rng.randint(1, 10)
        return compute_metrics(
            (ntn + tn, ntn, tn),
            (rng.randint(0, ntn), rng.randint(0, tn)),
            test_name=f"r{i}",
        )

    a = [random_record(i) for i in range(7)]
    b = [random_record(100 + i) for i in range(13)]
    combined = aggregate_means(a + b)
    mean_a = aggregate_means(a)
    mean_b = aggregate_means(b)
    for column in ("stmts", "ars", "prs", "pntrs", "ptrs"):
        weighted = (mean_a[column] * len(a)
                    + mean_b[column] * len(b)) / (len(a) + len(b))
        assert abs(combined[column] - weighted) < 1e-12


def test_percent_formatting_is_two_decimal_half_up():
    assert format_percent(0.5384) == "53.84"
    assert format_percent(0.53845) == "53.85"  # half rounds up
    assert format_percent(1.0) == "100.00"
    assert format_percent(0.0) == "0.00"
    assert format_percent(None) == ""
    assert format_percent(7 / 13) == "53.85"


def test_csv_round_trip_preserves_rows():
    records = [
        compute_metrics((10, 8, 2), (4, 1), test_name="a", project="p"),
        compute_metrics((5, 5, 0), (2, 0), test_name="b", project="q"),
    ]
    text = records_to_csv(records)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    loaded = read_records_csv(text)
    assert [r["test"] for r in loaded] == ["a", "b"]
    assert loaded[1]["prtrs"] is None
    assert records_to_csv(loaded) == text  # stable on rewrite


def test_a_record_is_the_csv_row():
    # One schema: a record is keyed by CSV_COLUMNS in order, and the shipped
    # synthetic rows, undefined probabilities included, survive the CSV.
    from pathlib import Path

    record = compute_metrics((10, 8, 2), (4, 1), test_name="a", project="p")
    assert list(record) == list(CSV_COLUMNS)
    assert (record["test"], record["project"]) == ("a", "p")
    text = (Path(__file__).resolve().parent.parent / "src" / "redustat" / "data"
            / "synthetic" / "expected_metrics.csv").read_text("utf-8")
    records = read_records_csv(text)
    assert len(records) == 30
    assert all(list(record) == list(CSV_COLUMNS) for record in records)
    assert any(record["prtrs"] is None for record in records)
    assert read_records_csv(records_to_csv(records)) == records


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError) as excinfo:
        read_records_csv("foo,bar\n1,2\n")
    assert str(excinfo.value) == ("expected columns " + ",".join(CSV_COLUMNS)
                                  + ", found foo,bar")


def test_empty_csv_text_is_a_schema_error():
    with pytest.raises(ValueError, match="^empty CSV$"):
        read_records_csv("")


def test_header_only_csv_text_has_no_records():
    assert read_records_csv(",".join(CSV_COLUMNS)) == []


def test_csv_tolerates_inconsistent_published_rows():
    # transcribed-verbatim rows may violate ars == antrs + atrs
    text = (",".join(CSV_COLUMNS) + "\n"
            + "odd,proj,18,16,2,10,55.55,8,44.44,1,5.55,,\n")
    (record,) = read_records_csv(text)
    assert record["ars"] == 10 and record["antrs"] + record["atrs"] == 9


def test_derive_probabilities_fills_from_counts():
    text = (",".join(CSV_COLUMNS) + "\n"
            + "t,proj,9,7,2,2,22.22,2,22.22,0,0,,\n")
    (record,) = read_records_csv(text)
    assert record["prntrs"] == 2 / 7
    assert record["prtrs"] == 0.0


SUMMARY_HEADER = ("n,stmts,ntn,tn,ars,prs,antrs,pntrs,atrs,ptrs,prntrs,prtrs,"
                  "prntrs_excluded,prtrs_excluded\n")


def test_summary_csv_text_of_table_one():
    from redustat.replicate import replicate_from_fixtures

    assert summary_to_csv(replicate_from_fixtures("I").means) == (
        SUMMARY_HEADER
        + "30,20.9000,18.8667,2.0333,12.4667,53.22,11.2000,47.65,"
          "1.2333,5.38,53.50,53.89,0,8\n")


def test_summary_csv_text_of_synthetic_corpus(tmp_path):
    from pathlib import Path

    from redustat.corpus import load_corpus_config, run_corpus

    config = load_corpus_config(Path(__file__).resolve().parent.parent / "src"
                                / "redustat" / "data" / "synthetic" / "corpus.json")
    config.output_dir = tmp_path / "out"
    assert summary_to_csv(run_corpus(config).means) == (
        SUMMARY_HEADER
        + "30,11.4000,8.9000,2.5000,8.4333,70.45,7.2333,61.75,"
          "1.2000,8.70,78.53,39.20,0,3\n")


@pytest.mark.parametrize("row, message", [
    ("t,p,nine,7,2,2,22.22,2,22.22,0,0,,",
     "line 2: invalid literal for int() with base 10: 'nine'"),
    ("t,p,9,7,2,2,22.22,2,22.22,0,0,",
     "line 2: expected 13 cells, found 12"),
    # a blank line is skipped but still counted
    ("\nt,p,9,7,2,2,22.22,2,22.22,0,0,",
     "line 3: expected 13 cells, found 12"),
    # percent cells are read before count cells
    ("t,p,nine,7,2,2,bad,2,22.22,0,0,,",
     "line 2: could not convert string to float: 'bad'"),
    # no statistic or mean is defined over a cell that is not finite
    ("t,p,9,7,2,2,nan,2,22.22,0,0,,",
     "line 2: not a finite number: 'nan'"),
    ("t,p,9,7,2,2,22.22,2,22.22,0,0,inf%,",
     "line 2: not a finite number: 'inf'"),
    ("t,p,9,7,2,2,22.22,2,-Infinity,0,0,,",
     "line 2: not a finite number: '-Infinity'"),
    ("t,p,9,7,2,2,22.22,2,22.22,0,0,,1e999",
     "line 2: not a finite number: '1e999'"),
])
def test_csv_schema_error_messages(row, message):
    with pytest.raises(ValueError) as excinfo:
        read_records_csv(",".join(CSV_COLUMNS) + "\n" + row + "\n")
    assert str(excinfo.value) == message


def test_percent_sign_in_cell_reads_as_plain_number():
    header = ",".join(CSV_COLUMNS) + "\n"
    plain = read_records_csv(header + "t,p,13,13,0,7,53.84,7,53.84,0,0,53.84,\n")
    signed = read_records_csv(header + "t,p,13,13,0,7,53.84%,7,53.84%,0,0%,53.84%,\n")
    assert plain == signed
