import errno
import json
import os
import statistics

import pytest

from redustat.metrics import compute_metrics
from redustat.replicate import replicate_from_fixtures
from redustat.reports import (
    EntryStatus,
    _rewrite,
    assemble_bundle,
    boxplot_table,
    five_number_summary,
    quantile,
    stats_block,
)


def test_identical_values_collapse_the_box():
    summary = five_number_summary([4.2] * 9)
    assert summary == {"min": 4.2, "q1": 4.2, "median": 4.2, "q3": 4.2,
                       "max": 4.2, "outliers": []}


def test_evenly_spaced_five_vector():
    summary = five_number_summary([0, 25, 50, 75, 100])
    assert (summary["min"], summary["q1"], summary["median"], summary["q3"],
            summary["max"]) == (0, 25, 50, 75, 100)
    assert summary["outliers"] == []


def test_quantiles_match_library_inclusive_method():
    # statistics.quantiles(method="inclusive") is the same linear
    # interpolation scheme; use it as the independent check
    data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 0.1, 6.2]
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    assert quantile(data, 0.25) == pytest.approx(q1, abs=1e-12)
    assert quantile(data, 0.5) == pytest.approx(q2, abs=1e-12)
    assert quantile(data, 0.75) == pytest.approx(q3, abs=1e-12)


def test_outliers_beyond_whiskers():
    data = [10.0, 11.0, 12.0, 13.0, 14.0, 100.0]
    summary = five_number_summary(data)
    assert summary["outliers"] == [100.0]
    assert summary["max"] == 100.0


def test_mutants_ptrs_summary_from_fixture():
    records = replicate_from_fixtures("I").records
    table = boxplot_table(records)
    ptrs = table["ptrs"]
    values = sorted(r["ptrs"] * 100 for r in records)
    assert ptrs["q1"] == 0.0
    assert ptrs["median"] == pytest.approx((values[14] + values[15]) / 2, abs=1e-12)
    assert ptrs["min"] == 0.0
    assert ptrs["max"] == pytest.approx(26.31)
    # probability columns only summarize defined rows
    assert "prtrs" in table


def test_boxplot_table_of_no_records_is_refused():
    with pytest.raises(ValueError, match="^no records to summarize$"):
        boxplot_table([])


def test_stats_block_on_single_record_marks_insufficient_n():
    record = compute_metrics((10, 8, 2), (4, 1), test_name="solo")
    block = stats_block([record])
    assert block["wilcoxon"]["pntrs_vs_ptrs"] == {"skipped": "insufficient n"}
    assert block["shapiro"]["pntrs"] == {"skipped": "insufficient n"}
    assert any("NOT EVALUATED" in line for line in block["claims"])


def test_stats_block_skips_all_zero_differences():
    records = [compute_metrics((4, 2, 2), (1, 1), test_name=f"r{i}")
               for i in range(5)]
    block = stats_block(records)
    # pntrs == ptrs in every record, so the paired test cannot run
    assert block["wilcoxon"]["pntrs_vs_ptrs"] == {"skipped": "all differences zero"}


def test_claim_lines_on_fixture_table():
    records = replicate_from_fixtures("I").records
    block = stats_block(records)
    claim1, claim2 = block["claims"]
    assert claim1.startswith("claim 1")
    assert "PASS" in claim1 and "significant difference" in claim1
    assert "no significant difference" in claim2
    assert "FAIL" in claim2


def test_claims_fail_when_trees_lose_significantly_more_than_leaves():
    records = [compute_metrics((20, 10, 10), (1, 2 + i % 4), test_name=f"r{i}")
               for i in range(8)]
    for line in stats_block(records)["claims"]:
        assert ": FAIL (significant difference, opposite direction between " in line


def test_bundle_write_is_deterministic_except_report(tmp_path):
    records = replicate_from_fixtures("I").records
    first = assemble_bundle("det", records, "source-text",
                            entry_statuses=[EntryStatus("a", True)])
    second = assemble_bundle("det", records, "source-text",
                             entry_statuses=[EntryStatus("a", True)])
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    first.write(dir_a)
    second.write(dir_b)
    for name in ("metrics.csv", "means.csv", "stats.json", "boxplot.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    report_a = json.loads((dir_a / "report.json").read_text())
    report_b = json.loads((dir_b / "report.json").read_text())
    report_a["provenance"].pop("created_utc")
    report_b["provenance"].pop("created_utc")
    assert report_a == report_b


def test_bundle_files_exist_and_parse(tmp_path):
    records = replicate_from_fixtures("II").records
    bundle = assemble_bundle("files", records, "src")
    out = bundle.write(tmp_path / "out")
    stats = json.loads((out / "stats.json").read_text())
    assert "wilcoxon" in stats and "shapiro" in stats
    boxplot = json.loads((out / "boxplot.json").read_text())
    assert set(boxplot) >= {"pntrs", "ptrs"}
    report = json.loads((out / "report.json").read_text())
    assert report["records"] == 30
    assert report["provenance"]["tool"] == "redustat"
    assert len(report["provenance"]["config_hash"]) == 64


def _bundle_with_traces(records, trace_length):
    names = ["alpha", "beta"]
    reports = [{"test_name": name, "oracle_calls": trace_length + 1,
                "trace": [{"node": i, "decision": "rejected" if i % 3 else "accepted"}
                          for i in range(trace_length)]}
               for name in names]
    return assemble_bundle("rewrite", records, "src",
                           entry_statuses=[EntryStatus(name, True) for name in names],
                           reduction_reports=reports)


def test_rewriting_a_bundle_leaves_no_stale_bytes(tmp_path):
    records = replicate_from_fixtures("I").records
    small = (records[:4], 20)
    large = (records, 400)
    for direction, (first, second) in {"shrink": (large, small),
                                       "grow": (small, large)}.items():
        reused = tmp_path / direction / "reused"
        fresh = tmp_path / direction / "fresh"
        _bundle_with_traces(*first).write(reused)
        bundle = _bundle_with_traces(*second)
        bundle.write(reused)
        bundle.write(fresh)
        fresh_files = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        reused_files = sorted(p.relative_to(reused) for p in reused.rglob("*") if p.is_file())
        assert reused_files == fresh_files
        for name in fresh_files:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        for status, report in zip(bundle.entry_statuses, bundle.reduction_reports):
            text = (reused / "reductions" / f"{status.name}.json").read_text()
            assert text.count("\n") == 1 and text.endswith("\n")
            assert json.loads(text) == report


def test_an_interrupted_rewrite_leaves_the_old_bytes_cut_to_the_new_length(
        tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    old = "".join(f"{i:04d}\n" for i in range(200))
    new = "short\n"
    path.write_text(old, encoding="utf-8")
    sizes = []

    def fail_once(fd, data):
        sizes.append(os.fstat(fd).st_size)
        monkeypatch.undo()
        raise OSError(errno.EIO, "interrupted")

    monkeypatch.setattr(os, "write", fail_once)
    with pytest.raises(OSError, match="interrupted"):
        _rewrite(path, new)
    assert sizes == [len(new)]  # cut before the first write
    assert path.read_text(encoding="utf-8") == old[:len(new)]


def test_a_rewrite_loops_on_short_writes(tmp_path, monkeypatch):
    path = tmp_path / "metrics.csv"
    path.write_text("x" * 50, encoding="utf-8")
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
    _rewrite(path, "é,1\n" * 7)
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == "é,1\n" * 7


def test_a_rewritten_file_is_created_as_open_creates_it(tmp_path):
    previous = os.umask(0o027)
    try:
        _rewrite(tmp_path / "rewritten", "text\n")
        with open(tmp_path / "opened", "w", encoding="utf-8") as handle:
            handle.write("text\n")
    finally:
        os.umask(previous)
    assert (tmp_path / "rewritten").stat().st_mode == (tmp_path / "opened").stat().st_mode
    with pytest.raises(IsADirectoryError):
        _rewrite(tmp_path, "text\n")


def test_empty_summaries_are_rejected():
    with pytest.raises(ValueError):
        five_number_summary([])
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
