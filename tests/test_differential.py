import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "differential", Path(__file__).resolve().parents[1] / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


def _output_tree(root: Path, created: str, wall_ms: float) -> Path:
    """A bundle as ``corpus`` writes it, with the two run-dependent values."""
    (root / "synthetic" / "reductions").mkdir(parents=True)
    (root / "synthetic" / "metrics.csv").write_text("test,project\nt01,p\n")
    (root / "synthetic" / "report.json").write_text(json.dumps(
        {"provenance": {"config_hash": "ab", "created_utc": created}},
        sort_keys=True, indent=2) + "\n")
    (root / "synthetic" / "reductions" / "t01.json").write_text(json.dumps(
        {"oracle_calls": 7, "trace": [], "wall_time_ms": wall_ms}, sort_keys=True) + "\n")
    (root / "stats.log").write_text("exit 0\n--- stdout\nstatistic=435\n--- stderr\n")
    return root


def test_trees_that_differ_in_volatile_values_only_compare_equal(tmp_path):
    old = _output_tree(tmp_path / "old", "2026-01-01T00:00:00+00:00", 12.5)
    new = _output_tree(tmp_path / "new", "2026-10-20T01:02:03.456+00:00", 3e-05)
    assert differential.compare(old, new) == []


def test_one_planted_byte_reports_exactly_that_file(tmp_path):
    old = _output_tree(tmp_path / "old", "2026-01-01T00:00:00+00:00", 12.5)
    new = _output_tree(tmp_path / "new", "2026-01-01T00:00:00+00:00", 12.5)
    report = new / "synthetic" / "reductions" / "t01.json"
    report.write_bytes(report.read_bytes().replace(b'"oracle_calls": 7', b'"oracle_calls": 8'))
    assert differential.compare(old, new) == ["synthetic/reductions/t01.json"]
    (new / "synthetic" / "extra.csv").write_text("")
    assert differential.compare(old, new) == ["synthetic/extra.csv",
                                              "synthetic/reductions/t01.json"]
