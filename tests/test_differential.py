import json
import shutil
from pathlib import Path

from conftest import load_module

differential = load_module("differential", "tools/differential.py")
parser_fuzz = load_module("parser_fuzz", "tools/parser_fuzz.py")  # imports differential


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


def test_parser_fuzz_catches_a_planted_tokenizer_difference(tmp_path):
    planted = tmp_path / "planted"
    shutil.copytree(differential.ROOT / "src" / "redustat", planted / "src" / "redustat",
                    ignore=shutil.ignore_patterns("__pycache__", "data"))
    count, report = parser_fuzz.differences(differential.ROOT, planted, 3, 400,
                                            workloads=False)
    assert (count, report) == (0, [])
    # Planted: a source holding a tab loses its last token.
    with (planted / "src" / "redustat" / "parser.py").open("a") as parser:
        parser.write("\n_tokenize = tokenize\n\n\ndef tokenize(source):\n"
                     "    texts, ends = _tokenize(source)\n"
                     "    return (texts[:-1], ends[:-1]) if '\\t' in source else (texts, ends)\n")
    count, report = parser_fuzz.differences(differential.ROOT, planted, 3, 400,
                                            workloads=False)
    assert count > 0 and len(report) == min(count, parser_fuzz.SHOWN)
    index, _, rest = report[0].partition(" ")[2].partition(" ")
    source = list(parser_fuzz.generated_inputs(3, 400))[int(index)]
    assert "\t" in source and ": [0]" in rest


def test_parser_fuzz_inputs_depend_on_the_seed_alone():
    first = list(parser_fuzz.generated_inputs(7, 600))
    assert first == list(parser_fuzz.generated_inputs(7, 600))
    assert list(parser_fuzz.generated_inputs(7, 100)) == first[:100]
    assert first != list(parser_fuzz.generated_inputs(8, 600))
    text = "".join(first)
    for needed in ("/*", "//", "²", "½", "٣", "\x0b", "\x00", "#", "\\", "else if",
                   "catch", "finally", "do", "synchronized", "outer :"):
        assert needed in text, needed
