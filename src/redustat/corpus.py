"""Corpus runner: reduce every configured test and report the metrics.

A corpus config is a JSON file::

    {"corpus_name": str,
     "output_dir": str,                    # relative to the config file
     "policy": "any" | "same",             # signature policy for external oracles
     "parallelism": int,                   # >= 1
     "entries": [
        {"name": str, "project": str,
         "test_file": "tests/t01.java",    # or "tree_file": "trees/t01.json"
         "oracle": {"mode": "scripted",
                    "failure_sets": [[3, 5]], "blockers": []}
         # or     {"mode": "command", "command_template": "...",
         #         "workdir": ".",             # relative to the config file
         #         "timeout_ms": 60000,
         #         "fail_exit_codes": [1], "signature_pattern": "..."}
        }, ...]}

The oracle keys other than ``mode`` are the fields of
:class:`~redustat.oracle.ScriptedOracle` or
:class:`~redustat.oracle.OracleConfig`, with their defaults; an unknown key,
or an ``oracle`` that is not an object, is an entry error. The corpus
``policy`` sets a command oracle's ``match_policy``.

Entries are reduced in parallel up to ``parallelism``; each entry is
isolated, so one failing entry never corrupts its siblings. A parallel run
starts the entries with the largest test files first, so that no worker sits
idle at the end while another works through a large entry; records, entry
statuses and reports still come out in config order. A command runs
in its entry's ``workdir`` (without one, in the current directory) and may
write there, so with ``parallelism`` above 1 no two command entries may share
a workdir. Per-entry reduction reports (with the removal trace) land in
``<output_dir>/reductions/<name>.json``, so entry names must be unique file
names: not empty, ``.`` or ``..``, without a path separator or NUL, and at
most 255 bytes with the ``.json``. Names and projects are written to UTF-8
files, so neither may hold a lone surrogate. A config that breaks these rules
is refused before any entry runs, so no output file is touched. So is an
``output_dir`` whose nearest existing path is not a directory.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .ingest import ingest_tree
from .metrics import EmptyCorpusError, metrics_from_reduction
from .model import TestCaseAst
from .oracle import MatchPolicy, Oracle, OracleConfig, ScriptedOracle
from .parser import parse_test
from .reducer import reduce_test
from .reports import EntryStatus, ReportBundle, assemble_bundle


class CorpusConfigError(ValueError):
    """Malformed corpus configuration."""


_NAME_MAX = 255  # bytes in a file name on common file systems


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    project: str
    test_path: Path
    is_tree_document: bool
    oracle_spec: dict

    def load_ast(self) -> TestCaseAst:
        text = self.test_path.read_text(encoding="utf-8")
        if self.is_tree_document:
            return ingest_tree(text, project=self.project)
        return parse_test(text, test_name=self.name, project=self.project)

    def build_oracle(self, policy: MatchPolicy) -> Oracle:
        if not isinstance(self.oracle_spec, dict):
            raise CorpusConfigError(f"entry {self.name!r}: oracle must be an object")
        spec = dict(self.oracle_spec)
        mode = spec.pop("mode", "scripted")
        oracle_types = {"scripted": ScriptedOracle, "command": OracleConfig}
        if mode not in oracle_types:
            raise CorpusConfigError(f"entry {self.name!r}: unknown oracle mode {mode!r}")
        oracle_type = oracle_types[mode]
        keys = {field.name for field in fields(oracle_type)} - {"match_policy"}
        for key in spec:
            if key not in keys:
                raise CorpusConfigError(f"entry {self.name!r}: unknown oracle key {key!r}")
        if "failure_sets" in spec:
            spec["failure_sets"] = tuple(frozenset(fs) for fs in spec["failure_sets"])
        for key in ("blockers", "fail_exit_codes"):
            if key in spec:
                spec[key] = frozenset(spec[key])
        if oracle_type is OracleConfig:
            spec["match_policy"] = policy
        return oracle_type(**spec)


@dataclass
class CorpusConfig:
    corpus_name: str
    entries: list[CorpusEntry]
    output_dir: Path
    policy: MatchPolicy = MatchPolicy.SAME_SIGNATURE
    parallelism: int = 1
    source_text: str = ""

    def __post_init__(self) -> None:
        if not self.entries:
            raise EmptyCorpusError("corpus has no entries")
        # A bool is an int, but true is no worker count.
        if type(self.parallelism) is not int or self.parallelism < 1:
            raise CorpusConfigError("parallelism must be an integer >= 1")
        names = [entry.name for entry in self.entries]
        if len(set(names)) != len(names):
            raise CorpusConfigError("entry names must be unique")
        for entry in self.entries:
            name = entry.name
            try:
                name.encode("utf-8")
                entry.project.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusConfigError(
                    f"entry {name!r}: {exc.object!r} cannot be written as UTF-8") from None
            # The name is the file name of the entry's reduction report.
            if (name in ("", ".", "..") or any(c in name for c in "/\\\0")
                    or len(os.fsencode(name + ".json")) > _NAME_MAX):
                raise CorpusConfigError(f"entry name {name!r} is not a file name")
        if self.parallelism > 1:
            self._check_workdirs_are_not_shared()

    def _check_workdirs_are_not_shared(self) -> None:
        owners: dict[str, str] = {}
        for entry in self.entries:
            spec = entry.oracle_spec
            if not isinstance(spec, dict) or spec.get("mode") != "command":
                continue
            workdir = spec.get("workdir", OracleConfig.workdir)
            if not isinstance(workdir, str):
                continue  # OracleConfig refuses it before any command runs
            workdir = os.path.realpath(workdir)
            if workdir in owners:
                raise CorpusConfigError(
                    f"entries {owners[workdir]!r} and {entry.name!r} both run "
                    f"their command in {workdir}; with parallelism > 1 each "
                    f"command entry needs a workdir of its own")
            owners[workdir] = entry.name


def load_corpus_config(path: str | Path) -> CorpusConfig:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusConfigError(f"config is not valid JSON: {exc}") from None

    if not isinstance(raw, dict):
        raise CorpusConfigError("config must be a JSON object")
    base = path.parent
    try:
        if not isinstance(raw["entries"], list):
            raise CorpusConfigError("entries must be a list")
        if not isinstance(raw.get("output_dir", ""), str):
            raise CorpusConfigError("output_dir must be a string")
        entries = []
        for raw_entry in raw["entries"]:
            if not isinstance(raw_entry, dict):
                raise CorpusConfigError(f"entry {raw_entry!r} is not an object")
            for key in ("name", "project", "test_file", "tree_file"):
                if not isinstance(raw_entry.get(key, ""), str):
                    raise CorpusConfigError(
                        f"entry {raw_entry.get('name')!r}: {key} must be a string")
            if "test_file" in raw_entry:
                test_path = base / raw_entry["test_file"]
                is_tree = False
            elif "tree_file" in raw_entry:
                test_path = base / raw_entry["tree_file"]
                is_tree = True
            else:
                raise CorpusConfigError(
                    f"entry {raw_entry.get('name')!r} needs test_file or tree_file")
            oracle_spec = raw_entry["oracle"]
            workdir = oracle_spec.get("workdir") if isinstance(oracle_spec, dict) else None
            if isinstance(workdir, str):
                oracle_spec = {**oracle_spec, "workdir": str(base / workdir)}
            entries.append(CorpusEntry(
                name=raw_entry["name"],
                project=raw_entry.get("project", ""),
                test_path=test_path,
                is_tree_document=is_tree,
                oracle_spec=oracle_spec,
            ))
        if not isinstance(raw["corpus_name"], str):
            raise CorpusConfigError("corpus_name must be a string")
        policy = raw.get("policy", "same")
        if policy not in ("any", "same"):
            raise CorpusConfigError(f"policy must be 'any' or 'same', not {policy!r}")
        return CorpusConfig(
            corpus_name=raw["corpus_name"],
            entries=entries,
            output_dir=base / raw.get("output_dir", "out"),
            policy=MatchPolicy(policy),
            parallelism=raw.get("parallelism", 1),
            source_text=text,
        )
    except KeyError as exc:
        raise CorpusConfigError(f"config missing field {exc}") from None


def _run_entry(entry: CorpusEntry,
               policy: MatchPolicy) -> tuple[EntryStatus, dict | None, dict | None]:
    """``(status, record, report)``; a failed entry has no record or report."""
    try:
        ast = entry.load_ast()
        outcome = reduce_test(ast, entry.build_oracle(policy))
        # The row's test and project cells are the entry's, as is its
        # report's file name: two tree documents may carry one test_name.
        record = {**metrics_from_reduction(ast, outcome),
                  "test": entry.name, "project": entry.project}
        return EntryStatus(entry.name, True), record, outcome.to_report()
    except Exception as exc:
        return EntryStatus(entry.name, False, f"{type(exc).__name__}: {exc}"), None, None


def _file_size(entry: CorpusEntry) -> int:
    """Bytes in the entry's test file; 0 when it cannot be read, so that
    ``_run_entry`` reports the error."""
    try:
        return entry.test_path.stat().st_size
    except OSError:
        return 0


def run_corpus(config: CorpusConfig) -> ReportBundle:
    """Reduce every entry, assemble the report bundle and write it to
    ``config.output_dir``.

    Per-entry failures are recorded in the bundle, not raised; callers turn
    ``bundle.entry_errors`` into a nonzero exit code.
    """
    existing = config.output_dir
    while not os.path.lexists(existing) and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise CorpusConfigError(f"output_dir {str(config.output_dir)!r}: "
                                f"{str(existing)!r} is not a directory")
    if config.parallelism == 1:
        results = [_run_entry(entry, config.policy) for entry in config.entries]
    else:
        entries = config.entries
        # Largest test file first (Graham's LPT rule), so the run does not end
        # with one worker still on a large entry while the others sit idle.
        order = sorted(range(len(entries)), key=lambda i: -_file_size(entries[i]))
        results = [None] * len(entries)
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            done = pool.map(lambda i: _run_entry(entries[i], config.policy), order)
            for i, result in zip(order, done):
                results[i] = result

    statuses, records, reports = zip(*results)
    records = [record for record in records if record is not None]
    if not records:
        raise EmptyCorpusError("every corpus entry failed; nothing to report" + "".join(
            f"\n{status.name}: {status.error}" for status in statuses))
    bundle = assemble_bundle(
        corpus_name=config.corpus_name,
        records=records,
        provenance_source=config.source_text,
        entry_statuses=statuses,
        reduction_reports=[report for report in reports if report is not None],
    )
    bundle.write(config.output_dir)
    return bundle
