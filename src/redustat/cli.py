"""Command line interface.

Subcommands:

- ``redustat reduce <test> --oracle-cmd <tpl>``: reduce one failing test with
  an external command oracle and print (or write) the reduction report. The
  test and oracle are read as a one-entry corpus: the report is that entry's.
- ``redustat corpus <config>``: run a configured corpus of reductions and
  write the report bundle.
- ``redustat replicate --table I|II [--fixture <csv>]``: recompute the
  published analysis from a table fixture.
- ``redustat stats --csv <file> --cols a,b --test wilcoxon|shapiro``: run one
  hypothesis test over columns of a metrics table (as ``corpus`` writes it).

Exit codes: 0 success, 1 entry/reduction errors, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import CorpusEntry, load_corpus_config, run_corpus
from .metrics import NUMBER_COLUMNS, format_percent, percent_samples, read_records_csv
from .oracle import MatchPolicy, OriginalDoesNotFailError, OracleSpawnError
from .reducer import reduce_test
from .replicate import replicate_from_fixtures
from .reports import _rewrite, dump_reduction_report
from .stats import shapiro_wilk, wilcoxon_signed_rank

#: Matches the first line mentioning a Java-ish failure; group 0 is the signature.
#: The dotted name may only start where no longer one could (not after a word
#: character or after a word character and a dot), so a long run of word
#: characters is scanned once instead of once from each of its offsets.
DEFAULT_SIGNATURE_PATTERN = (r"(?<!\w)(?<!\w\.)(?:\w+\.)*\w*(?:Error|Exception|Failure)[^\n]*"
                             r"|FAIL(?:URE|ED)?[^\n]*")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OriginalDoesNotFailError, OracleSpawnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redustat",
        description="Statement-level failing-test reduction and replication statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="reduce one failing test")
    p_reduce.add_argument("test", help="test-body file (.json is ingested as a tree document)")
    p_reduce.add_argument("--oracle-cmd", required=True,
                          help="command template; {candidate} is the candidate path")
    p_reduce.add_argument("--policy", choices=["any", "same"], default="same")
    p_reduce.add_argument("--timeout", type=int, default=60_000, metavar="MS")
    p_reduce.add_argument("--fail-exit-codes", default="1",
                          help="comma-separated exit codes meaning Fail (default: 1)")
    p_reduce.add_argument("--signature-pattern", default=DEFAULT_SIGNATURE_PATTERN,
                          help="regex extracting the failure fingerprint")
    p_reduce.add_argument("--workdir", default=".")
    p_reduce.add_argument("--out", help="write the reduction report JSON here")
    p_reduce.set_defaults(handler=_cmd_reduce)

    p_corpus = sub.add_parser("corpus", help="run a corpus of reductions")
    p_corpus.add_argument("config", help="corpus config JSON")
    p_corpus.add_argument("--output-dir", help="override the config's output_dir")
    p_corpus.set_defaults(handler=_cmd_corpus)

    p_repl = sub.add_parser("replicate", help="recompute the published analysis")
    p_repl.add_argument("--table", choices=["I", "II"], required=True)
    p_repl.add_argument("--fixture", help="metrics CSV (default: packaged fixture)")
    p_repl.add_argument("--output-dir", help="also write the report bundle here")
    p_repl.set_defaults(handler=_cmd_replicate)

    p_stats = sub.add_parser("stats",
                             help="run one hypothesis test over metrics-table columns")
    p_stats.add_argument("--csv", required=True, dest="csv_path",
                         help="metrics CSV, as corpus writes it")
    p_stats.add_argument("--cols", required=True,
                         help="column names: one for shapiro, two for wilcoxon")
    p_stats.add_argument("--test", choices=["wilcoxon", "shapiro"], required=True,
                         dest="test_name")
    p_stats.set_defaults(handler=_cmd_stats)
    return parser


def _cmd_reduce(args) -> int:
    # Refused before the baseline, so a bad path costs no oracle run.
    out = Path(args.out) if args.out else None
    if out and (out.is_dir() or not out.absolute().parent.is_dir()):
        raise ValueError(f"--out {args.out!r} must name a file in an existing directory")
    path = Path(args.test)
    # A reduction is a corpus entry without a bundle. The exit codes are a lazy
    # map, parsed as the oracle is built: a test that cannot be read is reported first.
    entry = CorpusEntry(name=path.stem, project="", test_path=path,
                        is_tree_document=path.suffix == ".json",
                        oracle_spec={"mode": "command", "command_template": args.oracle_cmd,
                                     "workdir": args.workdir, "timeout_ms": args.timeout,
                                     "fail_exit_codes": map(int, args.fail_exit_codes.split(",")),
                                     "signature_pattern": args.signature_pattern})
    ast = entry.load_ast()
    oracle = entry.build_oracle(MatchPolicy(args.policy))
    outcome = reduce_test(ast, oracle)
    report = dump_reduction_report(outcome.to_report())
    if out:
        _rewrite(out, report)
    else:
        sys.stdout.write(report)
    print(f"retained {len(outcome.retained)}/{ast.total_statements} statements "
          f"({outcome.oracle_calls} oracle calls)", file=sys.stderr)
    return 0


def _cmd_corpus(args) -> int:
    config = load_corpus_config(args.config)
    if args.output_dir:
        config.output_dir = Path(args.output_dir)
    bundle = run_corpus(config)
    for status in bundle.entry_statuses:
        marker = "ok" if status.ok else f"ERROR {status.error}"
        print(f"{status.name}: {marker}")
    for line in bundle.stats["claims"]:
        print(line)
    print(f"bundle written to {config.output_dir}")
    return 1 if bundle.entry_errors else 0


def _cmd_replicate(args) -> int:
    bundle = replicate_from_fixtures(args.table, args.fixture)
    means = bundle.means
    print(f"table {args.table}: {means['n']} tests")
    print("mean row: "
          f"stmts={means['stmts']:.2f} ntn={means['ntn']:.2f} tn={means['tn']:.2f} "
          f"ars={means['ars']:.2f} prs={format_percent(means['prs'])}% "
          f"antrs={means['antrs']:.2f} pntrs={format_percent(means['pntrs'])}% "
          f"atrs={means['atrs']:.2f} ptrs={format_percent(means['ptrs'])}%")
    for pair, result in bundle.stats["wilcoxon"].items():
        if "skipped" in result:
            print(f"wilcoxon {pair}: skipped ({result['skipped']})")
        else:
            print(f"wilcoxon {pair}: V={result['statistic']:g} "
                  f"p={result['p_value']:.4g} ({result['method']}, "
                  f"n={result['n_used']})")
    for line in bundle.stats["claims"]:
        print(line)
    if args.output_dir:
        bundle.write(args.output_dir)
        print(f"bundle written to {args.output_dir}")
    return 0


def _cmd_stats(args) -> int:
    columns = [c.strip() for c in args.cols.split(",") if c.strip()]
    unknown = [c for c in columns if c not in NUMBER_COLUMNS]
    if unknown:
        raise ValueError(f"not numeric metrics columns: {', '.join(unknown)}")
    records = read_records_csv(Path(args.csv_path).read_text(encoding="utf-8"))

    samples = percent_samples(records, columns)
    if args.test_name == "shapiro":
        if len(columns) != 1:
            raise ValueError("shapiro needs exactly one column")
        result = shapiro_wilk(samples[0])
    else:
        if len(columns) != 2:
            raise ValueError("wilcoxon needs exactly two columns")
        result = wilcoxon_signed_rank(samples[0], samples[1])
    print(f"method={result.method} statistic={result.statistic:g} "
          f"p={result.p_value:.6g} n={result.n_used} "
          f"ties={'yes' if result.ties_present else 'no'} "
          f"zeros_dropped={result.zeros_dropped}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
