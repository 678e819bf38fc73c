#!/usr/bin/env python3
"""Check that the working tree tokenizes and parses like revision ``REV``.

``REV``'s ``src/`` is taken from local git, as ``tools/differential.py``
does. Both trees then run ``redustat.parser.tokenize`` and ``parse_test`` on
the same inputs, each tree in its own subprocess:

- ``--inputs`` generated strings (200 000 by default), drawn from
  ``--seed``: half are random runs of fragments (tokens, comments,
  unterminated literals and comments, numerals such as ``²``, ``½`` and
  ``٣``, and characters that start no token: ``\\x0b``, NUL, ``#``, ``\\``);
  half are statement bodies holding every tree kind, one corruption
  (a character deleted, replaced or inserted) in half of them;
- then the source of every test of the three benchmark workloads at seeds 1
  and 2, and the shipped synthetic corpus.

For each input the outcomes must match: the token texts and end offsets,
the statements (id, kind by value, span, children, parent) and roots, and
for an error its class, message, line and column. The inputs on which the
trees differ are counted, the first few are printed with the first place
where their outcomes part, and the exit status is 1; with no difference it
is 0. Example, from the repository root:

    python3 tools/parser_fuzz.py HEAD^
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

from differential import ROOT, DifferentialError, checkout

TOOLS = Path(__file__).resolve().parent
WORKLOAD_SEEDS = (1, 2)
SHOWN = 5

FRAGMENTS = [
    "x", "é", "$a", "_b1", "foo", "lbl", "if", "else", "for", "while", "do", "try",
    "catch", "finally", "synchronized", "return", "throw", "break", "continue",
    "switch", "class", "record",
    "12", "0x1F", "3.14f", "1_000L", "²", "²5", "x²", "½", "a½", "٣", "٣4", "x٣",
    "\"s;}\"", "'c'", "'\\''", "\"a\\\"b\"", "\"a\\\nb\"", "\"open", "'", "\"", "\"\\",
    "(", ")", "{", "}", "[", "]", ";", ":", ",", ".", "=", "+", "-", "*", "/", "<",
    ">", "!", "&", "|", "@", "->",
    "// note\n", "// end", "/* c */", "/* two\nlines */", "/**/", "/*/", "/*", "*/",
    "\\", "#", "\x0b", "\x0c", "\x00", "\xa0",
]
SEPARATORS = ["", " ", "\n", "\t", "\r\n", "\r", "  "]

# Statements are written with one space between tokens, and each space
# becomes a drawn gap.
LEAVES = [
    "foo ( ) ;", "int x = 1 ;", "int [ ] xs = { 1 , 2 } ;", "List<String> n = build ( ) ;",
    "list . forEach ( x -> { consume ( x ) ; } ) ;",
    "Runnable r = new Runnable ( ) { public void run ( ) { body ( ) ; } } ;",
    "log ( \"a;b}{\" ) ;", "char c = ';' ;", "x² = ²5 / 2 ;", "return x ;",
    "throw new E ( \"}\" ) ;", "break ;", "continue lbl ;", ";", "assert x : \"m\" ;",
]
UNSUPPORTED = ["switch ( x ) { }", "class X { }"]
# Tree statements: the text before each branch, and after the last one.
TREES = {
    "if": ["if ( a < b ) {", "} else if ( c ) {", "} else {", "}"],
    "for": ["for ( int i = 0 ; i < n ; i ++ ) {", "}"],
    "foreach": ["for ( String s : items ) {", "}"],
    "while": ["while ( it . hasNext ( ) ) {", "}"],
    "do": ["do {", "} while ( x < 3 ) ;"],
    "try": ["try ( Reader r = open ( ) ) {", "} catch ( IOException e ) {",
            "} catch ( E f ) {", "} finally {", "}"],
    "block": ["{", "}"],
    "synchronized": ["synchronized ( lock ) {", "}"],
    "labeled": ["outer : {", "}"],
}
GAPS = [" ", "\n", "\t", "  ", "\r\n", " /*;}*/ ", "//;}\n", "/**/"]


def _fragments(rng: random.Random) -> str:
    return "".join(rng.choice(SEPARATORS) + rng.choice(FRAGMENTS)
                   for _ in range(rng.randrange(31))) + rng.choice(SEPARATORS)


def _statement(rng: random.Random, depth: int) -> list[str]:
    """The texts of one statement, in order."""
    if rng.random() < 0.02:
        return [rng.choice(UNSUPPORTED)]
    if depth == 4 or rng.random() < 0.5:
        return [rng.choice(LEAVES)]
    shape = TREES[rng.choice(sorted(TREES))]
    texts = []
    for branch in range(rng.randrange(1, len(shape))):
        texts.append(shape[branch])
        for _ in range(rng.randrange(3)):
            texts += _statement(rng, depth + 1)
    return texts + [shape[-1]]


def _body(rng: random.Random) -> str:
    """A statement body, corrupted once in half of the bodies."""
    texts = [text for _ in range(rng.randrange(1, 5)) for text in _statement(rng, 0)]
    source = rng.choice(GAPS) + "".join(
        piece + rng.choice(GAPS) for text in texts for piece in text.split(" "))
    if rng.random() < 0.5:
        at = rng.randrange(len(source) + 1)
        cut = rng.choice((0, 1))  # insert a fragment, or delete or replace one character
        source = source[:at] + rng.choice(FRAGMENTS[cut:] + [""] * cut) + source[at + cut:]
    return source


def generated_inputs(seed: int, count: int) -> Iterator[str]:
    """``count`` inputs, the same ones for the same seed."""
    rng = random.Random(f"parser-fuzz:{seed}")
    for _ in range(count):
        yield _fragments(rng) if rng.random() < 0.5 else _body(rng)


def workload_sources() -> Iterator[str]:
    """The source of every benchmark workload test, and of the synthetic corpus."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import workloads

    for seed in WORKLOAD_SEEDS:
        for make in (workloads.scripted_large_tests, workloads.command_tests,
                     workloads.study_tests):
            yield from (test.source for test in make(seed))
    for path in sorted((workloads.synthetic_dir(ROOT) / "tests").glob("*.java")):
        yield path.read_text(encoding="utf-8")


def inputs(seed: int, count: int, workloads: bool) -> Iterator[str]:
    yield from generated_inputs(seed, count)
    if workloads:
        yield from workload_sources()


def outcome(source: str) -> list:
    """What the importable ``redustat`` makes of ``source``, as JSON values.

    Any exception is an outcome, so that a crash in one tree is a difference.
    """
    from redustat.parser import parse_test, tokenize

    def error(exc: Exception) -> list:
        return [f"{type(exc).__module__}.{type(exc).__qualname__}", str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None)]

    try:
        tokens = list(tokenize(source))
    except Exception as exc:
        tokens = error(exc)
    try:
        ast = parse_test(source)
        parsed = [[(node.id, node.kind.value, node.span, node.children, node.parent)
                   for node in ast.statements], ast.roots,
                  sorted({type(node).__name__ for node in ast.statements})]
    except Exception as exc:
        parsed = error(exc)
    return [tokens, parsed]


def child(argv: list[str]) -> None:
    """Run in a tree's subprocess: print the ``redustat`` that is imported,
    then one line per input, a digest of its outcome, or with ``show``
    ``[index, input, outcome]`` for the listed indices only."""
    import redustat

    seed, count, workloads, show = int(argv[0]), int(argv[1]), argv[2] == "1", argv[3:]
    wanted = set(map(int, show))
    print(redustat.__file__)
    for index, source in enumerate(inputs(seed, count, workloads)):
        if not show:
            text = json.dumps(outcome(source)).encode()
            print(hashlib.blake2b(text, digest_size=12).hexdigest())
        elif index in wanted:
            print(json.dumps([index, source, outcome(source)]))


def _run(tree: Path, args: list[str], out) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, "-c", "import sys, parser_fuzz; parser_fuzz.child(sys.argv[1:])",
         *args], cwd=TOOLS, env=env, stdout=out, text=True)


def _lines(trees: tuple[Path, Path], args: list[str], scratch: Path) -> list[list[str]]:
    """Each tree's output lines for ``args``, the two runs side by side."""
    paths = [scratch / f"tree{number}.out" for number in (0, 1)]
    files = [path.open("w") for path in paths]
    try:
        runs = [_run(tree, args, out) for tree, out in zip(trees, files)]
        codes = [run.wait() for run in runs]
    finally:
        for out in files:
            out.close()
    outputs = []
    for tree, code, path in zip(trees, codes, paths):
        lines = path.read_text().splitlines()
        if code or not lines or not Path(lines[0]).is_relative_to(tree / "src"):
            raise DifferentialError(f"{tree / 'src'} did not run "
                                    f"(exit {code}, redustat {lines[:1]})")
        outputs.append(lines[1:])
    return outputs


def first_difference(old, new, path: str = "") -> str:
    """Where two outcomes first part, with both values there."""
    if isinstance(old, list) and isinstance(new, list):
        for index, (a, b) in enumerate(zip(old, new)):
            if a != b:
                return first_difference(a, b, f"{path}[{index}]")
        return f"{path}: length {len(old)} against {len(new)}"
    return f"{path}: {json.dumps(old)[:200]} against {json.dumps(new)[:200]}"


def differences(old: Path, new: Path, seed: int, count: int,
                workloads: bool = True) -> tuple[int, list[str]]:
    """The number of inputs on which trees ``old`` and ``new`` differ, and
    the report lines of the first :data:`SHOWN` of them."""
    with tempfile.TemporaryDirectory(prefix="redustat-parser-fuzz-") as scratch:
        args = [str(seed), str(count), "1" if workloads else "0"]
        old_digests, new_digests = _lines((old, new), args, Path(scratch))
        differing = [index for index, (a, b) in enumerate(zip(old_digests, new_digests))
                     if a != b]
        report = []
        if differing:
            shown = [str(index) for index in differing[:SHOWN]]
            old_shown, new_shown = _lines((old, new), args + shown, Path(scratch))
            for old_line, new_line in zip(old_shown, new_shown):
                index, source, old_outcome = json.loads(old_line)
                new_outcome = json.loads(new_line)[2]
                report.append(f"input {index} {json.dumps(source)[:200]}: "
                              f"{first_difference(old_outcome, new_outcome)}")
    return len(differing), report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="git revision to compare with")
    parser.add_argument("--inputs", type=int, default=200_000,
                        help="number of generated inputs (default 200000)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="redustat-parser-fuzz-") as scratch:
        try:
            old_tree = checkout(args.rev, Path(scratch) / "rev")
            count, report = differences(old_tree, ROOT, args.seed, args.inputs)
        except DifferentialError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print("\n".join(report + [f"{count} inputs differ from {args.rev} "
                              f"(seed {args.seed}, {args.inputs} generated inputs "
                              f"and the workload sources)"]))
    return 1 if count else 0


if __name__ == "__main__":
    raise SystemExit(main())
