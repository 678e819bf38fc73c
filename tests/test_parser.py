import itertools
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redustat.model import Category, StmtKind, count_categories
from redustat.parser import (
    StatementSyntaxError,
    UnsupportedConstructError,
    parse_test,
    tokenize,
)

from conftest import token_texts


def kinds(ast):
    return [node.kind for node in ast.statements]


def test_two_flat_leaves():
    ast = parse_test("int x = 1; assertEquals(1, x);")
    assert kinds(ast) == [StmtKind.EXPRESSION, StmtKind.EXPRESSION]
    assert ast.roots == (0, 1)


def test_if_with_braced_children():
    ast = parse_test("if (a) { foo(); bar(); }")
    assert kinds(ast) == [StmtKind.IF, StmtKind.EXPRESSION, StmtKind.EXPRESSION]
    assert ast.statements[0].children == (1, 2)


def test_ids_are_depth_first_preorder():
    ast = parse_test("first();\nif (a) { inner1(); if (b) { deep(); } }\nlast();\n")
    assert kinds(ast) == [
        StmtKind.EXPRESSION,      # first
        StmtKind.IF,              # outer if
        StmtKind.EXPRESSION,      # inner1
        StmtKind.IF,              # nested if
        StmtKind.EXPRESSION,      # deep
        StmtKind.EXPRESSION,      # last
    ]
    assert ast.roots == (0, 1, 5)
    assert ast.statements[1].children == (2, 3)
    assert ast.statements[3].children == (4,)


def test_else_if_chain_is_one_if_node():
    ast = parse_test("if (a) { x(); } else if (b) { y(); } else { z(); }")
    assert count_categories(ast) == (4, 3, 1)
    assert ast.statements[0].children == (1, 2, 3)


def test_try_catch_finally_flattens_into_one_node():
    ast = parse_test(
        "try { open(); use(); } catch (IOException e) { report(e); } "
        "finally { close(); }"
    )
    assert kinds(ast)[0] is StmtKind.TRY
    assert len(ast.statements[0].children) == 4
    assert count_categories(ast) == (5, 4, 1)


def test_try_with_resources():
    ast = parse_test("try (Reader r = open()) { use(r); }")
    assert kinds(ast) == [StmtKind.TRY, StmtKind.EXPRESSION]


def test_loop_kinds():
    ast = parse_test(
        "for (int i = 0; i < 3; i++) { a(); }\n"
        "for (String s : items) { b(); }\n"
        "while (x) { c(); }\n"
        "do { d(); } while (x);\n"
    )
    assert [k for k in kinds(ast) if k is not StmtKind.EXPRESSION] == [
        StmtKind.FOR, StmtKind.FOR_EACH, StmtKind.WHILE, StmtKind.DO_WHILE,
    ]


def test_block_synchronized_labeled_empty():
    ast = parse_test(
        "{ a(); }\n"
        "synchronized (lock) { b(); }\n"
        "outer: { c(); }\n"
        ";\n"
    )
    top = [ast.statements[i].kind for i in ast.roots]
    assert top == [StmtKind.BLOCK, StmtKind.SYNCHRONIZED, StmtKind.LABELED,
                   StmtKind.EMPTY]


def test_jump_statements_are_leaves():
    ast = parse_test(
        "while (x) { if (y) { break; } continue; }\n"
        "return result;\n"
        "throw new IllegalStateException(msg);\n"
    )
    by_kind = {node.kind for node in ast.statements}
    assert {StmtKind.BREAK, StmtKind.CONTINUE, StmtKind.RETURN,
            StmtKind.THROW} <= by_kind
    for node in ast.statements:
        if node.kind in (StmtKind.BREAK, StmtKind.CONTINUE, StmtKind.RETURN,
                         StmtKind.THROW):
            assert not node.children


def test_declaration_shaped_leaves_are_expression_leaves():
    # No output tells a declaration from an expression statement: reports
    # hold ids and metrics count leaves and trees.
    lines = [
        "int x = 1;",
        "final String s = \"a\";",
        "Map<String, List<Integer>> m = build();",
        "double[] values = new double[3];",
        "x = compute();",
        "foo.bar(x);",
    ]
    source = "\n".join(lines) + "\n"
    ast = parse_test(source)
    assert kinds(ast) == [StmtKind.EXPRESSION] * len(lines)
    assert [source[start:end] for start, end in
            (node.span for node in ast.statements)] == lines
    assert ast.roots == tuple(range(len(lines)))


def test_lambda_and_anonymous_class_stay_opaque():
    ast = parse_test(
        "list.forEach(x -> { consume(x); });\n"
        "Runnable r = new Runnable() { public void run() { body(); } };\n"
    )
    assert count_categories(ast) == (2, 2, 0)


def test_string_literals_hide_separators():
    ast = parse_test('log("a;b}{"); call();')
    assert count_categories(ast) == (2, 2, 0)


def test_comments_are_skipped():
    ast = parse_test("// leading\nfoo(); /* between ; } */ bar();\n")
    assert count_categories(ast) == (2, 2, 0)
    assert token_texts(ast.source) == ["foo", "(", ")", ";", "bar", "(", ")", ";"]


def test_spans_nest_and_cover_statements():
    source = "if (a) { foo(); }\nbar();\n"
    ast = parse_test(source)
    outer = ast.statements[0].span
    inner = ast.statements[1].span
    assert source[outer[0]:outer[1]] == "if (a) { foo(); }"
    assert source[inner[0]:inner[1]] == "foo();"


def test_syntax_error_carries_line_and_column():
    with pytest.raises(StatementSyntaxError) as info:
        parse_test("foo();\nbar(\n")
    assert info.value.line == 2
    assert info.value.column == 1


def test_positions_count_a_backslash_newline_inside_a_literal():
    with pytest.raises(StatementSyntaxError) as info:
        parse_test('s("a\\\nb");\nfoo(')
    assert (info.value.line, info.value.column) == (3, 1)


def test_missing_semicolon_is_a_syntax_error():
    with pytest.raises(StatementSyntaxError):
        parse_test("foo()")


def test_unbraced_if_body_is_rejected():
    with pytest.raises(StatementSyntaxError):
        parse_test("if (a) foo();")


def test_unsupported_construct_is_reported_by_name():
    with pytest.raises(UnsupportedConstructError) as info:
        parse_test("foo();\nswitch (x) { }\n")
    assert info.value.construct == "switch"
    assert str(info.value) == "unsupported construct 'switch' (line 2, column 1)"
    assert (info.value.line, info.value.column) == (2, 1)


def test_unmatched_closing_brace():
    with pytest.raises(StatementSyntaxError):
        parse_test("foo(); }")


def test_bad_for_header():
    with pytest.raises(StatementSyntaxError):
        parse_test("for (nothing) { a(); }")


# Each case maps a malformed body to the error it raises: (message without
# the position, line, column).
PARSE_ERROR_CASES = [
    ("foo(a));", ("unmatched ')'", 1, 7)),
    ("x = a[1]];", ("unmatched ']'", 1, 9)),
    ("if (a) { x = y }; }", ("unmatched '}'", 1, 16)),
    ("foo(x -> { a(); }});", ("unmatched ')'", 1, 19)),
    ("foo(a]);", ("unmatched ')'", 1, 7)),
    ("foo(); ) bar();", ("unmatched ')'", 1, 8)),
    ("return ) ;", ("unmatched ')'", 1, 8)),
    ("{ foo() }", ("unmatched '}'", 1, 9)),
    ("foo(); }", ("unmatched '}'", 1, 8)),
    ("a();\nfoo()", ("statement not terminated by ';'", 2, 1)),
    ("a();\nfoo(", ("statement not terminated by ';'", 2, 1)),
    ("break", ("statement not terminated by ';'", 1, 1)),
    ("if (a) { foo();", ("missing closing '}'", 1, 15)),
    ("while (x) { { a(); }", ("missing closing '}'", 1, 20)),
    ("x : foo();", ("labeled statement body must be a braced block", 1, 5)),
    ("x:", ("labeled statement body must be a braced block", 1, 2)),
    ("throw : foo()", ("statement not terminated by ';'", 1, 1)),
    ("do { } while (x)", ("unexpected end of input, expected ';'", 1, 16)),
    ("do { a(); } while (x) foo();", ("expected ';', found 'foo'", 1, 23)),
    ("do { }", ("unexpected end of input, expected 'while'", 1, 6)),
    ("if (a) foo();", ("If body must be a braced block", 1, 8)),
    ("if (a) { b(); } else c();", ("If body must be a braced block", 1, 22)),
    ("try { } catch (E e) x();", ("Try body must be a braced block", 1, 21)),
    ("while (x", ("unexpected end of input", 1, 8)),
    ("if", ("unexpected end of input, expected '('", 1, 1)),
    ("for (nothing) { a(); }", ("for header needs either two ';' or a ':'", 1, 1)),
    ("foo();\nswitch (x) { }", ("unsupported construct 'switch'", 2, 1)),
    ("a(); class X { }", ("unsupported construct 'class'", 1, 6)),
    ("synchronized lock { }", ("expected '(', found 'lock'", 1, 14)),
    ("try { } finally x();", ("Try body must be a braced block", 1, 17)),
    ("try { } catch { }", ("expected '(', found '{'", 1, 15)),
    ("do x(); while (y);", ("DoWhile body must be a braced block", 1, 4)),
    ("if (a) { } else if b { }", ("expected '(', found 'b'", 1, 20)),
    ("if (a) { } else", ("If body must be a braced block", 1, 12)),
    ("for (;;) x();", ("For body must be a braced block", 1, 10)),
    ("{ a();", ("missing closing '}'", 1, 6)),
    ("lbl: { } x", ("statement not terminated by ';'", 1, 10)),
    ("a; b) ; c;", ("unmatched ')'", 1, 5)),
    ("{ a; ] }", ("unmatched ']'", 1, 6)),
]


@pytest.mark.parametrize("source, expected", PARSE_ERROR_CASES)
def test_parse_error_table(source, expected):
    message, line, column = expected
    with pytest.raises(StatementSyntaxError) as info:
        parse_test(source)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


# -- tokens ------------------------------------------------------------------

# Each case maps a source either to its token texts or to the error it
# raises: (message without the position, line, column).
TOKEN_CASES = [
    ("é = 1;", ["é", "=", "1", ";"]),
    ("$x _y", ["$x", "_y"]),
    ("x$1.y", ["x$1", ".", "y"]),
    ("x² a½", ["x²", "a½"]),
    ("1_000L", ["1_000L"]),
    ("0x1F", ["0x1F"]),
    ("3.14f", ["3.14f"]),
    ("1$", ["1", "$"]),
    ("²5", ["²5"]),
    ("²5.5", ["²5.5"]),
    ("a.b", ["a", ".", "b"]),
    ("v.2", ["v", ".", "2"]),
    ("a\r\nb", ["a", "b"]),
    ("/**/x//c", ["x"]),
    ("s(\"a\\\"b\", '\\'');", ["s", "(", "\"a\\\"b\"", ",", "'\\''", ")", ";"]),
    ("½", ("unexpected character '½'", 1, 1)),
    ("Ⅻ", ("unexpected character 'Ⅻ'", 1, 1)),
    ("a\fb", ("unexpected character '\\x0c'", 1, 2)),
    ("/* a\n b */\n#", ("unexpected character '#'", 3, 1)),
    ("x;\n  \"abc", ("unterminated literal", 2, 3)),
    ("x;\n 'a\nb'", ("unterminated literal", 2, 2)),
    ("\"\\", ("unterminated literal", 1, 1)),
    ("x;\n  /* never closed", ("unterminated block comment", 2, 3)),
    # A comment does not run on to a later "*/" past the bad character.
    ("a; /* c */ \\ /* d */", ("unexpected character '\\\\'", 1, 12)),
    ("/* ² */ ½", ("unexpected character '½'", 1, 9)),
    # No token, or no newline after the last comment; "/" beside comments.
    ("", []),
    (" \t\r\n", []),
    ("x; // end", ["x", ";"]),
    ("x; /* c */", ["x", ";"]),
    ("a /**// b", ["a", "/", "b"]),
    ("a/ /*/ */b", ["a", "/", "b"]),
    ("/ //c\n/", ["/", "/"]),
    ("a / /* c */ / b;", ["a", "/", "/", "b", ";"]),
    ("x² /* ² */ ²5 // ½\n", ["x²", "²5"]),
]


@pytest.mark.parametrize("source, expected", TOKEN_CASES)
def test_token_table(source, expected):
    if isinstance(expected, list):
        texts, ends = tokenize(source)
        assert texts == expected
        assert [source[end - len(text):end] for text, end in zip(texts, ends)] == texts
        return
    message, line, column = expected
    with pytest.raises(StatementSyntaxError) as info:
        token_texts(source)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


_FRAGMENTS = st.sampled_from([
    "x", "é", "$a", "_b1", "foo", "a.b", "12", "0x1F", "3.14f", "1_000L",
    "\"s;}\"", "'c'", "'\\''", "\"a\\\"b\"", "\"a\\\nb\"",
    "(", ")", "{", "}", "[", "]", ";", ":", ",", ".", "=", "+", "-", "*",
    "/", "<", ">", "!", "&", "|", "@",
    "// note\n", "/* c */", "/* two\nlines */",
])
_SEPARATORS = st.sampled_from(["", " ", "\n", "\t", "\r\n", "  "])
_SKIPPED = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*", re.DOTALL)


def _first_error(source):
    """``(message, line, column)`` of the first malformed piece of a source
    made of the fragments above, or None; found by stepping through it.

    Outside comments and literals, a character of those fragments either
    belongs to some token or is a backslash, left over where a literal's
    quotes were paired differently than in its fragment. The examples below
    add a vertical tab and a form feed, which start no token and are not
    whitespace.
    """
    pos = 0
    while pos < len(source):
        if source.startswith("//", pos):
            newline = source.find("\n", pos)
            pos = len(source) if newline < 0 else newline
        elif source.startswith("/*", pos):
            close = source.find("*/", pos + 2)
            if close < 0:
                return _at("unterminated block comment", source, pos)
            pos = close + 2
        elif source[pos] in "\"'":
            quote, scan = source[pos], pos + 1
            while scan < len(source) and source[scan] not in (quote, "\n"):
                scan += 2 if source[scan] == "\\" else 1
            if scan >= len(source) or source[scan] != quote:
                return _at("unterminated literal", source, pos)
            pos = scan + 1
        elif source[pos] in "\\\x0b\x0c":
            return _at(f"unexpected character {source[pos]!r}", source, pos)
        else:
            pos += 1
    return None


def _at(message, source, pos):
    lines = source[:pos].split("\n")
    return message, len(lines), len(lines[-1]) + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_SEPARATORS, _FRAGMENTS), max_size=30), _SEPARATORS)
# "//" hides the literal's opening quote, so its closing one opens a literal
# that the end of the source leaves unterminated; with a second literal after
# it, that quote closes early and leaves the second literal's backslash.
@example(parts=[("", "/"), ("", "/"), ("", "\"a\\\nb\"")], tail="")
@example(parts=[("", "/"), ("", "/"), ("", "\"a\\\nb\""), ("", "\"a\\\nb\"")], tail="")
# A run of whitespace before a bad character, after a token and after a line
# comment: the error lies past the run.
@example(parts=[("", "x"), (" ", "\\")], tail="")
@example(parts=[("", "x"), ("\t", "\x0b")], tail="")
@example(parts=[("", "x"), ("\r\n", "\x0c")], tail="")
@example(parts=[("", "// note\n"), (" ", "\x0c")], tail="")
@example(parts=[("", "// note\n"), ("\t", "\\")], tail="")
@example(parts=[("", "// note\n"), ("\r\n", "\x0b")], tail="")
@example(parts=[("", "x"), ("  ", "/* never closed")], tail="")
# Nothing, or only whitespace; a comment at the very end.
@example(parts=[], tail="")
@example(parts=[], tail="\r\n")
@example(parts=[("", "x"), (" ", "/* c */")], tail="")
def test_tokens_cover_the_source_between_skipped_gaps(parts, tail):
    source = "".join(sep + fragment for sep, fragment in parts) + tail
    expected_error = _first_error(source)
    try:
        texts, ends = tokenize(source)
    except StatementSyntaxError as error:
        message, line, column = expected_error or ("no error", 0, 0)
        assert str(error) == f"{message} (line {line}, column {column})"
        return
    assert expected_error is None
    assert len(texts) == len(ends)
    position = 0
    for text, end in zip(texts, ends):
        start = end - len(text)
        assert text == source[start:end]
        assert position <= start < end
        assert _SKIPPED.fullmatch(source[position:start])
        position = end
    assert _SKIPPED.fullmatch(source[position:])


def test_malformed_source_is_rejected_in_linear_time():
    # Retrying the piece pattern at every position after the first bad one
    # took 19 s on 20 000 spaces before a "#", so it would take hours here;
    # the child is killed at the timeout.
    script = textwrap.dedent("""\
        from redustat.parser import StatementSyntaxError, tokenize
        cases = [
            (" " * 1_000_000 + "#", "unexpected character '#' (line 1, column 1000001)"),
            ("/* " * 300_000, "unterminated block comment (line 1, column 1)"),
            ('"\\\\' * 500_000, "unterminated literal (line 1, column 1)"),
        ]
        for source, message in cases:
            try:
                tokenize(source)
            except StatementSyntaxError as error:
                assert str(error) == message, (str(error), message)
            else:
                raise AssertionError(f"no error for {source[:10]!r}...")
        """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=30)


# -- round trip --------------------------------------------------------------

# Statements are written with one space between tokens; each space becomes a
# drawn gap, so comments can sit between any two tokens. Literals and
# comments hold no space.
_LEAF_TEXTS = [
    "foo ( ) ;",
    "int x = 1 ;",
    "int [ ] xs = { 1 , 2 } ;",
    "List<String> names = build ( ) ;",
    "list . forEach ( x -> { consume ( x ) ; } ) ;",
    "Runnable r = new Runnable ( ) { public void run ( ) { body ( ) ; } } ;",
    'log ( "a;b}{" ) ;',
    "char c = ';' ;",
    "char d = '}' ;",
    "return x ;",
    'throw new IllegalStateException ( "}" ) ;',
    "break ;",
    "continue ;",
    ";",
]
# Tree statements: the text before each branch, and after the last one.
_TREE_SHAPES = {
    "if": ["if ( a < b ) {", "} else if ( c ) {", "} else {", "}"],
    "for": ["for ( int i = 0 ; i < n ; i ++ ) {", "}"],
    "foreach": ["for ( String s : items ) {", "}"],
    "while": ["while ( it . hasNext ( ) ) {", "}"],
    "do": ["do {", "} while ( x < 3 ) ;"],
    "try": ["try ( Reader r = open ( ) ) {", "} catch ( IOException e ) {",
            "} finally {", "}"],
    "block": ["{", "}"],
    "synchronized": ["synchronized ( lock ) {", "}"],
    "labeled": ["outer : {", "}"],
}
_GAPS = st.sampled_from([" ", "\n", "\t", "  ", " /*;}*/ ", "//;}\n", "/**/"])


@st.composite
def _statement(draw, depth):
    """``(leaf text, None)`` or ``(tree shape, branches of statements)``."""
    if depth == 4 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAF_TEXTS)), None
    shape = draw(st.sampled_from(sorted(_TREE_SHAPES)))
    branches = draw(st.lists(st.lists(_statement(depth + 1), max_size=2),
                             min_size=1, max_size=len(_TREE_SHAPES[shape]) - 1))
    return shape, branches


def _render_forest(forest, gaps):
    """Source text, and ``(parent, category, span)`` per statement in pre-order."""
    parts, expected = [], []
    gap = itertools.cycle(gaps)
    position = 0

    def write(text):
        nonlocal position
        start = position
        for piece in text.split(" "):
            if position > start:
                parts.append(next(gap))
                position += len(parts[-1])
            parts.append(piece)
            position += len(piece)
        parts.append(next(gap))
        position += len(parts[-1])
        return start, position - len(parts[-1])

    def visit(statement, parent):
        text, branches = statement
        index = len(expected)
        expected.append(None)
        if branches is None:
            expected[index] = (parent, Category.NON_TREE, write(text))
            return
        shape = _TREE_SHAPES[text]
        start, _ = write(shape[0])
        for number, branch in enumerate(branches):
            if number:
                write(shape[number])
            for child in branch:
                visit(child, index)
        _, end = write(shape[-1])
        expected[index] = (parent, Category.TREE, (start, end))

    parts.append(gaps[0])
    position = len(gaps[0])
    for statement in forest:
        visit(statement, None)
    return "".join(parts), expected


@settings(max_examples=200, deadline=None)
@given(st.lists(_statement(0), min_size=1, max_size=4),
       st.lists(_GAPS, min_size=1, max_size=8))
def test_parse_gives_back_a_rendered_forest(forest, gaps):
    source, expected = _render_forest(forest, gaps)
    ast = parse_test(source)
    assert [(node.parent, node.category, node.span)
            for node in ast.statements] == expected
