"""Parser for a Java-like statement grammar over test-method bodies.

The input is the *body* of a test method: a sequence of statements without
the enclosing method braces. Expressions are opaque token spans; only the
statement structure is modelled, because reduction removes whole statements.
Consequences of that choice:

- lambda bodies and anonymous-class bodies are part of the surrounding
  expression statement, not nested statements;
- every control construct requires a braced body (``if (x) foo();`` is
  rejected), which keeps removal of any child statement syntactically safe;
- an ``if``/``else if``/``else`` chain is a single ``If`` node whose children
  are the statements of all branches, flattened in source order, mirroring
  how ``try``/``catch``/``finally`` is one ``Try`` node;
- a leaf's kind comes from its first token alone: ``return``, ``throw``,
  ``break`` and ``continue`` name theirs, and every other leaf, a local
  declaration included, is an ``ExpressionStmt``. Reduction and the
  metrics only tell leaves from tree statements.

The full grammar is documented in ``docs/grammar.md``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import eq, not_

from .model import StatementNode, StmtKind, TestCaseAst, new_node


class StatementSyntaxError(ValueError):
    """Malformed input, with 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UnsupportedConstructError(StatementSyntaxError):
    """Grammatically recognizable construct outside the supported subset."""


# A comment is a piece of its own, so nothing follows it in the pattern that
# could make it extend past its end (the first "*/" or the newline).
_COMMENT = r"//[^\n]*|/\*.*?\*/"

# Token classes, told apart by their first character: word, punctuation
# ("/" only where it starts no comment), number, string or char literal (no
# raw newline except after a backslash). "NUMERALS" and "DIGITS" are filled
# per source, see _numerals.
_TOKEN = r"""
    [^\W\dNUMERALS][\w$]* | \$[\w$]*
  | [(){}\[\];:,.?=+\-*%<>!&|^~@] | /(?![/*])
  | [\dDIGITS][\w.]*
  | "(?:\\.|[^"\\\n])*" | '(?:\\.|[^'\\\n])*'
"""

_DEPTH = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def _line_column(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _numerals(source: str) -> str:
    r"""The characters of ``source`` that ``\w`` matches but that are neither
    letters nor ``\d`` digits, such as "²" and "½".

    Such a character starts no word: it starts a number when
    ``str.isdigit()`` holds ("²5") and no token at all otherwise ("½").
    """
    if source.isascii():
        return ""
    return "".join(sorted(c for c in set(source)
                          if c.isnumeric() and not c.isalpha() and not c.isdecimal()))


@lru_cache(maxsize=16)
def _patterns(numerals: str) -> tuple[re.Pattern, re.Pattern]:
    """The pattern of one piece: whitespace, then a token, a comment or the
    end of the source; and the scan: a piece or, where none starts, the rest
    of the source, so a malformed source is scanned once rather than retried
    at every later position. Neither captures, so ``findall`` returns the
    pieces. A piece fails only where, after whitespace, no token, comment or
    end of the source starts, so the error lies past that whitespace.
    """
    token = (_TOKEN.replace("NUMERALS", re.escape(numerals))
             .replace("DIGITS", re.escape("".join(filter(str.isdigit, numerals)))))
    piece = rf"[ \t\r\n]*(?:{token}|{_COMMENT}|\Z)"
    return tuple(re.compile(text, re.VERBOSE | re.DOTALL) for text in (piece, rf"{piece}|.+"))


def tokenize(source: str) -> tuple[list[str], list[int]]:
    """Split source into token texts and their end offsets, dropping
    whitespace and comments; a token starts at its end minus its length.

    String and character literals become single tokens so that braces or
    semicolons inside them never affect statement boundaries.
    """
    # A piece's text is the piece without its leading whitespace: a token, a
    # comment, or empty at the end of the source, where the scan ends with
    # one or two empty texts. Before them, a piece the piece pattern does not
    # match at its start is the rest of a malformed source.
    piece, scan = _patterns(_numerals(source))
    pieces = scan.findall(source)
    texts = list(map(str.lstrip, pieces, repeat(" \t\r\n")))
    ends = list(accumulate(map(len, pieces)))
    count = texts.index("")
    del texts[count:], ends[count:]
    if count and not piece.match(source, ends[-1] - len(pieces[count - 1])):
        pos = ends[-1] - len(texts[-1])
        message = ("unterminated block comment" if source.startswith("/*", pos)
                   else "unterminated literal" if source[pos] in "\"'"
                   else f"unexpected character {source[pos]!r}")
        raise StatementSyntaxError(message, *_line_column(source, pos))
    if "/" in source:  # a comment's text starts "//" or "/*"; the "/" token is "/"
        kept = list(map(not_, map(str.startswith, texts, repeat(("//", "/*")))))
        return list(compress(texts, kept)), list(compress(ends, kept))
    return texts, ends


# -- parsing ---------------------------------------------------------------

_UNSUPPORTED_STARTERS = {"switch", "class", "interface", "enum", "record"}

#: Tree keywords whose body follows a ``( ... )`` header, and their kinds;
#: ``_Parser._for_kind`` tells a ``for`` from a for-each loop.
_HEADED_KINDS = {
    "if": StmtKind.IF, "while": StmtKind.WHILE, "for": StmtKind.FOR,
    "synchronized": StmtKind.SYNCHRONIZED,
}

#: First tokens that ``_Parser.parse_statement`` reads; any other statement
#: but a label is a leaf, read to its ';'.
_STATEMENT_STARTERS = {";", "{", "do", "try"} | _HEADED_KINDS.keys() | _UNSUPPORTED_STARTERS

#: Leaves told apart by their first token; any other leaf is an expression.
_JUMP_KINDS = {
    "return": StmtKind.RETURN, "throw": StmtKind.THROW,
    "break": StmtKind.BREAK, "continue": StmtKind.CONTINUE,
}


class _Parser:
    """Reads the token texts and end offsets by index.

    ``depth[i]`` is the bracket depth after token ``i``, counting
    parentheses, brackets and braces alike, so a balanced group or the end
    of a statement is found by searching these lists rather than stepping
    through every token.
    """

    def __init__(self, source: str):
        self.source = source
        self.texts, self.ends = tokenize(source)
        self.depth = list(accumulate(map(_DEPTH.get, self.texts, repeat(0))))
        self.pos = 0
        self.nodes: list[StatementNode | None] = []

    # -- token helpers ---------------------------------------------------

    def _start(self, index: int) -> int:
        return self.ends[index] - len(self.texts[index])

    def _error(self, message: str, index: int | None = None) -> StatementSyntaxError:
        """The error at token ``index`` (by default the current one); past the
        end of input, at the last token (or at 1:1)."""
        index = min(self.pos if index is None else index, len(self.texts) - 1)
        offset = self._start(index) if index >= 0 else 0
        return StatementSyntaxError(message, *_line_column(self.source, offset))

    def _peek(self) -> str | None:
        return self.texts[self.pos] if self.pos < len(self.texts) else None

    def _next(self, expected: str | None = None) -> int:
        """Consume the current token and return its index."""
        text = self._peek()
        if text is None:
            raise self._error(
                f"unexpected end of input{f', expected {expected!r}' if expected else ''}")
        if expected is not None and text != expected:
            raise self._error(f"expected {expected!r}, found {text!r}")
        self.pos += 1
        return self.pos - 1

    def _skip_parenthesized(self) -> int:
        """Consume a balanced ``( ... )`` group, returning the index of its
        ``(``. Any closer ends the group once the depth is back."""
        opener = self._next("(")
        try:
            self.pos = self.depth.index(self.depth[opener] - 1, opener) + 1
        except ValueError:
            raise self._error("unexpected end of input", len(self.texts)) from None
        return opener

    # -- statements ------------------------------------------------------

    def parse_statements(self, parent: int | None, stop_at_brace: bool) -> list[int]:
        """Parse statements up to the closing brace (or the end of input),
        returning their ids.

        A leaf is read here: it ends at the first ';' at the depth its
        siblings start at. Depth counts parentheses, brackets *and* braces,
        so statement lambdas and anonymous-class bodies stay inside one
        leaf. The first closer that takes the depth below that, the dip, is
        found once (every statement ends back at that depth): a leaf that
        reaches it is unmatched. Other statements go to :meth:`parse_statement`.
        """
        texts, depth, ends, nodes = self.texts, self.depth, self.ends, self.nodes
        count = len(texts)
        first = self.pos
        base = depth[first - 1] if first else 0
        try:
            dip = depth.index(base - 1, first)
        except ValueError:
            dip = count
        out = []
        while first < count:
            text = texts[first]
            if text == "}":
                if stop_at_brace:
                    self.pos = first
                    return out
                raise self._error("unmatched '}'", first)
            if text in _STATEMENT_STARTERS or (
                    first + 1 < count and texts[first + 1] == ":"
                    and _is_word(text) and text not in _JUMP_KINDS):
                self.pos = first
                out.append(self.parse_statement(parent))
                first = self.pos
                continue
            try:
                semi = texts.index(";", first)
                while depth[semi] != base:
                    semi = texts.index(";", semi + 1)
            except ValueError:
                semi = count
            if dip < semi:
                raise self._error(f"unmatched {texts[dip]!r}", dip)
            if semi == count:
                raise self._error("statement not terminated by ';'", first)
            node_id = len(nodes)
            nodes.append(new_node((node_id, _JUMP_KINDS.get(text, StmtKind.EXPRESSION),
                                   (ends[first] - len(text), ends[semi]), (), parent)))
            out.append(node_id)
            first = semi + 1
        self.pos = first
        if stop_at_brace:
            raise self._error("missing closing '}'")
        return out

    def parse_statement(self, parent: int | None) -> int:
        """A statement that starts with one of ``_STATEMENT_STARTERS``, or a
        label: its keyword and header, its first braced body, then the
        clauses of its kind (``else``, ``else if``, ``catch``, ``finally`` or
        the ``while ( ... ) ;`` of a ``do``).

        The node's id is taken before its children take theirs, so ids stay
        in depth-first pre-order, and its slot is filled once its last
        clause has been read.
        """
        first = self.pos
        text = self.texts[first]
        start = self._start(first)
        if text in _UNSUPPORTED_STARTERS:
            raise UnsupportedConstructError(f"unsupported construct '{text}'",
                                            *_line_column(self.source, start))
        if text == ";":
            kind = StmtKind.EMPTY
        elif text == "{":
            kind = StmtKind.BLOCK
        else:
            self.pos += 1
            kind = _HEADED_KINDS.get(text)
            if kind is not None:
                opener = self._skip_parenthesized()
                if kind is StmtKind.FOR:
                    kind = self._for_kind(opener)
            elif text == "do":
                kind = StmtKind.DO_WHILE
            elif text == "try":
                kind = StmtKind.TRY
                if self._peek() == "(":
                    self._skip_parenthesized()  # try-with-resources header
            else:
                kind = StmtKind.LABELED
                self._next(":")
        node_id = len(self.nodes)
        self.nodes.append(None)
        children: list[int] = []
        if kind is StmtKind.EMPTY:
            end = self.ends[self._next()]
        else:
            end = self._body(kind, node_id, children)
        if kind is StmtKind.IF:
            while self._peek() == "else":
                self._next()
                chained = self._peek() == "if"
                if chained:
                    self._next()
                    self._skip_parenthesized()
                end = self._body(kind, node_id, children)
                if not chained:
                    break
        elif kind is StmtKind.TRY:
            while self._peek() == "catch":
                self._next()
                self._skip_parenthesized()
                end = self._body(kind, node_id, children)
            if self._peek() == "finally":
                self._next()
                end = self._body(kind, node_id, children)
        elif kind is StmtKind.DO_WHILE:
            self._next("while")
            self._skip_parenthesized()
            end = self.ends[self._next(";")]
        self.nodes[node_id] = new_node((node_id, kind, (start, end), tuple(children), parent))
        return node_id

    def _for_kind(self, opener: int) -> StmtKind:
        """FOR with two ';' at the header's own depth, else FOR_EACH with a ':'."""
        header = slice(opener + 1, self.pos - 1)
        top = list(compress(self.texts[header],
                            map(eq, self.depth[header], repeat(self.depth[opener]))))
        if top.count(";") == 2:
            return StmtKind.FOR
        if ":" in top:
            return StmtKind.FOR_EACH
        raise self._error("for header needs either two ';' or a ':'", opener - 1)

    def _body(self, kind: StmtKind, node_id: int, children: list[int]) -> int:
        """Parse a braced body whose statements become children of
        ``node_id``; return the end offset of its ``}``."""
        if self._peek() != "{":
            what = "labeled statement" if kind is StmtKind.LABELED else kind.value
            raise self._error(f"{what} body must be a braced block")
        self._next("{")
        children += self.parse_statements(node_id, stop_at_brace=True)
        return self.ends[self._next("}")]


def _is_word(text: str) -> bool:
    return bool(text) and (text[0].isalpha() or text[0] in "_$")


def parse_test(source: str, test_name: str = "test", project: str = "") -> TestCaseAst:
    """Parse a test-method body into a :class:`TestCaseAst`.

    Statement ids are assigned in depth-first pre-order. Raises
    :class:`StatementSyntaxError` on malformed input and
    :class:`UnsupportedConstructError` for recognizable constructs outside
    the grammar subset (``switch``, type declarations, ...).
    """
    parser = _Parser(source)
    roots = tuple(parser.parse_statements(None, stop_at_brace=False))
    return TestCaseAst(
        test_name=test_name,
        source=source,
        statements=tuple(parser.nodes),  # type: ignore[arg-type]  # slots filled
        roots=roots,
        project=project,
    )
