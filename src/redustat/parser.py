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
  how ``try``/``catch``/``finally`` is one ``Try`` node.

The full grammar is documented in ``docs/grammar.md``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import StatementNode, StmtKind, TestCaseAst


class StatementSyntaxError(ValueError):
    """Malformed input, with 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UnsupportedConstructError(StatementSyntaxError):
    """Grammatically recognizable construct outside the supported subset."""

    def __init__(self, construct: str, line: int, column: int):
        self.construct = construct
        super().__init__(f"unsupported construct '{construct}'", line, column)


class Token(NamedTuple):
    text: str
    start: int
    end: int


# One alternative per token class. Whitespace and comments are matched but
# dropped; a block-comment opener matches on its own only when no "*/"
# follows. A literal holds no raw newline except after a backslash.
_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
  | (?P<open_comment>/\*)
  | (?P<literal>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
  | (?P<number>\d[\w.]*)
  | (?P<word>[\w$]+)
  | (?P<punct>[(){}\[\];:,.?=+\-*/%<>!&|^~@])
""", re.VERBOSE | re.DOTALL)
_NUMBER = re.compile(r"[\w.]+")

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = {")", "]", "}"}

_PRIMITIVES = {
    "int", "long", "short", "byte", "char", "boolean", "float", "double",
    "var", "void",
}


def _line_column(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def tokenize(source: str) -> list[Token]:
    """Split source into tokens, dropping whitespace and comments.

    String and character literals become single tokens so that braces or
    semicolons inside them never affect statement boundaries.
    """
    tokens: list[Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        kind = match.lastgroup if match else None
        if kind == "word" and not _is_word(source[pos]):
            # \w also matches numerals outside \d: "²" starts a number, as
            # str.isdigit() says, and "½" starts no token at all.
            match = _NUMBER.match(source, pos) if source[pos].isdigit() else None
        if match is None or kind == "open_comment":
            if kind == "open_comment":
                message = "unterminated block comment"
            elif source[pos] in "\"'":
                message = "unterminated literal"
            else:
                message = f"unexpected character {source[pos]!r}"
            raise StatementSyntaxError(message, *_line_column(source, pos))
        end = match.end()
        if kind != "skip":
            tokens.append(Token(source[pos:end], pos, end))
        pos = end
    return tokens


def token_texts(source: str) -> list[str]:
    """Token sequence used for whitespace-insensitive source comparison."""
    return [t.text for t in tokenize(source)]


# -- parsing ---------------------------------------------------------------

_UNSUPPORTED_STARTERS = {"switch", "class", "interface", "enum", "record"}


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    # Nodes are built as mutable dicts first, then numbered in depth-first
    # pre-order and frozen into StatementNode tuples.

    def parse_body(self) -> tuple[tuple[StatementNode, ...], tuple[int, ...]]:
        forest = self.parse_statements(stop_at_brace=False)
        nodes: list[StatementNode] = []
        roots = tuple(self._freeze(tree, None, nodes) for tree in forest)
        return tuple(nodes), roots

    def _freeze(self, tree: dict, parent: int | None, out: list[StatementNode]) -> int:
        node_id = len(out)
        out.append(None)  # type: ignore[arg-type]  # reserve pre-order slot
        child_ids = tuple(self._freeze(c, node_id, out) for c in tree["children"])
        out[node_id] = StatementNode(
            id=node_id,
            kind=tree["kind"],
            span=tree["span"],
            children=child_ids,
            parent=parent,
        )
        return node_id

    # -- token helpers ---------------------------------------------------

    def _error(self, message: str, tok: Token | None) -> StatementSyntaxError:
        """The error at ``tok``; with no token, at the last one (or at 1:1)."""
        if tok is None and self.tokens:
            tok = self.tokens[-1]
        return StatementSyntaxError(
            message, *_line_column(self.source, tok.start if tok else 0))

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected: str | None = None) -> Token:
        tok = self._peek()
        if tok is None:
            raise self._error(
                f"unexpected end of input{f', expected {expected!r}' if expected else ''}",
                None)
        if expected is not None and tok.text != expected:
            raise self._error(f"expected {expected!r}, found {tok.text!r}", tok)
        self.pos += 1
        return tok

    def _at(self, text: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.text == text

    def _skip_parenthesized(self) -> tuple[int, int]:
        """Consume a balanced ``( ... )`` group, returning top-level
        semicolon count and colon count (used to tell ``for`` variants apart)."""
        self._next("(")
        depth = 1
        semis = 0
        colons = 0
        while depth > 0:
            tok = self._next()
            if tok.text in _OPEN:
                depth += 1
            elif tok.text in _CLOSE:
                depth -= 1
            elif depth == 1 and tok.text == ";":
                semis += 1
            elif depth == 1 and tok.text == ":":
                colons += 1
        return semis, colons

    # -- statements ------------------------------------------------------

    def parse_statements(self, stop_at_brace: bool) -> list[dict]:
        out = []
        while True:
            tok = self._peek()
            if tok is None:
                if stop_at_brace:
                    raise self._error("missing closing '}'", None)
                return out
            if tok.text == "}":
                if stop_at_brace:
                    return out
                raise self._error("unmatched '}'", tok)
            out.append(self.parse_statement())

    def parse_statement(self) -> dict:
        tok = self._peek()
        assert tok is not None
        text = tok.text
        if text in _UNSUPPORTED_STARTERS:
            raise UnsupportedConstructError(
                text, *_line_column(self.source, tok.start))
        if text == ";":
            self._next()
            return self._node(StmtKind.EMPTY, tok.start, tok.end, [])
        if text == "{":
            return self._braced(StmtKind.BLOCK, tok.start)
        if text == "if":
            return self._if_statement()
        if text == "while":
            self._next()
            self._skip_parenthesized()
            return self._body_into(StmtKind.WHILE, tok.start)
        if text == "for":
            self._next()
            semis, colons = self._skip_parenthesized()
            if semis == 2:
                kind = StmtKind.FOR
            elif colons >= 1:
                kind = StmtKind.FOR_EACH
            else:
                raise self._error("for header needs either two ';' or a ':'", tok)
            return self._body_into(kind, tok.start)
        if text == "do":
            return self._do_while()
        if text == "try":
            return self._try_statement()
        if text == "synchronized":
            self._next()
            self._skip_parenthesized()
            return self._body_into(StmtKind.SYNCHRONIZED, tok.start)
        if text == "return":
            return self._leaf_to_semicolon(StmtKind.RETURN)
        if text == "throw":
            return self._leaf_to_semicolon(StmtKind.THROW)
        if text == "break":
            return self._leaf_to_semicolon(StmtKind.BREAK)
        if text == "continue":
            return self._leaf_to_semicolon(StmtKind.CONTINUE)
        if self._is_label_start():
            return self._labeled_statement()
        return self._leaf_to_semicolon(None)

    def _node(self, kind: StmtKind, start: int, end: int, children: list[dict]) -> dict:
        return {"kind": kind, "span": (start, end), "children": children}

    def _braced(self, kind: StmtKind, start: int) -> dict:
        self._next("{")
        children = self.parse_statements(stop_at_brace=True)
        close = self._next("}")
        return self._node(kind, start, close.end, children)

    def _body_into(self, kind: StmtKind, start: int) -> dict:
        tok = self._peek()
        if tok is None or tok.text != "{":
            what = "labeled statement" if kind is StmtKind.LABELED else kind.value
            raise self._error(f"{what} body must be a braced block", tok)
        return self._braced(kind, start)

    def _if_statement(self) -> dict:
        start = self._next("if").start
        self._skip_parenthesized()
        node = self._body_into(StmtKind.IF, start)
        while self._at("else"):
            self._next("else")
            chained = self._at("if")
            if chained:
                self._next("if")
                self._skip_parenthesized()
            _merge(node, self._body_into(StmtKind.IF, start))
            if not chained:
                break
        return node

    def _do_while(self) -> dict:
        start_tok = self._next("do")
        node = self._body_into(StmtKind.DO_WHILE, start_tok.start)
        self._next("while")
        self._skip_parenthesized()
        semi = self._next(";")
        node["span"] = (start_tok.start, semi.end)
        return node

    def _try_statement(self) -> dict:
        start = self._next("try").start
        if self._at("("):
            self._skip_parenthesized()  # try-with-resources header
        node = self._body_into(StmtKind.TRY, start)
        while self._at("catch"):
            self._next("catch")
            self._skip_parenthesized()
            _merge(node, self._body_into(StmtKind.TRY, start))
        if self._at("finally"):
            self._next("finally")
            _merge(node, self._body_into(StmtKind.TRY, start))
        return node

    def _is_label_start(self) -> bool:
        tok = self._peek()
        if tok is None or not _is_word(tok.text):
            return False
        after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        return after is not None and after.text == ":"

    def _labeled_statement(self) -> dict:
        label = self._next()
        self._next(":")
        return self._body_into(StmtKind.LABELED, label.start)

    def _leaf_to_semicolon(self, kind: StmtKind | None) -> dict:
        """Consume tokens until a ';' at bracket depth zero.

        Depth counts parentheses, brackets *and* braces, so statement lambdas
        and anonymous-class bodies stay inside one leaf.
        """
        start_tok = self._peek()
        assert start_tok is not None
        first = self.pos
        depth = 0
        while True:
            tok = self._peek()
            if tok is None:
                raise self._error("statement not terminated by ';'", start_tok)
            self.pos += 1
            if tok.text in _OPEN:
                depth += 1
            elif tok.text in _CLOSE:
                depth -= 1
                if depth < 0:
                    raise self._error(f"unmatched {tok.text!r}", tok)
            elif tok.text == ";" and depth == 0:
                break
        if kind is None:
            kind = _classify_leaf([t.text for t in self.tokens[first:self.pos - 1]])
        return self._node(kind, start_tok.start, self.tokens[self.pos - 1].end, [])


def _merge(node: dict, branch: dict) -> None:
    """Append a further branch (else, catch, finally) to a flattened node."""
    node["children"].extend(branch["children"])
    node["span"] = (node["span"][0], branch["span"][1])


def _classify_leaf(texts: list[str]) -> StmtKind:
    """Tell a local declaration from an expression statement.

    Purely cosmetic for reduction purposes (both are leaves); a conservative
    type-then-name shape check is enough.
    """
    i = 0
    if i < len(texts) and texts[i] == "final":
        i += 1
        if i == len(texts):
            return StmtKind.EXPRESSION
    if i >= len(texts) or not _is_word(texts[i]):
        return StmtKind.EXPRESSION
    if texts[i] in _PRIMITIVES:
        i += 1
    else:
        i += 1
        while i + 1 < len(texts) and texts[i] == "." and _is_word(texts[i + 1]):
            i += 2
        if i < len(texts) and texts[i] == "<":
            depth = 1
            i += 1
            while i < len(texts) and depth > 0:
                if texts[i] == "<":
                    depth += 1
                elif texts[i] == ">":
                    depth -= 1
                i += 1
            if depth != 0:
                return StmtKind.EXPRESSION
    while i + 1 < len(texts) and texts[i] == "[" and texts[i + 1] == "]":
        i += 2
    if i < len(texts) and _is_word(texts[i]) and texts[i] not in _PRIMITIVES:
        nxt = texts[i + 1] if i + 1 < len(texts) else None
        if nxt in (None, "=", ",") or (nxt == "[" and i + 2 < len(texts)
                                       and texts[i + 2] == "]"):
            return StmtKind.LOCAL_DECLARATION
    return StmtKind.EXPRESSION


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
    statements, roots = parser.parse_body()
    return TestCaseAst(
        test_name=test_name,
        source=source,
        statements=statements,
        roots=roots,
        project=project,
    )
