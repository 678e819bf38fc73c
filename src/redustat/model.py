"""Statement-tree data model for unit-test bodies.

A test body is an ordered forest of statements. Statements that can contain
nested statements (``if``, loops, ``try``, blocks, ...) are *tree statements*;
everything else (expression statements, declarations, ``return``, ...) is a
*non-tree statement*, i.e. a leaf. The category is decided purely by the
statement kind, never by whether children happen to be present: an ``if`` with
an empty body is still a tree statement.

Invariants enforced on construction, in one walk over the statements:

- node ids form the contiguous range ``0..n-1``,
- spans lie within the source,
- leaves have no children,
- every child exists and links back to its parent; roots have no parent,
- child spans nest strictly inside their parent's span,
- sibling spans (including the roots) are disjoint and in source order,
- every node is reached from the roots exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterable, NamedTuple


class StmtKind(Enum):
    """Statement kinds of the supported grammar subset."""

    EXPRESSION = "ExpressionStmt"
    LOCAL_DECLARATION = "LocalDeclaration"
    RETURN = "Return"
    THROW = "Throw"
    BREAK = "Break"
    CONTINUE = "Continue"
    EMPTY = "EmptyStmt"
    IF = "If"
    FOR = "For"
    FOR_EACH = "ForEach"
    WHILE = "While"
    DO_WHILE = "DoWhile"
    TRY = "Try"
    SYNCHRONIZED = "SynchronizedBlock"
    BLOCK = "Block"
    LABELED = "LabeledStmt"


#: Kinds that may contain nested statements.
TREE_KINDS = frozenset(
    {
        StmtKind.IF,
        StmtKind.FOR,
        StmtKind.FOR_EACH,
        StmtKind.WHILE,
        StmtKind.DO_WHILE,
        StmtKind.TRY,
        StmtKind.SYNCHRONIZED,
        StmtKind.BLOCK,
        StmtKind.LABELED,
    }
)


class Category(Enum):
    TREE = "TreeStmt"
    NON_TREE = "NonTreeStmt"


class ModelError(ValueError):
    """Violation of a statement-tree invariant."""


class StatementNode(NamedTuple):
    """One statement in a test body.

    ``span`` is a half-open ``[start, end)`` index range into the owning
    test's source text. ``children`` holds ids of directly nested statements,
    in source order; it is empty for every non-tree statement.

    A ``NamedTuple``, so it is immutable and hashable. It compares equal to
    the plain tuple of its fields, ``(id, kind, span, children, parent)``,
    and the front ends build it from that tuple with :data:`new_node`.
    """

    id: int
    kind: StmtKind
    span: tuple[int, int]
    children: tuple[int, ...] = ()
    parent: int | None = None

    @property
    def category(self) -> Category:
        return Category.TREE if self.kind in TREE_KINDS else Category.NON_TREE


#: ``new_node((id, kind, span, children, parent))`` builds that node in C, not
#: through the generated Python ``__new__``; it checks neither count nor types.
new_node = partial(tuple.__new__, StatementNode)


@dataclass(frozen=True)
class TestCaseAst:
    """A named test with an ordered forest of statements.

    ``statements`` is indexed by node id (ids are contiguous from 0, assigned
    in depth-first pre-order by the parser). ``tree_ids`` holds the ids of the
    tree statements; it is computed by the validation walk, so readers test
    membership there instead of asking each node for its category. Instances
    are immutable and safe to share between threads.
    """

    __test__ = False  # domain type, not a pytest suite

    test_name: str
    source: str
    statements: tuple[StatementNode, ...]
    roots: tuple[int, ...]
    project: str = ""
    tree_ids: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tree_ids", _validate(self))

    # -- lookups ---------------------------------------------------------

    @property
    def total_statements(self) -> int:
        return len(self.statements)

    def all_ids(self) -> frozenset[int]:
        return frozenset(range(len(self.statements)))

    def subtree_ids(self, node_id: int) -> frozenset[int]:
        """The node itself plus every transitive descendant."""
        if not self.statements[node_id].children:
            return frozenset((node_id,))
        out = []
        stack = [node_id]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.statements[cur].children)
        return frozenset(out)


def count_categories(ast: TestCaseAst) -> tuple[int, int, int]:
    """Return ``(stmts, ntn, tn)``: total, leaf, and tree statement counts.

    Counts include nested statements at every depth.
    """
    tn = len(ast.tree_ids)
    return len(ast.statements), len(ast.statements) - tn, tn


def render(ast: TestCaseAst, retained: Iterable[int]) -> str:
    """Materialize the test text with all non-retained statements deleted.

    ``retained`` must be ancestor-closed (a kept statement may not lose an
    enclosing statement). Retained tree statements keep their header and
    braces even when every child is removed, so an emptied ``if`` survives as
    ``if (cond) { }``.
    """
    kept = set(retained)
    for node_id in kept:
        node = ast.statements[node_id]
        if node.parent is not None and node.parent not in kept:
            raise ModelError(f"retained set is not ancestor-closed: node {node_id} "
                             f"is retained but an ancestor is not")

    # Removal is subtree-wise, so deleting the spans of *maximal* removed
    # nodes (those whose parent survives) deletes exactly the removed set.
    cut_spans = sorted(
        node.span
        for node in ast.statements
        if node.id not in kept and (node.parent is None or node.parent in kept)
    )
    pieces = []
    pos = 0
    for start, end in cut_spans:
        pieces.append(ast.source[pos:start])
        pos = end
    pieces.append(ast.source[pos:])
    return "".join(pieces)


def _validate(ast: TestCaseAst) -> frozenset[int]:
    """Check the invariants in one walk over the statements; return the ids
    of the tree statements.

    Each child's parent link is checked, so a node can only be listed under
    its own parent, and spans nest strictly, so the links have no cycle.
    Every node listed exactly once, as a root or as a child, is then reached
    from the roots exactly once.
    """
    statements = ast.statements
    n = len(statements)
    source_len = len(ast.source)
    listed = bytearray(n)
    tree_ids = []
    # A NamedTuple field read is a descriptor call, so each node is unpacked
    # once; a child's two fields are cheaper read than unpacked.
    for index, (node_id, kind, span, children, _) in enumerate(statements):
        if node_id != index:
            raise ModelError(f"statement ids must be contiguous from 0; "
                             f"position {index} holds id {node_id}")
        start, end = span
        if not (0 <= start <= end <= source_len):
            raise ModelError(f"node {index}: span {span} outside source")
        if kind in TREE_KINDS:
            tree_ids.append(index)
        elif children:
            raise ModelError(f"node {index}: {kind.value} is a leaf kind "
                             f"but has children")
        if not children:
            continue
        for child_id in children:
            if not 0 <= child_id < n:
                raise ModelError(f"node {index}: child {child_id} out of range")
            child = statements[child_id]
            if child.parent != index:
                raise ModelError(f"node {child_id}: parent link does not match "
                                 f"its position under node {index}")
            child_start, child_end = child.span
            if not (start < child_start and child_end < end):
                raise ModelError(f"node {child_id}: span {child.span} not strictly "
                                 f"inside parent span {span}")
        _check_siblings(statements, children, listed, f"children of node {index}")

    for root_id in ast.roots:
        if not 0 <= root_id < n:
            raise ModelError(f"root {root_id} out of range")
        if statements[root_id].parent is not None:
            raise ModelError(f"root {root_id} has a parent")
    _check_siblings(statements, ast.roots, listed, "roots")

    if listed.count(1) != n:
        raise ModelError("statements not reachable from roots: "
                         f"{[i for i in range(n) if not listed[i]]}")
    return frozenset(tree_ids)


def _check_siblings(statements: tuple[StatementNode, ...], ids: tuple[int, ...],
                    listed: bytearray, what: str) -> None:
    """Check that sibling spans are in source order, and mark each sibling
    as listed."""
    prev_end = -1
    for node_id in ids:
        start, end = statements[node_id].span
        if start < prev_end:
            raise ModelError(f"{what}: spans overlap or are out of source order")
        prev_end = end
        if listed[node_id]:
            raise ModelError(f"node {node_id} reachable twice")
        listed[node_id] = 1
