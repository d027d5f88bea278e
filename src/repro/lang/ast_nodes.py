"""Abstract syntax tree for the C-like language.

Every node carries a :class:`SourceLocation`.  Expression nodes gain a
``type`` attribute during semantic analysis; it is ``None`` straight out of
the parser.

Each node class names the fields that hold its children once, in
``child_fields``.  :func:`child_slots` walks them and :func:`map_children`
rebuilds a node from them; every pass that only needs to reach the nodes
below the ones it cares about recurses through these two.  From the
fields' annotations each class also knows, once, which of them hold
statements (``stmt_fields``) and which expressions (``expr_fields``), so
:func:`walk_stmts`, :func:`stmt_expressions` and :func:`walk_expr` read
only the fields they descend into.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple

from .errors import SourceLocation, UNKNOWN_LOCATION
from .types import Type


@dataclass
class Node:
    location: SourceLocation = field(default=UNKNOWN_LOCATION, kw_only=True)

    # The fields holding child nodes (a node, a list of nodes, or None), in
    # traversal order: mutation sites, reduction candidates and the
    # ``fresh_symbol`` numbering of clones all follow it.
    child_fields = ()
    # The fields of ``child_fields`` that hold statements, and those that
    # hold expressions, in the same order (see ``_split_child_fields``).
    stmt_fields = ()
    expr_fields = ()


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions.  ``type`` is filled in by semantic
    analysis and read by every downstream consumer."""

    type: Optional[Type] = field(default=None, kw_only=True)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class BoolLiteral(Expr):
    value: bool = False


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class UnaryOp(Expr):
    """``op`` is one of: ``-``, ``~``, ``!``, ``*`` (deref), ``&`` (addr)."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]
    child_fields = ("operand",)


@dataclass
class BinaryOp(Expr):
    """``op`` is the C spelling: ``+ - * / % & | ^ << >> < <= > >= == != && ||``."""

    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]
    child_fields = ("left", "right")


@dataclass
class Conditional(Expr):
    """The ternary ``cond ? then : otherwise``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]
    child_fields = ("cond", "then", "otherwise")


@dataclass
class ArrayIndex(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]
    child_fields = ("base", "index")


@dataclass
class Call(Expr):
    callee: str = ""
    args: List[Expr] = field(default_factory=list)
    child_fields = ("args",)


@dataclass
class Receive(Expr):
    """``recv(channel)`` — CSP rendezvous read (Handel-C ``?``, Bach C)."""

    channel: str = ""


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)
    child_fields = ("statements",)


@dataclass
class VarDecl(Stmt):
    """A local or global declaration, possibly with an initializer.

    For arrays, ``init`` may be a list of expressions (brace initializer).
    """

    name: str = ""
    var_type: Type = None  # type: ignore[assignment]
    init: Optional[Expr] = None
    array_init: Optional[List[Expr]] = None
    is_const: bool = False
    child_fields = ("init", "array_init")


@dataclass
class ChannelDecl(Stmt):
    """``chan<int> c;`` — declares a rendezvous channel."""

    name: str = ""
    element_type: Type = None  # type: ignore[assignment]


@dataclass
class Assign(Stmt):
    """``target = value;`` where target is Identifier, ArrayIndex, or a
    pointer dereference (UnaryOp '*')."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    child_fields = ("target", "value")


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]
    child_fields = ("expr",)


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Optional[Stmt] = None
    child_fields = ("cond", "then", "otherwise")


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]
    child_fields = ("cond", "body")


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    # The condition before the body: the fuzz mutation sites pinned in
    # tests/golden/fuzz_rewrites.json are numbered in that order.
    child_fields = ("cond", "body")


@dataclass
class For(Stmt):
    """``for (init; cond; step) body``.  Any of the three heads may be None."""

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Stmt = None  # type: ignore[assignment]
    child_fields = ("init", "cond", "step", "body")


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    child_fields = ("value",)


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Par(Stmt):
    """``par { s1 s2 ... }`` — run the component statements concurrently and
    join when all finish (Handel-C / Bach C / SpecC semantics)."""

    branches: List[Stmt] = field(default_factory=list)
    child_fields = ("branches",)


@dataclass
class Seq(Stmt):
    """``seq { ... }`` — explicit sequential grouping inside ``par``."""

    body: Block = None  # type: ignore[assignment]
    child_fields = ("body",)


@dataclass
class Wait(Stmt):
    """``wait();`` — an explicit cycle boundary (SystemC sequential style)."""


@dataclass
class Delay(Stmt):
    """``delay(n);`` — wait ``n`` cycles (Handel-C ``delay``)."""

    cycles: int = 1


@dataclass
class Within(Stmt):
    """``within (n) { ... }`` — HardwareC-style timing constraint: the body
    must be scheduled into at most ``n`` control steps."""

    cycles: int = 0
    body: Block = None  # type: ignore[assignment]
    child_fields = ("body",)


@dataclass
class Send(Stmt):
    """``send(channel, expr);`` — CSP rendezvous write."""

    channel: str = ""
    value: Expr = None  # type: ignore[assignment]
    child_fields = ("value",)


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------


@dataclass
class Param(Node):
    name: str = ""
    param_type: Type = None  # type: ignore[assignment]


@dataclass
class FunctionDef(Node):
    name: str = ""
    return_type: Type = None  # type: ignore[assignment]
    params: List[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]
    is_process: bool = False  # ``process`` keyword: a top-level parallel unit
    child_fields = ("body",)


@dataclass
class Program(Node):
    functions: List[FunctionDef] = field(default_factory=list)
    globals: List[VarDecl] = field(default_factory=list)
    channels: List[ChannelDecl] = field(default_factory=list)
    child_fields = ("globals", "channels", "functions")

    def function(self, name: str) -> FunctionDef:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    @property
    def processes(self) -> List[FunctionDef]:
        return [fn for fn in self.functions if fn.is_process]


_ASSIGNABLE = (Identifier, ArrayIndex)


def is_lvalue(expr: Expr) -> bool:
    """Whether ``expr`` may appear on the left of an assignment."""
    if isinstance(expr, _ASSIGNABLE):
        return True
    return isinstance(expr, UnaryOp) and expr.op == "*"


def _split_child_fields() -> None:
    """Give each node class its ``stmt_fields`` and ``expr_fields``: the
    fields of its ``child_fields`` whose annotation names a statement or
    an expression class."""
    classes = {name: value for name, value in globals().items()
               if isinstance(value, type) and issubclass(value, Node)}
    for cls in classes.values():
        for attr, kind in (("stmt_fields", Stmt), ("expr_fields", Expr)):
            setattr(cls, attr, tuple(
                name for name in cls.child_fields
                if any(issubclass(classes.get(word, object), kind) for word
                       in re.findall(r"\w+", cls.__annotations__[name]))))


_split_child_fields()


def child_slots(node: Node) -> Iterator[Tuple[Node, Any, Any]]:
    """Yield ``(child, owner, slot)`` for each child of ``node`` in
    ``child_fields`` order, skipping absent ones.  A child kept in a list
    field is ``owner[slot]`` (``owner`` is the list); any other is
    ``getattr(owner, slot)``."""
    for name in node.child_fields:
        value = getattr(node, name)
        if type(value) is list:
            for index, child in enumerate(value):
                yield child, value, index
        elif value is not None:
            yield value, node, name


def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
    """A copy of ``node`` with each child replaced by ``fn(child)``, called
    in ``child_fields`` order.  Every other field, and the ``symbol``
    semantic analysis attaches, is kept."""
    out = object.__new__(type(node))
    out.__dict__.update(node.__dict__)
    for name in node.child_fields:
        value = getattr(node, name)
        if type(value) is list:
            setattr(out, name, [fn(child) for child in value])
        elif value is not None:
            setattr(out, name, fn(value))
    return out


def _children(node: Node, names: Tuple[str, ...]) -> List[Node]:
    """The nodes in ``node``'s fields ``names``, in order."""
    out: List[Node] = []
    for name in names:
        value = getattr(node, name)
        if type(value) is list:
            out += value
        elif value is not None:
            out.append(value)
    return out


def child_stmts(node: Node) -> List[Stmt]:
    """The statements directly below ``node``, in ``child_fields`` order."""
    return _children(node, node.stmt_fields)


def stmt_expressions(stmt: Stmt) -> List[Expr]:
    """The expressions directly attached to ``stmt`` (not nested
    statements' expressions)."""
    return _children(stmt, stmt.expr_fields)


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, preorder."""
    yield expr
    for child in _children(expr, expr.expr_fields):
        yield from walk_expr(child)


def walk_stmts(stmt: Stmt):
    """Yield ``stmt`` and every nested statement, preorder."""
    yield stmt
    for child in _children(stmt, stmt.stmt_fields):
        yield from walk_stmts(child)


def binds_continue(stmt: Stmt) -> bool:
    """Whether a ``continue`` in ``stmt`` would bind to the loop around
    ``stmt`` (one inside a nested loop binds to that loop instead)."""
    if isinstance(stmt, Continue):
        return True
    if isinstance(stmt, (While, DoWhile, For)):
        return False
    return any(binds_continue(child) for child in child_stmts(stmt))
