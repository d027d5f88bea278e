"""Semantic analysis: name resolution, type checking, and the structural
rules the hardware extensions impose.

The analyzer annotates the AST in place:

* every :class:`~repro.lang.ast_nodes.Expr` gets a ``type``;
* every :class:`~repro.lang.ast_nodes.Identifier` and declaration gets a
  ``symbol`` attribute pointing at its :class:`~repro.lang.symtab.Symbol`;
* the returned :class:`SemanticInfo` records per-function symbols, the call
  graph, and which hardware features each function uses — flows consult the
  feature set to reject programs their historical counterparts could not
  compile (e.g. pointers outside C2Verilog).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import ast_nodes as ast
from .errors import SemanticError, SourceLocation, UNKNOWN_LOCATION
from .symtab import ScopeStack, Symbol, SymbolKind
from .types import (
    ArrayType,
    BOOL,
    BoolType,
    ChannelType,
    FunctionType,
    INT,
    IntType,
    PointerType,
    Type,
    VOID,
    VoidType,
    common_type,
    is_assignable,
    make_int,
)

# Feature names recorded per function; flows use these to enforce each
# historical tool's documented restrictions.
FEATURE_POINTERS = "pointers"
FEATURE_CHANNELS = "channels"
FEATURE_PAR = "par"
FEATURE_WAIT = "wait"
FEATURE_DELAY = "delay"
FEATURE_WITHIN = "within"
FEATURE_ARRAYS = "arrays"
FEATURE_LOOPS = "loops"
FEATURE_CALLS = "calls"
FEATURE_RECURSION = "recursion"
FEATURE_DIVISION = "division"
FEATURE_MULTIPLY = "multiply"


@dataclass
class FunctionInfo:
    """Facts the analyzer gathered about one function."""

    symbol: Symbol
    params: List[Symbol] = field(default_factory=list)
    locals: List[Symbol] = field(default_factory=list)
    features: Set[str] = field(default_factory=set)
    callees: Set[str] = field(default_factory=set)
    # First source site where each feature was used (diagnostics point here).
    feature_sites: Dict[str, SourceLocation] = field(default_factory=dict)

    def note(self, feature: str, location: SourceLocation) -> None:
        """Record a feature use and remember its first source site."""
        self.features.add(feature)
        if location != UNKNOWN_LOCATION:
            self.feature_sites.setdefault(feature, location)


@dataclass
class SemanticInfo:
    """The analyzer's summary of a whole program."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    globals: List[Symbol] = field(default_factory=list)
    channels: List[Symbol] = field(default_factory=list)
    global_inits: Dict[str, object] = field(default_factory=dict)

    def features_of(self, root: str) -> Set[str]:
        """Union of features used by ``root`` and everything it calls
        (transitively), so a flow can judge an entire design."""
        seen: Set[str] = set()
        features: Set[str] = set()
        work = [root]
        while work:
            name = work.pop()
            if name in seen or name not in self.functions:
                continue
            seen.add(name)
            info = self.functions[name]
            features |= info.features
            work.extend(info.callees)
        return features

    def feature_site(self, root: str, feature: str) -> SourceLocation:
        """First recorded source site of ``feature`` in ``root`` or any
        function it reaches (breadth-first, so the nearest use wins)."""
        seen: Set[str] = set()
        work = [root]
        while work:
            name = work.pop(0)
            if name in seen or name not in self.functions:
                continue
            seen.add(name)
            info = self.functions[name]
            if feature in info.feature_sites:
                return info.feature_sites[feature]
            work.extend(sorted(info.callees))
        return UNKNOWN_LOCATION

    def is_recursive(self, root: str) -> bool:
        """Whether any call cycle is reachable from ``root``."""
        # Iterative DFS with an explicit on-path set (colors).
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}

        def visit(name: str) -> bool:
            stack: List[Tuple[str, int]] = [(name, 0)]
            while stack:
                node, state = stack.pop()
                if state == 0:
                    if color.get(node) == GRAY:
                        return True
                    if color.get(node) == BLACK or node not in self.functions:
                        continue
                    color[node] = GRAY
                    stack.append((node, 1))
                    for callee in sorted(self.functions[node].callees):
                        if color.get(callee) == GRAY:
                            return True
                        if color.get(callee, WHITE) == WHITE:
                            stack.append((callee, 0))
                else:
                    color[node] = BLACK
            return False

        return visit(root)


class SemanticAnalyzer:
    def __init__(self, program: ast.Program):
        self.program = program
        self.scopes = ScopeStack()
        self.info = SemanticInfo()
        self._current: Optional[FunctionInfo] = None
        self._loop_depth = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def analyze(self) -> SemanticInfo:
        self._declare_globals()
        for fn in self.program.functions:
            self._declare_function(fn)
        for fn in self.program.functions:
            self._check_function(fn)
        return self.info

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _declare_globals(self) -> None:
        for decl in self.program.globals:
            symbol = Symbol(
                decl.name,
                decl.var_type,
                SymbolKind.GLOBAL,
                is_const=decl.is_const,
                location=decl.location,
            )
            self.scopes.declare(symbol)
            decl.symbol = symbol  # type: ignore[attr-defined]
            self.info.globals.append(symbol)
            self._check_global_init(decl)
        for chan in self.program.channels:
            symbol = Symbol(
                chan.name,
                ChannelType(chan.element_type),
                SymbolKind.CHANNEL,
                location=chan.location,
            )
            self.scopes.declare(symbol)
            chan.symbol = symbol  # type: ignore[attr-defined]
            self.info.channels.append(symbol)

    def _check_global_init(self, decl: ast.VarDecl) -> None:
        if isinstance(decl.var_type, ArrayType) and isinstance(
            decl.var_type.element, ArrayType
        ):
            raise SemanticError(
                f"multi-dimensional array {decl.name!r} is not supported;"
                " flatten it (hardware memories are one-dimensional)",
                decl.location,
            )
        if isinstance(decl.var_type, ArrayType):
            if decl.init is not None:
                raise SemanticError(
                    f"array {decl.name!r} needs a brace initializer", decl.location
                )
            if decl.array_init is not None:
                if len(decl.array_init) > decl.var_type.size:
                    raise SemanticError(
                        f"too many initializers for {decl.name!r}"
                        f" ({len(decl.array_init)} > {decl.var_type.size})",
                        decl.location,
                    )
                values = [self._const_eval(e) for e in decl.array_init]
                self.info.global_inits[decl.name] = _stored(
                    values, decl.var_type.element)
        elif decl.init is not None:
            [value] = _stored([self._const_eval(decl.init)], decl.var_type)
            self.info.global_inits[decl.name] = value
        elif decl.array_init is not None:
            raise SemanticError(
                f"scalar {decl.name!r} cannot take a brace initializer",
                decl.location,
            )

    def _const_eval(self, expr: ast.Expr) -> int:
        """Evaluate a compile-time-constant expression (global initializers)."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.BoolLiteral):
            return int(expr.value)
        if isinstance(expr, ast.UnaryOp):
            value = self._const_eval(expr.operand)
            if expr.op == "-":
                return -value
            if expr.op == "~":
                return ~value
            if expr.op == "!":
                return int(value == 0)
        if isinstance(expr, ast.BinaryOp):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            ops = {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else 0,
                "%": lambda: left % right if right else 0,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
            }
            if expr.op in ops:
                return ops[expr.op]()
        raise SemanticError("global initializer is not a constant expression", expr.location)

    def _declare_function(self, fn: ast.FunctionDef) -> None:
        fn_type = FunctionType(
            tuple(p.param_type for p in fn.params), fn.return_type
        )
        symbol = Symbol(fn.name, fn_type, SymbolKind.FUNCTION, location=fn.location)
        self.scopes.declare(symbol)
        fn.symbol = symbol  # type: ignore[attr-defined]
        self.info.functions[fn.name] = FunctionInfo(symbol=symbol)

    # ------------------------------------------------------------------
    # Function bodies
    # ------------------------------------------------------------------

    def _check_function(self, fn: ast.FunctionDef) -> None:
        info = self.info.functions[fn.name]
        self._current = info
        self.scopes.push()
        try:
            for param in fn.params:
                if isinstance(param.param_type, VoidType):
                    raise SemanticError(
                        f"parameter {param.name!r} cannot be void", param.location
                    )
                symbol = Symbol(
                    param.name,
                    param.param_type,
                    SymbolKind.PARAM
                    if not isinstance(param.param_type, ChannelType)
                    else SymbolKind.CHANNEL,
                    location=param.location,
                )
                self.scopes.declare(symbol)
                param.symbol = symbol  # type: ignore[attr-defined]
                info.params.append(symbol)
                if isinstance(param.param_type, PointerType):
                    info.note(FEATURE_POINTERS, param.location)
                if isinstance(param.param_type, ArrayType):
                    info.note(FEATURE_ARRAYS, param.location)
            self._check_block(fn.body, fn.return_type, new_scope=False)
        finally:
            self.scopes.pop()
            self._current = None

    def _check_block(
        self, block: ast.Block, return_type: Type, new_scope: bool = True
    ) -> None:
        if new_scope:
            self.scopes.push()
        try:
            for stmt in block.statements:
                self._check_stmt(stmt, return_type)
        finally:
            if new_scope:
                self.scopes.pop()

    def _check_stmt(self, stmt: ast.Stmt, return_type: Type) -> None:
        assert self._current is not None
        info = self._current
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, return_type)
        elif isinstance(stmt, ast.VarDecl):
            self._check_local_decl(stmt)
        elif isinstance(stmt, ast.ChannelDecl):
            raise SemanticError(
                "channels must be declared at the top level", stmt.location
            )
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._require_scalar(self._check_expr(stmt.cond), stmt.cond)
            self._check_stmt(stmt.then, return_type)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, return_type)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            info.note(FEATURE_LOOPS, stmt.location)
            self._require_scalar(self._check_expr(stmt.cond), stmt.cond)
            self._loop_depth += 1
            self._check_stmt(stmt.body, return_type)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.For):
            info.note(FEATURE_LOOPS, stmt.location)
            self.scopes.push()
            try:
                if stmt.init is not None:
                    self._check_stmt(stmt.init, return_type)
                if stmt.cond is not None:
                    self._require_scalar(self._check_expr(stmt.cond), stmt.cond)
                if stmt.step is not None:
                    self._check_stmt(stmt.step, return_type)
                self._loop_depth += 1
                self._check_stmt(stmt.body, return_type)
                self._loop_depth -= 1
            finally:
                self.scopes.pop()
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                if not isinstance(return_type, VoidType):
                    raise SemanticError(
                        f"function returns {return_type} but return has no value",
                        stmt.location,
                    )
            else:
                if isinstance(return_type, VoidType):
                    raise SemanticError(
                        "void function cannot return a value", stmt.location
                    )
                value_type = self._check_expr(stmt.value)
                if not is_assignable(return_type, value_type):
                    raise SemanticError(
                        f"cannot return {value_type} from a function returning"
                        f" {return_type}",
                        stmt.location,
                    )
        elif isinstance(stmt, ast.Break):
            if self._loop_depth == 0:
                raise SemanticError("break outside of a loop", stmt.location)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise SemanticError("continue outside of a loop", stmt.location)
        elif isinstance(stmt, ast.Par):
            info.note(FEATURE_PAR, stmt.location)
            self._check_par(stmt, return_type)
        elif isinstance(stmt, ast.Seq):
            self._check_block(stmt.body, return_type)
        elif isinstance(stmt, ast.Wait):
            info.note(FEATURE_WAIT, stmt.location)
        elif isinstance(stmt, ast.Delay):
            info.note(FEATURE_DELAY, stmt.location)
        elif isinstance(stmt, ast.Within):
            info.note(FEATURE_WITHIN, stmt.location)
            if stmt.cycles <= 0:
                raise SemanticError("within bound must be positive", stmt.location)
            for inner in ast.walk_stmts(stmt.body):
                if not isinstance(
                    inner,
                    (ast.Block, ast.VarDecl, ast.Assign, ast.ExprStmt,
                     ast.Send, ast.Wait, ast.Delay),
                ):
                    raise SemanticError(
                        "within blocks must be straight-line code"
                        " (HardwareC-style constraints apply to statement"
                        " groups, not control flow)",
                        inner.location,
                    )
            self._check_block(stmt.body, return_type)
        elif isinstance(stmt, ast.Send):
            info.note(FEATURE_CHANNELS, stmt.location)
            channel = self._resolve_channel(stmt.channel, stmt)
            stmt.symbol = channel  # type: ignore[attr-defined]
            value_type = self._check_expr(stmt.value)
            assert isinstance(channel.type, ChannelType)
            if not is_assignable(channel.type.element, value_type):
                raise SemanticError(
                    f"cannot send {value_type} on {channel.type}", stmt.location
                )
        else:
            raise SemanticError(
                f"unsupported statement {type(stmt).__name__}", stmt.location
            )

    def _check_local_decl(self, decl: ast.VarDecl) -> None:
        assert self._current is not None
        if isinstance(decl.var_type, VoidType):
            raise SemanticError(f"variable {decl.name!r} cannot be void", decl.location)
        if isinstance(decl.var_type, ArrayType) and isinstance(
            decl.var_type.element, ArrayType
        ):
            raise SemanticError(
                f"multi-dimensional array {decl.name!r} is not supported;"
                " flatten it (hardware memories are one-dimensional)",
                decl.location,
            )
        symbol = Symbol(
            decl.name,
            decl.var_type,
            SymbolKind.LOCAL,
            is_const=decl.is_const,
            location=decl.location,
        )
        self.scopes.declare(symbol)
        decl.symbol = symbol  # type: ignore[attr-defined]
        self._current.locals.append(symbol)
        if isinstance(decl.var_type, PointerType):
            self._current.note(FEATURE_POINTERS, decl.location)
        if isinstance(decl.var_type, ArrayType):
            self._current.note(FEATURE_ARRAYS, decl.location)
        if isinstance(decl.var_type, ArrayType):
            if decl.init is not None:
                raise SemanticError(
                    f"array {decl.name!r} needs a brace initializer", decl.location
                )
            if decl.array_init is not None:
                if len(decl.array_init) > decl.var_type.size:
                    raise SemanticError(
                        f"too many initializers for {decl.name!r}", decl.location
                    )
                for expr in decl.array_init:
                    element_type = self._check_expr(expr)
                    if not is_assignable(decl.var_type.element, element_type):
                        raise SemanticError(
                            f"cannot initialize {decl.var_type.element} element"
                            f" with {element_type}",
                            expr.location,
                        )
        else:
            if decl.array_init is not None:
                raise SemanticError(
                    f"scalar {decl.name!r} cannot take a brace initializer",
                    decl.location,
                )
            if decl.init is not None:
                init_type = self._check_expr(decl.init)
                if not is_assignable(decl.var_type, init_type):
                    raise SemanticError(
                        f"cannot initialize {decl.var_type} with {init_type}",
                        decl.location,
                    )
            elif decl.is_const:
                raise SemanticError(
                    f"const {decl.name!r} must be initialized", decl.location
                )

    def _check_assign(self, assign: ast.Assign) -> None:
        target_type = self._check_expr(assign.target)
        if isinstance(assign.target, ast.Identifier):
            symbol = assign.target.symbol  # type: ignore[attr-defined]
            if symbol.is_const:
                raise SemanticError(
                    f"cannot assign to const {symbol.name!r}", assign.location
                )
            if isinstance(symbol.type, ArrayType):
                raise SemanticError(
                    f"cannot assign whole array {symbol.name!r}", assign.location
                )
        value_type = self._check_expr(assign.value)
        if not is_assignable(target_type, value_type):
            raise SemanticError(
                f"cannot assign {value_type} to {target_type}", assign.location
            )

    def _check_par(self, par: ast.Par, return_type: Type) -> None:
        # Branches run concurrently; two branches writing the same variable
        # is a race, which we reject statically (as Handel-C's rules do).
        writes_per_branch: List[Set[str]] = []
        for branch in par.branches:
            self._check_stmt(branch, return_type)
            writes: Set[str] = set()
            for inner in ast.walk_stmts(branch):
                if isinstance(inner, ast.Assign):
                    root = inner.target
                    while isinstance(root, (ast.ArrayIndex, ast.UnaryOp)):
                        root = (
                            root.base
                            if isinstance(root, ast.ArrayIndex)
                            else root.operand
                        )
                    if isinstance(root, ast.Identifier):
                        writes.add(root.symbol.unique_name)  # type: ignore[attr-defined]
                elif isinstance(inner, ast.VarDecl):
                    writes.add(inner.symbol.unique_name)  # type: ignore[attr-defined]
            writes_per_branch.append(writes)
        for i in range(len(writes_per_branch)):
            for j in range(i + 1, len(writes_per_branch)):
                conflict = writes_per_branch[i] & writes_per_branch[j]
                if conflict:
                    name = sorted(conflict)[0].split(".")[0]
                    raise SemanticError(
                        f"par branches {i} and {j} both write {name!r}"
                        " (write-write race)",
                        par.location,
                    )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _resolve_channel(self, name: str, node: ast.Node) -> Symbol:
        symbol = self.scopes.lookup(name)
        if symbol is None:
            raise SemanticError(f"unknown channel {name!r}", node.location)
        if not isinstance(symbol.type, ChannelType):
            raise SemanticError(f"{name!r} is not a channel", node.location)
        return symbol

    def _require_scalar(self, value_type: Type, expr: ast.Expr) -> None:
        if not value_type.is_scalar():
            raise SemanticError(
                f"expected a scalar value, found {value_type}", expr.location
            )

    def _check_expr(self, expr: ast.Expr) -> Type:
        result = self._infer(expr)
        expr.type = result
        return result

    def _infer(self, expr: ast.Expr) -> Type:
        assert self._current is not None
        info = self._current
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.Identifier):
            symbol = self.scopes.lookup(expr.name)
            if symbol is None:
                raise SemanticError(f"unknown identifier {expr.name!r}", expr.location)
            if symbol.kind is SymbolKind.FUNCTION:
                raise SemanticError(
                    f"function {expr.name!r} used as a value", expr.location
                )
            expr.symbol = symbol  # type: ignore[attr-defined]
            return symbol.type
        if isinstance(expr, ast.UnaryOp):
            operand_type = self._check_expr(expr.operand)
            if expr.op == "*":
                info.note(FEATURE_POINTERS, expr.location)
                if not isinstance(operand_type, PointerType):
                    raise SemanticError(
                        f"cannot dereference non-pointer {operand_type}", expr.location
                    )
                return operand_type.target
            if expr.op == "&":
                info.note(FEATURE_POINTERS, expr.location)
                if not ast.is_lvalue(expr.operand) and not isinstance(
                    expr.operand, ast.Identifier
                ):
                    raise SemanticError(
                        "cannot take the address of a non-lvalue", expr.location
                    )
                if isinstance(operand_type, ArrayType):
                    return PointerType(operand_type.element)
                return PointerType(operand_type)
            if expr.op == "!":
                self._require_scalar(operand_type, expr.operand)
                return BOOL
            if expr.op in ("-", "~"):
                if not isinstance(operand_type, (IntType, BoolType)):
                    raise SemanticError(
                        f"cannot apply {expr.op!r} to {operand_type}", expr.location
                    )
                if isinstance(operand_type, BoolType):
                    return INT
                return operand_type
            raise SemanticError(f"unknown unary operator {expr.op!r}", expr.location)
        if isinstance(expr, ast.BinaryOp):
            left = self._check_expr(expr.left)
            right = self._check_expr(expr.right)
            if expr.op in ("&&", "||"):
                self._require_scalar(left, expr.left)
                self._require_scalar(right, expr.right)
                return BOOL
            if expr.op in ("==", "!=", "<", "<=", ">", ">="):
                if common_type(left, right) is None:
                    raise SemanticError(
                        f"cannot compare {left} with {right}", expr.location
                    )
                return BOOL
            if expr.op in ("/", "%"):
                info.note(FEATURE_DIVISION, expr.location)
            if expr.op == "*":
                info.note(FEATURE_MULTIPLY, expr.location)
            if expr.op in ("<<", ">>"):
                if not isinstance(left, (IntType, BoolType)) or not isinstance(
                    right, (IntType, BoolType)
                ):
                    raise SemanticError(
                        f"cannot shift {left} by {right}", expr.location
                    )
                return left if isinstance(left, IntType) else INT
            combined = common_type(left, right)
            if combined is None:
                raise SemanticError(
                    f"operator {expr.op!r} cannot combine {left} and {right}",
                    expr.location,
                )
            if isinstance(combined, PointerType):
                info.note(FEATURE_POINTERS, expr.location)
            return combined
        if isinstance(expr, ast.Conditional):
            self._require_scalar(self._check_expr(expr.cond), expr.cond)
            then_type = self._check_expr(expr.then)
            else_type = self._check_expr(expr.otherwise)
            combined = common_type(then_type, else_type)
            if combined is None:
                raise SemanticError(
                    f"conditional arms have incompatible types"
                    f" {then_type} and {else_type}",
                    expr.location,
                )
            return combined
        if isinstance(expr, ast.ArrayIndex):
            base_type = self._check_expr(expr.base)
            index_type = self._check_expr(expr.index)
            self._require_scalar(index_type, expr.index)
            info.note(FEATURE_ARRAYS, expr.location)
            if isinstance(base_type, ArrayType):
                return base_type.element
            if isinstance(base_type, PointerType):
                info.note(FEATURE_POINTERS, expr.location)
                return base_type.target
            raise SemanticError(f"cannot index into {base_type}", expr.location)
        if isinstance(expr, ast.Call):
            symbol = self.scopes.lookup(expr.callee)
            if symbol is None or symbol.kind is not SymbolKind.FUNCTION:
                raise SemanticError(f"unknown function {expr.callee!r}", expr.location)
            expr.symbol = symbol  # type: ignore[attr-defined]
            fn_type = symbol.type
            assert isinstance(fn_type, FunctionType)
            if len(expr.args) != len(fn_type.params):
                raise SemanticError(
                    f"{expr.callee!r} expects {len(fn_type.params)} arguments,"
                    f" got {len(expr.args)}",
                    expr.location,
                )
            for arg, param_type in zip(expr.args, fn_type.params):
                arg_type = self._check_expr(arg)
                if isinstance(param_type, ArrayType):
                    if arg_type != param_type:
                        raise SemanticError(
                            f"array argument type {arg_type} does not match"
                            f" parameter type {param_type}",
                            arg.location,
                        )
                elif not is_assignable(param_type, arg_type):
                    raise SemanticError(
                        f"argument of type {arg_type} does not match parameter"
                        f" of type {param_type}",
                        arg.location,
                    )
            info.note(FEATURE_CALLS, expr.location)
            info.callees.add(expr.callee)
            return fn_type.result
        if isinstance(expr, ast.Receive):
            info.note(FEATURE_CHANNELS, expr.location)
            channel = self._resolve_channel(expr.channel, expr)
            expr.symbol = channel  # type: ignore[attr-defined]
            assert isinstance(channel.type, ChannelType)
            return channel.type.element
        raise SemanticError(f"unsupported expression {type(expr).__name__}", expr.location)


def _stored(values: List[int], value_type: Type) -> List[int]:
    """``values`` as variables of ``value_type`` hold them: wrapped, as
    every engine wraps a store."""
    if isinstance(value_type, BoolType):
        value_type = IntType(1, signed=False)
    if not isinstance(value_type, IntType):
        return values
    low, high = value_type.min_value, value_type.max_value
    return [v if low <= v <= high else value_type.wrap(v) for v in values]


def analyze(program: ast.Program) -> SemanticInfo:
    """Run semantic analysis over a parsed program, annotating it in place."""
    info = SemanticAnalyzer(program).analyze()
    # Record recursion as a whole-program feature on each function that
    # participates in or reaches a cycle.
    for name in info.functions:
        if info.is_recursive(name):
            fn_info = info.functions[name]
            fn_info.note(FEATURE_RECURSION, fn_info.symbol.location)
    return info
