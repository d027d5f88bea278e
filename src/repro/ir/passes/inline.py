"""Exhaustive function inlining at the AST level.

Every synthesis flow in this framework inlines calls before building
hardware — exactly what Cones, Transmogrifier C, and CASH did, and what
C2Verilog did for bounded recursion.  After this pass the root function
contains no :class:`~repro.lang.ast_nodes.Call` nodes.

Calls buried inside expressions are *hoisted*: the callee's body is spliced
in front of the enclosing statement and the call is replaced by a reference
to a fresh result variable.  Lazy contexts (``&&``/``||`` right-hand sides,
conditional-expression arms, loop conditions) are first lowered into
explicit control flow so that C's evaluation-order guarantees survive.

Recursion is handled by bounded unrolling of the call tree: each nested
call adds one to the depth, and exceeding ``max_depth`` raises
:class:`InlineBudgetExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...lang import ast_nodes as ast
from ...lang.errors import SemanticError
from ...lang.semantic import SemanticInfo
from ...lang.symtab import Symbol
from ...lang.types import ArrayType, BOOL, ChannelType, PointerType, VoidType
from ..astutils import (
    Cloner,
    contains_return,
    eliminate_returns,
    fresh_symbol,
    make_identifier,
)


class InlineBudgetExceeded(SemanticError):
    """Recursion deeper than the inliner's budget (a true hardware compiler
    would need a runtime stack here, which the surveyed tools lacked)."""


@dataclass
class InlineStats:
    calls_inlined: int = 0
    max_depth_used: int = 0
    truncated_calls: int = 0
    per_callee: Dict[str, int] = field(default_factory=dict)


def _expr_has_call(expr: ast.Expr) -> bool:
    return any(isinstance(e, ast.Call) for e in ast.walk_expr(expr))


class _Inliner:
    def __init__(
        self,
        program: ast.Program,
        max_depth: int,
        max_calls: int,
        call_boundary: bool = False,
    ):
        self.program = program
        self.max_depth = max_depth
        self.max_calls = max_calls
        # Transmogrifier C charges one clock cycle per function call; with
        # call_boundary the inliner marks each spliced call with a wait().
        self.call_boundary = call_boundary
        self.stats = InlineStats()

    # -- driver -------------------------------------------------------------

    def inline_function(self, fn: ast.FunctionDef) -> ast.FunctionDef:
        body = self._inline_block(fn.body, depth=0)
        return ast.FunctionDef(
            name=fn.name,
            return_type=fn.return_type,
            params=fn.params,
            body=body,
            is_process=fn.is_process,
            location=fn.location,
        )

    def _inline_block(self, block: ast.Block, depth: int) -> ast.Block:
        out: List[ast.Stmt] = []
        for stmt in block.statements:
            self._inline_stmt(stmt, depth, out)
        return ast.Block(statements=out, location=block.location)

    # -- statements ----------------------------------------------------------

    def _inline_stmt(self, stmt: ast.Stmt, depth: int, out: List[ast.Stmt]) -> None:
        if isinstance(stmt, ast.Block):
            out.append(self._inline_block(stmt, depth))
            return
        if isinstance(stmt, ast.While):
            out.append(self._inline_while(stmt, depth))
            return
        if isinstance(stmt, ast.DoWhile):
            out.append(self._inline_do_while(stmt, depth))
            return
        if isinstance(stmt, ast.For):
            self._inline_for(stmt, depth, out)
            return
        # Calls in the statement's own expressions splice their bodies in
        # front of it; nested statements take their splices inside.
        prelude: List[ast.Stmt] = []
        if isinstance(stmt, ast.Assign):
            # The value's calls run before the target's.
            value = self._rewrite_expr(stmt.value, depth, prelude)
            target = self._rewrite_expr(stmt.target, depth, prelude)
            clone = ast.Assign(target=target, value=value, location=stmt.location)
        else:
            def child(node: ast.Node) -> ast.Node:
                if isinstance(node, ast.Expr):
                    return self._rewrite_expr(node, depth, prelude)
                return self._inline_substmt(node, depth)

            clone = ast.map_children(stmt, child)
        out.extend(prelude)
        if isinstance(clone, ast.ExprStmt) and isinstance(clone.expr, ast.Identifier) and prelude:
            # A lone call's result (if any) is discarded; the prelude holds
            # the inlined body.
            return
        out.append(clone)

    def _inline_substmt(self, stmt: ast.Stmt, depth: int) -> ast.Stmt:
        out: List[ast.Stmt] = []
        self._inline_stmt(stmt, depth, out)
        if len(out) == 1:
            return out[0]
        return ast.Block(statements=out, location=stmt.location)

    def _inline_while(self, stmt: ast.While, depth: int) -> ast.Stmt:
        if not _expr_has_call(stmt.cond):
            return ast.While(
                cond=stmt.cond,
                body=self._inline_substmt(stmt.body, depth),
                location=stmt.location,
            )
        # while (f(...)) body  =>  while (true) { t = cond; if (!t) break; body }
        prelude: List[ast.Stmt] = []
        cond = self._rewrite_expr(stmt.cond, depth, prelude)
        not_cond = ast.UnaryOp(op="!", operand=cond)
        not_cond.type = BOOL
        escape = ast.If(cond=not_cond, then=ast.Break())
        body = self._inline_substmt(stmt.body, depth)
        true_lit = ast.BoolLiteral(value=True)
        true_lit.type = BOOL
        return ast.While(
            cond=true_lit,
            body=ast.Block(statements=prelude + [escape, body]),
            location=stmt.location,
        )

    def _inline_do_while(self, stmt: ast.DoWhile, depth: int) -> ast.Stmt:
        if not _expr_has_call(stmt.cond):
            return ast.DoWhile(
                body=self._inline_substmt(stmt.body, depth),
                cond=stmt.cond,
                location=stmt.location,
            )
        prelude: List[ast.Stmt] = []
        cond = self._rewrite_expr(stmt.cond, depth, prelude)
        not_cond = ast.UnaryOp(op="!", operand=cond)
        not_cond.type = BOOL
        escape = ast.If(cond=not_cond, then=ast.Break())
        body = self._inline_substmt(stmt.body, depth)
        true_lit = ast.BoolLiteral(value=True)
        true_lit.type = BOOL
        return ast.While(
            cond=true_lit,
            body=ast.Block(statements=[body] + prelude + [escape]),
            location=stmt.location,
        )

    def _inline_for(self, stmt: ast.For, depth: int, out: List[ast.Stmt]) -> None:
        if stmt.cond is not None and _expr_has_call(stmt.cond):
            # Desugar into a while loop, then reuse the while logic.
            body_parts: List[ast.Stmt] = [stmt.body]
            if stmt.step is not None:
                body_parts.append(stmt.step)
            desugared = ast.While(
                cond=stmt.cond,
                body=ast.Block(statements=body_parts),
                location=stmt.location,
            )
            if stmt.init is not None:
                self._inline_stmt(stmt.init, depth, out)
            out.append(self._inline_while(desugared, depth))
            return
        init: Optional[ast.Stmt] = None
        if stmt.init is not None:
            init_out: List[ast.Stmt] = []
            self._inline_stmt(stmt.init, depth, init_out)
            if len(init_out) == 1:
                init = init_out[0]
            else:
                out.extend(init_out[:-1])
                init = init_out[-1]
        step: Optional[ast.Stmt] = None
        if stmt.step is not None:
            step = self._inline_substmt(stmt.step, depth)
            if isinstance(step, ast.Block):
                # A call in the step would need splicing inside the loop;
                # desugar conservatively.
                body = ast.Block(statements=[stmt.body, step])
                out.append(
                    ast.For(
                        init=init, cond=stmt.cond, step=None,
                        body=self._inline_block(body, depth),
                        location=stmt.location,
                    )
                )
                return
        out.append(
            ast.For(
                init=init,
                cond=stmt.cond,
                step=step,
                body=self._inline_substmt(stmt.body, depth),
                location=stmt.location,
            )
        )

    # -- expressions ----------------------------------------------------------

    def _rewrite_expr(
        self, expr: ast.Expr, depth: int, prelude: List[ast.Stmt]
    ) -> ast.Expr:
        if isinstance(expr, (ast.IntLiteral, ast.BoolLiteral, ast.Identifier, ast.Receive)):
            return expr
        if isinstance(expr, ast.Call):
            return self._inline_call(expr, depth, prelude)
        if isinstance(expr, ast.UnaryOp):
            operand = self._rewrite_expr(expr.operand, depth, prelude)
            if operand is expr.operand:
                return expr
            clone = ast.UnaryOp(op=expr.op, operand=operand, location=expr.location)
            clone.type = expr.type
            return clone
        if isinstance(expr, ast.ArrayIndex):
            base = self._rewrite_expr(expr.base, depth, prelude)
            index = self._rewrite_expr(expr.index, depth, prelude)
            if base is expr.base and index is expr.index:
                return expr
            clone = ast.ArrayIndex(base=base, index=index, location=expr.location)
            clone.type = expr.type
            return clone
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("&&", "||") and _expr_has_call(expr.right):
                return self._lower_lazy_binary(expr, depth, prelude)
            left = self._rewrite_expr(expr.left, depth, prelude)
            right = self._rewrite_expr(expr.right, depth, prelude)
            if left is expr.left and right is expr.right:
                return expr
            clone = ast.BinaryOp(op=expr.op, left=left, right=right, location=expr.location)
            clone.type = expr.type
            return clone
        if isinstance(expr, ast.Conditional):
            if _expr_has_call(expr.then) or _expr_has_call(expr.otherwise):
                return self._lower_lazy_conditional(expr, depth, prelude)
            cond = self._rewrite_expr(expr.cond, depth, prelude)
            if cond is expr.cond:
                return expr
            clone = ast.Conditional(
                cond=cond, then=expr.then, otherwise=expr.otherwise, location=expr.location
            )
            clone.type = expr.type
            return clone
        raise SemanticError(
            f"inliner cannot rewrite {type(expr).__name__}", expr.location
        )

    def _lower_lazy_binary(
        self, expr: ast.BinaryOp, depth: int, prelude: List[ast.Stmt]
    ) -> ast.Expr:
        """``a && f(b)`` => ``bool t = false/true; t = a; if (t) t = f(b)!=0``."""
        result = fresh_symbol("shortcircuit", BOOL)
        self._declare(result, prelude)
        left = self._rewrite_expr(expr.left, depth, prelude)
        as_bool_left = self._as_bool(left)
        prelude.append(ast.Assign(target=make_identifier(result), value=as_bool_left))
        rhs_prelude: List[ast.Stmt] = []
        right = self._rewrite_expr(expr.right, depth, rhs_prelude)
        assign_rhs = ast.Assign(target=make_identifier(result), value=self._as_bool(right))
        guarded_body = ast.Block(statements=rhs_prelude + [assign_rhs])
        if expr.op == "&&":
            prelude.append(ast.If(cond=make_identifier(result), then=guarded_body))
        else:
            negated = ast.UnaryOp(op="!", operand=make_identifier(result))
            negated.type = BOOL
            prelude.append(ast.If(cond=negated, then=guarded_body))
        return make_identifier(result)

    def _lower_lazy_conditional(
        self, expr: ast.Conditional, depth: int, prelude: List[ast.Stmt]
    ) -> ast.Expr:
        assert expr.type is not None
        result = fresh_symbol("select", expr.type)
        self._declare(result, prelude)
        cond = self._rewrite_expr(expr.cond, depth, prelude)
        then_prelude: List[ast.Stmt] = []
        then_value = self._rewrite_expr(expr.then, depth, then_prelude)
        else_prelude: List[ast.Stmt] = []
        else_value = self._rewrite_expr(expr.otherwise, depth, else_prelude)
        prelude.append(
            ast.If(
                cond=cond,
                then=ast.Block(
                    statements=then_prelude
                    + [ast.Assign(target=make_identifier(result), value=then_value)]
                ),
                otherwise=ast.Block(
                    statements=else_prelude
                    + [ast.Assign(target=make_identifier(result), value=else_value)]
                ),
            )
        )
        return make_identifier(result)

    @staticmethod
    def _as_bool(expr: ast.Expr) -> ast.Expr:
        zero = ast.IntLiteral(value=0)
        zero.type = expr.type
        test = ast.BinaryOp(op="!=", left=expr, right=zero)
        test.type = BOOL
        return test

    @staticmethod
    def _declare(symbol: Symbol, prelude: List[ast.Stmt]) -> None:
        decl = ast.VarDecl(name=symbol.name, var_type=symbol.type)
        decl.symbol = symbol  # type: ignore[attr-defined]
        prelude.append(decl)

    # -- the actual call splice -------------------------------------------

    def _inline_call(
        self, call: ast.Call, depth: int, prelude: List[ast.Stmt]
    ) -> ast.Expr:
        if depth >= self.max_depth:
            # Bounded-recursion semantics: beyond the unrolled depth the
            # hardware has no stack frame left, so the deepest call yields
            # zero.  Inputs that would actually recurse this deep produce
            # wrong answers — callers size max_depth for their inputs, as
            # C2Verilog users sized their implicit stacks.
            fn = self.program.function(call.callee)
            self.stats.truncated_calls += 1
            if isinstance(fn.return_type, VoidType):
                return make_identifier(fresh_symbol("void", fn.return_type))
            zero = ast.IntLiteral(value=0, location=call.location)
            zero.type = fn.return_type
            return zero
        if self.stats.calls_inlined >= self.max_calls:
            raise InlineBudgetExceeded(
                f"inlining exceeded the budget of {self.max_calls} call sites"
                " (non-linear recursion explodes exponentially; a real"
                " compiler would need a runtime stack here)",
                call.location,
            )
        fn = self.program.function(call.callee)
        self.stats.calls_inlined += 1
        self.stats.max_depth_used = max(self.stats.max_depth_used, depth + 1)
        self.stats.per_callee[call.callee] = self.stats.per_callee.get(call.callee, 0) + 1
        if self.call_boundary:
            prelude.append(ast.Wait(location=call.location))

        symbol_map: Dict[Symbol, Symbol] = {}
        substitutions: Dict[Symbol, ast.Expr] = {}
        for param, arg in zip(fn.params, call.args):
            param_symbol: Symbol = param.symbol  # type: ignore[attr-defined]
            arg = self._rewrite_expr(arg, depth, prelude)
            if isinstance(param_symbol.type, (ArrayType, PointerType)):
                substitutions[param_symbol] = arg
            elif isinstance(param_symbol.type, ChannelType):
                if not isinstance(arg, ast.Identifier):
                    raise SemanticError(
                        "channel arguments must be channel names", arg.location
                    )
                symbol_map[param_symbol] = arg.symbol  # type: ignore[attr-defined]
            else:
                local = fresh_symbol(param_symbol.name, param_symbol.type)
                decl = ast.VarDecl(
                    name=local.name, var_type=local.type, init=arg, location=call.location
                )
                decl.symbol = local  # type: ignore[attr-defined]
                prelude.append(decl)
                symbol_map[param_symbol] = local

        cloned = Cloner(symbol_map, substitutions).stmt(fn.body)
        assert isinstance(cloned, ast.Block)

        returns_value = not isinstance(fn.return_type, VoidType)
        result_symbol: Optional[Symbol] = None
        if returns_value:
            result_symbol = fresh_symbol(f"{fn.name}_ret", fn.return_type)
            self._declare(result_symbol, prelude)
        if contains_return(cloned):
            done = fresh_symbol(f"{fn.name}_done", BOOL)
            self._declare(done, prelude)
            cloned = eliminate_returns(cloned, result_symbol, done)
        body = self._inline_block(cloned, depth + 1)
        prelude.append(body)
        if returns_value:
            assert result_symbol is not None
            return make_identifier(result_symbol)
        # Void call in expression position can only be an ExprStmt.
        return make_identifier(fresh_symbol("void", fn.return_type))


def inline_program(
    program: ast.Program,
    info: SemanticInfo,
    roots: Optional[List[str]] = None,
    max_depth: int = 32,
    max_calls: int = 20_000,
    call_boundary: bool = False,
):
    """Inline all calls reachable from ``roots`` (default: ``main`` plus all
    ``process`` functions).  Returns ``(new_program, stats)``; the original
    program is left untouched.  Globals and channels are shared by symbol, so
    results of running the new program are directly comparable.

    Recursion is unrolled up to ``max_depth`` nested inlines; non-linear
    recursion additionally hits ``max_calls`` quickly and raises
    :class:`InlineBudgetExceeded` — the honest outcome, since the surveyed
    compilers either rejected recursion outright (Cyber, Transmogrifier C)
    or implemented it with a runtime stack (C2Verilog)."""
    import sys

    if roots is None:
        roots = []
        names = {fn.name for fn in program.functions}
        if "main" in names:
            roots.append("main")
        roots.extend(p.name for p in program.processes if p.name not in roots)
    inliner = _Inliner(program, max_depth, max_calls, call_boundary=call_boundary)
    limit = sys.getrecursionlimit()
    if limit < 20_000:
        sys.setrecursionlimit(20_000)
    try:
        new_functions = [inliner.inline_function(program.function(r)) for r in roots]
    finally:
        sys.setrecursionlimit(limit)
    new_program = ast.Program(
        functions=new_functions,
        globals=program.globals,
        channels=program.channels,
        location=program.location,
    )
    return new_program, inliner.stats
