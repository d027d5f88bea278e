"""Loop unrolling at the AST level.

Two uses, straight from the paper:

* **Cones** flattened *everything* — "loops, which it unrolled".  The
  Cones flow asks :func:`count_full_unroll` whether full unrolling would
  succeed, rejects programs whose loop bounds it cannot evaluate at
  compile time, and then unrolls by evaluating the rolled CDFG;
  :func:`try_full_unroll` performs the same unrolling on the AST.
* **Transmogrifier C** charged one cycle per loop iteration, so "loops may
  need to be unrolled … to meet timing": the recoding experiments call
  :func:`unroll_loops` with a factor to regenerate that designer effort.

Only counted ``for`` loops with an affine induction pattern are touched:
``for (i = C0; i <op> C1; i += C2)`` where the body does not write ``i``
and contains no ``break``/``continue``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ...lang import ast_nodes as ast
from ...lang.symtab import Symbol
from ..astutils import Cloner, make_identifier, make_int_literal


@dataclass
class _CountedLoop:
    var: Symbol
    start: int
    step: int
    trip_count: int
    declares_var: bool


def _const_of(expr: ast.Expr) -> Optional[int]:
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.BoolLiteral):
        return int(expr.value)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _const_of(expr.operand)
        return -inner if inner is not None else None
    return None


def _match_counted_loop(loop: ast.For) -> Optional[_CountedLoop]:
    # init: "T i = C" or "i = C"
    declares = False
    if isinstance(loop.init, ast.VarDecl) and loop.init.init is not None:
        var: Symbol = loop.init.symbol  # type: ignore[attr-defined]
        start = _const_of(loop.init.init)
        declares = True
    elif isinstance(loop.init, ast.Assign) and isinstance(loop.init.target, ast.Identifier):
        var = loop.init.target.symbol  # type: ignore[attr-defined]
        start = _const_of(loop.init.value)
    else:
        return None
    if start is None:
        return None
    # cond: "i < C" / "i <= C" / "i > C" / "i >= C" / "i != C"
    cond = loop.cond
    if not isinstance(cond, ast.BinaryOp) or not isinstance(cond.left, ast.Identifier):
        return None
    if cond.left.symbol is not var:  # type: ignore[attr-defined]
        return None
    bound = _const_of(cond.right)
    if bound is None:
        return None
    # step: "i = i + C" / "i = i - C" (the parser lowers i++, i += C to this)
    step_stmt = loop.step
    if not isinstance(step_stmt, ast.Assign) or not isinstance(
        step_stmt.target, ast.Identifier
    ):
        return None
    if step_stmt.target.symbol is not var:  # type: ignore[attr-defined]
        return None
    delta_expr = step_stmt.value
    if not isinstance(delta_expr, ast.BinaryOp) or not isinstance(
        delta_expr.left, ast.Identifier
    ):
        return None
    if delta_expr.left.symbol is not var:  # type: ignore[attr-defined]
        return None
    delta = _const_of(delta_expr.right)
    if delta is None or delta == 0:
        return None
    step = delta if delta_expr.op == "+" else -delta if delta_expr.op == "-" else None
    if step is None:
        return None
    # trip count
    count = _trip_count(start, cond.op, bound, step)
    if count is None:
        return None
    # safety: body must not write the induction variable or branch out
    for inner in ast.walk_stmts(loop.body):
        if isinstance(inner, (ast.Break, ast.Continue)):
            return None
        if isinstance(inner, ast.Assign) and isinstance(inner.target, ast.Identifier):
            if inner.target.symbol is var:  # type: ignore[attr-defined]
                return None
    return _CountedLoop(var=var, start=start, step=step, trip_count=count, declares_var=declares)


def loop_trip_count(loop: ast.For) -> Optional[int]:
    """The static trip count of ``loop``, or None if it is not a counted
    affine loop (the same test unrolling uses).  Public for the linter's
    unbounded-latency rule."""
    info = _match_counted_loop(loop)
    return info.trip_count if info is not None else None


def _trip_count(start: int, op: str, bound: int, step: int) -> Optional[int]:
    if op == "<" and step > 0:
        return max(0, -(-(bound - start) // step)) if bound > start else 0
    if op == "<=" and step > 0:
        return max(0, (bound - start) // step + 1) if bound >= start else 0
    if op == ">" and step < 0:
        return max(0, -(-(start - bound) // -step)) if start > bound else 0
    if op == ">=" and step < 0:
        return max(0, (start - bound) // -step + 1) if start >= bound else 0
    if op == "!=" and step != 0:
        diff = bound - start
        if diff % step == 0 and diff // step >= 0:
            return diff // step
    return None


def _expand_iteration(loop: ast.For, info: _CountedLoop, value: int) -> ast.Stmt:
    """The loop body with the induction variable pinned to ``value``."""
    literal = make_int_literal(value, info.var.type)
    cloner = Cloner(substitutions={info.var: literal})
    return cloner.stmt(loop.body)


def _fully_unroll(loop: ast.For, info: _CountedLoop, max_iterations: int) -> Optional[List[ast.Stmt]]:
    if info.trip_count > max_iterations:
        return None
    out: List[ast.Stmt] = []
    value = info.start
    for _ in range(info.trip_count):
        out.append(_expand_iteration(loop, info, value))
        value += info.step
    if not info.declares_var:
        # The variable outlives the loop: leave it holding its final value.
        out.append(
            ast.Assign(
                target=make_identifier(info.var),
                value=make_int_literal(value, info.var.type),
            )
        )
    return out


def _partially_unroll(loop: ast.For, info: _CountedLoop, factor: int) -> Optional[ast.Stmt]:
    if factor <= 1 or info.trip_count % factor != 0:
        return None
    # Body repeated `factor` times, iteration k reading (i + k*step); the
    # step then advances by factor*step.
    repeats: List[ast.Stmt] = []
    for k in range(factor):
        if k == 0:
            repeats.append(Cloner().stmt(loop.body))
        else:
            offset = ast.BinaryOp(
                op="+",
                left=make_identifier(info.var),
                right=make_int_literal(k * info.step, info.var.type),
            )
            offset.type = info.var.type
            cloner = Cloner(substitutions={info.var: offset})
            repeats.append(cloner.stmt(loop.body))
    new_step = ast.Assign(
        target=make_identifier(info.var),
        value=_add_const(make_identifier(info.var), factor * info.step, info.var.type),
    )
    return ast.For(
        init=loop.init,
        cond=loop.cond,
        step=new_step,
        body=ast.Block(statements=repeats),
        location=loop.location,
    )


def _add_const(expr: ast.Expr, value: int, expr_type) -> ast.Expr:
    out = ast.BinaryOp(op="+", left=expr, right=make_int_literal(value, expr_type))
    out.type = expr_type
    return out


class _UnrollRewriter:
    def __init__(self, factor: Optional[int], full: bool, max_iterations: int):
        self.factor = factor
        self.full = full
        self.max_iterations = max_iterations
        self.unrolled = 0
        self.failed = 0

    def rewrite_stmt(self, stmt: ast.Stmt) -> List[ast.Stmt]:
        if isinstance(stmt, ast.Block):
            return [self.rewrite_block(stmt)]
        if isinstance(stmt, ast.If):
            then = self._single(stmt.then)
            otherwise = self._single(stmt.otherwise) if stmt.otherwise is not None else None
            return [ast.If(cond=stmt.cond, then=then, otherwise=otherwise, location=stmt.location)]
        if isinstance(stmt, ast.While):
            self.failed += 1 if self.full else 0
            return [ast.While(cond=stmt.cond, body=self._single(stmt.body), location=stmt.location)]
        if isinstance(stmt, ast.DoWhile):
            self.failed += 1 if self.full else 0
            return [ast.DoWhile(body=self._single(stmt.body), cond=stmt.cond, location=stmt.location)]
        if isinstance(stmt, ast.For):
            # Unroll inner loops first so nested counted loops flatten fully.
            body = self._single(stmt.body)
            loop = ast.For(
                init=stmt.init, cond=stmt.cond, step=stmt.step, body=body,
                location=stmt.location,
            )
            info = _match_counted_loop(loop)
            if info is None:
                self.failed += 1
                return [loop]
            if self.full:
                expansion = _fully_unroll(loop, info, self.max_iterations)
                if expansion is None:
                    self.failed += 1
                    return [loop]
                self.unrolled += 1
                return expansion
            assert self.factor is not None
            partial = _partially_unroll(loop, info, self.factor)
            if partial is None:
                self.failed += 1
                return [loop]
            self.unrolled += 1
            return [partial]
        if isinstance(stmt, ast.Par):
            return [
                ast.Par(
                    branches=[self._single(b) for b in stmt.branches],
                    location=stmt.location,
                )
            ]
        if isinstance(stmt, ast.Seq):
            return [ast.Seq(body=self.rewrite_block(stmt.body), location=stmt.location)]
        if isinstance(stmt, ast.Within):
            return [
                ast.Within(
                    cycles=stmt.cycles,
                    body=self.rewrite_block(stmt.body),
                    location=stmt.location,
                )
            ]
        return [stmt]

    def _single(self, stmt: ast.Stmt) -> ast.Stmt:
        out = self.rewrite_stmt(stmt)
        if len(out) == 1:
            return out[0]
        return ast.Block(statements=out)

    def rewrite_block(self, block: ast.Block) -> ast.Block:
        out: List[ast.Stmt] = []
        for stmt in block.statements:
            out.extend(self.rewrite_stmt(stmt))
        return ast.Block(statements=out, location=block.location)


@dataclass
class UnrollCount:
    """What :func:`try_full_unroll` would do to a function, counted
    without cloning anything."""

    unrolled: int = 0       # loop statements it would expand
    resisted: int = 0       # loop statements it would leave rolled
    iterations: int = 0     # loop-body copies the expansion would hold
    # Resisting loops still present afterwards (not inside a zero-trip
    # expansion), in preorder.
    survivors: List[ast.Stmt] = field(default_factory=list)


def count_full_unroll(fn: ast.FunctionDef, max_iterations: int = 4096) -> UnrollCount:
    """Count, by :class:`_UnrollRewriter`'s rules, the loops full unrolling
    would expand and those that would resist it.

    A ``for`` loop is matched on its rolled body, which gives the same
    answer as the rewriter's match on the unrolled one: expanding an inner
    loop neither adds nor removes a ``break``, a ``continue`` or a write
    of an outer induction variable (:func:`ast.walk_stmts` visits an inner
    loop's own init and step).
    """
    count = UnrollCount()
    # (statement, copies of it the expansion holds, whether it survives)
    work: List[Tuple[ast.Stmt, int, bool]] = [(fn.body, 1, True)]
    while work:
        stmt, copies, live = work.pop()
        children: List[ast.Stmt] = []
        if isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
            info = _match_counted_loop(stmt) if isinstance(stmt, ast.For) else None
            if info is None or info.trip_count > max_iterations:
                count.resisted += 1
                if live:
                    count.survivors.append(stmt)
            else:
                count.unrolled += 1
                copies *= info.trip_count
                count.iterations += copies
                live = live and info.trip_count > 0
            children = [stmt.body]
        elif isinstance(stmt, ast.Block):
            children = stmt.statements
        elif isinstance(stmt, ast.If):
            children = [stmt.then] + (
                [stmt.otherwise] if stmt.otherwise is not None else [])
        elif isinstance(stmt, ast.Par):
            children = stmt.branches
        elif isinstance(stmt, (ast.Seq, ast.Within)):
            children = [stmt.body]
        work.extend((child, copies, live) for child in reversed(children))
    return count


def unroll_loops(
    fn: ast.FunctionDef, factor: int, max_iterations: int = 4096
) -> Tuple[ast.FunctionDef, int]:
    """Partially unroll counted loops by ``factor``.  Returns the new
    function and the number of loops transformed."""
    rewriter = _UnrollRewriter(factor=factor, full=False, max_iterations=max_iterations)
    body = rewriter.rewrite_block(fn.body)
    out = ast.FunctionDef(
        name=fn.name, return_type=fn.return_type, params=fn.params, body=body,
        is_process=fn.is_process, location=fn.location,
    )
    return out, rewriter.unrolled


def try_full_unroll(
    fn: ast.FunctionDef, max_iterations: int = 4096
) -> Tuple[ast.FunctionDef, int, int]:
    """Fully unroll every counted loop.  Returns (new_function,
    loops_unrolled, loops_that_resisted); the caller decides whether
    resisting loops are fatal (they are for the Cones flow)."""
    rewriter = _UnrollRewriter(factor=None, full=True, max_iterations=max_iterations)
    body = rewriter.rewrite_block(fn.body)
    out = ast.FunctionDef(
        name=fn.name, return_type=fn.return_type, params=fn.params, body=body,
        is_process=fn.is_process, location=fn.location,
    )
    return out, rewriter.unrolled, rewriter.failed
