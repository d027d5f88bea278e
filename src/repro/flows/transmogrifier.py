"""Transmogrifier C (Galloway, University of Toronto, 1995).

Table 1: *"Limited scope."*  Supports loops, conditionals, and integer
arithmetic, and uses the survey's starkest implicit timing rule: *"In
Transmogrifier C, only loop iterations and function calls take a cycle."*

Implementation of the rule:

* function calls are inlined with a one-cycle marker (``call_boundary``);
* ``while``/``for`` loops are rotated into guarded do-while form so that,
  after CFG cleanup, each iteration is a single basic block = a single
  state = **one cycle**, however much logic it chains;
* the chain scheduler packs every block into one state, so the implied
  clock period is the worst chained path — the paper's point that such
  rules "can require recoding to meet timing" (unroll for fewer cycles,
  or restructure to shorten the chains).

Loops containing ``continue`` are not rotated (the rotation would skip the
step statement) and honestly cost an extra cycle per iteration.
"""

from __future__ import annotations

from typing import List

from ..lang import ast_nodes as ast
from ..lang.semantic import (
    FEATURE_CHANNELS,
    FEATURE_DELAY,
    FEATURE_PAR,
    FEATURE_POINTERS,
    FEATURE_RECURSION,
    FEATURE_WITHIN,
)
from .base import FlowMetadata
from .scheduled import ScheduledFlow


def _contains_continue(stmt: ast.Stmt) -> bool:
    """Whether a continue in ``stmt`` would bind to ``stmt``'s own loop
    (continues inside nested loops bind to those loops instead)."""
    work: List[ast.Stmt] = [stmt]
    while work:
        current = work.pop()
        if isinstance(current, ast.Continue):
            return True
        if isinstance(current, (ast.While, ast.DoWhile, ast.For)):
            continue  # inner loop: its continues are not ours
        if isinstance(current, ast.Block):
            work.extend(current.statements)
        elif isinstance(current, ast.If):
            work.append(current.then)
            if current.otherwise is not None:
                work.append(current.otherwise)
        elif isinstance(current, ast.Seq):
            work.append(current.body)
        elif isinstance(current, ast.Par):
            work.extend(current.branches)
        elif isinstance(current, ast.Within):
            work.append(current.body)
    return False


def rotate_loops(stmt: ast.Stmt) -> ast.Stmt:
    """Rewrite ``while (c) b`` into ``if (c) do b while (c)`` (and the
    analogous form for ``for``), recursively.  After CFG simplification the
    rotated body+test fuse into one block — one cycle per iteration."""
    if isinstance(stmt, ast.Block):
        return ast.Block(
            statements=[rotate_loops(s) for s in stmt.statements],
            location=stmt.location,
        )
    if isinstance(stmt, ast.If):
        return ast.If(
            cond=stmt.cond,
            then=rotate_loops(stmt.then),
            otherwise=rotate_loops(stmt.otherwise) if stmt.otherwise else None,
            location=stmt.location,
        )
    if isinstance(stmt, ast.While):
        body = rotate_loops(stmt.body)
        if _contains_continue(stmt.body):
            return ast.While(cond=stmt.cond, body=body, location=stmt.location)
        rotated = ast.DoWhile(body=body, cond=stmt.cond, location=stmt.location)
        return ast.If(cond=stmt.cond, then=rotated, location=stmt.location)
    if isinstance(stmt, ast.DoWhile):
        return ast.DoWhile(
            body=rotate_loops(stmt.body), cond=stmt.cond, location=stmt.location
        )
    if isinstance(stmt, ast.For):
        body = rotate_loops(stmt.body)
        if stmt.cond is None or _contains_continue(stmt.body):
            return ast.For(
                init=stmt.init, cond=stmt.cond, step=stmt.step, body=body,
                location=stmt.location,
            )
        parts: List[ast.Stmt] = [body]
        if stmt.step is not None:
            parts.append(stmt.step)
        rotated = ast.DoWhile(
            body=ast.Block(statements=parts), cond=stmt.cond, location=stmt.location
        )
        guarded = ast.If(cond=stmt.cond, then=rotated, location=stmt.location)
        if stmt.init is not None:
            return ast.Block(statements=[stmt.init, guarded], location=stmt.location)
        return guarded
    if isinstance(stmt, ast.Seq):
        body = rotate_loops(stmt.body)
        assert isinstance(body, ast.Block)
        return ast.Seq(body=body, location=stmt.location)
    if isinstance(stmt, ast.Within):
        body = rotate_loops(stmt.body)
        assert isinstance(body, ast.Block)
        return ast.Within(cycles=stmt.cycles, body=body, location=stmt.location)
    return stmt


def _rotate_function(fn: ast.FunctionDef) -> ast.FunctionDef:
    body = rotate_loops(fn.body)
    assert isinstance(body, ast.Block)
    return ast.FunctionDef(
        name=fn.name, return_type=fn.return_type, params=fn.params, body=body,
        is_process=fn.is_process, location=fn.location,
    )


class TransmogrifierFlow(ScheduledFlow):
    metadata = FlowMetadata(
        key="transmogrifier",
        title="Transmogrifier C",
        year=1995,
        note="Limited scope",
        concurrency="compiler",
        concurrency_detail="per-block combinational chaining only",
        timing="implicit-rule",
        timing_detail="one cycle per loop iteration and per function call",
        artifact="fsmd",
        reference="Galloway, FCCM 1995",
    )

    FORBIDDEN = {
        FEATURE_POINTERS: "Transmogrifier C has no pointers",
        FEATURE_CHANNELS: "Transmogrifier C has no channels",
        FEATURE_PAR: "Transmogrifier C has no parallel constructs",
        FEATURE_WITHIN: "Transmogrifier C has no timing constraints",
        FEATURE_DELAY: "Transmogrifier C has no delay statement",
        FEATURE_RECURSION: "Transmogrifier C forbids recursion",
    }

    SCHEDULER = "chain"
    CALL_BOUNDARY = True
    AST_TRANSFORM = staticmethod(_rotate_function)
