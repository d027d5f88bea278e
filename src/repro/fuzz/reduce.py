"""Automatic reducer: delta-debug failing programs to minimal reproducers.

Given a failing program and a *predicate* ("does this candidate still fail
with the same signature?"), the reducer shrinks in two alternating passes
until a global fixpoint:

* **statement pass** — remove whole statements (including entire loops,
  conditionals, helper functions, globals, and processes).  Greedy
  one-at-a-time with restart, which guarantees the result is
  **1-minimal at statement granularity**: no single statement can be
  removed without either breaking the program or losing the signature.
* **token pass** — shrink below statement level: replace a binary
  expression by one of its operands, collapse a conditional to one arm,
  shrink integer literals toward zero, and flatten an ``if`` to its taken
  branch.

Every candidate is validated through the real frontend before the
predicate sees it, so the predicate only ever judges parseable programs.
A predicate that does not hold on the *input* program returns immediately
(``reproduced=False``) — the reducer never loops on non-reproducing
failures.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..lang import ast_nodes as ast
from ..lang import parse
from ..lang.pretty import print_program
from .mutate import _child_blocks, _walk_exprs

Predicate = Callable[[str], bool]

# Safety valve: reduction must terminate even on adversarial predicates.
DEFAULT_MAX_CALLS = 3000


@dataclass
class ReductionResult:
    original: str
    reduced: str
    reproduced: bool                 # predicate held on the input program
    predicate_calls: int = 0
    statement_rounds: int = 0
    token_rounds: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def shrink_ratio(self) -> float:
        if not self.original:
            return 1.0
        return len(self.reduced) / max(1, len(self.original))


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.calls = 0

    def spent(self) -> bool:
        return self.calls >= self.limit


def _try_parse(source: str) -> bool:
    try:
        parse(source)
        return True
    except Exception:
        return False


def _render(program: ast.Program) -> Optional[str]:
    try:
        text = print_program(program)
    except Exception:
        return None
    return text if _try_parse(text) else None


# -- statement-level candidates ---------------------------------------------

def _statement_paths(program: ast.Program) -> List[Tuple]:
    """Every deletable statement position, as (kind, *address) tuples that
    remain meaningful on a fresh parse of the same program."""
    paths: List[Tuple] = []
    for gi in range(len(program.globals)):
        paths.append(("global", gi))
    for ci in range(len(program.channels)):
        paths.append(("channel", ci))
    for fi, fn in enumerate(program.functions):
        if fn.name != "main":
            paths.append(("function", fi))

    def block_paths(block: ast.Block, addr: Tuple) -> None:
        for i, stmt in enumerate(block.statements):
            paths.append(("stmt", addr, i))
            for j, child in enumerate(_child_blocks(stmt)):
                block_paths(child, addr + (i, j))

    for fi, fn in enumerate(program.functions):
        if isinstance(fn.body, ast.Block):
            block_paths(fn.body, (fi,))
    return paths


def _resolve_block(program: ast.Program, addr: Tuple) -> Optional[ast.Block]:
    fi = addr[0]
    if fi >= len(program.functions):
        return None
    node: ast.Block = program.functions[fi].body
    rest = addr[1:]
    while rest:
        i, j = rest[0], rest[1]
        rest = rest[2:]
        if not isinstance(node, ast.Block) or i >= len(node.statements):
            return None
        children = _child_blocks(node.statements[i])
        if j >= len(children):
            return None
        node = children[j]
    return node if isinstance(node, ast.Block) else None


def _delete_path(program: ast.Program, path: Tuple) -> bool:
    if path[0] == "stmt":
        block = _resolve_block(program, path[1])
        items = [] if block is None else block.statements
    else:
        items = {"global": program.globals, "channel": program.channels,
                 "function": program.functions}[path[0]]
    if path[-1] >= len(items):
        return False
    del items[path[-1]]
    return True


def _candidate_without(source: str, path: Tuple) -> Optional[str]:
    program, _ = parse(source)         # a fresh tree, edited in place
    if not _delete_path(program, path):
        return None
    return _render(program)


# -- token-level candidates --------------------------------------------------

def _token_candidates(source: str) -> List[str]:
    """Expression-granularity shrinks, already validated to parse."""
    program, _ = parse(source)
    edits: List[Callable[[ast.Program], bool]] = []
    for idx, (e, parent, slot) in enumerate(_exprs(program)):
        if parent is None:
            continue
        if isinstance(e, ast.BinaryOp):
            edits.append(_replace_with_child(idx, "left"))
            edits.append(_replace_with_child(idx, "right"))
        elif isinstance(e, ast.Conditional):
            edits.append(_replace_with_child(idx, "then"))
            edits.append(_replace_with_child(idx, "otherwise"))
        elif isinstance(e, ast.IntLiteral) and e.value not in (0, 1):
            edits.append(_shrink_literal(idx, 0))
            edits.append(_shrink_literal(idx, e.value // 2))
    # Flatten if-statements to a taken branch.
    flat_count = sum(isinstance(s, ast.If) for fn in program.functions
                     for s in ast.walk_stmts(fn.body))
    for k in range(flat_count):
        edits.append(_flatten_if(k, "then"))
        edits.append(_flatten_if(k, "otherwise"))

    out: List[str] = []
    for edit in edits:
        fresh = copy.deepcopy(program)
        try:
            if not edit(fresh):
                continue
        except Exception:
            continue
        text = _render(fresh)
        if text is not None and text != source:
            out.append(text)
    return out


def _exprs(program) -> List[Tuple]:
    """Every expression as ``(expr, parent, slot)``, in traversal order."""
    found: List[Tuple] = []
    _walk_exprs(program, lambda *site: found.append(site))
    return found


def _nth_expr(fresh, idx):
    found = _exprs(fresh)
    return found[idx] if idx < len(found) else (None, None, None)


def _assign_slot(parent, slot, value) -> bool:
    if parent is None:
        return False
    if isinstance(parent, list):
        parent[slot] = value
    else:
        setattr(parent, slot, value)
    return True


def _replace_with_child(idx, child_slot):
    def edit(fresh) -> bool:
        e, parent, slot = _nth_expr(fresh, idx)
        if e is None or not hasattr(e, child_slot):
            return False
        return _assign_slot(parent, slot, getattr(e, child_slot))

    return edit


def _shrink_literal(idx, new_value):
    def edit(fresh) -> bool:
        e, parent, slot = _nth_expr(fresh, idx)
        if not isinstance(e, ast.IntLiteral) or e.value == new_value:
            return False
        e.value = new_value
        return True

    return edit


def _flatten_if(target_index, branch):
    def edit(fresh) -> bool:
        state = {"seen": 0, "done": False}

        def walk_block(block):
            if state["done"] or not isinstance(block, ast.Block):
                return
            for i, s in enumerate(block.statements):
                if isinstance(s, ast.If):
                    if state["seen"] == target_index:
                        chosen = s.then if branch == "then" else s.otherwise
                        if chosen is None:
                            state["done"] = True
                            return
                        block.statements[i] = chosen
                        state["done"] = True
                        state["ok"] = True
                        return
                    state["seen"] += 1
                    walk_block(s.then if isinstance(s.then, ast.Block) else None)
                    if isinstance(s.otherwise, ast.Block):
                        walk_block(s.otherwise)
                else:
                    for child in _child_blocks(s):
                        walk_block(child)
                if state["done"]:
                    return

        for fn in fresh.functions:
            walk_block(fn.body)
            if state["done"]:
                break
        return state.get("ok", False)

    return edit


# -- the driver ---------------------------------------------------------------

def reduce_source(
    source: str,
    predicate: Predicate,
    max_predicate_calls: int = DEFAULT_MAX_CALLS,
) -> ReductionResult:
    """Shrink ``source`` while ``predicate`` holds.

    The returned program is 1-minimal at statement granularity: deleting
    any single remaining statement either produces an invalid program or
    loses the failure (both count as "cannot remove").
    """
    budget = _Budget(max_predicate_calls)

    def check(candidate: str) -> bool:
        budget.calls += 1
        try:
            return bool(predicate(candidate))
        except Exception:
            return False

    result = ReductionResult(original=source, reduced=source, reproduced=False)
    if not _try_parse(source):
        result.notes.append("input does not parse; nothing to reduce")
        result.predicate_calls = budget.calls
        return result
    if not check(source):
        result.notes.append("failure did not reproduce on the input program")
        result.predicate_calls = budget.calls
        return result
    result.reproduced = True

    current = source
    changed = True
    while changed and not budget.spent():
        changed = False

        # Statement pass: greedy delete-with-restart to 1-minimality.
        progress = True
        while progress and not budget.spent():
            progress = False
            result.statement_rounds += 1
            program, _ = parse(current)
            # Deleting later statements first keeps earlier addresses
            # stable and tends to drop dependents before dependencies.
            for path in reversed(_statement_paths(program)):
                if budget.spent():
                    break
                candidate = _candidate_without(current, path)
                if candidate is None or candidate == current:
                    continue
                if check(candidate):
                    current = candidate
                    progress = True
                    changed = True
                    break   # restart: addresses are stale after a delete

        # Token pass: one accepted shrink, then back to statements.
        result.token_rounds += 1
        for candidate in _token_candidates(current):
            if budget.spent():
                break
            if check(candidate):
                current = candidate
                changed = True
                break

    if budget.spent():
        result.notes.append(
            f"stopped at predicate budget ({budget.limit} calls)"
        )
    result.reduced = current
    result.predicate_calls = budget.calls
    return result


def is_statement_minimal(source: str, predicate: Predicate) -> bool:
    """True when no single-statement deletion keeps the predicate alive —
    the 1-minimality check the reducer promises and the tests assert."""
    program, _ = parse(source)
    for path in _statement_paths(program):
        candidate = _candidate_without(source, path)
        if candidate is None:
            continue
        try:
            if predicate(candidate):
                return False
        except Exception:
            continue
    return True
