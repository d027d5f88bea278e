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

Candidates are path copies of one parsed tree (:func:`.mutate.edit`),
built one at a time as the reduction loop asks for them.  Each is
printed and parsed once before the predicate sees it, so the predicate
only ever judges parseable programs, and the accepted candidate's parsed
tree is the next round's.  Each distinct text is judged once.  A
predicate that does not hold on the *input* program returns immediately
(``reproduced=False``) — the reducer never loops on non-reproducing
failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, List, Optional, Set, Tuple

from ..lang import ast_nodes as ast
from ..lang import parse
from ..lang.pretty import print_program
from .mutate import block_statements, delete, edit, expr_sites

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


class _Judge:
    """The predicate under a call budget; one that raises does not hold."""

    def __init__(self, predicate: Predicate, limit: float):
        self.predicate = predicate
        self.limit = limit
        self.calls = 0

    def spent(self) -> bool:
        return self.calls >= self.limit

    def __call__(self, text: str) -> bool:
        self.calls += 1
        try:
            return bool(self.predicate(text))
        except Exception:
            return False


def _first_kept(
    candidates: Iterable[ast.Program], judge: _Judge, judged: Set[str],
) -> Optional[Tuple[str, ast.Program]]:
    """The text and parsed tree of the first candidate whose text is not in
    ``judged``, parses, and keeps the predicate.  Every text it looks at
    joins ``judged``."""
    for candidate in candidates:
        if judge.spent():
            return None
        try:
            text = print_program(candidate)
        except Exception:
            continue
        if text in judged:
            continue
        judged.add(text)
        try:
            tree, _ = parse(text)
        except Exception:
            continue
        if judge(text):
            return text, tree
    return None


# -- candidates ---------------------------------------------------------------

def _statement_sites(program: ast.Program) -> List[Tuple]:
    """Every deletable statement as ``(node, path)``: globals, channels,
    functions other than ``main``, then every statement a block holds."""
    sites = [(node, (i,)) for i, (node, _, _) in
             enumerate(ast.child_slots(program))
             if not (isinstance(node, ast.FunctionDef) and node.name == "main")]
    return sites + [(stmt, path) for stmt, path, _ in block_statements(program)]


def _deletions(program: ast.Program) -> Iterator[ast.Program]:
    # Later statements first: that tends to drop dependents before
    # their dependencies.
    for _, path in reversed(_statement_sites(program)):
        yield delete(program, path)


def _token_candidates(program: ast.Program) -> Iterator[ast.Program]:
    """Expression-granularity shrinks of ``program``, built lazily."""
    for e, path in expr_sites(program):
        if isinstance(e, ast.BinaryOp):
            yield edit(program, path, lambda node: node.left)
            yield edit(program, path, lambda node: node.right)
        elif isinstance(e, ast.Conditional):
            yield edit(program, path, lambda node: node.then)
            yield edit(program, path, lambda node: node.otherwise)
        elif isinstance(e, ast.IntLiteral) and e.value not in (0, 1):
            for value in (0, e.value // 2):
                if value != e.value:
                    yield edit(program, path,
                               lambda node, value=value: replace(node, value=value))
    # Flatten if-statements to a taken branch.
    for stmt, path, _ in block_statements(program):
        if isinstance(stmt, ast.If):
            yield edit(program, path, lambda node: node.then)
            if stmt.otherwise is not None:
                yield edit(program, path, lambda node: node.otherwise)


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
    judge = _Judge(predicate, max_predicate_calls)
    result = ReductionResult(original=source, reduced=source, reproduced=False)
    try:
        tree, _ = parse(source)
    except Exception:
        result.notes.append("input does not parse; nothing to reduce")
        return result
    if not judge(source):
        result.notes.append("failure did not reproduce on the input program")
        result.predicate_calls = judge.calls
        return result
    result.reproduced = True

    # Every text the reduction has looked at.  A deterministic predicate
    # gives a text the same answer every time, so none is judged twice.
    judged = {source}
    current = source
    changed = True
    while changed and not judge.spent():
        changed = False

        # Statement pass: greedy delete-with-restart to 1-minimality.
        while not judge.spent():
            result.statement_rounds += 1
            kept = _first_kept(_deletions(tree), judge, judged)
            if kept is None:
                break
            current, tree = kept
            changed = True

        # Token pass: one accepted shrink, then back to statements.
        result.token_rounds += 1
        kept = _first_kept(_token_candidates(tree), judge, judged)
        if kept is not None:
            current, tree = kept
            changed = True

    if judge.spent():
        result.notes.append(
            f"stopped at predicate budget ({judge.limit} calls)"
        )
    result.reduced = current
    result.predicate_calls = judge.calls
    return result


def is_statement_minimal(source: str, predicate: Predicate) -> bool:
    """True when no single-statement deletion keeps the predicate alive —
    the 1-minimality check the reducer promises and the tests assert."""
    program, _ = parse(source)
    judge = _Judge(predicate, math.inf)
    return _first_kept(_deletions(program), judge, set()) is None
