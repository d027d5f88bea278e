"""The metamorphic layer: semantics-preserving program mutations.

Each mutation rewrites the AST in a way that provably cannot change the
interpreter's observable output — commuting a wrapped commutative
operator, re-associating under equal intermediate types, rotating a loop,
inserting dead code, splitting a compound assignment through a typed
temporary.  Running original and mutant through the *same* flow must then
produce the same observables; any divergence is a compiler bug **even
without the reference interpreter** (this is what makes the fuzzer useful
on programs the interpreter cannot run, and doubles the differential
surface on ones it can).

:func:`mutants` parses the program once.  Each attempt picks a site, the
path of child positions from the ``Program`` to the node it rewrites,
and :func:`edit` builds a copy that shares every node off that path; the
copy is pretty-printed, and a mutant that fails to re-parse is discarded
(never emitted), so every mutant handed to the campaign is a valid
program.  The reducer (:mod:`repro.fuzz.reduce`) edits through the same
sites.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Tuple

from ..lang import ast_nodes as ast
from ..lang import parse
from ..lang.pretty import print_program
from ..lang.types import BoolType, IntType, PointerType
from .masks import FeatureMask

# Wrapped two's-complement + - * and the bitwise ops commute; comparison
# for equality does too.  (`-` does not, and && / || short-circuit.)
_COMMUTATIVE = ("+", "*", "&", "|", "^", "==", "!=")
# Associative under a *fixed* wrap width — we additionally require all
# intermediate types to be identical before re-associating.
_ASSOCIATIVE = ("+", "*", "&", "|", "^")

MUTATION_NAMES = (
    "commute",
    "reassociate",
    "rotate-loop",
    "dead-code",
    "split-stmt",
)


@dataclass(frozen=True)
class Mutant:
    """One semantics-preserving rewrite of a program."""

    name: str          # mutation kind, e.g. "commute"
    index: int         # which candidate site was rewritten
    source: str


# -- sites and edits --------------------------------------------------------
#
# A site is the path of child positions, in ``child_slots`` order, from the
# ``Program`` down to a node.  An edit copies only the nodes on that path,
# so one parsed tree serves every mutation and every reduction candidate.

SitePath = Tuple[int, ...]


def edit(node: ast.Node, path: SitePath, rewrite: Callable) -> ast.Node:
    """A copy of ``node`` whose descendant at ``path`` is replaced by
    ``rewrite(descendant)``; every node off the path is shared."""
    if not path:
        return rewrite(node)
    positions = itertools.count()
    return ast.map_children(node, lambda child: (
        edit(child, path[1:], rewrite) if next(positions) == path[0]
        else child))


def delete(program: ast.Program, path: SitePath) -> ast.Program:
    """A copy of ``program`` without the list element at ``path``."""
    def drop(owner: ast.Node) -> ast.Node:
        out = ast.map_children(owner, lambda child: child)  # fresh lists
        _, items, index = next(
            itertools.islice(ast.child_slots(out), path[-1], None))
        del items[index]
        return out

    return edit(program, path[:-1], drop)


def expr_sites(node: ast.Node, path: SitePath = ()) -> Iterator[Tuple]:
    """Yield ``(expr, path)`` for every expression below ``node``,
    preorder."""
    for position, (child, _, _) in enumerate(ast.child_slots(node)):
        here = path + (position,)
        if isinstance(child, ast.Expr):
            yield child, here
        yield from expr_sites(child, here)


def _bodies(program: ast.Program) -> Iterator[Tuple]:
    """Yield ``(function, path of its body)`` for every function."""
    first = len(program.globals) + len(program.channels)
    for index, fn in enumerate(program.functions):
        if isinstance(fn.body, ast.Block):
            yield fn, (first + index, 0)


def _child_blocks(stmt: ast.Stmt, path: SitePath) -> List[Tuple]:
    """``(block, path)`` for ``stmt`` itself if it is a block, else for the
    nearest blocks below it.  A child statement that is no block (a
    ``seq`` in a ``par``, an ``else if`` arm, an unbraced loop body) is
    looked through to the blocks it holds; a ``for``'s ``init`` and
    ``step`` hold none."""
    if isinstance(stmt, ast.Block):
        return [(stmt, path)]
    return [found
            for position, (child, _, _) in enumerate(ast.child_slots(stmt))
            if isinstance(child, ast.Stmt)
            for found in _child_blocks(child, path + (position,))]


def block_statements(program: ast.Program) -> Iterator[Tuple]:
    """Yield ``(stmt, path, depth)`` for every statement a block holds,
    depth-first: each statement before the blocks nested in it.  ``depth``
    counts the blocks between the statement's block and its function."""
    def walk(block: ast.Block, path: SitePath, depth: int):
        for i, stmt in enumerate(block.statements):
            yield stmt, path + (i,), depth
            for child, child_path in _child_blocks(stmt, path + (i,)):
                yield from walk(child, child_path, depth + 1)

    for fn, path in _bodies(program):
        yield from walk(fn.body, path, 0)


def _outermost_first(program: ast.Program) -> List[Tuple]:
    """:func:`block_statements` block by block, outermost blocks first
    (a stable sort on depth gives a breadth-first walk's order, which the
    mutation sites pinned in ``tests/golden/fuzz_rewrites.json`` follow)."""
    return sorted(block_statements(program), key=lambda site: site[2])


def _is_pure(expr) -> bool:
    """No calls, no channel reads: safe to evaluate early or not at all."""
    return not any(isinstance(e, (ast.Call, ast.Receive)) for e in ast.walk_expr(expr))


# -- individual mutations ---------------------------------------------------
#
# Each ``*_sites`` function lists a mutation's ``(path, rewrite)`` sites;
# ``rewrite(node, rng, n)`` builds the node that replaces the one at
# ``path``, where ``n`` numbers the mutant for fresh names.

def _commute_sites(program):
    return [
        (path, _commute) for e, path in expr_sites(program)
        if isinstance(e, ast.BinaryOp) and e.op in _COMMUTATIVE
        # pointer arithmetic is not symmetric across flows
        and not any(isinstance(side.type, PointerType)
                    for side in (e.left, e.right))
        and _is_pure(e.left) and _is_pure(e.right)
    ]


def _commute(e, rng, n):
    return replace(e, left=e.right, right=e.left)


def _reassociate_sites(program):
    """(a op (b op c)) <-> ((a op b) op c), only when every participating
    node (operands and both operators) has the same scalar type — then
    wrap-around happens at one width throughout and the ops associate."""
    sites = []

    def same_types(*nodes):
        types = [n.type for n in nodes]
        if any(t is None for t in types):
            return False
        first = types[0]
        if not isinstance(first, IntType):
            return False
        return all(t == first for t in types)

    for e, path in expr_sites(program):
        if not (isinstance(e, ast.BinaryOp) and e.op in _ASSOCIATIVE):
            continue
        if isinstance(e.right, ast.BinaryOp) and e.right.op == e.op:
            if same_types(e, e.right, e.left, e.right.left, e.right.right) \
                    and _is_pure(e):
                sites.append((path, _associate_left))
        if isinstance(e.left, ast.BinaryOp) and e.left.op == e.op:
            if same_types(e, e.left, e.right, e.left.left, e.left.right) \
                    and _is_pure(e):
                sites.append((path, _associate_right))
    return sites


def _associate_left(e, rng, n):
    """a op (b op c) -> (a op b) op c"""
    inner = e.right
    return replace(e, left=ast.BinaryOp(op=e.op, left=e.left,
                                        right=inner.left, type=e.type),
                   right=inner.right)


def _associate_right(e, rng, n):
    """(a op b) op c -> a op (b op c)"""
    inner = e.left
    return replace(e, left=inner.left,
                   right=ast.BinaryOp(op=e.op, left=inner.right,
                                      right=e.right, type=e.type))


def _rotate_sites(program):
    """``for`` loops whose body has no ``continue`` (continue would skip
    the rotated step) can become init + while(cond){body; step}."""
    return [(path, _rotate) for s, path, _ in _outermost_first(program)
            if isinstance(s, ast.For) and s.cond is not None
            and isinstance(s.body, ast.Block)
            and not ast.binds_continue(s.body)]


def _rotate(loop, rng, n):
    step = [loop.step] if loop.step is not None else []
    init = [loop.init] if loop.init is not None else []
    body = ast.Block(statements=loop.body.statements + step)
    return ast.Block(statements=init + [ast.While(cond=loop.cond, body=body)])


def _dead_code_sites(program):
    """Positions in each function's body where an unused declaration can
    be inserted.  Parameters of the owning function are the only names we
    can safely read at an arbitrary position."""
    sites = []
    for fn, path in _bodies(program):
        params = [p.name for p in fn.params
                  if isinstance(p.param_type, (IntType, BoolType))]
        for i in range(len(fn.body.statements) + 1):
            sites.append((path, functools.partial(_insert_dead_code, i, params)))
    return sites


_DEAD_COUNTER = "__dead"


def _insert_dead_code(i, params, block, rng: random.Random, existing: int):
    name = f"{_DEAD_COUNTER}{existing}"
    if params and rng.random() < 0.7:
        base = ast.Identifier(name=rng.choice(params))
    else:
        base = ast.IntLiteral(value=rng.randint(0, 255))
    expr = ast.BinaryOp(
        op=rng.choice(["+", "^", "|"]),
        left=base,
        right=ast.IntLiteral(value=rng.randint(0, 255)),
    )
    decl = ast.VarDecl(name=name, var_type=IntType(32, True), init=expr)
    statements = block.statements[:i] + [decl] + block.statements[i:]
    return replace(block, statements=statements)


def _split_sites(program):
    """Assignments ``t = a op b`` where ``a`` is pure and scalar-typed:
    extract ``a`` into a typed temporary declared just before."""
    return [(path, _split) for s, path, _ in _outermost_first(program)
            if isinstance(s, ast.Assign)
            and isinstance(s.target, ast.Identifier)
            and isinstance(s.value, ast.BinaryOp)
            and isinstance(s.value.left.type, (IntType, BoolType))
            # never move or duplicate calls / channel reads
            and _is_pure(s.value)]


def _split(stmt, rng, existing: int):
    left = stmt.value.left
    name = f"__split{existing}"
    decl = ast.VarDecl(name=name, var_type=left.type, init=left)
    value = replace(stmt.value, left=ast.Identifier(name=name, type=left.type))
    return ast.Block(statements=[decl, replace(stmt, value=value)])


# -- driver -----------------------------------------------------------------

_SITES = {
    "commute": _commute_sites,
    "reassociate": _reassociate_sites,
    "rotate-loop": _rotate_sites,
    "dead-code": _dead_code_sites,
    "split-stmt": _split_sites,
}


def mutants(
    source: str,
    seed: int = 0,
    count: int = 3,
    mask: Optional[FeatureMask] = None,
    only: Optional[List[str]] = None,
) -> List[Mutant]:
    """Up to ``count`` distinct valid mutants of ``source``, deterministic
    in ``(source, seed, count, only)``.  ``mask`` suppresses mutations that
    would push the program outside the target flow's subset (rotating a
    counted loop breaks Cones' static-bounds analysis, so it is skipped
    there).  ``only`` restricts the rotation to a subset of
    :data:`MUTATION_NAMES` — the coverage-guided scheduler's lever for
    focusing mutation kinds on a hot parent."""
    try:
        program, _ = parse(source)
    except Exception:
        return []
    rng = random.Random(seed)
    names = list(MUTATION_NAMES)
    if only:
        names = [n for n in names if n in only] or names
    if mask is not None and mask.requires_static_bounds \
            and "rotate-loop" in names:
        names.remove("rotate-loop")
    if not names:
        return []

    out: List[Mutant] = []
    # A rewrite that prints as the unmutated program (commuting two equal
    # operands) is no mutant: it could never diverge from its original.
    seen = {source, print_program(program)}
    sites = {name: _SITES[name](program) for name in names}
    attempts = 0
    while len(out) < count and attempts < count * 6:
        attempts += 1
        name = names[(seed + attempts) % len(names)]
        if not sites[name]:
            continue
        index = rng.randrange(len(sites[name]))
        path, rewrite = sites[name][index]
        try:
            text = print_program(edit(
                program, path, lambda node: rewrite(node, rng, len(out))))
            if text in seen:
                continue
            parse(text)   # validity gate: discard anything that broke
        except Exception:
            continue
        seen.add(text)
        out.append(Mutant(name=name, index=index, source=text))
    return out


__all__ = ["MUTATION_NAMES", "Mutant", "mutants"]
