"""AST surgery utilities: cloning, substitution, and return-elimination.

The AST-level transformation passes (function inlining, loop unrolling, the
"recoding" variants the timing experiments generate) all need to duplicate
subtrees.  Cloning allocates fresh :class:`~repro.lang.symtab.Symbol` objects
for every declaration it copies so that duplicated code never aliases the
original's storage, and it can substitute arbitrary expressions for
identifiers (how array/pointer arguments are bound during inlining).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..lang import ast_nodes as ast
from ..lang.errors import SemanticError
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import BOOL, Type

_fresh = itertools.count()


def fresh_symbol(name: str, sym_type: Type, kind: SymbolKind = SymbolKind.LOCAL) -> Symbol:
    """A new, never-before-seen local symbol."""
    return Symbol(f"{name}~{next(_fresh)}", sym_type, kind)


class Cloner:
    """Deep-copies statements/expressions.

    ``symbol_map`` maps original symbols to replacement symbols (fresh ones
    are invented for declarations encountered during the walk).
    ``substitutions`` maps symbols to whole replacement *expressions*; a
    matching identifier is replaced by a clone of that expression.
    """

    def __init__(
        self,
        symbol_map: Optional[Dict[Symbol, Symbol]] = None,
        substitutions: Optional[Dict[Symbol, ast.Expr]] = None,
    ):
        self.symbol_map: Dict[Symbol, Symbol] = symbol_map or {}
        self.substitutions: Dict[Symbol, ast.Expr] = substitutions or {}

    def expr(self, e: ast.Expr) -> ast.Expr:
        return self._clone(e)

    def stmt(self, s: ast.Stmt) -> ast.Stmt:
        return self._clone(s)

    def _clone(self, node: ast.Node) -> ast.Node:
        symbol: Optional[Symbol] = getattr(node, "symbol", None)
        if isinstance(node, ast.Identifier) and symbol in self.substitutions:
            # Substitute a fresh clone so shared structure never appears.
            return Cloner(dict(self.symbol_map)).expr(self.substitutions[symbol])
        if isinstance(node, ast.VarDecl):
            replacement = fresh_symbol(symbol.name, symbol.type, symbol.kind)
            replacement.is_const = symbol.is_const
            self.symbol_map[symbol] = replacement
        out = ast.map_children(node, self._clone)
        name_field = _NAME_FIELDS.get(type(node))
        if name_field is not None and symbol is not None:
            mapped = self.symbol_map.get(symbol, symbol)
            out.symbol = mapped  # type: ignore[attr-defined]
            setattr(out, name_field, mapped.name)
        return out


# For each node kind whose name a clone renames with its symbol, the field
# that spells the name (a call keeps its callee's).
_NAME_FIELDS = {
    ast.Identifier: "name",
    ast.VarDecl: "name",
    ast.Receive: "channel",
    ast.Send: "channel",
}


def make_identifier(symbol: Symbol) -> ast.Identifier:
    """An identifier expression bound to ``symbol``."""
    ident = ast.Identifier(name=symbol.name, type=symbol.type)
    ident.symbol = symbol  # type: ignore[attr-defined]
    return ident


def make_int_literal(value: int, int_type: Type) -> ast.IntLiteral:
    lit = ast.IntLiteral(value=value)
    lit.type = int_type
    return lit


def contains_return(stmt: ast.Stmt) -> bool:
    return any(isinstance(s, ast.Return) for s in ast.walk_stmts(stmt))


def eliminate_returns(
    body: ast.Block, result_symbol: Optional[Symbol], done_symbol: Symbol
) -> ast.Block:
    """Rewrite ``return e`` into ``result = e; done = true;`` with guard
    logic so that execution falls through to the end of ``body``.

    This is the standard single-exit transformation used before inlining:
    after it, the block has no Return statements, and ``done`` is true on the
    paths that returned early.  Loops gain an early ``if (done) break;`` and
    their conditions are strengthened with ``!done``.
    """

    def not_done() -> ast.Expr:
        e = ast.UnaryOp(op="!", operand=make_identifier(done_symbol))
        e.type = BOOL
        return e

    def guard(statements: List[ast.Stmt]) -> List[ast.Stmt]:
        """Rewrite a statement list so that once ``done`` becomes true the
        remaining statements are skipped."""
        out: List[ast.Stmt] = []
        for i, s in enumerate(statements):
            rewritten, may_set_done = rewrite(s)
            out.append(rewritten)
            if may_set_done and i + 1 < len(statements):
                rest = guard(statements[i + 1 :])
                out.append(
                    ast.If(cond=not_done(), then=ast.Block(statements=rest))
                )
                break
        return out

    def rewrite(s: ast.Stmt):
        """Returns (rewritten_stmt, may_set_done)."""
        if isinstance(s, ast.Return):
            replacement: List[ast.Stmt] = []
            if s.value is not None:
                assert result_symbol is not None
                replacement.append(
                    ast.Assign(
                        target=make_identifier(result_symbol),
                        value=s.value,
                        location=s.location,
                    )
                )
            true_lit = ast.BoolLiteral(value=True)
            true_lit.type = BOOL
            replacement.append(
                ast.Assign(target=make_identifier(done_symbol), value=true_lit)
            )
            return ast.Block(statements=replacement, location=s.location), True
        if isinstance(s, ast.Block):
            if not contains_return(s):
                return s, False
            return ast.Block(statements=guard(s.statements), location=s.location), True
        if isinstance(s, ast.If):
            if not contains_return(s):
                return s, False
            then, _ = rewrite(s.then)
            otherwise = None
            if s.otherwise is not None:
                otherwise, _ = rewrite(s.otherwise)
            return (
                ast.If(cond=s.cond, then=then, otherwise=otherwise, location=s.location),
                True,
            )
        if isinstance(s, (ast.While, ast.DoWhile, ast.For)):
            if not contains_return(s):
                return s, False
            body_stmt = s.body
            new_body, _ = rewrite(body_stmt)
            escape = ast.If(cond=done_read_clone(), then=ast.Break())
            wrapped = ast.Block(statements=[new_body, escape])
            if isinstance(s, ast.While):
                return ast.While(cond=s.cond, body=wrapped, location=s.location), True
            if isinstance(s, ast.DoWhile):
                strengthened = ast.BinaryOp(op="&&", left=not_done(), right=s.cond)
                strengthened.type = BOOL
                return (
                    ast.DoWhile(body=wrapped, cond=strengthened, location=s.location),
                    True,
                )
            return (
                ast.For(
                    init=s.init, cond=s.cond, step=s.step, body=wrapped, location=s.location
                ),
                True,
            )
        if isinstance(s, ast.Seq):
            if not contains_return(s):
                return s, False
            inner, may = rewrite(s.body)
            assert isinstance(inner, ast.Block)
            return ast.Seq(body=inner, location=s.location), may
        if isinstance(s, ast.Par):
            if contains_return(s):
                raise SemanticError(
                    "return inside a par branch cannot be inlined", s.location
                )
            return s, False
        return s, False

    def done_read_clone() -> ast.Identifier:
        return make_identifier(done_symbol)

    return ast.Block(statements=guard(body.statements), location=body.location)
