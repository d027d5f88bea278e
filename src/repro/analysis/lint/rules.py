"""Lint rules: each one predicts a class of flow rejections or hazards.

A rule inspects the AST or the CDFG through a shared :class:`LintContext`
(which caches the expensive intermediate artifacts — inlined programs,
unrollability counts, per-process CDFGs) and yields :class:`Diagnostic`
objects addressed to one flow.  The per-flow rule sets are declared next to the
flows themselves in :mod:`repro.flows.registry`, so each flow's linter
configuration and its ``compile()`` behaviour live side by side.

The contract that makes the linter trustworthy: an ``ERROR`` diagnostic with
rule id R means the flow's ``compile()`` raises an exception carrying the
same rule id R (feature rules share the :data:`FEATURE_TO_RULE` table with
``Flow.check``, structural rules replicate the flow's own pipeline
checks), and a program with no errors compiles.  ``tests/property`` holds
both directions over the whole workload suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...ir import build_function
from ...ir.cdfg import FunctionCDFG
from ...ir.ops import OpKind
from ...ir.passes import UnrollCount, count_full_unroll, inline_program
from ...ir.passes.unroll import loop_trip_count
from ...lang import ast_nodes as ast
from ...lang.errors import SourceLocation, UNKNOWN_LOCATION
from ...lang.semantic import (
    FEATURE_POINTERS,
    FEATURE_RECURSION,
    SemanticInfo,
)
from ...lang.symtab import Symbol
from ..pointer import plan_pointers
from .diagnostics import (
    Diagnostic,
    FEATURE_TO_RULE,
    RULE_ALIAS,
    RULE_COMB_CYCLE,
    RULE_PROCESS,
    RULE_SHARED_RACE,
    RULE_STRUCTURE,
    RULE_UNBOUNDED_LOOP,
    Severity,
)

_LOOP_STMTS = (ast.While, ast.DoWhile, ast.For)


class LintContext:
    """One analyzed program plus caches shared by all rules and flows."""

    def __init__(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        filename: str = "<input>",
    ):
        self.program = program
        self.info = info
        self.function = function
        self.filename = filename
        self.roots: List[str] = [function] + [
            p.name for p in program.processes if p.name != function
        ]
        self._features: Optional[Set[str]] = None
        self._inlined: Dict[Tuple[str, ...], ast.Program] = {}
        self._unrolled: Optional[UnrollCount] = None
        self._cdfgs: Dict[str, FunctionCDFG] = {}

    # -- program facts -----------------------------------------------------

    @property
    def features(self) -> Set[str]:
        """Features used by the whole design (all roots, transitively)."""
        if self._features is None:
            used: Set[str] = set()
            for root in self.roots:
                if root in self.info.functions:
                    used |= self.info.features_of(root)
            self._features = used
        return self._features

    @property
    def has_recursion(self) -> bool:
        return FEATURE_RECURSION in self.features

    def feature_site(self, feature: str) -> SourceLocation:
        """Where the design first uses ``feature`` (first root that has it)."""
        for root in self.roots:
            site = self.info.feature_site(root, feature)
            if site != UNKNOWN_LOCATION:
                return site
        return UNKNOWN_LOCATION

    def reachable_functions(self) -> List[ast.FunctionDef]:
        """Function definitions reachable from the roots (call graph)."""
        seen: Set[str] = set()
        work = list(self.roots)
        while work:
            name = work.pop()
            if name in seen or name not in self.info.functions:
                continue
            seen.add(name)
            work.extend(self.info.functions[name].callees)
        return [fn for fn in self.program.functions if fn.name in seen]

    # -- cached expensive artifacts ---------------------------------------

    def inlined(self, roots: Optional[List[str]] = None) -> ast.Program:
        """The program with all calls inlined (flows do this first)."""
        key = tuple(roots if roots is not None else self.roots)
        if key not in self._inlined:
            program, _stats = inline_program(
                self.program, self.info, roots=list(key)
            )
            self._inlined[key] = program
        return self._inlined[key]

    def entry_unrolled(self, max_iterations: int = 4096) -> UnrollCount:
        """What the Cones pipeline's unrollability check finds in the
        inlined entry function."""
        if self._unrolled is None:
            fn = self.inlined(roots=[self.function]).function(self.function)
            self._unrolled = count_full_unroll(
                fn, max_iterations=max_iterations)
        return self._unrolled

    def cdfg(self, root: str) -> FunctionCDFG:
        """The CDFG of one root (entry function or process), post-inline."""
        if root not in self._cdfgs:
            fn = self.inlined().function(root)
            plan = plan_pointers(fn)
            self._cdfgs[root] = build_function(fn, self.info, plan)
        return self._cdfgs[root]


class Rule:
    """Base class: one predicted rejection (error) or hazard (warning)."""

    rule: str = RULE_STRUCTURE
    severity: Severity = Severity.ERROR
    # Rules that inline/lower first cannot run on recursive programs; the
    # engine skips them (the recursion feature rule already errors there).
    requires_inline: bool = False

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def diag(
        self,
        flow_key: str,
        message: str,
        location: SourceLocation = UNKNOWN_LOCATION,
        hint: str = "",
        rule: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        return Diagnostic(
            flow=flow_key,
            rule=rule or self.rule,
            severity=severity or self.severity,
            message=message,
            location=location,
            hint=hint,
        )


_FEATURE_HINTS: Dict[str, str] = {
    "pointers": "rewrite pointer accesses as explicit array indexing",
    "recursion": "convert the recursion into an iterative loop",
    "channels": "use a CSP-capable flow (handelc, systemc, bachc, ...)"
                " or share data through function arguments",
    "par": "use a flow with explicit concurrency, or let a scheduled flow"
           " rediscover the parallelism from sequential code",
    "wait": "remove explicit cycle boundaries or pick a flow with"
            " designer-visible timing",
    "delay": "remove explicit cycle boundaries or pick a flow with"
             " designer-visible timing",
    "within": "drop the constraint block or use the hardwarec flow",
}


class FeatureRule(Rule):
    """A language feature the flow's historical tool rejected outright.

    Shares :data:`FEATURE_TO_RULE` with ``Flow.check``, so the
    diagnostic's rule id equals the ``UnsupportedFeature.rule`` the flow
    raises for the same program.
    """

    def __init__(self, feature: str, reason: str):
        self.feature = feature
        self.reason = reason
        self.rule = FEATURE_TO_RULE[feature]

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        if self.feature in ctx.features:
            yield self.diag(
                flow_key,
                self.reason,
                location=ctx.feature_site(self.feature),
                hint=_FEATURE_HINTS.get(self.feature, ""),
            )


class NoProcessRule(Rule):
    """Single-program flows (Cones, CASH) reject ``process`` functions."""

    rule = RULE_PROCESS

    def __init__(self, reason: str):
        self.reason = reason

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        for process in ctx.program.processes:
            yield self.diag(
                flow_key,
                f"{self.reason} (process {process.name!r})",
                location=process.location,
                hint="inline the process's work into the entry function",
            )


class StaticLoopBoundRule(Rule):
    """Cones unrolls every loop at compile time; a loop that resists full
    unrolling (dynamic bound, while/do-while shape) is a hard error.

    Replicates the flow's own check — inline, then
    :func:`count_full_unroll` — and reports each surviving loop statement.
    """

    rule = RULE_UNBOUNDED_LOOP
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        seen: Set[Tuple[int, int]] = set()
        for stmt in ctx.entry_unrolled().survivors:
            spot = (stmt.location.line, stmt.location.column)
            if spot in seen:
                continue
            seen.add(spot)
            kind = type(stmt).__name__.lower()
            yield self.diag(
                flow_key,
                f"{kind} loop bound cannot be evaluated at compile time;"
                " this flow unrolls every loop",
                location=stmt.location,
                hint="make the bound a compile-time constant, or use"
                     " a clocked (FSMD) flow",
            )


class UnboundedLatencyRule(Rule):
    """Warning for clocked flows: a loop without a static trip count means
    the design's latency depends on its inputs (the paper's unbounded-loop
    claim).  The program still compiles — severity is WARNING."""

    rule = RULE_UNBOUNDED_LOOP
    severity = Severity.WARNING

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        for fn in ctx.reachable_functions():
            for stmt in ast.walk_stmts(fn.body):
                if isinstance(stmt, (ast.While, ast.DoWhile)):
                    kind = type(stmt).__name__.lower()
                    yield self.diag(
                        flow_key,
                        f"{kind} loop has no static trip count:"
                        " latency is input-dependent",
                        location=stmt.location,
                        hint="bound the loop with a counted for if a latency"
                             " guarantee is needed",
                    )
                elif isinstance(stmt, ast.For):
                    if loop_trip_count(stmt) is None:
                        yield self.diag(
                            flow_key,
                            "for loop bound is not a compile-time constant:"
                            " latency is input-dependent",
                            location=stmt.location,
                            hint="bound the loop with constants if a latency"
                                 " guarantee is needed",
                        )


# ---------------------------------------------------------------------------
# Handel-C structural rules (the syntax-directed translation's shape limits)
# ---------------------------------------------------------------------------


def _consumes_cycle(stmt: ast.Stmt) -> bool:
    """Statements Handel-C charges a clock cycle for (assign/delay rule)."""
    if isinstance(stmt, (ast.Assign, ast.Send, ast.Wait, ast.Delay)):
        return True
    if isinstance(stmt, ast.VarDecl):
        return stmt.init is not None or bool(stmt.array_init)
    if isinstance(stmt, ast.ExprStmt):
        return isinstance(stmt.expr, ast.Receive)
    return False


class _ZeroTimePaths:
    """Can control traverse a loop body back to its header without passing a
    cycle-consuming statement?  That back edge would be a combinational
    cycle in Handel-C's enable-chain hardware.

    Path states are ``"nc"`` (no cycle consumed yet) and ``"cyc"``; nested
    loops are approximated conservatively (a nested while/for may pass
    through in zero iterations, a nested do-while runs its body at least
    once)."""

    def __init__(self, step_consumes: bool):
        self.step_consumes = step_consumes
        self.hit = False

    def scan(self, body: ast.Stmt) -> bool:
        fall = self._stmt(body, {"nc"}, None)
        if not self.step_consumes and "nc" in fall:
            self.hit = True
        return self.hit

    def _seq(self, stmts, states: Set[str], exits: Optional[Set[str]]) -> Set[str]:
        for stmt in stmts:
            states = self._stmt(stmt, states, exits)
            if not states:
                break
        return states

    def _stmt(self, stmt: ast.Stmt, states: Set[str],
              exits: Optional[Set[str]]) -> Set[str]:
        if not states:
            return states
        if _consumes_cycle(stmt):
            return {"cyc"}
        if isinstance(stmt, ast.Block):
            return self._seq(stmt.statements, states, exits)
        if isinstance(stmt, ast.Seq):
            return self._stmt(stmt.body, states, exits)
        if isinstance(stmt, ast.If):
            then_states = self._stmt(stmt.then, set(states), exits)
            if stmt.otherwise is not None:
                else_states = self._stmt(stmt.otherwise, set(states), exits)
            else:
                else_states = set(states)
            return then_states | else_states
        if isinstance(stmt, ast.Return):
            return set()  # leaves the machine entirely
        if isinstance(stmt, (ast.Break, ast.Continue)):
            if exits is not None:
                exits |= states  # binds to the nested loop: falls out of it
                return set()
            if isinstance(stmt, ast.Break):
                return set()  # leaves the loop under test
            # continue: straight back to the header (via the step for `for`)
            if not self.step_consumes and "nc" in states:
                self.hit = True
            return set()
        if isinstance(stmt, (ast.While, ast.For)):
            # May run zero iterations (state passes through) or consume.
            return states | {"cyc"}
        if isinstance(stmt, ast.DoWhile):
            inner_exits: Set[str] = set()
            fall = self._stmt(stmt.body, set(states), inner_exits)
            return fall | inner_exits | {"cyc"}
        if isinstance(stmt, ast.Par):
            if any(
                _consumes_cycle(inner)
                for branch in stmt.branches
                for inner in ast.walk_stmts(branch)
            ):
                return {"cyc"}
            return states
        if isinstance(stmt, ast.Within):
            return self._seq(stmt.body.statements, states, exits)
        return states  # empty declarations, pure expressions: zero cycles


class ZeroTimeLoopRule(Rule):
    """Handel-C: a loop that can iterate without an assignment or delay is a
    combinational cycle (only assignments and delays take a clock cycle)."""

    rule = RULE_COMB_CYCLE
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        for fn in self.inlined_functions(ctx):
            for stmt in ast.walk_stmts(fn.body):
                if not isinstance(stmt, _LOOP_STMTS):
                    continue
                step_consumes = (
                    isinstance(stmt, ast.For) and stmt.step is not None
                )
                if _ZeroTimePaths(step_consumes).scan(stmt.body):
                    yield self.diag(
                        flow_key,
                        "zero-time loop: the body can repeat without an"
                        " assignment or delay, a combinational cycle in"
                        " hardware",
                        location=stmt.location,
                        hint="add an assignment or `delay;` to the loop body",
                    )

    def inlined_functions(self, ctx: LintContext) -> List[ast.FunctionDef]:
        inlined = ctx.inlined()
        wanted = set(ctx.roots)
        return [fn for fn in inlined.functions if fn.name in wanted]


class ParStructureRule(Rule):
    """Handel-C ``par`` branches run in lockstep and must be straight-line
    statement chains — no control flow, no early exits."""

    rule = RULE_STRUCTURE
    requires_inline = True

    _CONTROL = (ast.If, ast.While, ast.DoWhile, ast.For,
                ast.Break, ast.Continue, ast.Return)

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        inlined = ctx.inlined()
        wanted = set(ctx.roots)
        for fn in inlined.functions:
            if fn.name not in wanted:
                continue
            for stmt in ast.walk_stmts(fn.body):
                if not isinstance(stmt, ast.Par):
                    continue
                for branch in stmt.branches:
                    offender = next(
                        (
                            inner
                            for inner in ast.walk_stmts(branch)
                            if isinstance(inner, self._CONTROL)
                        ),
                        None,
                    )
                    if offender is not None:
                        yield self.diag(
                            flow_key,
                            "par branches must be straight-line code"
                            f" ({type(offender).__name__.lower()} inside a"
                            " par branch)",
                            location=offender.location,
                            hint="move control flow into a process and"
                                 " communicate over a channel",
                        )
                        break  # one diagnostic per par is enough


class ReceivePositionRule(Rule):
    """Handel-C's ``c ? x`` form: a receive must stand alone — as a plain
    statement, an initializer, or the whole right-hand side of an
    assignment — never inside a larger expression."""

    rule = RULE_STRUCTURE

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        for fn in ctx.reachable_functions():
            for stmt in ast.walk_stmts(fn.body):
                allowed = self._allowed_roots(stmt)
                for expr in ast.stmt_expressions(stmt):
                    for sub in ast.walk_expr(expr):
                        if isinstance(sub, ast.Receive) and not any(
                            sub is ok for ok in allowed
                        ):
                            yield self.diag(
                                flow_key,
                                "recv() must stand alone"
                                " (use `x = recv(c);` then the variable)",
                                location=sub.location,
                            )

    @staticmethod
    def _allowed_roots(stmt: ast.Stmt) -> List[ast.Expr]:
        allowed: List[ast.Expr] = []
        if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Receive):
            allowed.append(stmt.expr)
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Receive):
            allowed.append(stmt.value)
        if isinstance(stmt, ast.VarDecl) and isinstance(stmt.init, ast.Receive):
            allowed.append(stmt.init)
        return allowed


class AliasFallbackRule(Rule):
    """Pointer-accepting flows: objects the Andersen analysis cannot resolve
    collapse into the unified memory, serializing every access through its
    single port.  Compiles, but the paper's cost claim applies — WARNING."""

    rule = RULE_ALIAS
    severity = Severity.WARNING
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        if FEATURE_POINTERS not in ctx.features:
            return
        fn = ctx.inlined(roots=[ctx.function]).function(ctx.function)
        plan = plan_pointers(fn)
        if plan.stats.unified_count:
            yield self.diag(
                flow_key,
                f"{plan.stats.unified_count} object(s) fall back to the"
                f" unified memory (mode={plan.mode}); accesses serialize"
                " through one port",
                location=ctx.feature_site(FEATURE_POINTERS),
                hint="keep each pointer aimed at a single array so the"
                     " analysis can privatize it",
            )


class SharedRaceRule(Rule):
    """Concurrent flows: two processes touching the same global variable
    (at least one writing) with no channel between them race — the paper's
    nondeterministic-shared-variable claim.  CDFG-level: reads/writes and
    channel endpoints come from the lowered ops, locations from the
    builder's source tracking."""

    rule = RULE_SHARED_RACE
    severity = Severity.WARNING
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        if len(ctx.roots) < 2:
            return
        facts = []
        for root in ctx.roots:
            cdfg = ctx.cdfg(root)
            channels: Set[Symbol] = {
                op.channel
                for op in cdfg.iter_ops()
                if op.kind in (OpKind.SEND, OpKind.RECV)
                and op.channel is not None
            }
            facts.append((root, cdfg, channels))
        for i in range(len(facts)):
            for j in range(i + 1, len(facts)):
                root_a, cdfg_a, chans_a = facts[i]
                root_b, cdfg_b, chans_b = facts[j]
                if chans_a & chans_b:
                    continue  # a rendezvous orders their accesses
                shared = (
                    cdfg_a.globals_written
                    & (cdfg_b.globals_read | cdfg_b.globals_written)
                ) | (
                    cdfg_b.globals_written
                    & (cdfg_a.globals_read | cdfg_a.globals_written)
                )
                for symbol in sorted(shared, key=lambda s: s.name):
                    location = (
                        cdfg_a.global_write_sites.get(symbol)
                        or cdfg_b.global_write_sites.get(symbol)
                        or UNKNOWN_LOCATION
                    )
                    yield self.diag(
                        flow_key,
                        f"processes {root_a!r} and {root_b!r} share global"
                        f" {symbol.name!r} with no channel between them"
                        " (nondeterministic interleaving)",
                        location=location,
                        hint="synchronize the access through a channel"
                             " send/recv pair",
                    )
