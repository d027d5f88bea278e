"""The TIM rule set: schedule-aware obligations of one flow.

Each rule runs inside the lint engine (via ``lint(extra_rules=...)``), so it
shares :class:`~repro.analysis.lint.rules.LintContext` caches, the
``requires_inline`` recursion guard, and SYN999 crash isolation with the
structural rules.  Unlike the registry's cached rule tuples, TIM rules are
built fresh per check around a :class:`FlowCompile`: the rules that speak
about a schedule or a machine (TIM102, TIM202, TIM301, TIM302) read the
flow's own compile of the checked source, made at most once per check
through :func:`repro.api.synthesize`, so the design the check judges is
the design that gets built.  The others read the AST.

The validation contract (``TIM_VALIDATES``): every error these rules emit
corresponds to an observable outcome on the real flow — a
:class:`~repro.flows.base.TimingInfeasible` at compile time, a rendezvous
deadlock in simulation, or a measurable property of the compiled artifact.
``tests/test_timing.py`` and the cross-validation harness hold that line.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...api import SynthesisOptions, synthesize
from ...flows.base import FlowError, TimingInfeasible
from ...lang import ast_nodes as ast
from ...lang.errors import SourceLocation, UNKNOWN_LOCATION
from ...lang.semantic import FEATURE_CHANNELS, FEATURE_WITHIN
from ...rtl import tech as T
from ...rtl.tech import DEFAULT_TECH
from ...scheduling.modulo import (
    find_pipelineable_loops,
    loop_carried_dependences,
    recurrence_mii,
    resource_mii,
)
from ..lint.diagnostics import (
    Diagnostic,
    RULE_TIM_CYCLE_BUDGET,
    RULE_TIM_II_CONFLICT,
    RULE_TIM_PAR_SHARED_CYCLE,
    RULE_TIM_PORT_OVERSUBSCRIBED,
    RULE_TIM_RENDEZVOUS,
    RULE_TIM_UNBOUNDED_IN_WITHIN,
    RULE_TIM_WITHIN_INFEASIBLE,
    Severity,
)
from ..lint.rules import LintContext, Rule
from .obligations import CheckOptions, obligations_for
from .occupancy import system_port_violations


class FlowCompile:
    """One flow's compile of the checked source, made when a rule first
    asks for it: :func:`repro.api.synthesize` under ``options``, recording
    into ``trace``.  ``outcome()`` is the
    :class:`~repro.api.SynthesisResult`, or the exception the compile
    raised."""

    def __init__(self, source: str, options: SynthesisOptions,
                 trace=None) -> None:
        self.source = source
        self.options = options
        self.trace = trace
        self._outcome: object = None

    def outcome(self):
        if self._outcome is None:
            try:
                self._outcome = synthesize(
                    self.source, self.options, trace=self.trace
                )
            except Exception as error:  # noqa: BLE001 - judged by the reader
                self._outcome = error
        return self._outcome


def _in_file(ctx: LintContext, location: Optional[SourceLocation]) -> SourceLocation:
    """A location in the compile's source, placed in the checked file (the
    compile parses the same text under no file name)."""
    if location is None or location == UNKNOWN_LOCATION:
        return UNKNOWN_LOCATION
    return SourceLocation(location.line, location.column, ctx.filename)


class TimingRule(Rule):
    """Base for TIM rules: carries the check options and the flow's
    compile."""

    def __init__(self, options: CheckOptions, compiled: FlowCompile):
        self.options = options
        self.compiled = compiled

    def inlined_roots(self, ctx: LintContext) -> List[ast.FunctionDef]:
        inlined = ctx.inlined()
        wanted = set(ctx.roots)
        return [fn for fn in inlined.functions if fn.name in wanted]

    def design(self):
        """The flow's design of the checked source, or None when the flow
        rejects it (a SYN rule or TIM102 reports why).  A compile that
        crashed re-raises, so the engine reports the crash."""
        outcome = self.compiled.outcome()
        if isinstance(outcome, FlowError):
            return None
        if isinstance(outcome, Exception):
            raise outcome
        return outcome.design


def _rendezvous_in(stmt: ast.Stmt) -> Iterable[Tuple[str, SourceLocation]]:
    """Channel endpoints directly inside one statement (no recursion into
    child statements): ``("send"|"recv", location)``."""
    if isinstance(stmt, ast.Send):
        yield "send", stmt.location
    for expr in ast.stmt_expressions(stmt):
        for sub in ast.walk_expr(expr):
            if isinstance(sub, ast.Receive):
                yield "recv", sub.location


class UnboundedInWithinRule(TimingRule):
    """TIM101: a rendezvous inside a ``within`` block.  The budget is a
    fixed cycle count; a blocking send/recv's latency depends on the peer
    and is statically unbounded, so no schedule can *guarantee* the budget.
    The flows still compile it (the constraint group simply spans the
    channel op — which is what the harness measures), making this the
    tier's sharpest compiles-but-cannot-promise case."""

    rule = RULE_TIM_UNBOUNDED_IN_WITHIN
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        if FEATURE_WITHIN not in ctx.features:
            return
        for fn in self.inlined_roots(ctx):
            for stmt in ast.walk_stmts(fn.body):
                if not isinstance(stmt, ast.Within):
                    continue
                for inner in ast.walk_stmts(stmt.body):
                    for kind, location in _rendezvous_in(inner):
                        yield self.diag(
                            flow_key,
                            f"{kind} inside a within({stmt.cycles}) block:"
                            " rendezvous latency depends on the peer, so the"
                            " cycle budget cannot be guaranteed",
                            location=location,
                            hint="move the channel operation outside the"
                                 " constrained block",
                        )


class WithinInfeasibleRule(TimingRule):
    """TIM102: the flow's own compile raises :class:`TimingInfeasible` —
    its list scheduler, under the resources and clock it compiles with,
    finds no schedule that fits a ``within`` budget.  The diagnostic is
    that rejection's reason and location, so the matrix verdict is
    REJECTED exactly when this fires."""

    rule = RULE_TIM_WITHIN_INFEASIBLE
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        if FEATURE_WITHIN not in ctx.features:
            return
        if self.design() is not None:
            return
        rejection = self.compiled.outcome()
        if isinstance(rejection, TimingInfeasible):
            yield self.diag(
                flow_key,
                rejection.reason,
                location=_in_file(ctx, rejection.location),
                hint="widen the cycle budget or shrink the"
                     " constrained block",
            )


def _binary_tech_class(op: str) -> str:
    if op in ("+", "-"):
        return T.ADD
    if op == "*":
        return T.MULTIPLY
    if op in ("/", "%"):
        return T.DIVIDE
    if op in ("<<", ">>"):
        return T.SHIFT
    if op in ("==", "!=", "<", "<=", ">", ">="):
        return T.COMPARE
    return T.LOGIC


def _expr_delay_ns(expr: ast.Expr, tech=DEFAULT_TECH) -> float:
    """Combinational-depth estimate of an expression (32-bit operators),
    mirroring how the chain scheduler prices a packed cycle.  AST-level on
    purpose: TIM103 must warn before any flow pipeline runs."""
    if isinstance(expr, ast.UnaryOp):
        unit = T.ADD if expr.op == "-" else T.LOGIC
        return _expr_delay_ns(expr.operand, tech) + tech.delay_ns(unit, 32)
    if isinstance(expr, ast.BinaryOp):
        depth = max(
            _expr_delay_ns(expr.left, tech), _expr_delay_ns(expr.right, tech)
        )
        return depth + tech.delay_ns(_binary_tech_class(expr.op), 32)
    if isinstance(expr, ast.Conditional):
        depth = max(
            _expr_delay_ns(expr.cond, tech),
            _expr_delay_ns(expr.then, tech),
            _expr_delay_ns(expr.otherwise, tech),
        )
        return depth + tech.delay_ns(T.SELECT, 32)
    if isinstance(expr, ast.ArrayIndex):
        return _expr_delay_ns(expr.index, tech) + tech.delay_ns(T.MEM_READ, 32)
    return 0.0  # literals, identifiers, receives: register/port reads


class CycleBudgetRule(TimingRule):
    """TIM103 (warning): under a one-cycle-per-statement timing model, a
    deep expression silently stretches the clock period — the paper's
    "recode to meet timing" experience with Handel-C and Transmogrifier.
    Compiles and simulates correctly; the cost model simply reports a slow
    clock, so this is a hazard, not a rejection."""

    rule = RULE_TIM_CYCLE_BUDGET
    severity = Severity.WARNING
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        budget = self.options.clock_budget_ns
        for fn in self.inlined_roots(ctx):
            for stmt in ast.walk_stmts(fn.body):
                if isinstance(stmt, ast.Assign):
                    value, location = stmt.value, stmt.location
                elif isinstance(stmt, ast.VarDecl) and stmt.init is not None:
                    value, location = stmt.init, stmt.location
                else:
                    continue
                depth = _expr_delay_ns(value)
                if depth > budget:
                    yield self.diag(
                        flow_key,
                        f"single-cycle statement implies a ~{depth:.1f} ns"
                        f" combinational path (budget {budget:.1f} ns):"
                        " the whole design's clock stretches to fit it",
                        location=location,
                        hint="split the expression across several"
                             " assignments to pipeline the path",
                    )


class RendezvousRule(TimingRule):
    """TIM201: a rendezvous channel whose endpoints cannot meet.  Two
    shapes: an *orphan* endpoint (a send with no receiver anywhere, or the
    reverse) and a *self-rendezvous* (one sequential machine holds both
    ends — it cannot be on both sides of a blocking handshake).  Either way
    the simulation deadlocks the moment the endpoint executes."""

    rule = RULE_TIM_RENDEZVOUS
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        if FEATURE_CHANNELS not in ctx.features:
            return
        # channel symbol -> list of (kind, root, location).
        endpoints: Dict[object, List[Tuple[str, str, SourceLocation]]] = {}
        for fn in self.inlined_roots(ctx):
            for stmt in ast.walk_stmts(fn.body):
                if isinstance(stmt, ast.Send):
                    symbol = stmt.symbol  # type: ignore[attr-defined]
                    endpoints.setdefault(symbol, []).append(
                        ("send", fn.name, stmt.location)
                    )
                for expr in ast.stmt_expressions(stmt):
                    for sub in ast.walk_expr(expr):
                        if isinstance(sub, ast.Receive):
                            symbol = sub.symbol  # type: ignore[attr-defined]
                            endpoints.setdefault(symbol, []).append(
                                ("recv", fn.name, sub.location)
                            )
        for symbol in sorted(endpoints, key=lambda s: s.name):
            uses = endpoints[symbol]
            sends = [u for u in uses if u[0] == "send"]
            recvs = [u for u in uses if u[0] == "recv"]
            if sends and not recvs:
                yield self.diag(
                    flow_key,
                    f"channel {symbol.name!r} is sent on but never"
                    " received: the sender blocks forever",
                    location=sends[0][2],
                    hint="add a receiving process, or drop the send",
                )
            elif recvs and not sends:
                yield self.diag(
                    flow_key,
                    f"channel {symbol.name!r} is received on but never"
                    " sent: the receiver blocks forever",
                    location=recvs[0][2],
                    hint="add a sending process, or drop the recv",
                )
            elif {root for _, root, _ in uses} == {uses[0][1]}:
                yield self.diag(
                    flow_key,
                    f"channel {symbol.name!r} has both endpoints in"
                    f" {uses[0][1]!r}: one sequential machine cannot"
                    " rendezvous with itself",
                    location=sends[0][2],
                    hint="move one endpoint into a separate process",
                )


class ParSharedCycleRule(TimingRule):
    """TIM202 (Handel-C): the lockstep ``par`` merge puts the k-th
    statements of every branch into one cycle; when two branches touch the
    same memory in the same cycle — at least one writing — the single-port
    RAM cannot serve both.  The frontend's race check only catches
    whole-variable write-write pairs, so write-read array overlap compiles;
    the builder counts exactly these merges (``par_memory_conflicts``)."""

    rule = RULE_TIM_PAR_SHARED_CYCLE
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        design = self.design()
        if design is None:
            return
        for site in design.stats["par_conflict_sites"]:
            yield self.diag(
                flow_key,
                "par branches access one memory in the same lockstep"
                " cycle (at least one write): a single-port RAM cannot"
                " serve both",
                location=_in_file(ctx, site),
                hint="stagger the accesses with a delay, or split the"
                     " array per branch",
            )


class IIConflictRule(TimingRule):
    """TIM301: a requested loop initiation interval below the loop's MII
    floor (resource-limited or recurrence-limited).  Only meaningful when
    the caller asked for pipelining (``CheckOptions.pipeline_ii``); the
    modulo scheduler provably cannot do better than max(ResMII, RecMII)."""

    rule = RULE_TIM_II_CONFLICT
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        requested = self.options.pipeline_ii
        if requested is None:
            return
        design = self.design()
        if design is None:
            return
        for artifact in design.artifacts:
            for loop in find_pipelineable_loops(artifact.cdfg):
                res = resource_mii(loop, artifact.schedule.resources)
                rec = recurrence_mii(
                    loop, carried=loop_carried_dependences(loop)
                )
                floor = max(res, rec, 1)
                if requested < floor:
                    location = next(
                        (op.location for op in loop.ops
                         if op.location is not None),
                        None,
                    )
                    yield self.diag(
                        flow_key,
                        f"requested II={requested} is below loop"
                        f" {loop.label!r}'s floor of {floor}"
                        f" (ResMII={res}, RecMII={rec})",
                        location=_in_file(ctx, location),
                        hint="raise the target II, add memory ports, or"
                             " break the recurrence",
                    )


class PortOversubscribedRule(TimingRule):
    """TIM302 (Handel-C): the one-cycle-per-assignment rule can demand more
    memory ports in a single cycle than the RAM has — e.g. an assignment
    reading one array three times.  The design still simulates (the model
    is tolerant), but the implied hardware needs a multi-port RAM the
    single-port contract does not provide; measured straight off the built
    FSMD's states."""

    rule = RULE_TIM_PORT_OVERSUBSCRIBED
    requires_inline = True

    def check(self, ctx: LintContext, flow_key: str) -> Iterable[Diagnostic]:
        ports = self.options.memory_ports
        design = self.design()
        if design is None:
            return
        seen: Set[Tuple[str, str, object]] = set()
        for machine, _state, resource, used, location in \
                system_port_violations(design.system, ports):
            spot = (machine, resource, location)
            if spot in seen:
                continue
            seen.add(spot)
            name = resource.split(":", 1)[1]
            yield self.diag(
                flow_key,
                f"one cycle makes {used} accesses to memory"
                f" {name!r} ({ports} port(s) available)",
                location=_in_file(ctx, location),
                hint="split the statement so each cycle touches the"
                     " array at most once per port",
            )


def timing_rules_for(
    compiled: FlowCompile, options: Optional[CheckOptions] = None
) -> List[Rule]:
    """Fresh TIM rule instances for the flow of ``compiled``, the compile
    its schedule- and machine-reading rules judge."""
    options = options or CheckOptions()
    obligations = obligations_for(compiled.options.flow)
    made = (options, compiled)
    rules: List[Rule] = []
    if obligations.enforces_within:
        rules.append(UnboundedInWithinRule(*made))
        rules.append(WithinInfeasibleRule(*made))
    if obligations.implicit_cycle:
        rules.append(CycleBudgetRule(*made))
    if obligations.rendezvous:
        rules.append(RendezvousRule(*made))
    if obligations.lockstep_par:
        rules.append(ParSharedCycleRule(*made))
        rules.append(PortOversubscribedRule(*made))
    if obligations.pipelined and options.pipeline_ii is not None:
        rules.append(IIConflictRule(*made))
    return rules
