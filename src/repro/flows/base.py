"""Flow framework: the common interface every surveyed language implements.

A *flow* packages one historical tool's semantics: which language features
it accepts (Table 1's restrictions), how it finds concurrency, and where it
puts clock-cycle boundaries.  All flows share the same frontend and IR, so
their outputs differ only by those semantics — which is what makes the
paper's comparisons measurable.

A flow is declared, not programmed, wherever it can be.  A subclass of
:class:`Flow` gives its Table 1 row (``metadata``), the features its
tool rejected (``FORBIDDEN``) and, for a flow that compiles one C
program, why it refuses ``process`` functions (``NO_PROCESSES``);
:meth:`Flow.check` enforces both before any lowering.  Its ``compile``
names every option it reads as a keyword parameter — that signature is
the flow's option surface (:attr:`Flow.options`) — and
:data:`OPTION_TYPES` declares each option's type once;
:meth:`Flow.check_options` refuses any other option or an ill-typed
value, for :func:`repro.api.synthesize`, the runner's cells and the
server alike.  The seven flows that schedule a CDFG into an FSMD system
share one ``compile`` (:class:`repro.flows.scheduled.ScheduledFlow`)
and declare only their scheduler, default resource set, and any AST
rewrite or call boundary.

Usage::

    from repro.api import SynthesisOptions, synthesize
    result = synthesize(source, SynthesisOptions(flow="handelc"))
    run = result.run(args=(3, 4))
    print(run.value, run.cycles, run.time_ns)
"""

from __future__ import annotations

import abc
import functools
import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..analysis.lint.diagnostics import (
    FEATURE_TO_RULE,
    RULE_PROCESS,
    RULE_TIM_WITHIN_INFEASIBLE,
)
from ..interp.interpreter import Observable
from ..lang import ast_nodes as ast
from ..lang.errors import SourceLocation, UNKNOWN_LOCATION
from ..lang.semantic import SemanticInfo
from ..rtl.tech import DEFAULT_TECH, Technology
from ..scheduling.base import ConstraintInfeasible
from ..scheduling.resources import ResourceSet
from ..trace import ensure_trace

if TYPE_CHECKING:
    from ..rtl.fsmd import FSMDSystem


class FlowError(Exception):
    """A program is outside what this flow can synthesize.

    ``rule`` carries the linter rule id predicting this rejection (empty
    when no rule covers it yet) and ``location`` points at the offending
    construct, so error text, linter output, and tests all agree."""

    def __init__(
        self,
        flow: str,
        message: str,
        rule: str = "",
        location: Optional[SourceLocation] = None,
    ):
        text = f"[{flow}] "
        if rule:
            text += f"{rule}: "
        text += message
        if location is not None and location != UNKNOWN_LOCATION:
            text += f" (at {location})"
        super().__init__(text)
        self.flow = flow
        self.rule = rule
        self.location = location
        self.reason = message

    def __reduce__(self):
        # Exception's default reduce replays __init__ with self.args (the
        # formatted text), which does not match this signature; rebuild
        # from the original fields so rejections cross process boundaries
        # intact (the parallel matrix runner pickles them).
        return (
            self.__class__,
            (self.flow, self.reason, self.rule, self.location),
        )


class UnsupportedFeature(FlowError):
    """The historical tool this flow models did not support the feature."""


class TimingInfeasible(FlowError, ConstraintInfeasible):
    """A ``within`` budget no schedule can meet.

    Dual-natured on purpose: a :class:`ConstraintInfeasible` (the
    scheduler's own exception, asserted by scheduling tests) *and* a
    :class:`FlowError` carrying ``rule=TIM102-within-infeasible`` — so the
    matrix engine classifies the cell as a rule-predicted rejection and the
    time-sensitive checker's verdict can be cross-validated against it."""

    def __init__(
        self,
        flow: str,
        message: str,
        rule: str = RULE_TIM_WITHIN_INFEASIBLE,
        location: Optional[SourceLocation] = None,
    ):
        FlowError.__init__(self, flow, message, rule=rule, location=location)


@dataclass(frozen=True)
class FlowMetadata:
    """One row of Table 1, plus the axes the paper's analysis uses."""

    key: str
    title: str
    year: int
    note: str                 # Table 1's one-line characterization
    concurrency: str          # 'explicit' | 'compiler' | 'structural'
    concurrency_detail: str
    timing: str               # how cycles are placed
    timing_detail: str
    artifact: str             # 'fsmd' | 'combinational' | 'dataflow' | 'api'
    reference: str = ""


@dataclass
class FlowResult:
    """What running a compiled design produced."""

    value: Optional[int]
    cycles: int
    time_ns: float
    globals: Dict[str, object] = field(default_factory=dict)
    channel_log: Dict[str, List[int]] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)

    def observable(self) -> Observable:
        return Observable.of(self.value, self.globals, self.channel_log)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (stats are filtered to scalars so
        arbitrary flow bookkeeping cannot break serialization)."""
        return {
            "value": self.value,
            "cycles": self.cycles,
            "time_ns": self.time_ns,
            "globals": {
                k: list(v) if isinstance(v, (list, tuple)) else v
                for k, v in self.globals.items()
            },
            "channel_log": {k: list(v) for k, v in self.channel_log.items()},
            "stats": {
                k: v for k, v in self.stats.items()
                if isinstance(v, (int, float, str, bool))
            },
        }


@dataclass
class DesignCost:
    """Area/clock summary comparable across artifact kinds."""

    area_ge: float = 0.0
    clock_ns: float = 0.0       # 0 for unclocked artifacts
    critical_path_ns: float = 0.0
    states: int = 0
    registers: int = 0
    functional_units: int = 0
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def fmax_mhz(self) -> float:
        return 1000.0 / self.clock_ns if self.clock_ns > 0 else 0.0


class CompiledDesign(abc.ABC):
    """A synthesized artifact that can be simulated and priced."""

    def __init__(self, flow_key: str, name: str):
        self.flow_key = flow_key
        self.name = name

    @property
    @abc.abstractmethod
    def artifact_kind(self) -> str:
        """'fsmd-system' | 'combinational' | 'dataflow'."""

    @abc.abstractmethod
    def run(
        self,
        args: Sequence[int] = (),
        process_args: Optional[Dict[str, Sequence[int]]] = None,
        max_cycles: int = 2_000_000,
        sim_profile=None,
        trace=None,
    ) -> FlowResult:
        """Simulate the hardware on concrete inputs.

        ``sim_profile`` takes a :class:`repro.sim.SimProfile` for an FSMD
        run to fill in (artifacts without an FSMD leave it empty);
        ``trace`` a :class:`repro.trace.TraceContext` that receives the
        ``sim`` span (with the engine's compile/execute split as leaf
        spans)."""

    @abc.abstractmethod
    def cost(self, tech: Technology = DEFAULT_TECH, trace=None) -> DesignCost:
        """Estimate area and timing (binding spans land in ``trace``)."""

    def own_cost(self) -> DesignCost:
        """``cost()``, priced once: every simulation reads its clock
        period, and pricing reruns binding and register allocation.
        ``cost`` itself stays unmemoized, so traced calls still record
        their ``bind`` spans."""
        memo = self.__dict__.get("_own_cost")
        if memo is None:
            memo = self._own_cost = self.cost()
        return memo

    def verilog(self, trace=None) -> str:
        """Verilog text for the artifact (flows override where supported)."""
        raise NotImplementedError(
            f"{self.flow_key} does not emit Verilog for this artifact"
        )


class FSMDSystemDesign(CompiledDesign):
    """A design whose artifact is an FSMD system: either FSMD engine
    simulates it and it emits as Verilog.  Subclasses say how it is
    priced (:meth:`cost`).  The simulator is imported when a design
    first runs, so a compile that only prices and emits never loads it."""

    def __init__(
        self,
        flow_key: str,
        name: str,
        system: "FSMDSystem",
        stats: Optional[Dict[str, object]] = None,
    ):
        super().__init__(flow_key, name)
        self.system = system
        self.stats: Dict[str, object] = stats or {}

    @property
    def artifact_kind(self) -> str:
        return "fsmd-system"

    def run(
        self,
        args: Sequence[int] = (),
        process_args: Optional[Dict[str, Sequence[int]]] = None,
        max_cycles: int = 2_000_000,
        sim_profile=None,
        trace=None,
        sim_backend: Optional[str] = None,
    ) -> FlowResult:
        """As :meth:`CompiledDesign.run`; ``sim_backend`` pins one FSMD
        engine (see :func:`repro.sim.simulate`), else the simulator
        picks."""
        from ..sim import simulate

        t = ensure_trace(trace)
        # When tracing, always collect a SimProfile so the engine's
        # compile/execute split can be absorbed as leaf spans.
        profile = sim_profile
        if t.enabled and profile is None:
            from ..sim.profile import SimProfile

            profile = SimProfile()
        with t.span("sim", cat="phase"):
            sim = simulate(
                self.system, args=args, process_args=process_args,
                max_cycles=max_cycles, sim_backend=sim_backend,
                profile=profile,
            )
            if t.enabled and profile is not None:
                t.leaf("sim.compile", profile.compile_s, cat="sim")
                t.leaf("sim.execute", profile.execute_s, cat="sim",
                       cycles=profile.cycles)
                t.count(backend=profile.backend, cycles=sim.cycles,
                        stall_cycles=sim.stall_cycles)
        cost = self.own_cost()
        return FlowResult(
            value=sim.value,
            cycles=sim.cycles,
            time_ns=sim.cycles * cost.clock_ns,
            globals=sim.globals,
            channel_log=sim.channel_log,
            stats={
                "stall_cycles": sim.stall_cycles,
                "per_process_cycles": sim.per_process_cycles,
                **self.stats,
            },
        )

    def verilog(self, trace=None) -> str:
        from ..rtl.verilog import emit_fsmd_system

        t = ensure_trace(trace)
        with t.span("emit", cat="phase"):
            text = emit_fsmd_system(self.system, trace=trace)
            t.count(lines=text.count("\n"))
        return text


class Flow(abc.ABC):
    """One surveyed language/compiler."""

    metadata: FlowMetadata

    # Feature name -> human explanation for every language feature the
    # historical tool rejected.  ``check`` enforces the table and
    # ``flows.registry.lint_rules`` derives the linter's feature rules from
    # it, so the compiler and the linter cannot drift apart.
    FORBIDDEN: Dict[str, str] = {}

    # Why a flow that compiles a single C program refuses ``process``
    # functions; empty when processes are welcome.  ``check`` enforces it
    # and ``lint_rules`` turns it into the linter's NoProcessRule.
    NO_PROCESSES: str = ""

    @abc.abstractmethod
    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        opt_level: int = 1,
        trace=None,
    ) -> CompiledDesign:
        """Synthesize ``function`` (plus any ``process`` functions).

        Every flow takes ``function``, ``opt_level`` and ``trace``; the
        other keyword parameters of an implementation are the options it
        reads (:attr:`options`).  An implementation starts with
        :meth:`check`."""

    @property
    def options(self) -> FrozenSet[str]:
        """The options this flow's ``compile`` reads: its keyword
        parameters beyond the ones every flow takes."""
        return _compile_options(type(self))

    def check_options(
        self, options: Iterable[Tuple[str, object]], from_json: bool = False,
    ) -> Tuple[Tuple[str, object], ...]:
        """``options``, as ``(name, value)`` pairs, checked and
        normalised (:data:`OPTION_TYPES`), sorted by name.  Refuses, with
        :class:`ValueError`, an option this flow does not read (it would
        change nothing but a cache key) or a value of the wrong type.
        ``from_json`` takes each value in its JSON form."""
        checked = []
        for name, value in options:
            if name not in self.options:
                reads = ", ".join(sorted(self.options)) or "none"
                raise ValueError(
                    f"flow {self.metadata.key!r} takes no option {name!r}"
                    f" (its options: {reads})"
                )
            checked.append((name, OPTION_TYPES[name].check(
                f"option {name!r} of flow {self.metadata.key!r}",
                value, from_json,
            )))
        return tuple(sorted(checked))

    def check(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str,
        trace=None,
    ) -> List[str]:
        """Reject, in the ``check`` span, a program outside the flow's
        subset: one using a feature the historical tool lacked
        (:attr:`FORBIDDEN`), or one with a process where the flow takes
        none (:attr:`NO_PROCESSES`).  Returns the roots it checked
        (``function`` plus every ``process``)."""
        roots = _roots_of(program, function)
        with ensure_trace(trace).span("check", cat="phase"):
            used = set()
            for root in roots:
                used |= info.features_of(root)
            for feature, reason in self.FORBIDDEN.items():
                if feature in used:
                    location = UNKNOWN_LOCATION
                    for root in roots:
                        location = info.feature_site(root, feature)
                        if location != UNKNOWN_LOCATION:
                            break
                    raise UnsupportedFeature(
                        self.metadata.key,
                        reason,
                        rule=FEATURE_TO_RULE.get(feature, ""),
                        location=location,
                    )
            if self.NO_PROCESSES and program.processes:
                raise UnsupportedFeature(
                    self.metadata.key,
                    self.NO_PROCESSES,
                    rule=RULE_PROCESS,
                    location=program.processes[0].location,
                )
        return roots


#: The ``compile`` parameters that are not flow options.
_COMMON_PARAMETERS = frozenset(
    ("self", "program", "info", "function", "opt_level", "trace")
)


@functools.lru_cache(maxsize=None)
def _compile_options(flow_class: type) -> FrozenSet[str]:
    parameters = inspect.signature(flow_class.compile).parameters
    return frozenset(parameters) - _COMMON_PARAMETERS


@dataclass(frozen=True)
class OptionType:
    """One flow option's values: of ``types`` (a bool is never an int;
    one of a later type becomes the first, so an int ``clock_ns`` is a
    float and equal settings share a cache key), among ``choices`` when
    given, and above zero when ``positive`` (NaN is not).  JSON names one
    of ``presets`` for a type it cannot spell; any other JSON value is
    the Python value."""

    types: Tuple[type, ...]
    choices: Tuple[object, ...] = ()
    presets: Optional[Dict[str, object]] = None
    positive: bool = False

    def check(self, what: str, value: object, from_json: bool) -> object:
        """``value`` normalised, or :class:`ValueError` naming ``what``
        and the type it takes."""
        named = from_json and self.presets
        given = value
        if named:
            value = self.presets.get(value) if isinstance(value, str) else None
        wrong_type = (not isinstance(value, self.types)
                      or isinstance(value, bool) and bool not in self.types)
        if (wrong_type or self.choices and value not in self.choices
                or self.positive and not value > 0):
            takes = " or ".join(t.__name__ for t in self.types)
            if named:
                takes += " by name, one of " + ", ".join(map(repr, self.presets))
            elif self.choices:
                takes = "one of " + ", ".join(map(repr, self.choices))
            elif self.positive and not wrong_type:
                takes += " above zero"
            raise ValueError(f"{what} takes {takes}, got {given!r}")
        first = self.types[0]
        return value if isinstance(value, first) else first(value)


#: Every flow option's type, by name: what :meth:`Flow.check_options`
#: holds ``synthesize``, the runner's cells and the server to.
OPTION_TYPES: Dict[str, OptionType] = {
    "clock_ns": OptionType((float, int), positive=True),
    "pointer_analysis": OptionType((bool,)),
    "refine": OptionType((str,), choices=("implementation", "specification")),
    "resources": OptionType((ResourceSet,), presets={
        "typical": ResourceSet.typical(),
        "minimal": ResourceSet.minimal(),
        "unlimited": ResourceSet.unlimited(),
    }),
}


def _roots_of(program: ast.Program, function: str) -> List[str]:
    """The entry function plus every ``process`` (they run concurrently)."""
    roots = [function]
    roots += [p.name for p in program.processes if p.name != function]
    return roots

