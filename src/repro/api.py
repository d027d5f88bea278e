"""``repro.api`` — the stable synthesis facade.

One frozen option set, one entry point::

    from repro.api import SynthesisOptions, synthesize

    result = synthesize(source, SynthesisOptions(flow="handelc", trace=True))
    print(result.run(args=(10,)).value)
    result.trace.write_chrome("gcd.trace.json")     # open in Perfetto

:class:`SynthesisOptions` is the single definition of the knobs (flow
key, entry function, FSMD sim backend, per-flow compile kwargs): the
runner derives its cache identity from it (``CellTask.identity()``), the
engine's worker, the fuzz campaign and the CLI all compile through
:func:`synthesize`, and there is no other way in.  Each per-flow option
has one declared type (``repro.flows.base.OPTION_TYPES``), which
:meth:`SynthesisOptions.checked` enforces.  Designs are priced at the
default technology; ``result.cost(tech)`` reprices one.

``trace`` deliberately does **not** participate in identity: a traced and
an untraced run of the same options must produce the same artifact (and
share cache entries) — tracing observes the pipeline, it never steers it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from .trace import TraceContext, ensure_trace

if TYPE_CHECKING:
    from .rtl.tech import Technology

#: The IR optimization levels an option set may name; what each one runs
#: is ``repro.ir.passes.fixpoint.OPT_PIPELINES``.  Defined here, not
#: there, so validating options (and the CLI's flags) loads no compiler.
OPT_LEVELS: Tuple[int, ...] = (0, 1, 2, 3)

#: The level every entry point assumes when none is given.  Level 2 is
#: opt-in; see docs/optimizer.md.
DEFAULT_OPT_LEVEL = 1

#: The FSMD simulation engines an option set may name (``repro.sim``).
#: Both give the same results; which one runs is a test, benchmark and
#: debugging choice, so it is not part of :meth:`SynthesisOptions.identity`.
SIM_BACKENDS: Tuple[str, ...] = ("interp", "compiled")

#: Keywords of :meth:`SynthesisOptions.make` that name option fields
#: rather than flow-specific compile options.
_FIELD_KWARGS = (
    "flow", "function", "sim_backend", "opt_level", "trace", "check",
)

@dataclass(frozen=True)
class SynthesisOptions:
    """Everything that selects *what* a synthesis produces.

    Fields
    ------
    flow:
        Registry key of the flow (Table 1 row) to compile with.
    function:
        Entry function; ``process`` functions always come along.
    sim_backend:
        FSMD simulation engine, one of ``SIM_BACKENDS`` (any other value
        raises :class:`ValueError`): ``"interp"`` walks the op lists,
        ``"compiled"`` runs one generated function per design.  Both
        give the same results, so the engine is excluded from
        :meth:`identity` and one design has one cache entry.
    opt_level:
        IR optimization effort, one of ``OPT_LEVELS`` (any other value
        raises :class:`ValueError`): 0 = none, 1 = the classic
        fold/CSE/DCE/simplify loop (the default), 2 = the
        liveness-driven fixpoint pipeline (adds copy propagation, chain
        load/store elimination, and dead-variable elimination; see
        docs/optimizer.md), 3 = level 2 plus bit-width narrowing where
        the flow supports it.
    trace:
        Create a :class:`~repro.trace.TraceContext` for this synthesis.
        Excluded from :meth:`identity`: tracing observes, never steers.
    check:
        Run the time-sensitive checker (``repro.analysis.timing``)
        before compiling; a program whose obligations the flow's
        schedule cannot meet raises
        :class:`~repro.analysis.timing.CheckRejected` (a
        :class:`~repro.flows.base.FlowError`, so matrix cells classify
        it as a rejection with the TIM rule id attached).
    flow_options:
        Extra per-flow compile kwargs as a sorted tuple of pairs, so the
        options object stays frozen and its identity order-independent;
        :meth:`checked` types them.
    """

    flow: str = "c2verilog"
    function: str = "main"
    sim_backend: str = "interp"
    opt_level: int = DEFAULT_OPT_LEVEL
    trace: bool = False
    check: bool = False
    flow_options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if type(self.opt_level) is not int or self.opt_level not in OPT_LEVELS:
            raise ValueError(
                f"opt_level must be one of {list(OPT_LEVELS)},"
                f" got {self.opt_level!r}"
            )
        if self.sim_backend not in SIM_BACKENDS:
            raise ValueError(
                f"sim_backend must be one of {list(SIM_BACKENDS)},"
                f" got {self.sim_backend!r}"
            )

    @classmethod
    def make(cls, base: Optional["SynthesisOptions"] = None,
             **kwargs) -> "SynthesisOptions":
        """Build options from a base plus keyword overrides; unknown
        keywords become ``flow_options`` entries (per-flow compile
        kwargs)."""
        base = base if base is not None else cls()
        fields_update = {
            k: kwargs.pop(k) for k in list(kwargs) if k in _FIELD_KWARGS
        }
        if kwargs:
            extra = dict(base.flow_options)
            extra.update(kwargs)
            fields_update["flow_options"] = tuple(sorted(extra.items()))
        return replace(base, **fields_update) if fields_update else base

    def with_(self, **kwargs) -> "SynthesisOptions":
        """A copy with field/flow-option overrides (frozen-friendly)."""
        return SynthesisOptions.make(self, **kwargs)

    def checked(self) -> "SynthesisOptions":
        """These options with each flow option checked against the flow
        and its declared type, and normalised
        (:meth:`repro.flows.base.Flow.check_options`): :class:`ValueError`
        names an option the flow does not read or an ill-typed value."""
        if not self.flow_options:
            return self
        from .flows.registry import get_flow

        return replace(self, flow_options=get_flow(self.flow).check_options(
            self.flow_options))

    def flow_kwargs(self) -> Dict[str, object]:
        """The keyword arguments handed to ``Flow.compile``."""
        kwargs: Dict[str, object] = dict(self.flow_options)
        kwargs["opt_level"] = self.opt_level
        return kwargs

    def identity(self) -> Dict[str, object]:
        """The canonical, JSON-stable content of the options — everything
        that can change a synthesis result.  ``trace`` (it observes the
        pipeline) and ``sim_backend`` (every engine gives the same
        results) are excluded; the cache key and ``CellTask.identity()``
        both derive from this dict, so they cannot drift from the real
        option set.  ``tech`` is a constant: every design is priced at
        the default technology, and keys made while it was an option
        hold."""
        return {
            "flow": self.flow,
            "function": self.function,
            "opt_level": self.opt_level,
            "tech": "",
            "check": self.check,
            "options": [[k, repr(v)] for k, v in self.flow_options],
        }


@dataclass
class SynthesisResult:
    """A compiled design plus the options and trace that produced it.

    The post-compile stages (simulation, binding-based cost, Verilog
    emission) happen lazily through the methods here so their spans land
    in the same trace as the compile phases."""

    design: object                      # CompiledDesign
    options: SynthesisOptions
    trace: Optional[TraceContext] = None
    source: str = ""

    def run(
        self,
        args: Sequence[int] = (),
        process_args=None,
        max_cycles: int = 2_000_000,
        sim_profile=None,
    ):
        """Simulate with the options' backend; the ``sim`` span (with the
        backend's compile/execute split) joins the trace."""
        return self.design.run(
            args=args,
            process_args=process_args,
            max_cycles=max_cycles,
            sim_backend=self.options.sim_backend,
            sim_profile=sim_profile,
            trace=self.trace,
        )

    def cost(self, tech: Optional["Technology"] = None):
        """Area/clock estimate, at the default technology unless ``tech``
        reprices it; binding spans join the trace."""
        if tech is not None:
            return self.design.cost(tech, trace=self.trace)
        return self.design.cost(trace=self.trace)

    def verilog(self) -> str:
        """RTL text; the ``emit`` span joins the trace."""
        return self.design.verilog(trace=self.trace)


def synthesize(
    source: str,
    options: Optional[SynthesisOptions] = None,
    trace: Optional[TraceContext] = None,
    **overrides,
) -> SynthesisResult:
    """Parse, check, and compile ``source`` under one option set.

    ``options`` may be omitted in favour of keyword overrides
    (``synthesize(src, flow="cash")``); unknown keywords are per-flow
    compile options, and one the flow does not read, or a value not of
    its type, raises :class:`ValueError` naming the option.  Pass ``trace``
    to record into an existing context; otherwise ``options.trace``
    decides whether a fresh one is created (reachable afterwards as
    ``result.trace``).
    """
    from .flows.registry import get_flow
    from .ir.ops import numbering
    from .lang import analyze, parse_program

    options = SynthesisOptions.make(options, **overrides).checked()
    if trace is None and options.trace:
        trace = TraceContext(name=f"{options.flow}:{options.function}")
    t = ensure_trace(trace)
    flow = get_flow(options.flow)
    if options.check:
        from .analysis.timing import enforce

        with t.span("check", cat="phase"):
            enforce(source, options.flow, function=options.function)
    with t.span("parse", cat="phase"):
        program = parse_program(source)
        if t.enabled:
            t.count(functions=len(program.functions),
                    processes=len(program.processes))
    with t.span("semantic", cat="phase"):
        info = analyze(program)
    with numbering():
        design = flow.compile(
            program, info, options.function, trace=trace,
            **options.flow_kwargs()
        )
    return SynthesisResult(
        design=design, options=options, trace=trace, source=source
    )


__all__ = [
    "SIM_BACKENDS",
    "SynthesisOptions",
    "SynthesisResult",
    "synthesize",
]
