"""``repro.api`` — the stable synthesis facade.

One frozen option set, one entry point::

    from repro.api import SynthesisOptions, synthesize

    result = synthesize(source, SynthesisOptions(flow="handelc", trace=True))
    print(result.run(args=(10,)).value)
    result.trace.write_chrome("gcd.trace.json")     # open in Perfetto

Before this module existed, the same knobs (flow key, entry function, FSMD
sim backend, per-flow compile kwargs) were re-declared ad hoc in
``compile_flow``, the matrix runner's :class:`CellTask`, the fuzz
campaign's config, and the CLI — four places that could silently drift.
Now :class:`SynthesisOptions` is the single definition; the runner derives
its cache identity from it (``CellTask.identity()``), the engine's worker
compiles through :func:`synthesize`, and the legacy keyword signatures
survive as thin shims that emit one :class:`DeprecationWarning` per
process (see :func:`warn_legacy`).

``trace`` deliberately does **not** participate in identity: a traced and
an untraced run of the same options must produce the same artifact (and
share cache entries) — tracing observes the pipeline, it never steers it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from .ir.passes.fixpoint import DEFAULT_OPT_LEVEL, OPT_LEVELS
from .rtl.tech import Technology
from .trace import TraceContext, ensure_trace

#: kwargs of the legacy signatures that map onto SynthesisOptions fields
#: rather than flow-specific compile options.
_FIELD_KWARGS = (
    "flow", "function", "sim_backend", "opt_level", "trace", "tech", "check",
)

# Single-warning policy: each legacy entry point warns at most once per
# process, so a sweep over ten thousand cells nags exactly once.
_LEGACY_WARNED: set = set()


def warn_legacy(name: str, hint: str) -> None:
    """Emit one DeprecationWarning per process for legacy entry ``name``."""
    if name in _LEGACY_WARNED:
        return
    _LEGACY_WARNED.add(name)
    import warnings

    warnings.warn(
        f"{name} with ad-hoc keywords is deprecated; {hint}",
        DeprecationWarning,
        stacklevel=3,
    )


def _reset_legacy_warnings() -> None:
    """Test hook: forget which legacy entry points already warned."""
    _LEGACY_WARNED.clear()


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
        FSMD simulation engine, ``"interp"``, ``"compiled"``, or
        ``"batched"`` (many argument sets through one specialisation;
        as a scalar backend it runs a one-lane batch, and it unlocks
        :meth:`SynthesisResult.run_batch` plus runner/fuzz batching).
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
    tech:
        Technology model override (None = the flow's default).
    check:
        Run the time-sensitive checker (``repro.analysis.timing``)
        before compiling; a program whose obligations the flow's
        schedule cannot meet raises
        :class:`~repro.analysis.timing.CheckRejected` (a
        :class:`~repro.flows.base.FlowError`, so matrix cells classify
        it as a rejection with the TIM rule id attached).
    flow_options:
        Extra per-flow compile kwargs as a sorted tuple of pairs, so the
        options object stays frozen and its identity order-independent.
    """

    flow: str = "c2verilog"
    function: str = "main"
    sim_backend: str = "interp"
    opt_level: int = DEFAULT_OPT_LEVEL
    trace: bool = False
    tech: Optional[Technology] = None
    check: bool = False
    flow_options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.opt_level, bool) or self.opt_level not in OPT_LEVELS:
            raise ValueError(
                f"opt_level must be one of {list(OPT_LEVELS)},"
                f" got {self.opt_level!r}"
            )

    @classmethod
    def make(cls, base: Optional["SynthesisOptions"] = None,
             **kwargs) -> "SynthesisOptions":
        """Build options from a base plus keyword overrides; unknown
        keywords become ``flow_options`` entries (per-flow compile
        kwargs), exactly like the legacy signatures accepted them."""
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

    def flow_kwargs(self) -> Dict[str, object]:
        """The keyword arguments handed to ``Flow.compile``."""
        kwargs: Dict[str, object] = dict(self.flow_options)
        kwargs["opt_level"] = self.opt_level
        if self.tech is not None:
            kwargs["tech"] = self.tech
        return kwargs

    def identity(self) -> Dict[str, object]:
        """The canonical, JSON-stable content of the options — everything
        that can change a synthesis result.  ``trace`` is excluded (it
        observes the pipeline); the cache key and ``CellTask.identity()``
        both derive from this dict, so they cannot drift from the real
        option set."""
        return {
            "flow": self.flow,
            "function": self.function,
            "sim_backend": self.sim_backend,
            "opt_level": self.opt_level,
            "tech": self.tech.name if self.tech is not None else "",
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

    def run_batch(
        self,
        arg_sets: Sequence[Sequence[int]],
        process_args=None,
        max_cycles: int = 2_000_000,
        sim_profile=None,
    ):
        """Simulate every argument set in one batch (specialize once,
        execute many).  Returns a list of
        :class:`~repro.flows.base.LaneOutcome`, one per argument set;
        lanes that error capture the scalar backend's exact error
        instead of poisoning the batch.  With
        ``sim_backend="batched"`` FSMD designs compile the system once
        and run every lane in turn through that one specialisation;
        other backends run each lane as its own scalar simulation."""
        return self.design.run_batch(
            arg_sets,
            process_args=process_args,
            max_cycles=max_cycles,
            sim_backend=self.options.sim_backend,
            sim_profile=sim_profile,
            trace=self.trace,
        )

    def cost(self, tech: Optional[Technology] = None):
        """Area/clock estimate; binding spans join the trace."""
        chosen = tech if tech is not None else self.options.tech
        if chosen is not None:
            return self.design.cost(chosen, trace=self.trace)
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
    compile options.  Pass ``trace`` to record into an existing context;
    otherwise ``options.trace`` decides whether a fresh one is created
    (reachable afterwards as ``result.trace``).
    """
    from .flows.registry import get_flow
    from .lang import analyze, parse_program

    options = SynthesisOptions.make(options, **overrides)
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
    design = flow.compile(
        program, info, options.function, trace=trace, **options.flow_kwargs()
    )
    return SynthesisResult(
        design=design, options=options, trace=trace, source=source
    )


__all__ = [
    "SynthesisOptions",
    "SynthesisResult",
    "synthesize",
    "warn_legacy",
]
