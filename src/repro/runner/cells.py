"""The matrix cell model: one (workload, flow) pair in, one verdict out.

A *cell* is the unit the whole reproduction is built from — compile one
program with one flow, simulate it, and compare against the reference C
interpreter.  :class:`CellTask` describes the work and :class:`CellResult`
the outcome; both are plain data so they cross process boundaries (the
parallel engine) and survive on disk (the artifact cache) unchanged.

``CellResult.identity()`` is the determinism contract: serial, parallel,
coalesced and cache-replayed execution of the same task, on either sim
engine, must produce identical identities.  Provenance fields (wall-clock
time, the cached flag, the engine that ran, ...) are excluded — they
describe *how* the cell was obtained, not *what* it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..api import SynthesisOptions

# Bumped whenever the on-disk result layout changes; stale cache entries
# are treated as misses rather than migrated.  v3: the default opt_level
# moved from the (renumbered) fixed-point pipeline to level 1, and level 2
# now selects the liveness-driven fixpoint mid-end.  v4: the sim backend
# left the key, so one design has one entry whichever engine ran it.
# v5: constant initializers are stored wrapped into their declared type,
# which changes the verdicts of programs whose initializers overflow it.
SCHEMA_VERSION = 5

# Verdicts, from best to worst.
OK = "ok"                # compiled, simulated, observables match the golden model
MISMATCH = "mismatch"    # compiled and ran but disagrees with the interpreter
REJECTED = "rejected"    # the historical tool's restrictions reject the program
ERROR = "error"          # the flow raised something other than a FlowError
TIMEOUT = "timeout"      # the per-cell deadline expired

VERDICTS = (OK, MISMATCH, REJECTED, ERROR, TIMEOUT)

# Verdicts that are deterministic functions of the task and may be replayed
# from the cache.  Errors and timeouts are recomputed every run: an error
# may be a transient environment problem and a timeout depends on the host.
CACHEABLE_VERDICTS = (OK, MISMATCH, REJECTED)

# Verdicts that should fail a sweep.  A rejection is the paper's expected
# behaviour (Table 1's restrictions working as documented); anything else
# means the reproduction itself broke.
UNEXPECTED_VERDICTS = (MISMATCH, ERROR, TIMEOUT)


def canonical_observable(obs) -> object:
    """Normalize an observable tuple to the JSON-stable nested-list form.

    A :class:`repro.interp.Observable` is nested tuples; JSON round-trips
    turn tuples into lists, so everything is canonicalized to lists
    before comparison or storage.  Only containers recurse: the leaves
    (integers, ``None``) are taken as they stand."""
    if isinstance(obs, (tuple, list)):
        return [canonical_observable(item)
                if isinstance(item, (tuple, list)) else item
                for item in obs]
    return obs


@dataclass(frozen=True)
class CellTask:
    """One compile-and-simulate request: a program, the
    :class:`repro.api.SynthesisOptions` to build it with, and the inputs
    to run it on.

    The options name the flow, entry function, sim engine, opt_level,
    ``check`` and per-flow compile options, which construction checks
    and normalises (:meth:`SynthesisOptions.checked`), so an ill-typed
    option is a :class:`ValueError` here, not an error cell.  ``trace``
    is cleared on construction: tracing observes, never steers, so tasks
    that differ only in it are one task (the engine's own ``trace`` flag
    decides whether cells record spans)."""

    workload: str
    source: str
    options: "SynthesisOptions"
    args: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            options = self.options.checked()
        except KeyError:
            options = self.options  # an unknown flow: the cell's error
        object.__setattr__(self, "options", replace(options, trace=False)
                           if options.trace else options)

    def identity(self) -> Dict[str, object]:
        """The JSON-stable content the cache key is built from:
        :meth:`SynthesisOptions.identity` plus the inputs, so the cache
        key cannot drift from the real option set (the sim engine and
        tracing are excluded there: every engine gives the same results,
        and traced and untraced runs share artifacts)."""
        identity = self.options.identity()
        identity["args"] = list(self.args)
        return identity


@dataclass
class CellResult:
    """What one cell produced, in plain serializable data."""

    workload: str
    flow: str
    function: str = "main"
    args: Tuple[int, ...] = ()
    sim_backend: str = "interp"
    verdict: str = ERROR
    value: Optional[int] = None
    cycles: int = 0
    clock_ns: float = 0.0
    latency_ns: float = 0.0
    area_ge: float = 0.0
    rtl_hash: str = ""
    observable: object = None          # canonical nested-list form
    diagnostics: List[str] = field(default_factory=list)
    rule: str = ""                     # rejection's lint rule; mismatch's field kind
    cache_key: str = ""
    wall_s: float = 0.0                # excluded from identity
    cached: bool = False               # excluded from identity
    # Serialized TraceContext dict (``TraceContext.to_dict()``) when the
    # cell ran with tracing; stored next to the cached artifact so warm
    # runs still report where the time went when the cell was computed.
    trace: Optional[Dict[str, object]] = None
    # SimProfile.coverage_stats() when the cell ran with tracing ({} for
    # cells whose sim never ran, None when tracing was off).  Like trace,
    # it observes the run rather than defining it, so it lives in
    # provenance — traced and untraced runs share identities and cache
    # entries written either way stay compatible.
    sim_stats: Optional[Dict[str, object]] = None

    # Fields describing how the result was obtained rather than what it is
    # (cache_key is empty when caching is off, so it is provenance too;
    # the trace records durations, which vary run to run; sim_backend
    # names the engine that ran, which cannot change the result).
    _PROVENANCE = (
        "wall_s", "cached", "cache_key", "trace", "sim_stats", "sim_backend",
    )

    @property
    def ok(self) -> bool:
        return self.verdict == OK

    @property
    def unexpected(self) -> bool:
        return self.verdict in UNEXPECTED_VERDICTS

    def identity(self) -> Dict[str, object]:
        """The deterministic content of the result — every field except
        provenance.  Serial, parallel, and cached runs must agree on it."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in self._PROVENANCE
        }

    def to_dict(self) -> Dict[str, object]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["args"] = list(self.args)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellResult":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["args"] = tuple(kwargs.get("args", ()))
        kwargs["diagnostics"] = list(kwargs.get("diagnostics", ()))
        return cls(**kwargs)

    def note(self, width: int = 44) -> str:
        """The short human-facing annotation for table cells."""
        if self.diagnostics:
            return self.diagnostics[0][:width]
        return ""
