"""Divergence signatures: how failures are named, compared, and deduplicated.

A fuzz campaign can hit the same underlying bug thousands of times.  The
corpus stays useful only if findings collapse: two failures are *the same*
when they have the same flow, the same divergence kind, the same rule id
(for rejection-shaped disagreements; for a mismatch, the kind of the
first observable field that differs), and — after reduction — the same
token-normalized program hash.  The hash reuses the artifact cache's
source normalization, so layout-only differences between two reproducers
never create duplicate corpus entries.

During reduction the program text is still changing, so the *reduction
predicate* matches on the *coarse* signature (flow, kind, rule) only; the
full signature with the program hash is minted from the final reduced
source.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from ..runner.cache import normalized_source

# Divergence kinds, in decreasing order of severity.
KIND_MISMATCH = "mismatch"        # flow ran but disagrees with the interpreter
KIND_METAMORPHIC = "metamorphic"  # mutant disagrees with original on same flow
KIND_OPT_DIVERGE = "opt-diverge"  # same program, different opt_level, differs
KIND_ERROR = "error"              # flow crashed (not a FlowError rejection)
KIND_TIMEOUT = "timeout"          # flow blew the per-cell deadline
KIND_LINT_DISAGREE = "lint-disagree"  # linter and compiler verdicts differ

KINDS = (KIND_MISMATCH, KIND_METAMORPHIC, KIND_OPT_DIVERGE, KIND_ERROR,
         KIND_TIMEOUT, KIND_LINT_DISAGREE)


def program_hash(source: str) -> str:
    """Token-normalized content hash: whitespace and comments don't count."""
    return hashlib.sha256(normalized_source(source).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Signature:
    """The identity of one deduplicated finding."""

    flow: str
    kind: str
    rule: str
    program_hash: str

    @property
    def id(self) -> str:
        parts = [self.flow, self.kind]
        if self.rule:
            parts.append(self.rule)
        parts.append(self.program_hash)
        return "--".join(parts)

    @property
    def coarse(self) -> Tuple[str, str, str]:
        """The reduction-stable part: what the predicate re-checks while
        the program shrinks."""
        return (self.flow, self.kind, self.rule)


@dataclass
class Divergence:
    """One observed failure, before reduction and deduplication."""

    flow: str
    kind: str
    source: str                       # the program that failed
    args: Tuple[int, ...] = ()
    rule: str = ""                    # rejection/lint rule; mismatch field kind
    detail: str = ""                  # one human-readable line
    seed: int = -1
    profile: str = ""
    mutation: str = ""                # metamorphic: which rewrite
    original_source: str = ""         # metamorphic: the pre-mutation program
    reduced_source: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)
    #: Deterministic phase trace of the reproducer — span *structure* and
    #: counters only, never durations, so corpus entries stay byte-stable.
    trace: Dict[str, object] = field(default_factory=dict)
    #: The execution options the finding was made under (sim backend,
    #: opt level, ...), recorded so replays reconstruct the exact frozen
    #: option set instead of re-deriving one ad hoc.
    options: Dict[str, object] = field(default_factory=dict)

    @property
    def best_source(self) -> str:
        return self.reduced_source or self.source

    def signature(self) -> Signature:
        return Signature(
            flow=self.flow,
            kind=self.kind,
            rule=self.rule,
            program_hash=program_hash(self.best_source),
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain data for the shard boundary (JSON through a process
        pool); ``from_dict`` round-trips it exactly."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["args"] = list(self.args)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Divergence":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["args"] = tuple(kwargs.get("args", ()))
        return cls(**kwargs)

    def describe(self) -> str:
        sig = self.signature()
        text = f"[{sig.id}] seed={self.seed}"
        if self.mutation:
            text += f" mutation={self.mutation}"
        if self.detail:
            text += f"  {self.detail}"
        return text
