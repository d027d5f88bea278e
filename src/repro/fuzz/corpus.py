"""The triaged failure corpus: persistent, deduplicated, replayable.

Every divergence a campaign keeps lives as one JSON file under
``tests/corpus/<flow>/<kind>[--<rule>]--<hash>.json``.  The filename *is*
the signature (minus the flow, which the directory carries), so
deduplication is a file-existence check and the corpus diffs cleanly in
review.  Entry content is fully deterministic — no timestamps, no host
names — so re-running a campaign on the same seeds produces byte-identical
files.

Each entry records enough to re-judge the finding from scratch:
the reduced program, its inputs, the expected flow verdict (or, for
metamorphic findings, the pre-mutation program whose behaviour the mutant
must match).  ``replay_entry`` re-runs that check; the pytest replay suite
and the campaign's "is this new?" filter both go through it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..interp import Observable
from ..runner.cache import write_atomic
from ..runner.cells import MISMATCH, OK, REJECTED, CellResult, CellTask
from ..runner.engine import MatrixEngine
from .signature import (
    Divergence,
    KIND_LINT_DISAGREE,
    KIND_METAMORPHIC,
    KIND_MISMATCH,
    KIND_OPT_DIVERGE,
    Signature,
    program_hash,
)

DEFAULT_CORPUS_DIR = Path("tests") / "corpus"


@dataclass
class CorpusEntry:
    """One triaged finding, as stored on disk."""

    flow: str
    kind: str
    rule: str
    program_hash: str
    source: str
    args: List[int] = field(default_factory=list)
    detail: str = ""
    seed: int = -1
    profile: str = ""
    mutation: str = ""
    original_source: str = ""     # metamorphic findings: pre-mutation program
    expect: Dict[str, object] = field(default_factory=dict)
    # The reproducer's pipeline shape: span structure + counters, no
    # durations (entries must stay deterministic across hosts).
    trace: Dict[str, object] = field(default_factory=dict)
    # The exact execution options the finding was made under (sim_backend,
    # opt_level, ...).  Replays rebuild a frozen SynthesisOptions from
    # this instead of re-deriving one ad hoc; entries predating the field
    # load as {} and replay under the historical defaults.
    options: Dict[str, object] = field(default_factory=dict)

    @property
    def signature(self) -> Signature:
        return Signature(self.flow, self.kind, self.rule, self.program_hash)

    @property
    def filename(self) -> str:
        """``<kind>[--<rule>]--<hash>.json``; the directory holds the flow.
        A mismatch's rule (the field kind it differs in) is recorded in
        the entry, not the name, so its path stays put when the field
        the judge reports changes."""
        parts = [self.kind]
        if self.rule and self.kind != KIND_MISMATCH:
            parts.append(self.rule)
        parts.append(self.program_hash)
        return "--".join(parts) + ".json"

    @property
    def name(self) -> str:
        """The flow and the file stem: the entry's name in the corpus."""
        return f"{self.flow}--{Path(self.filename).stem}"

    def path(self, corpus_dir: Path) -> Path:
        return Path(corpus_dir) / self.flow / self.filename

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CorpusEntry":
        data = json.loads(text)
        known = cls.__dataclass_fields__
        return cls(**{k: v for k, v in data.items() if k in known})


def entry_from_divergence(divergence: Divergence) -> CorpusEntry:
    """Freeze a (preferably reduced) divergence into a corpus entry."""
    sig = divergence.signature()
    expect = dict(divergence.extra.get("expect", {}))
    return CorpusEntry(
        flow=divergence.flow,
        kind=divergence.kind,
        rule=divergence.rule,
        program_hash=sig.program_hash,
        source=divergence.best_source,
        args=list(divergence.args),
        detail=divergence.detail,
        seed=divergence.seed,
        profile=divergence.profile,
        mutation=divergence.mutation,
        original_source=divergence.original_source,
        expect=expect,
        trace=dict(divergence.trace),
        options=dict(divergence.options),
    )


class Corpus:
    """The on-disk corpus, loaded once and queried by signature.

    An entry that cannot be read back (torn, truncated, hand-mangled) is
    not skipped silently: it lands in :attr:`corrupt` as ``(path,
    reason)``, and a campaign against this corpus reports it and fails.
    A skipped entry would make its signature look new again."""

    def __init__(self, root: Path = DEFAULT_CORPUS_DIR):
        self.root = Path(root)
        self.entries: List[CorpusEntry] = []
        self.corrupt: List[Tuple[Path, str]] = []
        self._by_id: Dict[str, CorpusEntry] = {}
        self._load()

    def _load(self) -> None:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            try:
                entry = CorpusEntry.from_json(path.read_text())
            except (OSError, ValueError, TypeError, AttributeError) as err:
                self.corrupt.append((path, f"{type(err).__name__}: {err}"))
                continue
            self.entries.append(entry)
            self._by_id[entry.signature.id] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, signature: Signature) -> bool:
        return signature.id in self._by_id

    def known_coarse(self) -> set:
        """Coarse (flow, kind, rule) triples already represented; a new
        finding matching one is the same bug hit through a different
        program, so campaigns report it as known rather than new."""
        return {e.signature.coarse for e in self.entries}

    def add(self, divergence: Divergence) -> Optional[CorpusEntry]:
        """Persist one divergence; returns None when its exact signature
        is already on disk."""
        entry = entry_from_divergence(divergence)
        if entry.signature.id in self._by_id:
            return None
        write_atomic(entry.path(self.root), entry.to_json())
        self.entries.append(entry)
        self._by_id[entry.signature.id] = entry
        return entry


# -- replay -------------------------------------------------------------------

def observable_diff(a: CellResult, b: CellResult) -> str:
    """:meth:`repro.interp.Observable.diff`'s text for two cells that ran
    (``ok`` or ``mismatch``) and differ: ``a``'s side, then ``b``'s."""
    return Observable(*a.observable).diff(b.observable)[1]


def replay_options(entry: CorpusEntry, **overrides):
    """The frozen :class:`repro.api.SynthesisOptions` an entry replays
    under: the options recorded when the finding was made, with
    ``overrides`` (:meth:`SynthesisOptions.make` keywords) winning.
    Entries without recorded options (written before the field existed)
    fall back to the historical defaults, so the whole corpus replays
    through one code path."""
    from ..api import DEFAULT_OPT_LEVEL, SynthesisOptions

    recorded = dict(entry.options)
    return SynthesisOptions.make(
        SynthesisOptions(
            flow=entry.flow,
            sim_backend=str(recorded.get("sim_backend", "interp")),
            opt_level=int(recorded.get("opt_level", DEFAULT_OPT_LEVEL)),
        ),
        **overrides,
    )


def _flow_result(engine: MatrixEngine, entry: CorpusEntry, source: str,
                 options):
    task = CellTask(
        workload=f"corpus-{entry.program_hash}",
        source=source,
        options=options,
        args=tuple(entry.args),
    )
    return engine.run_cells([task])[0]


def replay_entry(
    entry: CorpusEntry,
    engine: Optional[MatrixEngine] = None,
    **overrides,
) -> Tuple[bool, str]:
    """Re-run one corpus entry's recorded check.

    Returns ``(True, detail)`` when the pinned behaviour still holds and
    ``(False, why)`` when it changed — either the bug was fixed (delete or
    refresh the entry deliberately) or behaviour drifted (investigate).

    ``overrides`` (:meth:`SynthesisOptions.make` keywords, such as
    ``sim_backend`` or ``opt_level``) replace the entry's recorded
    options; the cross-level replay suite uses ``opt_level`` to assert
    the corpus reproduces at every optimization level.
    """
    options = replay_options(entry, **overrides)
    engine = engine or MatrixEngine(jobs=1, cache=None)

    if entry.kind == KIND_METAMORPHIC:
        original = _flow_result(engine, entry, entry.original_source,
                                options)
        mutant = _flow_result(engine, entry, entry.source, options)
        if {original.verdict, mutant.verdict} - {OK, MISMATCH}:
            return False, (
                f"one side no longer runs (original={original.verdict}, "
                f"mutant={mutant.verdict})"
            )
        if original.observable == mutant.observable:
            return False, "original and mutant now agree — divergence gone"
        return True, (
            f"{entry.mutation} mutant still diverges: "
            f"{observable_diff(original, mutant)}"
        )

    if entry.kind == KIND_LINT_DISAGREE:
        from ..analysis.lint import lint

        report = lint(entry.source, flow=entry.flow)
        clean = report.is_clean(entry.flow)
        result = _flow_result(engine, entry, entry.source, options)
        compiled = result.verdict != REJECTED
        if clean != compiled:
            return True, (
                f"lint ({'clean' if clean else 'dirty'}) still disagrees "
                f"with compile ({result.verdict})"
            )
        return False, "lint and compile verdicts now agree"

    if entry.kind == KIND_OPT_DIVERGE:
        from .campaign import _parse_opt_rule

        levels = _parse_opt_rule(entry.rule)
        if levels is None:
            return False, f"malformed opt-diverge rule {entry.rule!r}"
        base = _flow_result(engine, entry, entry.source,
                            options.with_(opt_level=levels[0]))
        opt = _flow_result(engine, entry, entry.source,
                           options.with_(opt_level=levels[1]))
        if base.verdict != opt.verdict:
            return True, (
                f"levels still disagree on verdict: "
                f"opt{levels[0]}={base.verdict}, opt{levels[1]}={opt.verdict}"
            )
        if base.verdict == OK and base.observable != opt.observable:
            return True, (
                f"levels still disagree on {observable_diff(base, opt)}"
            )
        return False, "opt levels now agree — divergence gone"

    # Engine-verdict kinds (mismatch / error / timeout): the pinned
    # verdict, value and rule (a mismatch's differing field) must persist.
    result = _flow_result(engine, entry, entry.source, options)
    recorded = (str(entry.expect.get("verdict", entry.kind)),
                entry.expect.get("value", result.value), entry.rule)
    got = (result.verdict, result.value, result.rule)
    if got != recorded:
        return False, f"(verdict, value, rule) changed: {recorded} -> {got}"
    return True, f"verdict {result.verdict} reproduced: {result.note(80)}"
