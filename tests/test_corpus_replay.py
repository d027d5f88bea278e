"""Replay the triaged failure corpus as regression tests.

Each JSON file under tests/corpus/<flow>/ pins one reduced divergence the
fuzzer found (or a seeded known-divergence reproducer): the program, its
inputs, and the verdict the flow produced.  Replaying asserts the pinned
behaviour still holds — if an entry starts failing here, the underlying
divergence changed: either the bug was fixed (delete or refresh the
entry, deliberately) or behaviour drifted (investigate).

The suite also enforces corpus hygiene: content hashes match sources,
filenames match signatures, and every reproducer is 1-minimal at
statement granularity under its own signature predicate.
"""

import re
from pathlib import Path

import pytest

from repro.fuzz import Corpus, is_statement_minimal, program_hash, replay_entry
from repro.fuzz.campaign import reduce_divergence, reduction_predicate
from repro.fuzz.corpus import replay_options
from repro.fuzz.signature import KIND_MISMATCH, Divergence
from repro.runner import CellTask
from repro.runner.engine import MatrixEngine

CORPUS_DIR = Path(__file__).parent / "corpus"

_corpus = Corpus(CORPUS_DIR)
_entries = {entry.name: entry for entry in _corpus.entries}


@pytest.fixture(scope="module")
def engine():
    return MatrixEngine(jobs=1, cache=None, timeout_s=30.0, max_cycles=200_000)


def test_corpus_is_populated():
    assert len(_corpus) >= 10


def test_hashes_match_sources():
    for entry in _corpus.entries:
        assert program_hash(entry.source) == entry.program_hash, (
            f"{entry.signature.id}: stored source no longer matches its hash"
        )


def test_filenames_match_signatures():
    for entry in _corpus.entries:
        path = entry.path(_corpus.root)
        assert path.is_file(), f"{entry.signature.id} expected at {path}"


@pytest.mark.parametrize("entry_name", sorted(_entries))
def test_entry_replays(entry_name, engine):
    entry = _entries[entry_name]
    reproduced, detail = replay_entry(entry, engine)
    assert reproduced, (
        f"{entry_name} no longer reproduces: {detail}\n"
        f"If the underlying divergence was fixed on purpose, delete or "
        f"refresh this corpus entry."
    )


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("entry_name", sorted(_entries))
def test_entry_replays_at_every_opt_level(entry_name, opt_level, engine):
    """The corpus pins flow bugs, not optimizer accidents: every entry
    must keep reproducing with the mid-end off (0) and with the liveness
    fixpoint pipeline on (2), exactly as it does at the default level."""
    entry = _entries[entry_name]
    reproduced, detail = replay_entry(entry, engine, opt_level=opt_level)
    assert reproduced, (
        f"{entry_name} stops reproducing at opt_level={opt_level}: "
        f"{detail}\nAn optimization level must not mask or unmask a "
        f"pinned flow divergence."
    )


@pytest.mark.parametrize("entry_name", sorted(_entries))
def test_entry_is_statement_minimal(entry_name, engine):
    entry = _entries[entry_name]
    divergence = Divergence(
        flow=entry.flow, kind=entry.kind, source=entry.source,
        args=tuple(entry.args), rule=entry.rule,
    )
    predicate = reduction_predicate(divergence, engine)
    if predicate is None:      # metamorphic entries replay as pairs instead
        pytest.skip("kind is not reduced on a single program")
    assert is_statement_minimal(entry.source, predicate), (
        f"{entry_name} is not 1-minimal: some single statement can be "
        f"deleted without losing the divergence"
    )


def test_reduce_divergence_pins_the_reduced_program(engine):
    """Reducing a divergence re-judges the reduced program to pin what a
    replay expects.  A corpus reproducer is already 1-minimal, so it comes
    back unchanged and pinned to the entry's own verdict and value."""
    entry = _entries["handelc--mismatch--aa28172b11cb"]
    divergence = Divergence(
        flow=entry.flow, kind=entry.kind, source=entry.source,
        args=tuple(entry.args), rule=entry.rule,
    )
    reduce_divergence(divergence, engine)
    assert divergence.reduced_source == entry.source
    assert divergence.extra["expect"] == entry.expect


# "differs from golden model in <field> <flow's side> vs <golden side>"
_DIAGNOSTIC = re.compile(
    r"in (value|global \S+|channel \S+) (.+) vs (.+)$")


@pytest.mark.parametrize("entry_name", sorted(_entries))
def test_mismatch_names_the_field_it_differs_in(entry_name, engine):
    """A mismatch cell's diagnostic names the first observable field that
    differs and shows two different sides, and its rule is that field's
    kind: the one the entry's signature records."""
    entry = _entries[entry_name]
    if entry.kind != KIND_MISMATCH:
        pytest.skip("only a mismatch cell is judged field by field")
    [result] = engine.run_cells([CellTask(
        entry_name, entry.source, replay_options(entry), tuple(entry.args),
    )])
    assert result.rule == entry.rule
    match = _DIAGNOSTIC.search(result.diagnostics[0])
    assert match, result.diagnostics[0]
    field, flow_side, golden_side = match.groups()
    assert field.split()[0] == entry.rule.split("-")[0]
    assert flow_side != golden_side
