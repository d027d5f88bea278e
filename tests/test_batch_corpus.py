"""Replay the batch divergence-boundary corpus.

Every entry in ``tests/batch_corpus/`` pins the per-lane outcome of one
program whose lanes diverge — early returns, per-lane trip counts,
lane-dependent aliasing, traps, budget exhaustion.  The replay checks
the runner's coalesced lanes (one payload per entry, on each engine)
against the pins *and* the pins against the scalar engines, so drift in
either direction fails loudly.  See the corpus README for the schema.
"""

import json
import pathlib

import pytest

from repro.api import SIM_BACKENDS, SynthesisOptions, synthesize
from repro.lang import InterpError
from repro.runner import CellTask, MatrixEngine

CORPUS_DIR = pathlib.Path(__file__).parent / "batch_corpus"


def _corpus_entries():
    return sorted(CORPUS_DIR.glob("*.json"))


def _load(path):
    return json.loads(path.read_text())


def _coalesced(entry, backend, opt_level=None):
    """The entry's lanes as cells of one design, through one
    ``run_cells`` call (so one payload)."""
    options = SynthesisOptions(flow=entry["flow"], sim_backend=backend)
    if opt_level is not None:
        options = options.with_(opt_level=opt_level)
    engine = MatrixEngine(jobs=1, cache=None, timeout_s=60.0,
                          max_cycles=entry["max_cycles"])
    lanes = engine.run_cells([
        CellTask(workload=f"lane{i}", source=entry["source"],
                 options=options, args=tuple(args))
        for i, args in enumerate(entry["lanes"])
    ])
    return lanes


def _batch_outcome(lane):
    """A coalesced lane in the pin's shape; an error lane's last
    diagnostic line is the exception's ``module.Class: message``."""
    if lane.verdict == "error":
        head, _, message = lane.diagnostics[-1].partition(": ")
        return {"ok": False, "error_kind": head.rsplit(".", 1)[-1],
                "error": message}
    return {
        "ok": True,
        "value": lane.value,
        "cycles": lane.cycles,
        "globals": {k: v for k, v in lane.observable[1]},
    }


def _scalar_outcome(design, args, backend, max_cycles):
    try:
        r = design.run(args=tuple(args), sim_backend=backend,
                       max_cycles=max_cycles)
        return {
            "ok": True,
            "value": r.value,
            "cycles": r.cycles,
            "globals": {k: v for k, v in sorted(r.globals.items())},
        }
    except InterpError as failure:
        return {"ok": False, "error_kind": type(failure).__name__,
                "error": str(failure)}


def _canonical(outcome):
    """Round-trip through JSON so tuples and lists compare equal."""
    return json.loads(json.dumps(outcome, sort_keys=True))


@pytest.mark.parametrize("path", _corpus_entries(),
                         ids=[p.stem for p in _corpus_entries()])
def test_corpus_entry_replays_batched(path):
    entry = _load(path)
    for backend in SIM_BACKENDS:
        lanes = _coalesced(entry, backend)
        assert len(lanes) == len(entry["expected"])
        for i, (lane, pinned) in enumerate(zip(lanes, entry["expected"])):
            assert _canonical(_batch_outcome(lane)) == _canonical(pinned), (
                f"{path.name} lane {i} ({entry['lanes'][i]}) drifted"
                f" on {backend}"
            )


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("path", _corpus_entries(),
                         ids=[p.stem for p in _corpus_entries()])
def test_corpus_pins_match_scalar_backends(path, backend):
    """The pins themselves are still what the scalar semantics say."""
    entry = _load(path)
    design = synthesize(entry["source"], flow=entry["flow"]).design
    for i, (args, pinned) in enumerate(zip(entry["lanes"],
                                           entry["expected"])):
        scalar = _scalar_outcome(design, args, backend,
                                 entry["max_cycles"])
        assert _canonical(scalar) == _canonical(pinned), (
            f"{path.name} lane {i} ({args}) vs {backend}"
        )


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("path", _corpus_entries(),
                         ids=[p.stem for p in _corpus_entries()])
def test_corpus_entry_replays_at_every_opt_level(path, opt_level):
    """Lane outcomes are an optimization invariant.

    With the mid-end off (0) or the liveness fixpoint on (2), each lane
    must keep its pinned ok/error split, value, globals, and error kind.
    Cycle counts are level-dependent by design, so they are compared
    only directionally: the fixpoint pipeline may never be slower than
    the pinned default-level count."""
    entry = _load(path)
    lanes = _coalesced(entry, "compiled", opt_level=opt_level)
    assert len(lanes) == len(entry["expected"])
    for i, (lane, pinned) in enumerate(zip(lanes, entry["expected"])):
        where = f"{path.name} lane {i} ({entry['lanes'][i]}) at L{opt_level}"
        got = _batch_outcome(lane)
        assert got["ok"] == pinned["ok"], f"{where}: ok flipped"
        if got["ok"]:
            assert got["value"] == pinned["value"], f"{where}: value"
            assert _canonical(got["globals"]) == _canonical(
                pinned["globals"]
            ), f"{where}: globals"
            if opt_level >= 2:
                assert got["cycles"] <= pinned["cycles"], (
                    f"{where}: fixpoint regressed cycles "
                    f"{pinned['cycles']} -> {got['cycles']}"
                )
        else:
            assert got["error_kind"] == pinned["error_kind"], (
                f"{where}: error kind"
            )


def test_corpus_is_populated():
    entries = [_load(p) for p in _corpus_entries()]
    assert len(entries) >= 6
    # Every divergence family is represented: mixed ok/error batches,
    # budget exhaustion, and observable global state.
    assert any(
        {e["ok"] for e in entry["expected"]} == {True, False}
        for entry in entries
    )
    assert any(
        "budget" in (e.get("error") or "")
        for entry in entries for e in entry["expected"]
    )
    assert any(
        e["ok"] and e["globals"]
        for entry in entries for e in entry["expected"]
    )
