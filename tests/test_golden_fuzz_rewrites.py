"""Golden mutants and reductions for the fuzz grammar's programs.

``tests/golden/fuzz_rewrites.json`` pins, for fuzz-grammar seeds 0–39
under every compilable flow's feature mask (plus a tour of the
constructs the grammar never emits: ``do``/``while``, ``par``/``seq``,
``within``, channels and ``continue``), the name, site index and sha256
of every :func:`repro.fuzz.mutate.mutants` output, and the program
:func:`repro.fuzz.reduce.reduce_source` shrinks it to under one fixed
syntactic predicate.  Mutation sites and reduction candidates come out in
AST traversal order and seeded choices are made over them, so a change to
how the AST is walked must reproduce this fixture byte for byte.

To intentionally change it, regenerate it in the same commit and say
why::

    PYTHONPATH=src python -m tests.test_golden_fuzz_rewrites
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.fuzz import generate_program
from repro.fuzz.masks import all_masks
from repro.fuzz.mutate import mutants
from repro.fuzz.reduce import reduce_source

GOLDEN = Path(__file__).parent / "golden" / "fuzz_rewrites.json"
SEEDS = range(40)
MUTANTS = 5

# Every statement and expression kind the grammar leaves out, with
# commutable and splittable sites on both sides of each nesting.
TOUR = """
chan<int> link;
int table[4] = {3, 1, 4, 1};
int twice(int a) { return a + a; }
process void producer() {
    for (int i = 0; i < 3; i++) {
        send(link, i * 2 + 1);
    }
}
int main(int x, int y) {
    int s = 0;
    int k = 0;
    do {
        s = s + (x & 7) * 3;
        k = k + 1;
        if (k == 2) { continue; }
        s = (s ^ y) + twice(k);
    } while ((k + 1) * 2 < (y & 15) + 8);
    while (k > 0) {
        k = k - 1;
        s = s + table[k & 3] * 2;
    }
    par {
        seq { s = s + recv(link) * 4; s = s + recv(link); }
        { y = (y | 1) + (x & 3); }
    }
    s = s + recv(link);
    within (4) { x = (x + 1) * (y + 2); }
    return s + ((x > y) ? x + 1 : y * 2);
}
"""


def _has_loop_and_if(source: str) -> bool:
    return ("for" in source or "while" in source) and "if" in source


def programs() -> dict:
    """name -> (source, mask, seed, mutant count) for every program the
    fixture covers."""
    out = {"tour": (TOUR, None, 0, 4 * MUTANTS)}
    for flow, mask in all_masks().items():
        for seed in SEEDS:
            source = generate_program(seed, mask).source
            out[f"{flow}/{seed}"] = (source, mask, seed, MUTANTS)
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rewrites(name: str, source: str, mask, seed: int, count: int) -> dict:
    return {
        "name": name,
        "source_sha256": _digest(source),
        "mutants": [[m.name, m.index, _digest(m.source)]
                    for m in mutants(source, seed=seed, count=count, mask=mask)],
        "reduced": reduce_source(source, _has_loop_and_if).reduced,
    }


def render() -> str:
    """The fixture's JSON, one program per line so diffs stay readable."""
    rows = [json.dumps(rewrites(name, *program))
            for name, program in programs().items()]
    return "[\n" + ",\n".join(rows) + "\n]\n"


_ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
_PROGRAMS = programs()


def test_fixture_covers_every_program():
    assert [entry["name"] for entry in _ENTRIES] == list(_PROGRAMS)


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: e["name"])
def test_rewrites_match_golden(entry):
    program = _PROGRAMS[entry["name"]]
    assert _digest(program[0]) == entry["source_sha256"]
    assert rewrites(entry["name"], *program) == entry


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
