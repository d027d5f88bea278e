"""Pinned cache keys: the exact ``cell_key`` hex of a few fixed tasks.

A change to how a task is represented must not move a single cache key,
or every artifact cache on disk goes cold (and corpus entries keyed by
the same identity stop matching).  These pins fix the key bytes for the
default option set, a non-default ``opt_level``, a per-flow compile
option and ``check``, under a fixed salt, and check that the simulation
engine stays out of the key.
"""

from __future__ import annotations

import pytest

from repro.api import SynthesisOptions
from repro.runner import CellTask, cell_key

SOURCE = """
int main(int n, int k) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += i * k; }
    return s;
}
"""

SALT = "pinned-salt"
ARGS = (5, 3)


def _task(options: SynthesisOptions) -> CellTask:
    """The cell for ``options`` over the pinned source and inputs.

    Tasks that still mirrored the option fields were built with
    ``CellTask.from_options``; tasks that carry the option set take it
    directly.  Both spellings are accepted so the pins hold across that
    change of representation."""
    try:
        return CellTask(workload="pin", source=SOURCE, options=options,
                        args=ARGS)
    except TypeError:
        return CellTask.from_options("pin", SOURCE, options, ARGS)


PINS = {
    "default": (
        {},
        "b1a8521e6f580a5778a3c78557b7fba575919d4137f0bb4c28a71fd2ddcaa73e",
    ),
    "opt_level_2": (
        {"opt_level": 2},
        "e9556e7953f785ea7ffdc652c8f73f629f67c371bae80d8234465934c6016662",
    ),
    "flow_option": (
        {"clock_ns": 7.5},
        "b10f621744165673aefd6fb3a9760fb0796cb3421aa5acecfec6aec31e5d131f",
    ),
    "check": (
        {"check": True},
        "7d607ef487267343ddd69a9fb1b35cc1a8d2d028c6c9a2373c457cb67b226fd0",
    ),
    "handelc_opt_level_0": (
        {"flow": "handelc", "opt_level": 0},
        "f3ea7c509fa7c2ff0f2a0c92f7f545c8b3c77a7bf4136fc05e421ef8612b21dc",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_cell_key_is_pinned(name):
    kwargs, expected = PINS[name]
    assert cell_key(_task(SynthesisOptions.make(**kwargs)), salt=SALT) \
        == expected


def test_sim_backend_stays_out_of_the_key():
    interp = _task(SynthesisOptions.make(sim_backend="interp"))
    compiled = _task(SynthesisOptions.make(sim_backend="compiled"))
    assert cell_key(compiled, salt=SALT) == cell_key(interp, salt=SALT)
    assert cell_key(compiled, salt=SALT) == PINS["default"][1]
