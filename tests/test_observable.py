"""``Observable.diff``: the first field in which two runs differ.

Every mismatch verdict, the fuzzer's opt-level and metamorphic findings
and the corpus replays name what differs through this one method, so a
divergence in a global or a channel log can never read as agreement on
the return value.
"""

import pytest

from repro.interp import Observable, run_source
from repro.runner.cells import canonical_observable


def obs(value=1, globals=None, channels=None):
    return Observable.of(value, globals or {}, channels or {})


def test_equal_sides_have_no_diff():
    left = obs(3, {"g": [1, 2], "h": 4}, {"c": [5]})
    assert left.diff(obs(3, {"h": 4, "g": [1, 2]}, {"c": [5]})) is None


def test_value():
    assert obs(219).diff(obs(220)) == ("value", "value 219 vs 220")
    assert obs(None).diff(obs(0)) == ("value", "value None vs 0")


def test_a_global_both_sides_hold():
    assert obs(globals={"g": 1}).diff(obs(globals={"g": 2})) == (
        "global", "global g 1 vs 2")
    assert obs(globals={"a": [1, 2]}).diff(obs(globals={"a": [1, 3]})) == (
        "global", "global a [1, 2] vs [1, 3]")


def test_a_global_one_side_lacks():
    assert obs().diff(obs(globals={"dead1": [1, 0]})) == (
        "global-absent", "global dead1 absent vs [1, 0]")
    assert obs(globals={"g": 0}).diff(obs()) == (
        "global-absent", "global g 0 vs absent")


def test_a_channel_log():
    assert obs(channels={"c": [1, 2]}).diff(obs(channels={"c": [1]})) == (
        "channel", "channel c [1, 2] vs [1]")
    assert obs(channels={"c": []}).diff(obs()) == (
        "channel", "channel c [] vs absent")


@pytest.mark.parametrize("left, right, kind", [
    # value before any global, globals before channels, globals by name
    (obs(1, {"g": 1}, {"c": [1]}), obs(2, {"g": 2}, {"c": [2]}), "value"),
    (obs(1, {"g": 1}, {"c": [1]}), obs(1, {"g": 2}, {"c": [2]}), "global"),
    (obs(1, {"a": 1, "b": 1}), obs(1, {"b": 2}), "global-absent"),
    (obs(1, {"a": 1, "b": 1}), obs(1, {"a": 2}), "global"),
    (obs(1, {"g": 1}, {"c": [1]}), obs(1, {"g": 1}, {"c": [2]}), "channel"),
])
def test_precedence(left, right, kind):
    assert left.diff(right)[0] == kind


def test_diff_reads_the_stored_nested_list_form():
    run = run_source("int g[2]; int main(int x) { g[1] = x; return x; }",
                     args=(3,)).observable()
    stored = canonical_observable(run)
    assert stored == [3, [["g", [0, 3]]], []]
    assert run.diff(stored) is None
    assert Observable(*stored).diff(run) is None
    assert run.diff([3, [["g", [0, 4]]], []]) == (
        "global", "global g [0, 3] vs [0, 4]")
