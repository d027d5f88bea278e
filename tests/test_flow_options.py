"""The option surface of every flow.

A flow's ``compile`` names each option it reads, and one table declares
each option's type; :func:`repro.api.synthesize` refuses any other option
and any ill-typed value, so a misspelled, foreign or mistyped option
cannot silently give a wrong design under a new cache key.
"""

from __future__ import annotations

import inspect

import pytest

from repro.api import synthesize
from repro.flows import COMPILABLE, get_flow
from repro.flows.base import OPTION_TYPES
from repro.interp import run_source
from repro.scheduling.resources import ResourceSet
from repro.serve.protocol import ServeLimits, ValidationError, parse_synthesize

SOURCE = (
    "int main(int n) { int s = 0;"
    " for (int i = 0; i < 4; i++) { s += i * n; } return s; }"
)

_LIST = {"resources": ResourceSet.minimal(), "clock_ns": 7.5}

#: Each flow's options, with a value other than the default.
OPTIONS = {
    "cones": {},
    "hardwarec": _LIST,
    "cyber": _LIST,
    "bachc": _LIST,
    "specc": {**_LIST, "refine": "specification"},
    "c2verilog": {**_LIST, "pointer_analysis": False},
    "systemc": {},
    "transmogrifier": {},
    "handelc": {},
    "cash": {"pointer_analysis": False},
}


def test_table_covers_every_compilable_flow():
    assert sorted(OPTIONS) == sorted(COMPILABLE)


@pytest.mark.parametrize("flow", sorted(OPTIONS))
def test_flow_reads_exactly_its_options(flow):
    assert get_flow(flow).options == set(OPTIONS[flow])
    assert get_flow(flow).options <= set(OPTION_TYPES)


@pytest.mark.parametrize("flow", sorted(OPTIONS))
def test_every_option_compiles_on_its_flow(flow):
    expected = run_source(SOURCE, args=(3,)).value
    for name, value in OPTIONS[flow].items():
        result = synthesize(SOURCE, flow=flow, **{name: value})
        assert result.run(args=(3,)).value == expected, (flow, name)


@pytest.mark.parametrize("flow", [*COMPILABLE, "ocapi"])
def test_no_compile_takes_arbitrary_keywords(flow):
    parameters = inspect.signature(get_flow(flow).compile).parameters
    assert all(p.kind is not p.VAR_KEYWORD for p in parameters.values())


def test_synthesize_refuses_an_option_the_flow_does_not_read():
    with pytest.raises(ValueError) as caught:
        synthesize(SOURCE, flow="handelc", unroll=2)
    assert "handelc" in str(caught.value)
    assert "unroll" in str(caught.value)


@pytest.mark.parametrize("flow, name, value, takes", [
    ("hardwarec", "resources", 3, "ResourceSet"),
    ("c2verilog", "clock_ns", "fast", "float or int"),
    ("c2verilog", "clock_ns", True, "float or int"),
    ("c2verilog", "clock_ns", 0, "float or int above zero"),
    ("c2verilog", "clock_ns", -5.0, "float or int above zero"),
    ("c2verilog", "clock_ns", float("nan"), "float or int above zero"),
    ("cash", "pointer_analysis", "no", "bool"),
    ("bachc", "clock_ns", "8", "float or int"),
    ("c2verilog", "pointer_analysis", 1, "bool"),
    ("specc", "resources", "minimal", "ResourceSet"),
    ("specc", "refine", "rtl2", "one of 'implementation', 'specification'"),
])
def test_synthesize_refuses_an_ill_typed_option(flow, name, value, takes):
    with pytest.raises(ValueError) as caught:
        synthesize(SOURCE, flow=flow, **{name: value})
    assert str(caught.value) == (
        f"option {name!r} of flow {flow!r} takes {takes}, got {value!r}")


def test_an_int_clock_is_the_float_clock():
    """Normalisation: equal settings are one option set, one cache key."""
    as_int = synthesize(SOURCE, flow="bachc", clock_ns=8).options
    assert as_int.flow_options == (("clock_ns", 8.0),)
    assert as_int.identity() == synthesize(
        SOURCE, flow="bachc", clock_ns=8.0).options.identity()


@pytest.mark.parametrize("flow", ["systemc", "transmogrifier"])
def test_chain_scheduled_flows_take_no_list_scheduler_options(flow):
    for name, value in _LIST.items():
        with pytest.raises(ValueError, match=name):
            synthesize(SOURCE, flow=flow, **{name: value})


def test_serve_names_the_foreign_option():
    with pytest.raises(ValidationError) as caught:
        parse_synthesize(
            {"source": SOURCE, "flow": "cash", "options": {"refine": "x"}},
            ServeLimits(),
        )
    assert caught.value.code == "bad_field"
    assert "'cash'" in caught.value.message
    assert "'refine'" in caught.value.message
