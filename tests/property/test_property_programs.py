"""Property-based end-to-end equivalence: for any generated program, every
synthesis flow that accepts it must compute exactly what the interpreter
computes.  This is the fuzzing harness for the whole stack — frontend,
inliner, CDFG, optimizer, schedulers, binder, and all three simulators."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.flows import COMPILABLE, FlowError, REGISTRY, UnsupportedFeature
from repro.interp import run_program
from repro.lang import parse
from repro.workloads import array_source, control_source, dataflow_source

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# The flows worth fuzzing (cones requires static bounds, which control
# sources have; cash/c2verilog/scheduled/chain/syntax-directed all differ).
FUZZ_FLOWS = ["c2verilog", "bachc", "transmogrifier", "handelc", "cash", "systemc"]


def check_all_flows(source, args):
    program, info = parse(source)
    golden = run_program(program, info, "main", args)
    checked = 0
    for key in FUZZ_FLOWS:
        try:
            design = REGISTRY[key].compile(program, info, "main")
            result = design.run(args=args)
        except (UnsupportedFeature, FlowError):
            continue
        assert result.value == golden.value, (
            f"{key}: {result.value} != golden {golden.value}\n{source}"
        )
        checked += 1
    assert checked >= 3  # the generators stay inside most flows' subsets


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    x=st.integers(min_value=-1000, max_value=1000),
    y=st.integers(min_value=-1000, max_value=1000),
)
def test_dataflow_programs_equivalent_across_flows(seed, x, y):
    check_all_flows(dataflow_source(seed, statements=8, depth=3), (x, y))


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    x=st.integers(min_value=-50, max_value=50),
    y=st.integers(min_value=-50, max_value=50),
)
def test_control_programs_equivalent_across_flows(seed, x, y):
    check_all_flows(control_source(seed, blocks=3, depth=2), (x, y))


@settings(**_SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    x=st.integers(min_value=-100, max_value=100),
)
def test_array_programs_equivalent_across_flows(seed, x):
    check_all_flows(array_source(seed, size=8, passes=2), (x,))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cones_flattening_matches_interpreter(seed):
    # Control sources have literal loop bounds, so Cones can flatten them.
    source = control_source(seed, blocks=2, depth=2)
    program, info = parse(source)
    golden = run_program(program, info, "main", (3, 4))
    try:
        design = REGISTRY["cones"].compile(program, info, "main")
    except (UnsupportedFeature, FlowError):
        return
    assert design.run(args=(3, 4)).value == golden.value


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_optimizer_is_semantics_preserving(seed):
    # Compare unoptimized vs optimized CDFG execution directly.
    from repro.ir import build_function
    from repro.ir.passes import inline_program, optimize_cdfg
    from tests.cdfg_oracle import execute

    source = dataflow_source(seed, statements=10, depth=3)
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    raw = build_function(inlined.function("main"), info)
    raw_value = execute(raw, args=(5, 9)).value
    optimized = build_function(inlined.function("main"), info)
    optimize_cdfg(optimized)
    assert execute(optimized, args=(5, 9)).value == raw_value
