"""Property-based soundness check for the linter: over randomly generated
programs, a flow the linter calls clean must compile that program without
raising UnsupportedFeature or FlowError.  (The converse — errors imply a
rejection — is exercised exhaustively over the workload suite in
tests/test_lint.py; the generators here rarely produce rejected programs,
so asserting it per-example would mostly test nothing.)"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.lint import Severity, lint
from repro.api import synthesize
from repro.flows import COMPILABLE, FlowError, UnsupportedFeature

from repro.workloads import array_source, control_source, dataflow_source

_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def check_lint_sound(source):
    report = lint(source, flows=list(COMPILABLE))
    for key in COMPILABLE:
        if not report.is_clean(key):
            continue
        try:
            synthesize(source, flow=key)
        except (UnsupportedFeature, FlowError) as error:
            raise AssertionError(
                f"linter passed {key} but compile raised: {error}\n{source}"
            ) from error


def check_lint_complete(source):
    """Every UnsupportedFeature that carries a rule id must have been
    predicted as an error by that flow's lint rule set."""
    report = lint(source, flows=list(COMPILABLE))
    for key in COMPILABLE:
        try:
            synthesize(source, flow=key)
        except UnsupportedFeature as error:
            if error.rule:
                assert error.rule in report.rules(key, Severity.ERROR), (
                    f"{key} raised {error.rule}, linter predicted "
                    f"{report.rules(key, Severity.ERROR)}\n{source}"
                )
        except FlowError:
            assert not report.is_clean(key), (
                f"{key} raised FlowError but linter was clean\n{source}"
            )


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lint_clean_implies_compiles_dataflow(seed):
    check_lint_sound(dataflow_source(seed, statements=8, depth=3))


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lint_clean_implies_compiles_control(seed):
    source = control_source(seed, blocks=3, depth=2)
    check_lint_sound(source)
    check_lint_complete(source)


@settings(**_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lint_clean_implies_compiles_arrays(seed):
    source = array_source(seed, size=6, passes=2)
    check_lint_sound(source)
    check_lint_complete(source)
