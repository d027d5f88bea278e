"""Unit tests for the flow-aware synthesizability linter.

One test (or small group) per rule, plus the cross-validation invariant the
linter exists for: its errors agree with what each flow's compile raises —
same verdict, same rule id — over the entire workload suite.
"""

import pytest

from repro.analysis.lint import (
    ALL_FLOWS,
    Diagnostic,
    LintReport,
    RULE_ALIAS,
    RULE_CHANNEL,
    RULE_COMB_CYCLE,
    RULE_DELAY,
    RULE_DYNAMIC_MEMORY,
    RULE_PARSE,
    RULE_POINTER,
    RULE_PROCESS,
    RULE_RECURSION,
    RULE_SHARED_RACE,
    RULE_STRUCTURE,
    RULE_UNBOUNDED_LOOP,
    Severity,
    lint,
)
from repro.api import synthesize
from repro.flows import COMPILABLE, REGISTRY, FlowError, UnsupportedFeature
from repro.flows.registry import lint_rules
from repro.lang.errors import SourceLocation
from repro.workloads.suite import WORKLOADS


def rules_of(report, flow, severity=None):
    return report.rules(flow, severity)


# ---------------------------------------------------------------------------
# Diagnostic / report model
# ---------------------------------------------------------------------------


def test_diagnostic_str_includes_location_rule_and_hint():
    diag = Diagnostic(
        flow="cones",
        rule=RULE_POINTER,
        severity=Severity.ERROR,
        message="no pointers",
        location=SourceLocation(3, 7, "a.c"),
        hint="use arrays",
    )
    text = str(diag)
    assert "a.c:3:7" in text
    assert RULE_POINTER in text
    assert "[cones]" in text
    assert "use arrays" in text


def test_report_is_clean_and_all_flows_marker():
    report = LintReport(flows=["cones", "cash"])
    report.add(Diagnostic(flow=ALL_FLOWS, rule=RULE_PARSE,
                          severity=Severity.ERROR, message="bad parse"))
    assert not report.is_clean("cones")
    assert not report.is_clean("cash")
    assert report.errors("cones")[0].rule == RULE_PARSE


def test_warnings_do_not_break_cleanliness():
    report = LintReport(flows=["bachc"])
    report.add(Diagnostic(flow="bachc", rule=RULE_SHARED_RACE,
                          severity=Severity.WARNING, message="race"))
    assert report.is_clean("bachc")
    assert report.warnings("bachc")


# ---------------------------------------------------------------------------
# Feature rules (SYN101/102/107/108/109/110/111)
# ---------------------------------------------------------------------------


def test_recursion_rule_fires_for_every_recursion_forbidding_flow():
    source = "int main(int n) { if (n <= 1) { return 1; } return n * main(n - 1); }"
    report = lint(source)
    for key in ("cones", "hardwarec", "systemc", "handelc", "specc", "bachc"):
        assert RULE_RECURSION in rules_of(report, key, Severity.ERROR)
    # CASH inlines bounded recursion: no recursion rule in its FORBIDDEN set.
    assert RULE_RECURSION not in rules_of(report, "cash", Severity.ERROR)


def test_pointer_rule_fires_with_source_location():
    source = "int main(int a) { int x = 4; int *p = &x; return *p + a; }"
    report = lint(source, flow="cones")
    errors = report.errors("cones")
    assert any(d.rule == RULE_POINTER for d in errors)
    pointer = next(d for d in errors if d.rule == RULE_POINTER)
    assert pointer.location.line == 1
    assert pointer.location.column > 0


def test_channel_rule_only_on_channel_free_flows():
    source = """
chan<int> c;
process void prod() { send(c, 3); }
int main() { return recv(c); }
"""
    report = lint(source)
    assert RULE_CHANNEL in rules_of(report, "c2verilog", Severity.ERROR)
    assert RULE_CHANNEL in rules_of(report, "cash", Severity.ERROR)
    assert RULE_CHANNEL not in rules_of(report, "handelc", Severity.ERROR)
    assert RULE_CHANNEL not in rules_of(report, "bachc", Severity.ERROR)


def test_delay_rule_and_flow_specific_acceptance():
    source = "int main(int a) { delay(2); return a; }"
    report = lint(source)
    assert RULE_DELAY in rules_of(report, "cones", Severity.ERROR)
    assert RULE_DELAY in rules_of(report, "c2verilog", Severity.ERROR)
    assert report.is_clean("handelc")
    assert report.is_clean("hardwarec")


# ---------------------------------------------------------------------------
# Frontend rules (SYN301/104)
# ---------------------------------------------------------------------------


def test_parse_failure_applies_to_all_flows():
    report = lint("this is not a C-like program")
    assert report.diagnostics
    assert all(d.flow == ALL_FLOWS for d in report.diagnostics)
    for key in COMPILABLE:
        assert not report.is_clean(key)


def test_dynamic_memory_detected_via_malloc():
    report = lint("int main() { int *p = malloc(4); return *p; }")
    rules = {d.rule for d in report.diagnostics}
    assert RULE_DYNAMIC_MEMORY in rules


def test_missing_entry_function_reported():
    report = lint("int helper(int a) { return a; }")
    assert any("main" in d.message for d in report.errors())


# ---------------------------------------------------------------------------
# Structural rules
# ---------------------------------------------------------------------------


def test_process_rule_for_single_program_flows():
    source = """
int g;
process void p() { g = 1; }
int main() { return g; }
"""
    report = lint(source)
    assert RULE_PROCESS in rules_of(report, "cones", Severity.ERROR)
    assert RULE_PROCESS in rules_of(report, "cash", Severity.ERROR)
    assert RULE_PROCESS not in rules_of(report, "handelc", Severity.ERROR)
    process = next(d for d in report.errors("cones")
                   if d.rule == RULE_PROCESS)
    assert process.location.line == 3


def test_static_loop_bound_rule_cones_only():
    source = "int main(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }"
    report = lint(source)
    assert RULE_UNBOUNDED_LOOP in rules_of(report, "cones", Severity.ERROR)
    # Clocked flows merely warn: latency is unbounded but it compiles.
    assert report.is_clean("c2verilog")
    assert RULE_UNBOUNDED_LOOP in rules_of(report, "c2verilog", Severity.WARNING)


def test_static_loop_accepted_by_cones():
    source = "int main(int a) { int s = 0; for (int i = 0; i < 8; i++) { s += a; } return s; }"
    report = lint(source, flow="cones")
    assert report.is_clean("cones")


def test_zero_time_loop_rule_handelc():
    # The loop body only tests — no assignment or delay consumes a cycle.
    source = "int main(int n) { while (n > 0) { if (n == 1) { break; } } return n; }"
    report = lint(source, flow="handelc")
    assert RULE_COMB_CYCLE in rules_of(report, "handelc", Severity.ERROR)
    with pytest.raises(UnsupportedFeature) as raised:
        synthesize(source, flow="handelc")
    assert raised.value.rule == RULE_COMB_CYCLE


def test_cycle_consuming_loop_is_clean_for_handelc():
    source = "int main(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }"
    report = lint(source, flow="handelc")
    assert report.is_clean("handelc")


def test_par_structure_rule_handelc():
    source = """
int main(int n) {
  int a = 0;
  int b = 0;
  par { { for (int i = 0; i < 4; i++) { a += 1; } } { b = n; } }
  return a + b;
}
"""
    report = lint(source, flow="handelc")
    assert RULE_STRUCTURE in rules_of(report, "handelc", Severity.ERROR)
    with pytest.raises(UnsupportedFeature) as raised:
        synthesize(source, flow="handelc")
    assert raised.value.rule == RULE_STRUCTURE


def test_receive_position_rule_handelc():
    source = """
chan<int> c;
process void p() { send(c, 2); }
int main() { return recv(c) + 1; }
"""
    report = lint(source, flow="handelc")
    assert RULE_STRUCTURE in rules_of(report, "handelc", Severity.ERROR)
    with pytest.raises(UnsupportedFeature) as raised:
        synthesize(source, flow="handelc")
    assert raised.value.rule == RULE_STRUCTURE


def test_receive_standing_alone_is_clean():
    source = """
chan<int> c;
process void p() { send(c, 2); }
int main() { int x = recv(c); return x + 1; }
"""
    report = lint(source, flow="handelc")
    assert report.is_clean("handelc")


# ---------------------------------------------------------------------------
# CDFG-level rules
# ---------------------------------------------------------------------------


def test_shared_race_warning_without_channel():
    source = """
int g;
process void p() { g = g + 1; }
int main(int n) { g = n; return g; }
"""
    report = lint(source)
    for key in ("bachc", "handelc", "specc", "systemc"):
        race = [d for d in report.warnings(key) if d.rule == RULE_SHARED_RACE]
        assert race, f"expected race warning for {key}"
        assert "'g'" in race[0].message


def test_no_race_warning_when_channel_synchronizes():
    source = """
int g;
chan<int> c;
process void p() { g = recv(c); }
int main(int n) { send(c, n); return n; }
"""
    report = lint(source, flow="bachc")
    assert not [d for d in report.warnings("bachc")
                if d.rule == RULE_SHARED_RACE]


def test_alias_fallback_warning_on_unresolved_pointer():
    source = """
int main(int n) {
  int a = 1;
  int b = 2;
  int *p;
  if (n > 0) { p = &a; } else { p = &b; }
  return *p;
}
"""
    report = lint(source, flow="c2verilog")
    assert RULE_ALIAS in rules_of(report, "c2verilog", Severity.WARNING)
    # It still compiles: alias fallback is a cost hazard, not a rejection.
    assert report.is_clean("c2verilog")
    synthesize(source, flow="c2verilog")


def test_unbounded_latency_warning_location_points_at_loop():
    source = "int main(int n) { int s = 0;\n  while (n > 0) { s += n; n -= 1; }\n  return s; }"
    report = lint(source, flow="bachc")
    warning = next(d for d in report.warnings("bachc")
                   if d.rule == RULE_UNBOUNDED_LOOP)
    assert warning.location.line == 2


# ---------------------------------------------------------------------------
# Registry wiring
# ---------------------------------------------------------------------------


def test_every_compilable_flow_declares_rules():
    for key in COMPILABLE:
        rules = lint_rules(key)
        assert rules, f"{key} has no lint rules"
        # Feature rules mirror the flow's FORBIDDEN table exactly.
        feature_rules = {r.feature for r in rules if hasattr(r, "feature")}
        assert feature_rules == set(REGISTRY[key].FORBIDDEN)


def test_unknown_flow_raises_keyerror():
    with pytest.raises(KeyError):
        lint("int main() { return 0; }", flow="no-such-flow")


# ---------------------------------------------------------------------------
# Cross-validation: the linter agrees with the compilers (tentpole contract)
# ---------------------------------------------------------------------------
#
# The compiler side of the comparison runs through the matrix runner — the
# same engine behind ``repro sweep`` — so the linter is validated against
# exactly the CellResult verdicts every other consumer sees, and the whole
# matrix compiles once per session instead of once per parametrized case.


@pytest.fixture(scope="module")
def suite_cells():
    from repro.runner import MatrixEngine, suite_tasks

    results = MatrixEngine(jobs=2).run_cells(suite_tasks())
    return {(r.workload, r.flow): r for r in results}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_linter_matches_compiler_on_suite(workload, suite_cells):
    from repro.runner import REJECTED

    report = lint(workload.source, flows=list(COMPILABLE))
    for key in COMPILABLE:
        cell = suite_cells[(workload.name, key)]
        assert not cell.unexpected, (
            f"{workload.name} x {key}: runner verdict {cell.verdict!r}"
            f" — {cell.note(200)}"
        )
        if report.is_clean(key):
            assert cell.ok, (
                f"linter passed {workload.name} for {key} but the runner"
                f" verdict is {cell.verdict!r}: {cell.note(200)}"
            )
        else:
            assert cell.verdict == REJECTED, (
                f"linter rejected {workload.name} for {key} with"
                f" {report.rules(key, Severity.ERROR)} but the runner"
                f" verdict is {cell.verdict!r}"
            )
        if cell.verdict == REJECTED and cell.rule:
            assert cell.rule in report.rules(key, Severity.ERROR), (
                f"{workload.name} x {key}: compile rejected with"
                f" {cell.rule} but linter predicted"
                f" {report.rules(key, Severity.ERROR)}"
            )


def test_unsupported_feature_carries_rule_and_location():
    source = "int main(int a) { int x = 1; int *p = &x; return *p + a; }"
    with pytest.raises(UnsupportedFeature) as raised:
        synthesize(source, flow="cones")
    assert raised.value.rule == RULE_POINTER
    assert raised.value.location is not None
    assert raised.value.location.line == 1
    assert "at <input>:1:" in str(raised.value)
