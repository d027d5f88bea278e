"""The time-sensitive checking tier (TIM rules).

Three layers of evidence, mirroring docs/timing.md:

* unit tests — each TIM rule fires on its minimal trigger, with the
  right severity and a real source location, and stays quiet on clean
  programs;
* the cross-validation sweep — the checker's verdict over the full
  workload x flow matrix agrees 100% with what the flows actually did
  (and every rule prediction is validated against the compiled
  artifact: schedule refusal, simulation deadlock, or measured
  occupancy);
* probe replay — every generated timing-boundary probe is rejected with
  its predicted rule id at a real location, and the predicted failure
  reproduces on the artifact; pinned corpus entries guard both the
  checker and the generator against drift.
"""

import contextlib
import io
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest

from repro.__main__ import main
from repro.analysis.lint import Severity, TIM_RULES, TIM_VALIDATES, lint
from repro.analysis.lint.diagnostics import (
    RULE_TIM_CYCLE_BUDGET,
    RULE_TIM_II_CONFLICT,
    RULE_TIM_PAR_SHARED_CYCLE,
    RULE_TIM_PORT_OVERSUBSCRIBED,
    RULE_TIM_RENDEZVOUS,
    RULE_TIM_UNBOUNDED_IN_WITHIN,
    RULE_TIM_WITHIN_INFEASIBLE,
)
from repro.analysis.timing import (
    CheckOptions,
    CheckRejected,
    check,
    enforce,
    obligations_for,
)
from repro.analysis.timing.harness import (
    cross_validate_matrix,
    validate_probe,
)
from repro.analysis.timing.obligations import (
    CHAIN_FLOWS,
    LIST_FLOWS,
)
from repro.flows import COMPILABLE, FlowError, SynthesisOptions, synthesize
from repro.flows.registry import timing_rules
from repro.fuzz.timing import (
    PROBE_RULES,
    generate_timing_probe,
    probe_plan,
)
from repro.ir.ops import VReg, numbering
from repro.lang.types import INT
from repro.runner import MatrixEngine, suite_tasks
from repro.scheduling.base import ConstraintInfeasible
from repro.workloads import WORKLOADS

CORPUS_DIR = pathlib.Path(__file__).parent / "timing_corpus"

SELF_RENDEZVOUS = """
chan<int> c;
int main(int a) {
  send(c, a);
  int x = recv(c);
  return x;
}
"""

ORPHAN_SEND = """
chan<int> c;
int main(int a) {
  send(c, a + 1);
  return a;
}
"""

RECV_IN_WITHIN = """
chan<int> c;
process void prod() { send(c, 5); }
int main(int a) {
  int x;
  within (2) {
    x = recv(c);
  }
  return x + a;
}
"""

WITHIN_TOO_TIGHT = """
int main(int a) {
  int x;
  within (2) {
    x = a + 1;
    delay(3);
    x = x + 2;
  }
  return x;
}
"""

PAR_SHARED_MEMORY = """
int arr[8];
int main(int i) {
  int x;
  par {
    arr[i & 7] = 7;
    x = arr[(i + 1) & 7];
  }
  return x;
}
"""

PORT_OVERSUBSCRIBED = """
int arr[8];
int main(int i) {
  arr[i & 7] = arr[(i + 1) & 7] + arr[(i + 2) & 7];
  return arr[i & 7];
}
"""

RECURRENCE_LOOP = """
int arr[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int main(int a) {
  int acc = a;
  for (int i = 0; i < 8; i = i + 1) {
    arr[i & 7] = arr[(i + 1) & 7] + acc;
    acc = acc + arr[(i + 2) & 7];
  }
  return acc;
}
"""

FAT_EXPRESSION = """
int main(int a) {
  int x = ((a * a) * (a * a)) * ((a + 1) * (a + 2)) * ((a * 3) * (a * 5)) % (a + 7);
  return x;
}
"""

CLEAN = """
int main(int a) {
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) {
    acc = acc + i * a;
  }
  return acc;
}
"""


# ---------------------------------------------------------------- rules


def _rules(report, flow):
    return report.rules(flow)


def test_tim201_self_rendezvous_fires_on_every_channel_flow():
    report = check(SELF_RENDEZVOUS)
    for flow in ("handelc", "systemc", "hardwarec", "cyber", "specc", "bachc"):
        hits = [d for d in report.errors(flow) if d.rule == RULE_TIM_RENDEZVOUS]
        assert hits, flow
        assert hits[0].location.line > 0
        assert "rendezvous" in hits[0].message


def test_tim201_orphan_endpoint():
    report = check(ORPHAN_SEND, flow="systemc")
    hits = [d for d in report.errors("systemc") if d.rule == RULE_TIM_RENDEZVOUS]
    assert hits and "blocks forever" in hits[0].message


def test_tim101_rendezvous_inside_within():
    report = check(RECV_IN_WITHIN)
    for flow in ("hardwarec", "cyber", "specc", "bachc"):
        assert RULE_TIM_UNBOUNDED_IN_WITHIN in _rules(report, flow), flow
    # The within-less chain flows have no within obligation to break.
    for flow in CHAIN_FLOWS:
        assert RULE_TIM_UNBOUNDED_IN_WITHIN not in _rules(report, flow)


def test_tim102_infeasible_within_budget():
    report = check(WITHIN_TOO_TIGHT)
    for flow in ("hardwarec", "cyber", "specc", "bachc"):
        hits = [d for d in report.errors(flow)
                if d.rule == RULE_TIM_WITHIN_INFEASIBLE]
        assert hits, flow
        assert hits[0].location.line > 0


def test_tim102_compile_raises_timing_infeasible():
    from repro.flows.base import TimingInfeasible

    with pytest.raises(TimingInfeasible) as caught:
        synthesize(WITHIN_TOO_TIGHT, flow="hardwarec")
    error = caught.value
    assert isinstance(error, FlowError)
    assert isinstance(error, ConstraintInfeasible)
    assert error.rule == RULE_TIM_WITHIN_INFEASIBLE
    clone = pickle.loads(pickle.dumps(error))
    assert clone.rule == error.rule


def test_tim103_budget_warning_never_rejects():
    report = check(FAT_EXPRESSION)
    hits = [d for d in report.diagnostics if d.rule == RULE_TIM_CYCLE_BUDGET]
    assert hits
    assert all(d.severity is Severity.WARNING for d in hits)
    assert {d.flow for d in hits} <= {"handelc", "systemc", "transmogrifier"}
    # A warning must never turn a verdict into a rejection.
    for flow in ("handelc", "systemc", "transmogrifier"):
        enforce(FAT_EXPRESSION, flow)


def test_tim202_par_shared_cycle_is_handelc_only():
    report = check(PAR_SHARED_MEMORY, flow="handelc")
    hits = [d for d in report.errors("handelc")
            if d.rule == RULE_TIM_PAR_SHARED_CYCLE]
    assert hits
    assert hits[0].location.line > 0


def test_tim302_port_oversubscription_measured():
    report = check(PORT_OVERSUBSCRIBED, flow="handelc")
    hits = [d for d in report.errors("handelc")
            if d.rule == RULE_TIM_PORT_OVERSUBSCRIBED]
    assert hits
    # Enough ports (the statement makes four accesses) make it feasible.
    relaxed = check(PORT_OVERSUBSCRIBED, flow="handelc", memory_ports=4)
    assert RULE_TIM_PORT_OVERSUBSCRIBED not in _rules(relaxed, "handelc")


def test_tim301_ii_below_mii_floor():
    report = check(RECURRENCE_LOOP, options=CheckOptions(pipeline_ii=2))
    for flow in LIST_FLOWS:
        hits = [d for d in report.errors(flow)
                if d.rule == RULE_TIM_II_CONFLICT]
        assert hits, flow
        assert "II" in hits[0].message
    # Without an II request the rule does not exist.
    silent = check(RECURRENCE_LOOP)
    assert not [d for d in silent.diagnostics
                if d.rule == RULE_TIM_II_CONFLICT]
    # A feasible II passes.
    feasible = check(RECURRENCE_LOOP, options=CheckOptions(pipeline_ii=8))
    assert not [d for d in feasible.diagnostics
                if d.rule == RULE_TIM_II_CONFLICT]


def test_clean_program_is_clean_everywhere():
    report = check(CLEAN)
    assert not report.diagnostics


def test_par_memory_conflict_counter_in_design_stats():
    design = synthesize(PAR_SHARED_MEMORY, flow="handelc").design
    assert design.stats.get("par_memory_conflicts", 0) >= 1
    clean = synthesize(CLEAN, flow="handelc").design
    assert clean.stats.get("par_memory_conflicts", 0) == 0


# ----------------------------------------------- obligations & registry


def test_obligations_derived_from_registry():
    handelc = obligations_for("handelc")
    assert handelc.rendezvous and handelc.lockstep_par
    assert handelc.implicit_cycle and not handelc.list_scheduled
    hardwarec = obligations_for("hardwarec")
    assert hardwarec.enforces_within and hardwarec.pipelined
    c2v = obligations_for("c2verilog")
    assert not c2v.rendezvous and c2v.list_scheduled
    # Bach C packs against an unlimited functional-unit set (memories
    # keep their physical single port).
    bachc = obligations_for("bachc").resources
    assert bachc.alu is None and bachc.memory_ports == 1
    assert obligations_for("hardwarec").resources.alu == 2


def test_registry_timing_rules_fresh_and_flow_scoped():
    first = timing_rules("handelc")
    second = timing_rules("handelc")
    assert [type(r) for r in first] == [type(r) for r in second]
    assert all(a is not b for a, b in zip(first, second))
    assert timing_rules("cones") == ()
    ii = timing_rules("hardwarec", CheckOptions(pipeline_ii=2))
    assert any(type(r).__name__ == "IIConflictRule" for r in ii)


def test_rule_catalogue_is_documented_and_validated():
    from repro.analysis.lint.diagnostics import RULE_DOCS

    assert len(TIM_RULES) == 7
    for rule in TIM_RULES:
        assert rule in RULE_DOCS
        assert rule in TIM_VALIDATES


# ------------------------------------------------- facade and reports


def test_synthesize_check_gate():
    with pytest.raises(CheckRejected) as caught:
        synthesize(SELF_RENDEZVOUS, SynthesisOptions(flow="handelc", check=True))
    error = caught.value
    assert isinstance(error, FlowError)
    assert error.rule == RULE_TIM_RENDEZVOUS
    assert error.diagnostics and error.report.errors("handelc")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.rule == error.rule and clone.diagnostics
    # The gate is part of the synthesis identity (cache key).
    options = SynthesisOptions(flow="handelc", check=True)
    assert options.identity()["check"] is True
    # Clean programs pass straight through the gate.
    assert synthesize(CLEAN, options).design is not None


def test_report_order_is_deterministic():
    one = check(SELF_RENDEZVOUS)
    two = check(SELF_RENDEZVOUS)
    assert one.to_json() == two.to_json()
    ordered = one.sorted()
    keys = [d.sort_key() for d in ordered]
    assert keys == sorted(keys)
    # sorted() is a permutation of the raw diagnostics.
    assert sorted(ordered, key=id) != [] and len(ordered) == len(one.diagnostics)


def test_machine_readable_report_schema():
    report = check(SELF_RENDEZVOUS, filename="probe.c")
    payload = json.loads(report.to_json())
    assert payload["filename"] == "probe.c"
    assert set(payload["verdicts"]) == set(payload["flows"])
    assert payload["verdicts"]["handelc"] == "reject"
    for entry in payload["diagnostics"]:
        assert set(entry) == {
            "rule", "severity", "flow", "message",
            "file", "line", "column", "hint",
        }
        assert entry["severity"] in ("error", "warning")
        assert entry["line"] >= 1
    # The lint report shares the same schema (machine-readable satellite).
    lint_payload = json.loads(lint(SELF_RENDEZVOUS).to_json())
    assert "verdicts" in lint_payload and "diagnostics" in lint_payload


# ------------------------------------------------- matrix cross-check


@pytest.fixture(scope="module")
def sweep_verdicts():
    """One parallel sweep of the full matrix, shared by the tests here."""
    engine = MatrixEngine(jobs=4)
    results = engine.run_cells(suite_tasks())
    return {(r.workload, r.flow): r.verdict for r in results}


def test_matrix_cross_validation_agrees_everywhere(sweep_verdicts):
    validation = cross_validate_matrix(sweep_verdicts)
    assert validation.cells == len(sweep_verdicts)
    bad = [
        (c.workload, c.flow, c.checker_verdict, c.runner_verdict)
        for c in validation.disagreements()
    ]
    assert not bad, bad
    assert validation.agreement_rate == 1.0


def test_matrix_has_no_false_accepts(sweep_verdicts):
    validation = cross_validate_matrix(sweep_verdicts)
    accepts = [
        (c.workload, c.flow, c.runner_verdict)
        for c in validation.false_accepts()
    ]
    assert not accepts, accepts


def test_matrix_rule_predictions_all_validated(sweep_verdicts):
    validation = cross_validate_matrix(sweep_verdicts)
    unvalidated = [
        (c.workload, c.flow, v.rule, v.detail)
        for c in validation.checks
        for v in c.validations
        if not v.validated
    ]
    assert not unvalidated, unvalidated


# ------------------------------------------------------- probe replay


def test_probe_plan_shape():
    plan = probe_plan()
    assert len(plan) >= 200
    pairs = {(p.kind, p.flow) for p in plan}
    assert len(pairs) == 27
    assert {p.kind for p in plan} == set(PROBE_RULES)
    for probe in plan:
        assert probe.rule == PROBE_RULES[probe.kind]
        assert probe.flow in COMPILABLE


def test_probe_generation_is_pure():
    a = generate_timing_probe("rv-self", "handelc", 7)
    b = generate_timing_probe("rv-self", "handelc", 7)
    c = generate_timing_probe("rv-self", "handelc", 8)
    assert a == b
    assert a.source == b.source
    assert c.source != a.source or c.args != a.args


def test_every_probe_rejected_with_predicted_rule_and_outcome():
    plan = probe_plan()
    failures = []
    for probe in plan:
        outcome = validate_probe(probe)
        if not outcome.ok:
            failures.append((probe.kind, probe.flow, probe.seed,
                             outcome.rejected, outcome.located,
                             outcome.outcome_validated, outcome.detail))
    assert not failures, failures[:5]


def _corpus_entries():
    return sorted(CORPUS_DIR.glob("*.json"))


@pytest.mark.parametrize("path", _corpus_entries(),
                         ids=[p.stem for p in _corpus_entries()])
def test_corpus_entry_replays(path):
    entry = json.loads(path.read_text())
    # 1. The stored source still trips the stored rule for the stored flow.
    options = CheckOptions(pipeline_ii=entry["pipeline_ii"])
    report = check(entry["source"], flow=entry["flow"], options=options)
    assert entry["rule"] in report.rules(entry["flow"]), path.name
    # 2. The generator still reproduces the pinned source byte for byte.
    probe = generate_timing_probe(entry["kind"], entry["flow"], entry["seed"])
    assert probe.source == entry["source"], path.name
    assert probe.rule == entry["rule"]
    assert list(probe.args) == entry["args"]


@pytest.fixture(scope="module")
def corpus_level_sweep():
    """Every timing-corpus source through its flow at opt levels 0/1/2."""
    from repro.api import SynthesisOptions
    from repro.runner.cells import CellTask

    tasks, keys = [], []
    for path in _corpus_entries():
        entry = json.loads(path.read_text())
        for level in (0, 1, 2):
            tasks.append(CellTask(
                workload=f"{path.stem}-L{level}",
                source=entry["source"],
                options=SynthesisOptions(flow=entry["flow"], opt_level=level),
                args=tuple(entry["args"]),
            ))
            keys.append((path.stem, level))
    engine = MatrixEngine(jobs=4, cache=None, timeout_s=30.0,
                          max_cycles=200_000)
    results = engine.run_cells(tasks)
    sweep = {}
    for (stem, level), result in zip(keys, results):
        sweep.setdefault(stem, {})[level] = result
    return sweep


@pytest.mark.parametrize("path", _corpus_entries(),
                         ids=[p.stem for p in _corpus_entries()])
def test_corpus_entry_flow_verdict_is_opt_level_invariant(
        path, corpus_level_sweep):
    """Timing verdicts must not depend on mid-end effort.

    A schedule-aware rejection (TIM102) that holds on the unoptimized
    CDFG must still hold after the fixpoint pipeline, and an accepted
    probe must not start failing: per entry, the (verdict, rule) pair is
    identical at opt levels 0, 1, and 2."""
    levels = corpus_level_sweep[path.stem]
    baseline = levels[1]
    assert baseline.verdict != "mismatch", path.stem
    for level in (0, 2):
        result = levels[level]
        assert result.verdict == baseline.verdict, (
            f"{path.stem}: verdict {baseline.verdict!r} at the default "
            f"level became {result.verdict!r} at opt_level={level}"
        )
        assert result.rule == baseline.rule, (
            f"{path.stem}: rule {baseline.rule!r} became {result.rule!r} "
            f"at opt_level={level}"
        )


def test_corpus_is_populated():
    entries = _corpus_entries()
    assert len(entries) >= 8
    rules = {json.loads(p.read_text())["rule"] for p in entries}
    # Every rejecting rule family is pinned (TIM103 warns, never rejects).
    assert {r.split("-")[0] for r in rules} == {
        "TIM101", "TIM102", "TIM201", "TIM202", "TIM301", "TIM302",
    }


_WITHIN_INFEASIBLE = """int main(int a) {
  int y;
  within (2) {
    y = a + 8;
    delay(5);
    y = y + 9;
  }
  return y;
}
"""


def test_check_text_does_not_depend_on_what_ran_before(tmp_path):
    """TIM102 prints IR values; a fresh process and one that has already
    compiled the whole suite print the same report."""
    path = tmp_path / "within.c"
    path.write_text(_WITHIN_INFEASIBLE)
    command = ["check", str(path), "--flow", "cyber", "--format", "json"]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    fresh = subprocess.run(
        [sys.executable, "-m", "repro", *command], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert "%1 = +(%0, #9)" in fresh.stdout

    for workload in WORKLOADS:
        for flow in COMPILABLE:
            try:
                synthesize(workload.source, flow=flow)
            except FlowError:
                pass
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(command)
    assert out.getvalue() == fresh.stdout


def _run_threads(target, count):
    threads = [threading.Thread(target=target, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()


def test_concurrent_checks_keep_their_own_value_ids():
    """Threads checking at once each number from ``%0``: none draws ids
    from another's counter."""
    barrier = threading.Barrier(2, timeout=30)
    ids = {}

    def interleaved(index):
        with numbering():
            first = VReg(INT)
            barrier.wait()
            second = VReg(INT)
            barrier.wait()
            ids[index] = (first.id, second.id)

    _run_threads(interleaved, 2)
    assert ids == {0: (0, 1), 1: (0, 1)}

    expected = [d.message for d in check(_WITHIN_INFEASIBLE, flow="cyber")
                .errors("cyber")]
    results = []

    def checker(index):
        for _ in range(5):
            report = check(_WITHIN_INFEASIBLE, flow="cyber")
            results.append([d.message for d in report.errors("cyber")])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads(checker, 4)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 20
