"""E15 — compiled-backend speedup over the reference FSMD interpreter.

The compiled backend (:mod:`repro.sim.compiled`) exists for one
reason: long differential campaigns spend almost all their wall clock
inside the cycle loop.  This experiment times the same long-running
kernels through both engines, per flow, and pins two properties:

* **bit identity** — every timed run compares full observables (value,
  cycles, globals, channel logs) between backends before its timing is
  allowed into the table; a speedup obtained by diverging is a bug, not
  a result;
* **the floor** — at least 5x on long single-machine kernels (the fast
  path), and at least 2x in the quick CI configuration, where the
  kernels are short enough that fixed costs eat into the ratio.

The rendezvous row exercises the general multi-machine scheduler, whose
per-cycle work is dominated by cross-machine bookkeeping; it is reported
but held only to >1x.  A fuzz-campaign throughput line shows the other
end of the envelope: fuzz programs are tiny and run for a handful of
cycles, so one-time specialization outweighs the per-cycle win — the
backend pays off on long simulations, not short ones (see
docs/simulation.md for the guidance).

The long run also writes ``BENCH_sim_backends.json``: per kernel, both
engines' kcycles/s and the speedup, plus fuzz cells/s per backend.  It
also records what the compiled engine proves at specialisation, as
host-independent counts read from each design's generated code: memory
guards, signed wraps, zero-divisor tests, ``abs`` sign fix-ups and
blocks reached through the dispatch tree, next to each design's
specialisation ms.  Only the code a run takes while its budget holds is
read: the state-by-state copy a block keeps for its last cycles before
the budget runs out is left out, so a check counts once per path.  The quick run recounts them and fails if any count
rises above the committed one (the CI job selects it with ``-k quick``).
"""

import json
import pathlib
import re
import time

from repro.api import SynthesisOptions, synthesize
from repro.fuzz import FuzzOptions, run_campaign
from repro.report import format_table
from repro.sim import SimProfile, compile_system

LONG_N = 40_000     # ~160k+ cycles per flow: the steady-state regime
QUICK_N = 6_000     # CI-sized; fixed costs are a visible fraction
LONG_FLOOR = 5.0
QUICK_FLOOR = 2.0

# A register-only kernel every FSMD flow schedules: the fast path.
KERNEL = """
int main(int n) {
    int i;
    int acc = 1;
    for (i = 0; i < n; i = i + 1) {
        acc = (acc + i * i + (acc >> 3)) % 9973;
    }
    return acc;
}
"""

# Memory traffic through a real array: loads and stores every cycle.
MEM_KERNEL = """
int buf[64];
int main(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i = i + 1) {
        buf[i & 63] = buf[(i + 7) & 63] + i;
        s = (s + buf[i & 63]) % 65521;
    }
    return s;
}
"""

# Three machines handshaking every few cycles: the general scheduler.
# main blocks on the completion channel, so the simulation runs until the
# whole pipeline drains rather than ending when main's FSMD finishes.
RENDEZVOUS = """
chan<int> c;
chan<int> done;

process void producer() {
    int i;
    for (i = 0; i < %d; i = i + 1) {
        send(c, i);
    }
}

process void consumer() {
    int i;
    int total = 0;
    for (i = 0; i < %d; i = i + 1) {
        total = (total + recv(c)) %% 9973;
    }
    send(done, total);
}

int main() {
    return recv(done);
}
"""

# Bubble sort over a memory: every index is bounded by a loop guard.
SORT_KERNEL = """
int data[128];
int main(int seed) {
    int h = seed;
    for (int i = 0; i < 128; i++) {
        h = h * 1103515245 + 12345;
        data[i] = (h >> 8) & 1023;
    }
    for (int i = 0; i < 127; i++) {
        for (int j = 0; j < 127 - i; j++) {
            if (data[j] > data[j + 1]) {
                int t = data[j];
                data[j] = data[j + 1];
                data[j + 1] = t;
            }
        }
    }
    int checksum = 0;
    for (int k = 0; k < 128; k++) {
        checksum = checksum + data[k] * (k + 1);
    }
    return checksum;
}
"""

# Euclid's algorithm on positive operands: the remainder's operands are
# proven non-negative and its divisor non-zero.
GCD_KERNEL = """
int main(int seed) {
    int h = seed;
    int total = 0;
    for (int i = 0; i < 800; i++) {
        h = h * 1103515245 + 12345;
        int a = ((h >> 4) & 65535) + 1;
        h = h * 1103515245 + 12345;
        int b = ((h >> 4) & 65535) + 1;
        while (b != 0) {
            int t = b;
            b = a % b;
            a = t;
        }
        total = total + a;
    }
    return total;
}
"""

FAST_FLOWS = ("c2verilog", "cyber", "bachc", "handelc")
COMMITTED = pathlib.Path(__file__).parent / "results" / "BENCH_sim_backends.json"
# What each count matches in the generated code of a design.
_COUNTED = {
    "memory_guards": re.compile(r"0 <= \S+ < _L"),
    "signed_wraps": re.compile(r"\(_w := "),
    "zero_tests": re.compile(r"InterpError\('(?:division|modulo) by zero'\)"),
    "sign_fixups": re.compile(r"= abs\("),
}
_DISPATCH = re.compile(r"^\s*(state|s_\d+) = (\d+)$", re.M)
# A block's or a superblock's budget test: its ``else:`` arm is the
# state-by-state copy that runs only when the budget is about to run out.
_BUDGET_TEST = re.compile(r"\s*if cycle <= _m\d+:$")


def _fast_copy(code):
    """``code`` without the ``else:`` arm of each budget test, so a check
    counts once per path through a block, not once per copy of it."""
    kept, tests, skipping = [], [], None
    for line in code.splitlines():
        indent = len(line) - len(line.lstrip())
        if skipping is not None:
            if indent > skipping:
                continue
            skipping = None
        while tests and indent <= tests[-1]:
            if indent == tests.pop() and line.strip() == "else:":
                skipping = indent
                break
        if skipping is None:
            if _BUDGET_TEST.match(line):
                tests.append(indent)
            kept.append(line)
    return "\n".join(kept)


def _timed(design, backend, args):
    """Best-of-two timed run; returns (result, seconds).  The first
    compiled run also pays one-time specialization, which the plan cache
    then amortizes — exactly the campaign-loop steady state."""
    best = None
    result = None
    for _ in range(2):
        start = time.perf_counter()
        result = design.run(args=args, sim_backend=backend)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _identical(interp, compiled, label):
    assert interp.observable() == compiled.observable(), (
        f"{label}: backends disagree on observables"
    )
    assert interp.cycles == compiled.cycles, (
        f"{label}: backends disagree on cycle count"
    )


def _speedup_table(n, items):
    """rows + per-label speedups + bench metrics for (label, source,
    flow, args) items."""
    rows = []
    speedups = {}
    metrics = {}
    for label, source, flow, args in items:
        design = synthesize(source, SynthesisOptions(flow=flow)).design
        interp, interp_s = _timed(design, "interp", args)
        compiled, compiled_s = _timed(design, "compiled", args)
        _identical(interp, compiled, f"{label}/{flow}")
        speedup = interp_s / compiled_s if compiled_s > 0 else float("inf")
        speedups[label] = speedup
        metrics[f"{label}.interp_kcycles_per_s"] = round(
            interp.cycles / interp_s / 1e3, 1)
        metrics[f"{label}.compiled_kcycles_per_s"] = round(
            interp.cycles / compiled_s / 1e3, 1)
        metrics[f"{label}.speedup"] = round(speedup, 2)
        rows.append([
            label, flow, interp.cycles,
            f"{interp_s * 1e3:.1f}", f"{compiled_s * 1e3:.1f}",
            f"{interp.cycles / interp_s / 1e3:.0f}",
            f"{interp.cycles / compiled_s / 1e3:.0f}",
            f"{speedup:.1f}x",
        ])
    return rows, speedups, metrics


def _items(n):
    rendezvous = RENDEZVOUS % (n // 8, n // 8)
    return (
        [(f"loop/{flow}", KERNEL, flow, (n,)) for flow in FAST_FLOWS]
        + [("memory/c2verilog", MEM_KERNEL, "c2verilog", (n,))]
        + [("rendezvous/specc", rendezvous, "specc", ())]
    )


def _count_items():
    return _items(QUICK_N) + [
        (f"{name}/{flow}", source, flow, ())
        for name, source in (("sort", SORT_KERNEL), ("gcds", GCD_KERNEL))
        for flow in ("c2verilog", "handelc")
    ]


def _specialisation_counts(timings=None):
    """Per design, what its generated code still checks at run time.  With
    ``timings``, also each design's specialisation ms (analysis, code
    generation and ``exec``), into that dict: a host-dependent number, so
    never compared against the committed report."""
    counts = {}
    for label, source, flow, _ in _count_items():
        design = synthesize(source, SynthesisOptions(flow=flow)).design
        plan = compile_system(design.system)
        code = _fast_copy(plan.dump())
        if timings is not None:
            timings[f"{label}.specialise_ms"] = round(plan.compile_s * 1e3, 2)
        for what, pattern in _COUNTED.items():
            counts[f"{label}.{what}"] = len(pattern.findall(code))
        counts[f"{label}.dispatched_blocks"] = len(set(_DISPATCH.findall(code)))
    return counts


def _render(rows, title):
    return format_table(
        ["kernel", "flow", "cycles", "interp ms", "compiled ms",
         "interp kc/s", "compiled kc/s", "speedup"],
        rows,
        title=title,
    )


def _assert_floors(speedups, floor):
    for label, speedup in speedups.items():
        wanted = 1.0 if label.startswith("rendezvous") else floor
        assert speedup >= wanted, (
            f"{label}: {speedup:.2f}x is below the {wanted:.0f}x floor"
        )


def _fuzz_throughput(tmp_path, backend):
    options = FuzzOptions.make(
        flows=["c2verilog"], seeds=24, jobs=1, reduce=False, mutations=1,
        corpus_dir=tmp_path / f"corpus-{backend}", sim_backend=backend,
    )
    report = run_campaign(options)
    assert not report.divergences, (
        f"fuzz campaign under {backend} found divergences — backend bug"
    )
    return report.cells_run / report.elapsed_s


def test_sim_backend_speedup(benchmark, save_report, save_bench, tmp_path):
    rows, speedups, metrics = benchmark.pedantic(
        _speedup_table, args=(LONG_N, _items(LONG_N)), rounds=1, iterations=1
    )
    interp_cps = _fuzz_throughput(tmp_path, "interp")
    compiled_cps = _fuzz_throughput(tmp_path, "compiled")
    text = _render(
        rows,
        f"E15: compiled FSMD backend speedup (n={LONG_N}, floor "
        f"{LONG_FLOOR:.0f}x; fuzz cells/s {interp_cps:.0f} interp -> "
        f"{compiled_cps:.0f} compiled)",
    )
    save_report("e15_sim_backends", text)
    metrics["fuzz_cells_per_s.interp"] = round(interp_cps, 1)
    metrics["fuzz_cells_per_s.compiled"] = round(compiled_cps, 1)
    timings = {}
    metrics.update(_specialisation_counts(timings))
    metrics.update(timings)
    save_bench("sim_backends", metrics=metrics,
               config={"n": LONG_N, "floor": LONG_FLOOR, "exhibit": "E15"})
    _assert_floors(speedups, LONG_FLOOR)


def test_sim_backend_speedup_quick(benchmark, save_report):
    """CI-sized variant: short kernels, a 2x floor.  Uploaded as the PR
    speedup-table artifact by the bench-sim-backends workflow job."""
    rows, speedups, _ = benchmark.pedantic(
        _speedup_table, args=(QUICK_N, _items(QUICK_N)), rounds=1,
        iterations=1,
    )
    text = _render(
        rows,
        f"E15 (quick): compiled FSMD backend speedup (n={QUICK_N}, "
        f"floor {QUICK_FLOOR:.0f}x)",
    )
    save_report("e15_sim_backends_quick", text)
    _assert_floors(speedups, QUICK_FLOOR)


def test_quick_specialisation_counts_do_not_rise():
    """Each design checks no more at run time than the committed report
    says: a guard, wrap or dispatch the engine stops proving away fails
    here on any host."""
    committed = json.loads(COMMITTED.read_text())["metrics"]
    counts = _specialisation_counts()
    assert counts["sort/c2verilog.memory_guards"] == 0
    assert counts["gcds/c2verilog.sign_fixups"] == 0
    assert counts["gcds/handelc.sign_fixups"] == 0
    risen = {key: (committed.get(key), value)
             for key, value in counts.items()
             if key not in committed or value > committed[key]}
    assert not risen, f"counts above the committed report: {risen}"


def test_profiler_overhead_is_bounded():
    """Profiling both backends keeps results identical and costs at most
    a few x; the histograms it returns match cycle counts exactly."""
    design = synthesize(KERNEL, SynthesisOptions(flow="c2verilog")).design
    plain = design.run(args=(QUICK_N,), sim_backend="compiled")
    profile = SimProfile()
    profiled = design.run(args=(QUICK_N,), sim_backend="compiled",
                          sim_profile=profile)
    assert plain.observable() == profiled.observable()
    assert profile.cycles == plain.cycles
    total_visits = sum(
        count
        for states in profile.state_visits.values()
        for count in states.values()
    )
    assert total_visits == profile.cycles
