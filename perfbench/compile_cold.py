"""compile-cold: every suite kernel through every flow, nothing reused.

Each round redraws the array initializers of all eighteen suite kernels
from the seed and compiles every (kernel, flow) pair once, in a seeded
order.  An operation is what a user waits for at the command line:
source to a priced design with its Verilog (``synthesize``, ``cost``,
``verilog``), or the flow's rejection of a construct it lacks (the
paper's Table 1 restrictions).  No two operations see the same program
text, so no cache at any level can answer one.  Only whole rounds run,
so every run times the same mix of kernels and flows.

Checks: every round gives each pair the same verdict; in the first round
every rejection is one the linter predicts, and every compiled design
simulates, on both FSMD engines, to the golden interpreter's
observables.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.analysis.lint import lint
from repro.api import SynthesisOptions, synthesize
from repro.flows import COMPILABLE, FlowError
from repro.interp import run_program
from repro.lang import parse
from repro.runner.cells import canonical_observable
from repro.trace import TraceContext
from repro.workloads import WORKLOADS

import common


def compile_design(source, flow, trace):
    """Source to a priced design with its RTL; None if the flow rejects
    the program."""
    try:
        result = synthesize(source, SynthesisOptions(flow=flow), trace=trace)
    except FlowError:
        return None
    result.cost()
    try:
        result.verilog()
    except NotImplementedError:     # CASH's asynchronous dataflow
        pass
    return result


class Bench(common.Bench):
    def prepare(self):
        self.pairs = [(w, flow) for w in WORKLOADS for flow in COMPILABLE]
        self.compiled = {}          # (kernel, flow) -> first-round verdict
        self.first_round = []

    def setup(self):
        # The first compile in a process pays lazy imports and first-use
        # set-up; a user pays that once, before any real work.
        compile_design(WORKLOADS[0].source, "c2verilog", None)

    def run(self, seconds):
        started = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - started < seconds:
            rng = random.Random(f"compile-cold:{self.seed}:{rounds}")
            sources = {
                w.name: common.perturb_initializers(w.source, rng)
                for w in WORKLOADS
            }
            order = list(self.pairs)
            rng.shuffle(order)
            for workload, flow in order:
                trace = (TraceContext(f"{workload.name}:{flow}")
                         if self.trace else None)
                t0 = time.perf_counter()
                result = compile_design(sources[workload.name], flow, trace)
                latency = time.perf_counter() - t0
                first = self.compiled.setdefault(
                    (workload.name, flow), result is not None)
                self.record(latency, first == (result is not None))
                if rounds == 0:
                    self.first_round.append(
                        (workload, flow, sources[workload.name], result, trace))
                elif trace is not None:
                    self.ledger.add(trace.to_dict())
            rounds += 1
        self.wall_s = time.perf_counter() - started

    def check(self):
        good = True
        clean, golden = {}, {}
        for workload, flow, source, result, trace in self.first_round:
            if workload.name not in clean:
                report = lint(source)
                clean[workload.name] = {f for f in COMPILABLE
                                        if report.is_clean(f)}
                program, info = parse(source)
                golden[workload.name] = canonical_observable(run_program(
                    program, info, "main", workload.args).observable())
            ok = (result is not None) == (flow in clean[workload.name])
            if result is not None:
                for engine in ("interp", "compiled"):
                    run = replace(
                        result, options=result.options.with_(sim_backend=engine)
                    ).run(args=workload.args)
                    ok = ok and (canonical_observable(run.observable())
                                 == golden[workload.name])
            if not ok:
                self.failed += 1
                good = False
            if trace is not None:
                self.ledger.add(trace.to_dict())
        return good
