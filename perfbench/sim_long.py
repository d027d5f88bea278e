"""sim-long: long simulations of designs compiled once.

Set-up compiles eight designs to priced RTL, as a user does once before
simulating many inputs: four kernels that run for thousands of cycles
(a scalar recurrence, a sort, a loop of Euclid runs and a three-process
channel pipeline), each through two flows.  An operation is one
simulation of one design on the specialising FSMD engine, for an
argument freshly drawn from the seed; a round runs every design once,
and only whole rounds run.

Checks: every operation of the first round, and a seeded sample of the
later ones, gives the golden interpreter's observables; the first round
also matches the reference FSMD engine in value and cycle count.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from repro.api import SynthesisOptions, synthesize
from repro.interp import run_program
from repro.lang import parse
from repro.runner.cells import canonical_observable
from repro.trace import TraceContext

import common

KERNELS = {
    "lcg": """
int main(int seed) {
    int h = seed;
    int acc = 0;
    for (int i = 0; i < 6000; i++) {
        h = h * 1103515245 + 12345;
        acc = acc ^ ((h >> 9) & 65535);
        acc = acc + (i & 7);
    }
    return acc;
}
""",
    "sort": """
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
""",
    "gcds": """
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
""",
    "stream": """
chan<int> ctl;
chan<int> raw;
chan<int> smooth;
process void producer() {
    int h = recv(ctl);
    for (int i = 0; i < 800; i++) {
        h = h * 1103515245 + 12345;
        send(raw, (h >> 12) & 255);
    }
}
process void filter() {
    int prev = 0;
    for (int i = 0; i < 800; i++) {
        int v = recv(raw);
        send(smooth, (v + prev) >> 1);
        prev = v;
    }
}
int main(int seed) {
    send(ctl, seed);
    int acc = 0;
    for (int i = 0; i < 800; i++) {
        int v = recv(smooth);
        acc = acc + v;
    }
    return acc;
}
""",
}

DESIGNS = (
    ("lcg", "handelc"), ("lcg", "c2verilog"),
    ("sort", "handelc"), ("sort", "c2verilog"),
    ("gcds", "handelc"), ("gcds", "c2verilog"),
    ("stream", "handelc"), ("stream", "specc"),
)
ENGINE = "compiled"
LATER_SAMPLES = 4


class Bench(common.Bench):
    def setup(self):
        self.designs = []
        for kernel, flow in DESIGNS:
            trace = TraceContext(f"{kernel}:{flow}") if self.trace else None
            result = synthesize(
                KERNELS[kernel],
                SynthesisOptions(flow=flow, sim_backend=ENGINE),
                trace=trace,
            )
            result.cost()
            result.verilog()
            self.designs.append((kernel, result))
        self.ran = []       # (design index, args, observable, cycles)

    def run(self, seconds):
        started = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - started < seconds:
            rng = random.Random(f"sim-long:{self.seed}:{rounds}")
            for index, (_, result) in enumerate(self.designs):
                args = (rng.randrange(1, 1 << 30),)
                t0 = time.perf_counter()
                run = result.run(args=args)
                self.record(time.perf_counter() - t0, True)
                self.ran.append((index, args,
                                 canonical_observable(run.observable()),
                                 run.cycles))
            rounds += 1
        self.wall_s = time.perf_counter() - started

    def check(self):
        first = self.ran[:len(self.designs)]
        later = self.ran[len(self.designs):]
        rng = random.Random(f"sim-long-check:{self.seed}")
        sampled = first + rng.sample(later, min(LATER_SAMPLES, len(later)))
        parsed = {}
        good = True
        for position, (index, args, observable, cycles) in enumerate(sampled):
            kernel, result = self.designs[index]
            if kernel not in parsed:
                parsed[kernel] = parse(KERNELS[kernel])
            program, info = parsed[kernel]
            golden = run_program(program, info, "main", args)
            ok = canonical_observable(golden.observable()) == observable
            if position < len(first):
                reference = replace(
                    result, options=result.options.with_(sim_backend="interp")
                ).run(args=args)
                ok = ok and reference.cycles == cycles and (
                    canonical_observable(reference.observable()) == observable)
            if not ok:
                self.failed += 1
                good = False
        return good

    def layers(self):
        for _, result in self.designs:
            self.ledger.add(result.trace.to_dict())
        return self.ledger.metrics()
