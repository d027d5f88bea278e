#!/usr/bin/env python
"""CSP-style concurrency: a three-stage process pipeline with rendezvous
channels, in the languages that can express it.

The program below is the paper's "explicit concurrency" world: three
``process`` functions connected by channels, each synthesized into its own
FSMD; the machines run in lockstep and synchronize on every transfer.
Languages without channels (C2Verilog, CASH, Cones, Transmogrifier C)
cannot even express it — exactly the expressiveness split Table 1 draws.

Run:  python examples/producer_consumer_csp.py
"""

from repro.api import synthesize
from repro.flows import FlowError, UnsupportedFeature
from repro.interp import run_source
from repro.report import format_table

SOURCE = """
chan<int> raw;
chan<int> cooked;

process void producer() {
    for (int i = 0; i < 8; i++) {
        send(raw, i * i);
    }
}

process void filter() {
    for (int i = 0; i < 8; i++) {
        int v = recv(raw);
        delay(2);               // model a slow processing stage
        send(cooked, v + 100);
    }
}

int main() {
    int total = 0;
    for (int i = 0; i < 8; i++) {
        int v = recv(cooked);
        total += v;
    }
    return total;
}
"""


def main() -> None:
    golden = run_source(SOURCE)
    print(f"golden model: total = {golden.value}")
    print(f"channel traffic: raw={golden.channel_log['raw']}")
    print(f"                 cooked={golden.channel_log['cooked']}\n")

    rows = []
    for flow in ("handelc", "bachc", "hardwarec", "systemc", "cyber",
                 "c2verilog", "cash"):
        try:
            design = synthesize(SOURCE, flow=flow).design
        except (UnsupportedFeature, FlowError) as rejection:
            rows.append([flow, "rejected",
                         str(rejection).split("] ", 1)[-1][:52]])
            continue
        result = design.run()
        assert result.value == golden.value
        assert result.channel_log == golden.channel_log
        rows.append([
            flow, f"{result.cycles} cycles",
            f"{result.stats.get('stall_cycles', 0)} stall cycles"
            " (rendezvous back-pressure)",
        ])
    print(format_table(["flow", "result", "notes"], rows))


if __name__ == "__main__":
    main()
