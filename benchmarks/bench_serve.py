"""E20: the serving tier's dedup under a zipfian duplicate-heavy load.

The serving layer exists because real synthesis request streams are
duplicate-heavy: a few hot kernels hammered repeatedly (design-space
sweeps, CI re-runs, classroom submissions), with a long cold tail.  This
benchmark replays exactly that shape — a zipfian schedule over a small
distinct corpus — against two implementations of "answer N synthesis
requests":

* **server** — ``repro.serve`` with all three dedup tiers live (warm
  artifact cache, in-flight coalescing, bounded compile pool), driven
  over real sockets by the async load generator.
* **serial baseline** — the no-dedup strawman: every request compiles
  from scratch via :func:`execute_cell`, one after another, the way a
  shell loop around ``repro synthesize --no-cache`` would.

Acceptance (ISSUE 9): server throughput >= 5x the serial baseline, with
p50/p99 and hit/coalesce rates recorded in ``BENCH_serve.json``.
"""

import asyncio
import os
from time import perf_counter

from repro.report import format_table
from repro.runner import cell_key, cell_payload, environment_salt, execute_cell
from repro.runner.cells import CellTask
from repro.serve import (
    ServeConfig,
    ServeLimits,
    SynthesisServer,
    parse_synthesize,
    run_load,
    zipfian_schedule,
)

# Non-trivial kernels: each parses, schedules, binds, and simulates a
# few thousand FSMD cycles, so a cold compile costs real milliseconds —
# the regime the dedup tiers are built for.
SOURCES = [
    "int main() { int s = 0; for (int i = 0; i < 96; i = i + 1)"
    " { for (int j = 0; j < 8; j = j + 1) { s = s + i * j + %d; } }"
    " return s; }" % n
    for n in (1, 2, 3, 5)
]
FLOWS = ("handelc", "c2verilog")

DISTINCT = [
    {"source": source, "flow": flow, "args": []}
    for source in SOURCES
    for flow in FLOWS
]

N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_N", "240"))
CONCURRENCY = int(os.environ.get("REPRO_BENCH_SERVE_CONCURRENCY", "8"))
ZIPF_S = 1.2
BASELINE_PREFIX = min(32, N_REQUESTS)


def serial_no_dedup_rps(schedule):
    """Requests/sec of the strawman: compile every request, serially.

    Timed over a prefix of the same stream the server sees (the zipfian
    draw is deterministic, so both sides replay identical requests) and
    reported as a rate, which extrapolates to the full stream because
    the baseline by construction does the same work for every request."""
    limits = ServeLimits()
    salt = environment_salt()
    t0 = perf_counter()
    for body in schedule[:BASELINE_PREFIX]:
        request = parse_synthesize(body, limits)
        task = CellTask("bench", request.source, request.options,
                        request.args)
        [result] = execute_cell(cell_payload(
            task, cell_key(task, salt=salt),
            timeout_s=20.0, max_cycles=2_000_000,
        ))
        assert result["verdict"] == "ok", result
    elapsed = perf_counter() - t0
    return BASELINE_PREFIX / elapsed


async def timed_server_run(schedule, cache_dir):
    config = ServeConfig(
        port=0, jobs=2, queue_limit=64, cache_dir=cache_dir,
        drain_grace_s=15.0,
    )
    server = SynthesisServer(config)
    await server.start()
    try:
        report = await run_load(
            server.host, server.port, schedule,
            concurrency=CONCURRENCY, client_id="bench",
        )
    finally:
        await server.drain()
    return report


def test_serve_zipfian_dedup_speedup(benchmark, save_report, save_bench,
                                     tmp_path):
    schedule = zipfian_schedule(DISTINCT, n=N_REQUESTS, s=ZIPF_S, seed=7)

    report = benchmark.pedantic(
        lambda: asyncio.run(
            timed_server_run(schedule, tmp_path / "serve-cache")
        ),
        rounds=1, iterations=1,
    )
    baseline_rps = serial_no_dedup_rps(schedule)
    speedup = report.rps / baseline_rps if baseline_rps else 0.0

    dedup = report.server_stats["dedup"]
    warm = dedup["hits"] + dedup["coalesced"]
    answered = warm + dedup["compiles"]

    rows = [
        ["server (3-tier dedup)", N_REQUESTS, f"{report.rps:.1f}",
         f"{report.percentile_ms(50):.2f}", f"{report.percentile_ms(99):.2f}",
         f"{warm / answered:.2%}"],
        ["serial no-dedup", BASELINE_PREFIX, f"{baseline_rps:.1f}",
         "-", "-", "0.00%"],
    ]
    text = format_table(
        ["mode", "requests", "req/s", "p50 ms", "p99 ms", "warm ratio"],
        rows,
        title=(
            f"E20: zipfian(s={ZIPF_S}) load, {len(DISTINCT)} distinct x "
            f"{N_REQUESTS} requests, {CONCURRENCY} clients — "
            f"{speedup:.1f}x over serial no-dedup"
        ),
    )
    save_report("e20_serve", text)
    save_bench(
        "serve",
        metrics={
            "rps": round(report.rps, 2),
            "p50_ms": round(report.percentile_ms(50), 3),
            "p99_ms": round(report.percentile_ms(99), 3),
            "baseline_rps": round(baseline_rps, 2),
            "speedup": round(speedup, 2),
            "hits": dedup["hits"],
            "coalesced": dedup["coalesced"],
            "compiles": dedup["compiles"],
            "warm_ratio": round(warm / answered, 4),
            "count_5xx": report.count_5xx(),
            "transport_errors": report.transport_errors,
        },
        config={
            "requests": N_REQUESTS,
            "distinct": len(DISTINCT),
            "zipf_s": ZIPF_S,
            "concurrency": CONCURRENCY,
            "baseline_requests": BASELINE_PREFIX,
            "flows": list(FLOWS),
        },
    )

    # Correctness of the run itself.
    assert report.transport_errors == 0
    assert report.count_5xx() == 0, report.status_counts
    assert answered == N_REQUESTS
    # Every distinct key compiles at most once; the zipfian tail may not
    # draw every key, so <= rather than ==.
    assert dedup["compiles"] <= len(DISTINCT)
    assert warm / answered > 0.5

    # The headline acceptance bar: dedup buys >= 5x over serial no-dedup.
    assert speedup >= 5.0, (
        f"server {report.rps:.1f} req/s vs baseline {baseline_rps:.1f} "
        f"req/s = {speedup:.2f}x (< 5x)"
    )
