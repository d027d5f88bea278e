"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run FILE --flow KEY [--args N,N,...] [--profile] [--trace OUT.json]``
    Compile and simulate a program; prints value, cycles, cost, and
    (with ``--profile``) the simulation profile, which names the FSMD
    engine the simulator picked.  ``--trace`` records every pipeline phase (parse through sim) and
    writes a Chrome trace_event file for Perfetto.
``compile FILE --flow KEY [-o OUT.v]``
    Compile and emit Verilog.
``matrix FILE [--args ...] [--lint] [--jobs N] [--cache-dir D | --no-cache]
[--trace-summary]``
    Run one program through every flow, printing the comparison table
    with per-cell wall-clock times.  ``--lint`` pre-flights each flow with
    the linter and skips compiles the linter already rejects.
    ``--trace-summary`` traces every cell and aggregates the per-flow,
    per-phase wall-time table.  Exits nonzero if any flow errors, times
    out, or mismatches the golden model (historical rejections are
    expected and exit zero).
``sweep [--jobs N] [--cache-dir D | --no-cache] [--flows ...] [--workloads ...]``
    The full workload × flow matrix through the parallel runner with the
    content-addressed artifact cache; unchanged cells replay from disk.
``lint FILE [--flow KEY | --all] [--format text|json]``
    Predict, per flow, what compile would reject — with rule ids, source
    locations, and fix hints — without running any backend.  ``--format
    json`` emits the machine-readable report (rule id, severity,
    file:line:col, fix hint per diagnostic, verdict per flow).
``check FILE [--flow KEY | --all] [--pipeline-ii N] [--format text|json]``
    The time-sensitive tier: everything ``lint`` checks plus the TIM
    rules — schedule-aware timing/resource obligations (within-budget
    feasibility, rendezvous deadlock shape, lockstep ``par`` conflicts,
    memory-port occupancy, pipeline II floors with ``--pipeline-ii``).
``fuzz [--flows ...] [--seeds N] [--seed-base N] [--time-budget S]
[--jobs N] [--no-reduce] [--update-corpus] [--corpus-dir D]
[--opt-levels 0,2]``
    Differential fuzz campaign: generate programs targeted at each flow's
    accepted subset (every fourth seed probes the reject boundary), derive
    semantics-preserving mutants, run everything through the shared
    engine, reduce divergences to 1-minimal reproducers, and compare
    their signatures against the triaged corpus.  Exits nonzero only on
    divergences the corpus has never seen.
``serve [--host H] [--port P] [--jobs N] [--queue-limit N] [--rate R]
[--burst B] [--timeout S] [--cache-dir D | --no-cache] [--trace OUT.json]``
    Synthesis-as-a-service: an asyncio HTTP/JSON server exposing
    ``/synthesize``, ``/check``, and ``/lint``.  Requests are validated
    into ``SynthesisOptions``, keyed by the artifact cache's content
    address, and deduplicated three ways (warm cache hits, in-flight
    coalescing, bounded pool dispatch).  ``/stats`` reports hit/coalesce/
    miss counters, queue depth, and latency histograms; SIGTERM drains
    gracefully.  See docs/serving.md.
``cache stats|prune|clear [--cache-dir D] [--max-bytes N]``
    Inspect and bound the artifact cache: ``stats`` prints entry count
    and total bytes, ``prune --max-bytes N`` deletes oldest-mtime entries
    (LRU) until the cache fits (N accepts K/M/G suffixes), ``clear``
    removes everything.
``table1``
    Print the regenerated Table 1.
``flows``
    List the registered flows with their concurrency/timing axes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

# Only what building the parser needs: each command imports the
# compiler, runner or server it runs.
from .api import (
    DEFAULT_OPT_LEVEL,
    OPT_LEVELS,
    SynthesisOptions,
    synthesize,
)
from .flows.registry import COMPILABLE, FLOW_TABLE
from .report import format_cell_results, format_table

FLOW_KEYS = sorted(key for key, _, _ in FLOW_TABLE)


def _parse_args_list(text: Optional[str]) -> Tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def cmd_run(options: argparse.Namespace) -> int:
    source = _read(options.file)
    args = _parse_args_list(options.args)
    compiled = synthesize(source, SynthesisOptions(
        flow=options.flow, function=options.function,
        trace=bool(options.trace),
    ))
    profile = None
    if options.profile:
        from .sim import SimProfile

        profile = SimProfile()
    result = compiled.run(args=args, sim_profile=profile)
    cost = compiled.cost()
    if options.trace:
        from .flows.base import FlowError

        try:
            compiled.verilog()
        except (NotImplementedError, FlowError):
            pass  # unemittable designs still get the rest of the trace
        compiled.trace.write_chrome(options.trace)
    print(f"value      : {result.value}")
    if cost.clock_ns > 0:
        print(f"cycles     : {result.cycles}")
        print(f"clock      : {cost.clock_ns:.2f} ns  "
              f"({cost.fmax_mhz:.0f} MHz)")
        print(f"latency    : {result.cycles * cost.clock_ns:.1f} ns")
    else:
        print(f"latency    : {result.time_ns:.1f} ns (unclocked)")
    print(f"area       : {cost.area_ge:.0f} GE")
    if result.globals:
        print(f"globals    : {result.globals}")
    if result.channel_log:
        print(f"channels   : {result.channel_log}")
    if profile is not None and profile.cycles:
        print()
        print(profile.render())
    if options.trace:
        spans = compiled.trace.span_count()
        print(f"trace      : {options.trace} ({spans} spans)")
    return 0


def cmd_compile(options: argparse.Namespace) -> int:
    source = _read(options.file)
    compiled = synthesize(source, SynthesisOptions(
        flow=options.flow, function=options.function,
    ))
    verilog = compiled.verilog()
    if options.output:
        with open(options.output, "w") as handle:
            handle.write(verilog + "\n")
        print(f"wrote {options.output} ({len(verilog.splitlines())} lines)")
    else:
        print(verilog)
    return 0


def _selected_flows(options: argparse.Namespace) -> List[str]:
    if options.flow and not options.all:
        return [options.flow]
    return list(COMPILABLE)


def _print_report(report, selected, options, title: str) -> int:
    """Shared lint/check output: a per-flow verdict table plus rendered
    diagnostics, or the machine-readable JSON report with ``--format
    json``.  Exit code is 1 when a single requested flow has errors."""
    if getattr(options, "format", "text") == "json":
        print(report.to_json())
    else:
        summary: List[List[object]] = []
        for key in selected:
            errors = report.errors(key)
            warnings = report.warnings(key)
            if errors:
                verdict = "reject"
                first = f"{errors[0].rule}: {errors[0].message}"[:52]
            elif warnings:
                verdict = "warn"
                first = f"{warnings[0].rule}: {warnings[0].message}"[:52]
            else:
                verdict = "clean"
                first = ""
            summary.append([key, verdict, len(errors), len(warnings), first])
        print(format_table(
            ["flow", "verdict", "errors", "warnings", "first diagnostic"],
            summary,
            title=title,
        ))
        if report.diagnostics:
            print()
            print(report.render())
    if options.flow and not options.all:
        return 1 if report.errors(options.flow) else 0
    return 0


def cmd_lint(options: argparse.Namespace) -> int:
    from .analysis.lint import lint

    source = _read(options.file)
    selected = _selected_flows(options)
    report = lint(source, flows=selected, function=options.function,
                  filename=options.file)
    return _print_report(report, selected, options,
                         title=f"lint: {options.file}")


def cmd_check(options: argparse.Namespace) -> int:
    from .analysis.timing import CheckOptions, check

    source = _read(options.file)
    selected = _selected_flows(options)
    check_options = CheckOptions(
        pipeline_ii=options.pipeline_ii,
        clock_budget_ns=options.clock_budget,
        memory_ports=options.memory_ports,
    )
    report = check(source, flows=selected, function=options.function,
                   filename=options.file, options=check_options)
    return _print_report(report, selected, options,
                         title=f"check: {options.file}")


def _make_cache(options: argparse.Namespace):
    from .runner import DEFAULT_CACHE_DIR, ArtifactCache

    if getattr(options, "no_cache", False):
        return None
    return ArtifactCache(getattr(options, "cache_dir", None) or DEFAULT_CACHE_DIR)


def _make_engine(options: argparse.Namespace):
    from .runner import MatrixEngine

    return MatrixEngine(
        jobs=getattr(options, "jobs", 1),
        cache=_make_cache(options),
        timeout_s=getattr(options, "timeout", None) or 60.0,
        trace=getattr(options, "trace_summary", False),
    )


def _print_summary(results, engine) -> None:
    from .report import summarize_cells

    summary = summarize_cells(results)
    verdicts = "  ".join(
        f"{name}: {count}" for name, count in sorted(summary["verdicts"].items())
    )
    line = (
        f"\n{summary['cells']} cells ({verdicts})"
        f"  |  {summary['cached']} cached / {summary['fresh']} fresh"
        f"  |  cell wall time {summary['wall_s']:.2f}s"
    )
    if engine.cache is not None:
        cache = engine.cache
        line += (f"  |  cache: {cache.hits} hits, {cache.misses} misses,"
                 f" {cache.write_errors} write errors")
    print(line)


def cmd_matrix(options: argparse.Namespace) -> int:
    from .runner import file_tasks, golden_observable
    from .runner.engine import CellTimeout

    source = _read(options.file)
    args = _parse_args_list(options.args)
    engine = _make_engine(options)
    try:
        golden = golden_observable(source, options.function, args,
                                   timeout_s=engine.timeout_s)
        print("golden model: interpreter could not run this program"
              if golden is None else f"golden model: value = {golden.value}\n")
    except CellTimeout:
        print(f"golden model: no answer within {engine.timeout_s} s\n")

    selected = list(COMPILABLE)
    lint_cells = []
    if options.lint or options.check:
        from .runner import CellResult

        if options.check:
            from .analysis.timing import check as run_check

            label = "check:reject"
            report = run_check(source, flows=selected,
                               function=options.function,
                               filename=options.file)
        else:
            from .analysis.lint import lint

            label = "lint:reject"
            report = lint(source, flows=selected, function=options.function,
                          filename=options.file)
        for key in list(selected):
            if not report.is_clean(key):
                first = report.errors(key)[0]
                lint_cells.append(CellResult(
                    workload=options.file, flow=key, args=args,
                    verdict=label,
                    diagnostics=[f"{first.rule}: {first.message}"],
                ))
                selected.remove(key)

    tasks = file_tasks(source, name=options.file, flows=selected, args=args,
                       base=SynthesisOptions(
                           function=options.function,
                           opt_level=options.opt_level,
                       ))
    results = engine.run_cells(tasks)
    print(format_cell_results(results + lint_cells, show_workload=False))
    if options.trace_summary:
        from .report import format_trace_summary

        print()
        print(format_trace_summary(results, title="phase wall time by flow"))
    _print_summary(results, engine)
    # Historical rejections are the paper working as documented; anything
    # else (error, timeout, golden-model mismatch) fails the run.
    return 1 if any(cell.unexpected for cell in results) else 0


def cmd_sweep(options: argparse.Namespace) -> int:
    from .report import summarize_cells
    from .runner import suite_tasks
    from .workloads import suite as workload_suite

    flows = None
    if options.flows:
        flows = [key.strip() for key in options.flows.split(",") if key.strip()]
        for key in flows:
            if key not in FLOW_KEYS:
                print(f"error: unknown flow {key!r}", file=sys.stderr)
                return 2
    workloads = None
    if options.workloads:
        names = [n.strip() for n in options.workloads.split(",") if n.strip()]
        try:
            workloads = [workload_suite.get(name) for name in names]
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    engine = _make_engine(options)
    tasks = suite_tasks(workloads=workloads, flows=flows,
                        base=SynthesisOptions(opt_level=options.opt_level))
    results = engine.run_cells(tasks)
    print(format_cell_results(
        results,
        title=f"sweep: {len(results)} cells, jobs={engine.jobs}",
    ))
    if options.trace_summary:
        from .report import format_trace_summary

        print()
        print(format_trace_summary(results, title="phase wall time by flow"))
    _print_summary(results, engine)
    summary = summarize_cells(results)
    return 1 if summary["unexpected"] else 0


def cmd_fuzz(options: argparse.Namespace) -> int:
    from .fuzz import FuzzOptions, promote, run_campaign
    from .fuzz.options import DEFAULT_CORPUS

    flows = None
    if options.flows and options.flows != "all":
        flows = [key.strip() for key in options.flows.split(",") if key.strip()]
        for key in flows:
            if key not in COMPILABLE:
                print(f"error: unknown flow {key!r}", file=sys.stderr)
                return 2

    cache_dir = ""
    if not options.no_cache:
        from .runner import DEFAULT_CACHE_DIR

        cache_dir = str(options.cache_dir or DEFAULT_CACHE_DIR)

    opt_levels = ()
    if options.opt_levels:
        try:
            opt_levels = tuple(
                int(part) for part in options.opt_levels.split(",") if part
            )
            if not set(opt_levels) <= set(OPT_LEVELS):
                raise ValueError
        except ValueError:
            print(f"error: bad --opt-levels {options.opt_levels!r}"
                  f" (levels are {list(OPT_LEVELS)})", file=sys.stderr)
            return 2

    profiles = tuple(
        part.strip() for part in (options.profiles or "").split(",")
        if part.strip()
    )
    if options.shard_index is not None and options.shards <= 1:
        print("error: --shard-index needs --shards > 1", file=sys.stderr)
        return 2

    fuzz_options = FuzzOptions(
        flows=tuple(flows) if flows is not None else None,
        profiles=profiles,
        seeds=options.seeds,
        seed_base=options.seed_base,
        campaign_seed=options.campaign_seed,
        jobs=options.jobs,
        time_budget_s=options.time_budget or 0.0,
        reduce=not options.no_reduce,
        mutations=options.mutations,
        timeout_s=options.timeout or 20.0,
        cache_dir=cache_dir,
        corpus_dir=options.corpus_dir or DEFAULT_CORPUS,
        input_lanes=max(1, options.input_lanes),
        opt_levels=opt_levels,
        shards=max(1, options.shards),
        shard_index=options.shard_index,
        shard_dir=options.shard_dir or "",
    )
    report = run_campaign(fuzz_options)

    if options.format == "json":
        print(report.to_json(), end="")
    else:
        print("\n".join(report.summary_lines()))
        if report.budget_exhausted:
            print(f"(stopped at --time-budget {options.time_budget}s)")
        for divergence in report.divergences:
            print()
            print(divergence.describe())

    if options.update_corpus and report.divergences:
        # Shard-delta mode writes only this run's *new* signatures into
        # the shard dir; the merge step folds them into the corpus.
        only = (
            set(report.new_signatures)
            if fuzz_options.shard_dir else None
        )
        written = promote(report, fuzz_options.promote_path, only=only)
        for relative in written:
            print(f"corpus += {relative}", file=sys.stderr
                  if options.format == "json" else sys.stdout)

    if options.format != "json":
        if report.known_signatures:
            print(f"\n{len(report.known_signatures)} known signature(s) "
                  "already triaged in the corpus")
        if report.new_signatures:
            print(f"\n{len(report.new_signatures)} NEW divergence "
                  "signature(s) not in the corpus:")
            for signature_id in report.new_signatures:
                print(f"  {signature_id}")
            if options.update_corpus:
                print("triaged; review and commit the new entries")
            else:
                print("re-run with --update-corpus to triage them into"
                      f" {fuzz_options.promote_path}/")
    for corrupt in report.corrupt_entries:
        print(f"error: corrupt corpus entry {corrupt}", file=sys.stderr)
    if report.corrupt_entries:
        return 1
    if report.new_signatures and not options.update_corpus:
        return 1
    # A shard whose worker died or raised left its slice unexplored.
    return 1 if any(row["error"] for row in report.shard_reports) else 0


def cmd_fuzz_merge(options: argparse.Namespace) -> int:
    from .fuzz import merge_corpus_dirs
    from .fuzz.options import DEFAULT_CORPUS

    report = merge_corpus_dirs(options.sources,
                               options.dest or DEFAULT_CORPUS)
    for relative in report.copied:
        print(f"corpus += {relative}")
    for relative in report.conflicts:
        print(f"conflict (smaller bytes kept): {relative}")
    for path in report.failed:
        print(f"error: could not merge {path}", file=sys.stderr)
    print(report.summary())
    return 1 if report.failed else 0


def cmd_serve(options: argparse.Namespace) -> int:
    from .serve import ServeConfig
    from .serve import run as serve_run

    config = ServeConfig(
        host=options.host,
        port=options.port,
        jobs=max(1, options.jobs),
        queue_limit=options.queue_limit,
        rate=options.rate,
        burst=options.burst,
        timeout_s=options.timeout or 20.0,
        max_source_bytes=_parse_bytes(options.max_source),
        cache_dir=options.cache_dir,
        no_cache=options.no_cache,
        trace_out=options.trace,
        drain_grace_s=options.drain_grace,
    )
    return serve_run(config)


def _parse_bytes(text: str) -> int:
    """``"64K"``/``"512M"``/``"2G"`` (or a plain integer) to bytes."""
    value = str(text).strip().upper()
    scale = 1
    for suffix, factor in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if value.endswith(suffix):
            value, scale = value[: -len(suffix)], factor
            break
    try:
        return int(float(value) * scale)
    except ValueError:
        raise SystemExit(f"error: bad byte size {text!r} (use e.g. 500M)")


def cmd_cache(options: argparse.Namespace) -> int:
    import json as json_module

    from .runner import DEFAULT_CACHE_DIR, ArtifactCache

    cache = ArtifactCache(options.cache_dir or DEFAULT_CACHE_DIR)
    if options.cache_command == "stats":
        stats = cache.stats()
        if options.format == "json":
            print(json_module.dumps(stats.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"cache root : {stats.root}")
            print(f"entries    : {stats.entries}")
            print(f"total size : {stats.total_bytes} bytes"
                  f" ({stats.total_bytes / (1 << 20):.2f} MiB)")
            if stats.orphan_tmp_files:
                print(f"orphan tmp : {stats.orphan_tmp_files}"
                      " (a prune sweeps ones older than an hour)")
        return 0
    if options.cache_command == "prune":
        report = cache.prune(_parse_bytes(options.max_bytes))
        if options.format == "json":
            print(json_module.dumps(report.to_dict(), indent=2,
                                    sort_keys=True))
        else:
            print(f"pruned {report.removed} entr"
                  f"{'y' if report.removed == 1 else 'ies'}"
                  f" ({report.freed_bytes} bytes); kept {report.kept}"
                  f" ({report.kept_bytes} bytes <= {report.max_bytes})")
            if report.tmp_swept:
                print(f"swept {report.tmp_swept} orphaned tmp file(s)")
        return 0
    removed = cache.clear()
    print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def cmd_table1(_: argparse.Namespace) -> int:
    from .flows.registry import table1_rows

    rows = table1_rows()
    print(format_table(
        ["language", "year", "note", "concurrency", "timing"],
        [[r["language"], r["year"], r["note"], r["concurrency"], r["timing"]]
         for r in rows],
        title="Table 1: C-like languages/compilers (chronological order)",
    ))
    return 0


def cmd_flows(_: argparse.Namespace) -> int:
    from .flows.registry import REGISTRY

    rows = []
    for key, flow in REGISTRY.items():
        meta = flow.metadata
        rows.append([key, meta.title, meta.concurrency_detail[:44],
                     meta.timing_detail[:44]])
    print(format_table(["key", "language", "concurrency", "timing"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="C-like hardware synthesis framework"
                    " (Edwards, DATE 2005, reproduced)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compile and simulate")
    run_parser.add_argument("file")
    run_parser.add_argument("--flow", default="c2verilog",
                            choices=FLOW_KEYS)
    run_parser.add_argument("--function", default="main")
    run_parser.add_argument("--args", help="comma-separated integers")
    run_parser.add_argument(
        "--profile", action="store_true",
        help="print the simulation profile (cycles/sec, hot states)",
    )
    run_parser.add_argument(
        "--trace", metavar="OUT.json",
        help="record a phase trace of the whole pipeline and write it in"
             " Chrome trace_event format (open in Perfetto/about:tracing)",
    )
    run_parser.set_defaults(handler=cmd_run)

    compile_parser = sub.add_parser("compile", help="compile to Verilog")
    compile_parser.add_argument("file")
    compile_parser.add_argument("--flow", default="c2verilog",
                                choices=FLOW_KEYS)
    compile_parser.add_argument("--function", default="main")
    compile_parser.add_argument("-o", "--output")
    compile_parser.set_defaults(handler=cmd_compile)

    def add_runner_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial)")
        p.add_argument("--cache-dir",
                       help="artifact cache directory"
                            " (default: $REPRO_CACHE_DIR or ~/.cache/repro/matrix)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed artifact cache")
        p.add_argument("--timeout", type=float,
                       help="per-cell wall-clock deadline in seconds (default 60)")
        p.add_argument("--trace-summary", action="store_true",
                       help="trace every cell and print the per-flow,"
                            " per-phase wall-time table")

    def add_opt_level_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--opt-level", type=int, default=DEFAULT_OPT_LEVEL,
            choices=OPT_LEVELS, metavar="N",
            help="IR optimization level for every cell, one of"
                 f" {', '.join(map(str, OPT_LEVELS))} (default:"
                 f" {DEFAULT_OPT_LEVEL}; 2 = liveness fixpoint pipeline;"
                 " part of the cache key)",
        )

    matrix_parser = sub.add_parser("matrix", help="all flows on one program")
    matrix_parser.add_argument("file")
    matrix_parser.add_argument("--function", default="main")
    matrix_parser.add_argument("--args", help="comma-separated integers")
    matrix_parser.add_argument(
        "--lint", action="store_true",
        help="pre-flight each flow with the linter; skip predicted rejects",
    )
    matrix_parser.add_argument(
        "--check", action="store_true",
        help="pre-flight with the time-sensitive checker (lint + TIM"
             " rules); skip flows whose obligations the schedule cannot"
             " meet",
    )
    add_runner_flags(matrix_parser)
    add_opt_level_flag(matrix_parser)
    matrix_parser.set_defaults(handler=cmd_matrix)

    sweep_parser = sub.add_parser(
        "sweep", help="the full workload x flow matrix through the runner"
    )
    sweep_parser.add_argument(
        "--flows", help="comma-separated flow keys (default: all compilable)"
    )
    sweep_parser.add_argument(
        "--workloads", help="comma-separated workload names (default: all)"
    )
    add_runner_flags(sweep_parser)
    add_opt_level_flag(sweep_parser)
    sweep_parser.set_defaults(handler=cmd_sweep)

    lint_parser = sub.add_parser(
        "lint", help="predict per-flow rejections without compiling"
    )
    lint_parser.add_argument("file")
    lint_parser.add_argument("--flow", choices=sorted(COMPILABLE))
    lint_parser.add_argument(
        "--all", action="store_true",
        help="lint against every compilable flow (the default)",
    )
    lint_parser.add_argument("--function", default="main")
    lint_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="output format (json = machine-readable report)",
    )
    lint_parser.set_defaults(handler=cmd_lint)

    check_parser = sub.add_parser(
        "check", help="lint plus schedule-aware timing/resource obligations"
    )
    check_parser.add_argument("file")
    check_parser.add_argument("--flow", choices=sorted(COMPILABLE))
    check_parser.add_argument(
        "--all", action="store_true",
        help="check against every compilable flow (the default)",
    )
    check_parser.add_argument("--function", default="main")
    check_parser.add_argument(
        "--pipeline-ii", type=int, metavar="N",
        help="requested loop initiation interval; TIM301 checks it"
             " against every pipelineable loop's MII floor",
    )
    check_parser.add_argument(
        "--clock-budget", type=float, default=25.0, metavar="NS",
        help="combinational budget per implicit cycle before TIM103"
             " warns (default 25.0 ns)",
    )
    check_parser.add_argument(
        "--memory-ports", type=int, default=1, metavar="N",
        help="ports per RAM the TIM302 occupancy check assumes (default 1)",
    )
    check_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="output format (json = machine-readable report)",
    )
    check_parser.set_defaults(handler=cmd_check)

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential fuzz campaign over the flow matrix"
    )
    fuzz_parser.add_argument(
        "--flows", default="all",
        help="comma-separated flow keys, or 'all' (default)",
    )
    fuzz_parser.add_argument("--seeds", type=int, default=100,
                             help="seeds per flow (default 100)")
    fuzz_parser.add_argument("--seed-base", type=int, default=0,
                             help="first seed (campaigns are pure in seeds)")
    fuzz_parser.add_argument("--time-budget", type=float,
                             help="stop generating after this many seconds")
    fuzz_parser.add_argument("--no-reduce", action="store_true",
                             help="skip delta-debugging reduction")
    fuzz_parser.add_argument("--update-corpus", action="store_true",
                             help="write new findings into the corpus")
    fuzz_parser.add_argument("--corpus-dir",
                             help="triaged corpus root (default tests/corpus"
                                  " under the working directory)")
    fuzz_parser.add_argument(
        "--input-lanes", type=int, default=1, metavar="K",
        help="argument sets simulated per clean program (default 1);"
             " a program's sets compile once and run as the lanes of one"
             " payload",
    )
    fuzz_parser.add_argument(
        "--opt-levels", default="", metavar="L,L",
        help="cross-level mode: comma-separated opt_levels (e.g. 0,2);"
             " every clean program also compiles and runs at each listed"
             " level, and any divergence from the default-level cell is"
             " triaged as an opt-diverge finding",
    )
    fuzz_parser.add_argument(
        "--profiles", default="", metavar="P,P",
        help="restrict clean-side generation to these grammar profiles"
             " (default: every profile the flow's mask allows)",
    )
    fuzz_parser.add_argument(
        "--campaign-seed", type=int, default=0, metavar="N",
        help="root of every derived random stream: pool scheduling,"
             " minted child seeds, and the shard split (default 0)",
    )
    fuzz_parser.add_argument(
        "--mutations", type=int, default=2, metavar="N",
        help="base metamorphic mutants per clean program (default 2);"
             " the scheduler adds more for high-novelty parents",
    )
    fuzz_parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split the campaign into N deterministic shards; without"
             " --shard-index, all shards run here in subprocesses and"
             " merge",
    )
    fuzz_parser.add_argument(
        "--shard-index", type=int, default=None, metavar="I",
        help="run only shard I of --shards (CI matrix mode); the slice"
             " is a pure function of --campaign-seed, never of order",
    )
    fuzz_parser.add_argument(
        "--shard-dir", default="", metavar="DIR",
        help="with --update-corpus: write this shard's new findings into"
             " DIR instead of the corpus (merge them with 'fuzz-merge')",
    )
    fuzz_parser.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="output format (json = the stable repro-fuzz-report/1"
             " schema)",
    )
    add_runner_flags(fuzz_parser)
    fuzz_parser.set_defaults(handler=cmd_fuzz)

    fuzz_merge_parser = sub.add_parser(
        "fuzz-merge",
        help="idempotently fold shard corpus deltas into a corpus",
    )
    fuzz_merge_parser.add_argument(
        "sources", nargs="+",
        help="shard corpus directories (missing ones are skipped)",
    )
    fuzz_merge_parser.add_argument(
        "--dest",
        help="corpus to merge into (default tests/corpus under the"
             " working directory)",
    )
    fuzz_merge_parser.set_defaults(handler=cmd_fuzz_merge)

    serve_parser = sub.add_parser(
        "serve", help="synthesis-as-a-service HTTP server"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8787,
                              help="listen port (0 = pick a free one)")
    serve_parser.add_argument("--jobs", type=int, default=2,
                              help="compile worker processes (default 2)")
    serve_parser.add_argument("--queue-limit", type=int, default=16,
                              help="compiles allowed to queue beyond the"
                                   " workers before 503 (default 16)")
    serve_parser.add_argument("--rate", type=float, default=0.0,
                              help="per-client requests/second"
                                   " (default 0 = unlimited)")
    serve_parser.add_argument("--burst", type=float, default=20.0,
                              help="per-client token-bucket capacity"
                                   " (default 20)")
    serve_parser.add_argument("--timeout", type=float, default=20.0,
                              help="per-compile worker deadline in seconds"
                                   " (default 20)")
    serve_parser.add_argument("--max-source", default="64K",
                              help="largest accepted source (default 64K;"
                                   " K/M/G suffixes)")
    serve_parser.add_argument("--cache-dir",
                              help="artifact cache directory (default:"
                                   " $REPRO_CACHE_DIR or ~/.cache/repro/matrix)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="disable the warm-hit tier")
    serve_parser.add_argument("--trace", metavar="OUT.json",
                              help="record per-request spans; written as a"
                                   " Chrome trace on drain")
    serve_parser.add_argument("--drain-grace", type=float, default=10.0,
                              help="seconds to wait for in-flight requests"
                                   " on SIGTERM (default 10)")
    serve_parser.set_defaults(handler=cmd_serve)

    cache_parser = sub.add_parser(
        "cache", help="inspect and bound the artifact cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    for name, description in (
        ("stats", "entry count, total bytes, age span"),
        ("prune", "LRU-evict oldest entries down to --max-bytes"),
        ("clear", "remove every cache entry"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=description)
        cache_cmd.add_argument("--cache-dir",
                               help="cache directory (default:"
                                    " $REPRO_CACHE_DIR or"
                                    " ~/.cache/repro/matrix)")
        cache_cmd.add_argument("--format", default="text",
                               choices=("text", "json"))
        if name == "prune":
            cache_cmd.add_argument("--max-bytes", required=True,
                                   help="target size, e.g. 500M or 2G")
    cache_parser.set_defaults(handler=cmd_cache)

    sub.add_parser("table1", help="print Table 1").set_defaults(
        handler=cmd_table1
    )
    sub.add_parser("flows", help="list flows").set_defaults(handler=cmd_flows)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    from .flows.base import FlowError

    try:
        return options.handler(options)
    except FlowError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
