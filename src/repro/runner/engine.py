"""The matrix execution engine.

One engine runs any set of (workload, flow) cells three ways with
identical results:

* **serial** (``jobs=1``) — in-process, the reference mode;
* **parallel** (``jobs>1``) — the shared :class:`~.pool.WorkerPool`,
  with per-cell deadlines and crash isolation: a cell that raises becomes
  an ``error`` verdict, a cell that exceeds its deadline becomes
  ``timeout``, and a cell that kills its worker outright is retried in a
  one-shot pool so the rest of the sweep survives;
* **cached** — cells whose content address (see :mod:`.cache`) is already
  on disk replay from the artifact cache without recompiling.

In every mode, cells of one design (same source and options, different
inputs) coalesce into one payload that compiles once and runs each cell
as a lane of it (:func:`execute_cell`).

Every cell compares the flow's simulated observables (return value,
globals, channel logs) against the reference C interpreter
(:func:`golden_observable`), so the sweep is simultaneously a
differential co-simulation of all flows.  The worker runs that
comparison under the cell's deadline; nothing upstream of
:func:`execute_cell` judges a cell.
"""

from __future__ import annotations

import functools
import signal
import threading
import time
import traceback
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cache import ArtifactCache, cell_key, environment_salt
from .cells import (
    ERROR,
    MISMATCH,
    OK,
    REJECTED,
    TIMEOUT,
    CellResult,
    CellTask,
    canonical_observable,
)
from .pool import WorkerPool

DEFAULT_TIMEOUT_S = 60.0
DEFAULT_MAX_CYCLES = 2_000_000


class CellTimeout(Exception):
    """Raised inside a worker when the per-cell deadline expires."""


class _Deadline:
    """SIGALRM-based per-cell deadline (POSIX main thread only; elsewhere
    the simulator's ``max_cycles`` bound is the only backstop)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def __enter__(self):
        usable = (
            self.seconds > 0
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        if usable:
            self._previous = signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self.armed = True
        return self

    def __exit__(self, *exc):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    @staticmethod
    def _fire(signum, frame):
        raise CellTimeout()


def _fail(result: CellResult, failure: BaseException, timeout_s) -> None:
    """Record the verdict a cell gets when ``failure`` ends it."""
    from ..flows import FlowError

    if isinstance(failure, FlowError):
        result.verdict = REJECTED
        result.rule = failure.rule
        result.diagnostics = [failure.reason]
    elif isinstance(failure, CellTimeout):
        result.verdict = TIMEOUT
        result.diagnostics = [f"cell exceeded its {timeout_s}s deadline"]
    else:
        result.verdict = ERROR
        text = "".join(traceback.format_exception(
            type(failure), failure, failure.__traceback__
        ))
        result.diagnostics = text.strip().splitlines()[-3:]


def _price(design) -> Tuple[object, str]:
    """The design's cost and a short hash of its Verilog ("" when the
    flow emits none)."""
    import hashlib

    cost = design.cost()
    try:
        rtl = design.verilog()
    except NotImplementedError:
        return cost, ""
    return cost, hashlib.sha256(rtl.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=64)
def _parsed(source: str) -> Optional[tuple]:
    """``source`` parsed to (program, info), or None when it does not
    parse.  Parsing dominates the golden model's cost (~12x the actual
    interpretation on suite kernels), so the lanes of one program share
    one parse."""
    from ..lang import parse

    try:
        return parse(source)
    except CellTimeout:
        raise
    except Exception:
        return None


@functools.lru_cache(maxsize=1024)
def golden_observable(source: str, function: str, args: Tuple[int, ...],
                      timeout_s: float = 0.0):
    """The reference interpreter's :class:`~repro.interp.Observable` for
    ``function`` of ``source`` on ``args``, memoized per process; None
    when the interpreter itself cannot run the program (the flows then
    report their own rejections).  A ``timeout_s`` above zero bounds the
    call by its own deadline; a worker calls it inside its cell's.  A
    :class:`CellTimeout` raised while it runs propagates and memoizes
    nothing."""
    from ..interp import run_program

    with _Deadline(timeout_s):
        parsed = _parsed(source)
        if parsed is None:
            return None
        try:
            return run_program(parsed[0], parsed[1], function,
                               args).observable()
        except CellTimeout:
            raise
        except Exception:
            return None


def _judge(result: CellResult, run, cost, rtl_hash: str,
           expected: Optional[Sequence]) -> None:
    """Fill in a simulated cell and compare it with the golden model: a
    mismatch's rule is the kind of the first field that differs, and its
    diagnostic names that field and shows both sides."""
    observable = run.observable()
    result.value = run.value
    result.cycles = run.cycles
    result.clock_ns = cost.clock_ns
    result.latency_ns = (
        run.cycles * cost.clock_ns if cost.clock_ns > 0 else run.time_ns
    )
    result.area_ge = cost.area_ge
    result.rtl_hash = rtl_hash
    result.observable = canonical_observable(observable)
    differs = None if expected is None else observable.diff(expected)
    if differs:
        result.verdict = MISMATCH
        result.rule, text = differs
        result.diagnostics = [f"differs from golden model in {text}"]
    else:
        result.verdict = OK


def execute_cell(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """Compile one design once, then simulate and judge each of its
    cells.  Module-level and dict-in / dicts-out so it pickles across the
    process pool unchanged.

    ``payload`` carries the fields its cells share — ``source``,
    ``options`` (the cells' :class:`~repro.api.SynthesisOptions`),
    ``timeout_s``, ``max_cycles`` and ``trace`` (record phase spans and
    sim stats) — and a ``lanes`` list with one dict per cell:
    ``workload``, ``args`` and ``cache_key``.  A lone cell is a one-lane
    payload (:func:`cell_payload`).

    Each lane runs under its own ``try``, with its own fork of the
    compile's trace and its own :class:`~repro.sim.SimProfile`, so its
    result is the one the cell gives alone.  A lane whose run succeeds
    is judged against :func:`golden_observable`; a lane whose compile or
    run fails never runs the golden model.  The payload's deadline, the
    sum of its lanes' deadlines, covers the golden runs too.  Returns
    one result dict per lane, in lane order."""
    from ..api import synthesize
    from ..sim.profile import SimProfile
    from ..trace import TraceContext

    lanes: List[Dict[str, object]] = list(payload["lanes"])  # type: ignore
    options = payload["options"]
    results = _lane_results(payload)
    trace = None
    if payload.get("trace"):
        trace = TraceContext(name=f"{lanes[0]['workload']}:{options.flow}")
    profiles = [SimProfile() if trace is not None else None for _ in lanes]
    # Until a lane starts it reports the compile's trace; rejections keep
    # their partial trace too, showing where the flow said no.
    traces = [trace] * len(lanes)
    timeout_s = payload.get("timeout_s", 0.0)
    max_cycles = int(payload.get("max_cycles", DEFAULT_MAX_CYCLES))
    priced = None           # (cost, rtl hash), computed after the first run
    price_spans: list = []  # the trace spans that pricing recorded
    done = 0
    start = time.perf_counter()
    try:
        with _Deadline(float(timeout_s) * len(lanes)):
            synthesis = synthesize(payload["source"], options, trace=trace)
            for index, result in enumerate(results):
                lane_trace = trace.fork() if trace is not None else None
                traces[index] = lane_trace
                design = replace(synthesis, trace=lane_trace)
                try:
                    run = design.run(
                        args=result.args, max_cycles=max_cycles,
                        sim_profile=profiles[index],
                    )
                    spans = lane_trace.roots if lane_trace is not None else []
                    if priced is None:
                        mark = len(spans)
                        priced = _price(design)
                        price_spans = spans[mark:]
                    else:
                        spans.extend(price_spans)
                except CellTimeout:
                    raise
                except Exception as failure:
                    _fail(result, failure, timeout_s)
                else:
                    _judge(result, run, *priced, golden_observable(
                        payload["source"], options.function, result.args
                    ))
                done += 1
    except Exception as failure:
        # The compile failed or the deadline fired: that ends the lane
        # that was running and every lane after it.
        for result in results[done:]:
            _fail(result, failure, timeout_s)
    wall_s = (time.perf_counter() - start) / len(lanes)
    for result, profile, lane_trace in zip(results, profiles, traces):
        if lane_trace is not None:
            result.trace = lane_trace.to_dict()
            # {} (not None) when the sim never ran, so cache readers can
            # tell "captured, empty" from "never captured".
            result.sim_stats = (
                profile.coverage_stats()
                if result.verdict in (OK, MISMATCH) else {}
            )
        result.wall_s = wall_s
    return [result.to_dict() for result in results]


def cell_payload(
    task: CellTask,
    key: str,
    *,
    timeout_s: float,
    max_cycles: int,
    trace: bool = False,
) -> Dict[str, object]:
    """The one-lane worker payload for one cell: the wire form
    :func:`execute_cell` decodes.  ``trace`` asks the worker to record
    phase spans and sim stats."""
    return {
        "source": task.source,
        "options": task.options,
        "timeout_s": timeout_s,
        "max_cycles": max_cycles,
        "trace": trace,
        "lanes": [{
            "workload": task.workload,
            "args": list(task.args),
            "cache_key": key,
        }],
    }


def _lane_results(payload: Dict[str, object]) -> List[CellResult]:
    """One blank :data:`ERROR` result per lane of ``payload``."""
    options = payload["options"]
    return [
        CellResult(
            workload=str(lane["workload"]),
            flow=options.flow,
            function=options.function,
            args=tuple(lane.get("args", ())),
            sim_backend=options.sim_backend,
            cache_key=str(lane.get("cache_key", "")),
        )
        for lane in payload["lanes"]  # type: ignore[union-attr]
    ]


def crash_result(payload: Dict[str, object],
                 failure: Optional[BaseException] = None
                 ) -> List[Dict[str, object]]:
    """The ``error`` results, one per lane, for a payload whose worker
    raised ``failure`` or, when it is None, died."""
    results = _lane_results(payload)
    for result in results:
        result.diagnostics = [
            "worker process died while executing this cell"
            if failure is None else repr(failure)
        ]
    return [result.to_dict() for result in results]


class MatrixEngine:
    """Runs cell sets serially, in parallel, and through the cache.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process.
    cache:
        An :class:`ArtifactCache`, or None to disable caching.
    timeout_s / max_cycles:
        Per-cell wall-clock deadline and simulation bound.
    worker:
        The executor (module-level callable, payload dict → one result
        dict per lane; see :func:`execute_cell`).  Tests substitute
        crashing/slow workers to exercise isolation paths.
    trace:
        Record phase spans and :meth:`SimProfile.coverage_stats` (the
        fuzz campaign's coverage signal) for every cell.  Both ride
        inside the ``CellResult`` (and its cache entry), so a warm
        re-run still reports where each cell's time went; a cache hit
        written *without* them is treated as a miss so they exist.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ArtifactCache] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        worker: Callable[
            [Dict[str, object]], List[Dict[str, object]]
        ] = execute_cell,
        trace: bool = False,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_cycles = max_cycles
        self.worker = worker
        self.trace = bool(trace)
        self._salt = environment_salt()

    # -- execution --------------------------------------------------------

    def run_cells(self, tasks: Sequence[CellTask]) -> List[CellResult]:
        """Execute every task, preserving order; cache hits replay from
        disk and fresh deterministic results are written back.

        Cache-missing cells of one design — the same source and options,
        whatever their inputs — coalesce into one payload: one compile,
        then each cell's run as a lane of it.  Each lane's result is the
        one its cell gives alone."""
        results: List[Optional[CellResult]] = [None] * len(tasks)
        # The task without its lane fields -> (task indices, payload).
        designs: Dict[CellTask, Tuple[List[int], Dict[str, object]]] = {}
        for index, task in enumerate(tasks):
            key = cell_key(task, salt=self._salt) if self.cache is not None else ""
            if self.cache is not None:
                start = time.perf_counter()
                hit = self.cache.load(key)
                # An entry written by an untraced run has no phase or sim
                # stats to report; when tracing, recompute it so the stored
                # artifact gains them and later warm runs can replay it.
                if hit is not None and self.trace and (
                    hit.trace is None or hit.sim_stats is None
                ):
                    hit = None
                if hit is not None:
                    hit.wall_s = time.perf_counter() - start
                    # The key excludes the display label (identical sources
                    # share artifacts), so relabel from the current task.
                    hit.workload = task.workload
                    results[index] = hit
                    continue
            payload = cell_payload(
                task, key, timeout_s=self.timeout_s,
                max_cycles=self.max_cycles, trace=self.trace,
            )
            design = replace(task, workload="", args=())
            if design in designs:
                indices, batch = designs[design]
                indices.append(index)
                batch["lanes"].extend(payload["lanes"])  # type: ignore
            else:
                designs[design] = ([index], payload)

        if designs:
            pending = list(designs.values())
            payloads = [payload for _, payload in pending]
            if self.jobs == 1:
                fresh = [self.worker(payload) for payload in payloads]
            else:
                fresh = WorkerPool(
                    self.worker, self._crashed, jobs=self.jobs
                ).map(payloads)
            for (indices, _), lane_results in zip(pending, fresh):
                for index, data in zip(indices, lane_results):
                    result = CellResult.from_dict(data)
                    if self.cache is not None and result.cache_key:
                        self.cache.store(result.cache_key, result)
                    results[index] = result
        return [r for r in results if r is not None]

    def _crashed(self, payload: Dict[str, object],
                 failure: Optional[BaseException]) -> List[Dict[str, object]]:
        """:func:`crash_result`, except for a payload of several lanes
        whose worker died: each of its lanes reruns alone, so only the
        cell that kills its worker reports the death."""
        lanes = payload["lanes"]
        if failure is not None or len(lanes) == 1:  # type: ignore[arg-type]
            return crash_result(payload, failure)
        alone = [dict(payload, lanes=[lane]) for lane in lanes]  # type: ignore
        pool = WorkerPool(self.worker, crash_result, jobs=self.jobs)
        return [data for results in pool.map(alone) for data in results]

    # -- suite-level convenience ------------------------------------------


def suite_tasks(workloads=None, flows: Optional[Sequence[str]] = None,
                **options) -> List[CellTask]:
    """CellTasks for a workload × flow cross product; ``options`` are
    :meth:`SynthesisOptions.make` keywords for every cell."""
    from ..api import SynthesisOptions
    from ..flows import COMPILABLE
    from ..workloads import WORKLOADS

    selected = list(workloads) if workloads is not None else list(WORKLOADS)
    flow_keys = list(flows) if flows is not None else list(COMPILABLE)
    base = SynthesisOptions.make(**options)
    return [
        CellTask(workload=w.name, source=w.source,
                 options=base.with_(flow=key), args=tuple(w.args))
        for w in selected
        for key in flow_keys
    ]


def file_tasks(source: str, name: str,
               flows: Optional[Sequence[str]] = None,
               args: Sequence[int] = (), **options) -> List[CellTask]:
    """CellTasks running one program through many flows (the CLI matrix);
    ``options`` are :meth:`SynthesisOptions.make` keywords for every
    cell."""
    from ..api import SynthesisOptions
    from ..flows import COMPILABLE

    flow_keys = list(flows) if flows is not None else list(COMPILABLE)
    base = SynthesisOptions.make(**options)
    return [
        CellTask(workload=name, source=source,
                 options=base.with_(flow=key), args=tuple(args))
        for key in flow_keys
    ]
