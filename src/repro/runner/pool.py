"""The one process pool behind every parallel caller.

The matrix engine, ``repro serve`` and sharded ``repro fuzz`` all hand
dict payloads to a module-level worker in another process.  This module
owns the policy they share:

* **how a payload reaches a worker** — a fork-preferring
  ``ProcessPoolExecutor``, so workers inherit the warm interpreter;
* **what happens when a worker fails** — a worker that *raises* becomes
  the caller's crash result for that payload; a worker that *dies* breaks
  the whole executor, so every payload it took down is re-run alone in a
  single-shot pool.  The payload that killed its worker dies again there
  and becomes a crash result; the innocent ones complete normally.

Two faces over that policy:

* :meth:`WorkerPool.map` — synchronous and order-preserving, on a pool
  sized to the work and torn down afterwards (sweeps, fuzz shards);
* :meth:`WorkerPool.run` — one ``await``-able payload on a long-lived
  pool with an explicit bound of ``jobs`` running plus ``queue_limit``
  waiting; :attr:`WorkerPool.saturated` is the backpressure signal
  (the server's 503 shed).

Callers supply ``on_crash(payload, failure)``, which turns a payload into
their own failure record; ``failure`` is the exception a worker raised,
or None when the worker process died.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

P = TypeVar("P")
R = TypeVar("R")


def _warm_interpreter() -> None:
    """Import what a worker's first payload would: every flow (building
    the registry) and the FSMD engines.  The package loads these on first
    use, so without this each forked worker would import them itself."""
    from ..flows.registry import REGISTRY  # noqa: F401
    from ..sim import compiled, fsmd_sim  # noqa: F401


def _pool_context():
    """Prefer fork so workers inherit the warm interpreter state (the
    package import alone would otherwise dominate sub-second sweeps)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


class WorkerPool(Generic[P, R]):
    """Process-pool dispatch of ``worker(payload)`` with crash isolation.

    Parameters
    ----------
    worker:
        A module-level (picklable) callable, payload -> result.
    on_crash:
        ``on_crash(payload, failure)`` -> the result to report for a
        payload whose worker raised ``failure`` (None: the process died).
    jobs:
        Worker processes (``map`` uses no more than it has payloads).
    queue_limit:
        Payloads :meth:`run` accepts beyond ``jobs`` before
        :attr:`saturated` turns true.
    """

    def __init__(
        self,
        worker: Callable[[P], R],
        on_crash: Callable[[P, Optional[BaseException]], R],
        jobs: int = 1,
        queue_limit: int = 0,
    ):
        self.worker = worker
        self.on_crash = on_crash
        self.jobs = max(1, int(jobs))
        self.queue_limit = max(0, int(queue_limit))
        self._context = _pool_context()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inflight = 0
        self._closed = False

    def _new_executor(self, workers: int) -> ProcessPoolExecutor:
        _warm_interpreter()
        return ProcessPoolExecutor(max_workers=workers, mp_context=self._context)

    def _isolated(self, payload: P) -> R:
        """Run one payload alone, so a death can only be its own."""
        try:
            with self._new_executor(1) as solo:
                return solo.submit(self.worker, payload).result()
        except BrokenProcessPool:
            return self.on_crash(payload, None)
        except Exception as failure:
            return self.on_crash(payload, failure)

    # -- sync face ----------------------------------------------------------

    def map(self, payloads: Sequence[P]) -> List[R]:
        """Every payload's result, in input order; never raises for a
        failing worker."""
        if not payloads:
            return []
        results: List[Optional[R]] = [None] * len(payloads)
        done = set()
        try:
            with self._new_executor(min(self.jobs, len(payloads))) as pool:
                futures = {
                    pool.submit(self.worker, payload): index
                    for index, payload in enumerate(payloads)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        continue
                    except Exception as failure:
                        results[index] = self.on_crash(payloads[index], failure)
                    done.add(index)
        except BrokenProcessPool:
            pass  # a submit after the break; its payload is re-run below
        for index, payload in enumerate(payloads):
            if index not in done:
                results[index] = self._isolated(payload)
        return results  # type: ignore[return-value]

    # -- async face ---------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queue_depth(self) -> int:
        """Payloads accepted but not yet running (0 while spare workers)."""
        return max(0, self._inflight - self.jobs)

    @property
    def saturated(self) -> bool:
        """True when accepting one more payload would exceed the bound."""
        return self._closed or self._inflight >= self.jobs + self.queue_limit

    async def run(self, payload: P) -> R:
        """Execute one payload on the shared pool; always returns a result
        (a failing worker becomes ``on_crash``'s result)."""
        import asyncio  # only the async face needs it; keeps imports cheap

        if self._closed:
            raise RuntimeError("pool is shut down")
        if self._executor is None:
            self._executor = self._new_executor(self.jobs)
        executor = self._executor
        loop = asyncio.get_running_loop()
        self._inflight += 1
        try:
            return await loop.run_in_executor(executor, self.worker, payload)
        except BrokenProcessPool:
            # The dead worker poisoned the whole executor: drop it (once,
            # however many payloads it took down) so the next payload gets
            # a fresh one, and retry this one alone to see whether it was
            # the killer.
            if self._executor is executor:
                executor.shutdown(wait=False)
                self._executor = None
            return await loop.run_in_executor(None, self._isolated, payload)
        except Exception as failure:
            return self.on_crash(payload, failure)
        finally:
            self._inflight -= 1

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)


__all__ = ["WorkerPool"]
