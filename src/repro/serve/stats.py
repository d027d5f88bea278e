"""Serving metrics: dedup counters and per-endpoint latency histograms.

Everything here is plain data updated from the event-loop thread, so no
locks are needed; the ``/stats`` endpoint renders :meth:`ServeStats.to_dict`
directly.  Latencies go into fixed geometric buckets (1.25x steps from
50 µs to ~80 s) rather than a reservoir: constant memory at any request
rate, and p50/p99 read out by cumulative interpolation, which is accurate
to the bucket width (±12%) — plenty for capacity planning.
"""

from __future__ import annotations

from typing import Dict, List, Optional

_GROWTH = 1.25
_FLOOR_S = 50e-6
_BUCKETS = 70  # _FLOOR_S * 1.25**69 ≈ 240 s, past any sane deadline


def _bucket_bounds() -> List[float]:
    bounds = []
    upper = _FLOOR_S
    for _ in range(_BUCKETS):
        bounds.append(upper)
        upper *= _GROWTH
    return bounds


class LatencyHistogram:
    """Constant-memory latency distribution with percentile readout."""

    BOUNDS = _bucket_bounds()

    __slots__ = ("counts", "count", "total_s", "max_s")

    def __init__(self):
        self.counts = [0] * (_BUCKETS + 1)  # +1 overflow bucket
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(seconds, 0.0)
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        lo, hi = 0, _BUCKETS
        while lo < hi:
            mid = (lo + hi) // 2
            if seconds <= self.BOUNDS[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1

    def percentile(self, p: float) -> float:
        """The latency (seconds) at percentile ``p`` in [0, 100]."""
        if self.count == 0:
            return 0.0
        target = self.count * min(max(p, 0.0), 100.0) / 100.0
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= target and count:
                if index >= _BUCKETS:
                    return self.max_s
                # Upper bound of the bucket: a conservative estimate.
                return min(self.BOUNDS[index], self.max_s or self.BOUNDS[index])
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_ms": round(self.mean_s * 1e3, 3),
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p90_ms": round(self.percentile(90) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
            "max_ms": round(self.max_s * 1e3, 3),
        }


class ServeStats:
    """Counters for every way a request can be answered.

    The dedup invariant the tests assert lives here: for ``/synthesize``,
    ``hits + coalesced + compiles == 2xx responses``, and ``compiles`` is
    the number of *underlying* pool dispatches — N identical concurrent
    requests bump it exactly once.
    """

    def __init__(self):
        self.started = 0          # requests that reached routing
        self.responses: Dict[int, int] = {}  # HTTP status -> count
        self.hits = 0             # answered from the artifact cache
        self.coalesced = 0        # joined an identical in-flight compile
        self.compiles = 0         # fresh pool dispatches (the misses)
        self.stored = 0           # results written back to the cache
        self.rate_limited = 0     # 429s
        self.shed = 0             # 503s from a saturated queue
        self.invalid = 0          # 4xx validation refusals
        self.analysis_memo_hits = 0   # lint/check answered from the memo
        self.analysis_runs = 0        # lint/check actually computed
        self.latency: Dict[str, LatencyHistogram] = {}

    def observe(self, endpoint: str, seconds: float) -> None:
        histogram = self.latency.get(endpoint)
        if histogram is None:
            histogram = self.latency[endpoint] = LatencyHistogram()
        histogram.observe(seconds)

    def count_response(self, status: int) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1

    def warm_ratio(self) -> float:
        """Fraction of answered synthesize requests that skipped a compile."""
        answered = self.hits + self.coalesced + self.compiles
        if not answered:
            return 0.0
        return (self.hits + self.coalesced) / answered

    def to_dict(self, queue_depth: int = 0,
                inflight_keys: int = 0,
                uptime_s: Optional[float] = None,
                cache_write_errors: int = 0) -> Dict[str, object]:
        data: Dict[str, object] = {
            "requests": self.started,
            "responses": {str(k): v for k, v in sorted(self.responses.items())},
            "dedup": {
                "hits": self.hits,
                "coalesced": self.coalesced,
                "compiles": self.compiles,
                "stored": self.stored,
                "cache_write_errors": cache_write_errors,
                "warm_ratio": round(self.warm_ratio(), 4),
            },
            "rejected": {
                "invalid": self.invalid,
                "rate_limited": self.rate_limited,
                "shed": self.shed,
            },
            "analysis": {
                "memo_hits": self.analysis_memo_hits,
                "runs": self.analysis_runs,
            },
            "queue_depth": queue_depth,
            "inflight_keys": inflight_keys,
            "latency": {
                endpoint: histogram.to_dict()
                for endpoint, histogram in sorted(self.latency.items())
            },
        }
        if uptime_s is not None:
            data["uptime_s"] = round(uptime_s, 3)
        return data


__all__ = ["LatencyHistogram", "ServeStats"]
