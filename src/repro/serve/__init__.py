"""Synthesis-as-a-service: the async HTTP serving tier.

``repro serve`` (or :func:`repro.serve.run`) boots a stdlib-only asyncio
HTTP/JSON server exposing ``synthesize``/``check``/``lint``.  Requests
validate into the frozen :class:`repro.api.SynthesisOptions`, key by the
same content address the matrix cache uses, and dedup three ways — warm
artifact hits, in-flight coalescing, and the runner's bounded
:class:`~repro.runner.pool.WorkerPool` with its deadline machinery.  See
:mod:`repro.serve.server` for the architecture and ``docs/serving.md``
for the API.
"""

from .dedup import InflightTable
from .loadgen import (
    HttpClient,
    LoadReport,
    fetch_stats,
    run_load,
    zipfian_schedule,
)
from .protocol import (
    AnalysisRequest,
    ServeLimits,
    SynthesizeRequest,
    ValidationError,
    parse_analysis,
    parse_synthesize,
    result_body,
)
from .ratelimit import RateLimiter, TokenBucket
from .server import ServeConfig, SynthesisServer, amain, run
from .stats import LatencyHistogram, ServeStats

__all__ = [
    "AnalysisRequest",
    "HttpClient",
    "InflightTable",
    "LatencyHistogram",
    "LoadReport",
    "RateLimiter",
    "ServeConfig",
    "ServeLimits",
    "ServeStats",
    "SynthesisServer",
    "SynthesizeRequest",
    "TokenBucket",
    "ValidationError",
    "amain",
    "fetch_stats",
    "parse_analysis",
    "parse_synthesize",
    "result_body",
    "run",
    "run_load",
    "zipfian_schedule",
]
