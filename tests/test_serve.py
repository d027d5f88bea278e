"""The serving tier: validation, dedup, rate limits, backpressure, drain.

The end-to-end tests boot a real :class:`SynthesisServer` on an ephemeral
port inside ``asyncio.run`` and talk to it over actual sockets with the
load generator's :class:`HttpClient` — the same transport production
clients use.  Workers are swapped for module-level stand-ins where the
test needs to control compile latency (the coalescing and backpressure
proofs); everything else exercises the runner's real cell worker.
"""

import asyncio
import json
import os
import pathlib
import time

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.runner import (
    ERROR,
    OK,
    ArtifactCache,
    CellResult,
    CellTask,
    MatrixEngine,
    cell_key,
    execute_cell,
)
from repro.scheduling.resources import ResourceSet
from repro.serve import (
    HttpClient,
    LatencyHistogram,
    RateLimiter,
    ServeConfig,
    ServeLimits,
    SynthesisServer,
    ValidationError,
    parse_analysis,
    parse_synthesize,
    zipfian_schedule,
)

LIMITS = ServeLimits(max_source_bytes=4096)

SRC = (
    "int main(int n) { int s = 0;"
    " for (int i = 0; i < n; i++) { s += i * i; } return s; }"
)


# --------------------------------------------------------------- protocol


def test_parse_synthesize_full_request():
    request = parse_synthesize(
        {
            "source": SRC,
            "flow": "specc",
            "function": "main",
            "args": [5],
            "opt_level": 2,
            "check": True,
            "options": {"refine": "specification"},
        },
        LIMITS,
    )
    assert request.options == SynthesisOptions(
        flow="specc", function="main", opt_level=2, check=True,
        flow_options=(("refine", "specification"),),
    )
    assert request.args == (5,)
    assert request.source == SRC


def test_parse_synthesize_defaults():
    request = parse_synthesize({"source": SRC}, LIMITS)
    assert request.options.flow == "c2verilog"
    assert request.options.opt_level == SynthesisOptions().opt_level
    assert request.args == ()


@pytest.mark.parametrize(
    "body, code, status",
    [
        ([1, 2], "bad_request", 400),
        ({}, "bad_field", 400),
        ({"source": ""}, "bad_field", 400),
        ({"source": SRC, "flow": "vhdl"}, "unknown_flow", 400),
        ({"source": SRC, "opt_level": 9}, "bad_field", 400),
        ({"source": SRC, "opt_level": "two"}, "bad_field", 400),
        ({"source": SRC, "opt_level": True}, "bad_field", 400),
        ({"source": SRC, "function": "1bad"}, "bad_field", 400),
        ({"source": SRC, "args": "5"}, "bad_field", 400),
        ({"source": SRC, "args": [1.5]}, "bad_field", 400),
        ({"source": SRC, "args": list(range(99))}, "bad_field", 400),
        ({"source": SRC, "check": "yes"}, "bad_field", 400),
        ({"source": SRC, "options": {"bad key": 1}}, "bad_field", 400),
        ({"source": SRC, "options": {"unroll": [1]}}, "bad_field", 400),
        ({"source": SRC, "options": {"flow": "cash"}}, "bad_field", 400),
        ({"source": "x" * 5000}, "source_too_large", 413),
        ({"source": SRC, "flow": "handelc", "options": {"unroll": 2}},
         "bad_field", 400),
        ({"source": SRC, "flow": "hardwarec", "options": {"resources": 3}},
         "bad_field", 400),
        ({"source": SRC, "options": {"clock_ns": "fast"}}, "bad_field", 400),
        ({"source": SRC, "options": {"clock_ns": True}}, "bad_field", 400),
        ({"source": SRC, "options": {"pointer_analysis": "no"}}, "bad_field", 400),
        ({"source": SRC, "options": {"pointer_analysis": 1}},
         "bad_field", 400),
        ({"source": SRC, "flow": "specc", "options": {"refine": "rtl2"}},
         "bad_field", 400),
        ({"source": SRC, "options": {"clock_ns": 0}}, "bad_field", 400),
        ({"source": SRC, "options": {"clock_ns": -5.0}}, "bad_field", 400),
    ],
)
def test_parse_synthesize_refusals(body, code, status):
    with pytest.raises(ValidationError) as caught:
        parse_synthesize(body, LIMITS)
    assert caught.value.code == code
    assert caught.value.status == status
    assert caught.value.body()["error"]["code"] == code


@pytest.mark.parametrize("flow, name, value, takes", [
    ("hardwarec", "resources", 3,
     "ResourceSet by name, one of 'typical', 'minimal', 'unlimited'"),
    ("c2verilog", "clock_ns", True, "float or int"),
    ("specc", "refine", "rtl2", "one of 'implementation', 'specification'"),
])
def test_an_ill_typed_option_names_the_option_and_its_type(
        flow, name, value, takes):
    with pytest.raises(ValidationError) as caught:
        parse_synthesize(
            {"source": SRC, "flow": flow, "options": {name: value}}, LIMITS)
    assert caught.value.field == "options"
    assert caught.value.message == (
        f"option {name!r} of flow {flow!r} takes {takes}, got {value!r}")


def test_a_served_preset_is_the_api_resource_set():
    """``{"resources": "minimal"}`` and ``ResourceSet.minimal()`` are one
    option set: one cell key, one design."""
    served = parse_synthesize(
        {"source": SRC, "flow": "bachc", "args": [5],
         "options": {"resources": "minimal"}}, LIMITS)
    api = SynthesisOptions.make(flow="bachc", resources=ResourceSet.minimal())
    assert served.options == api
    task = CellTask("serve", SRC, served.options, (5,))
    assert cell_key(task) == cell_key(CellTask("api", SRC, api, (5,)))
    assert cell_key(task) != cell_key(
        CellTask("api", SRC, SynthesisOptions(flow="bachc"), (5,)))
    [cell] = MatrixEngine().run_cells([task])
    assert cell.verdict == OK
    assert cell.cycles == synthesize(SRC, api).run(args=(5,)).cycles


def test_parse_analysis_flows_and_check_knobs():
    request = parse_analysis(
        {"source": SRC, "flows": ["handelc", "cash"], "pipeline_ii": 2},
        LIMITS, kind="check",
    )
    assert request.flows == ("handelc", "cash")
    assert request.check_options == (("pipeline_ii", 2),)

    with pytest.raises(ValidationError) as caught:
        parse_analysis({"source": SRC, "flows": ["nope"]}, LIMITS, "lint")
    assert caught.value.code == "unknown_flow"
    with pytest.raises(ValidationError):
        parse_analysis({"source": SRC, "pipeline_ii": 0}, LIMITS, "check")


# ------------------------------------------------------------- rate limit


def test_token_bucket_burst_then_refill():
    clock = [100.0]
    limiter = RateLimiter(rate=1.0, burst=2.0, clock=lambda: clock[0])
    assert limiter.allow("a") == (True, 0.0)
    assert limiter.allow("a") == (True, 0.0)
    allowed, retry = limiter.allow("a")
    assert not allowed and 0 < retry <= 1.0
    clock[0] += 1.0  # one token refilled
    assert limiter.allow("a")[0]
    # Other clients have their own bucket.
    assert limiter.allow("b")[0]


def test_rate_limiter_disabled_and_lru_bound():
    limiter = RateLimiter(rate=0.0, burst=1.0)
    assert all(limiter.allow(f"c{i}")[0] for i in range(100))
    assert len(limiter) == 0  # disabled: no buckets kept

    bounded = RateLimiter(rate=5.0, burst=1.0, max_clients=4)
    for i in range(10):
        bounded.allow(f"c{i}")
    assert len(bounded) == 4


# ------------------------------------------------------------------ stats


def test_latency_histogram_percentiles():
    histogram = LatencyHistogram()
    for ms in range(1, 101):
        histogram.observe(ms / 1000.0)
    assert histogram.count == 100
    p50 = histogram.percentile(50)
    p99 = histogram.percentile(99)
    assert 0.040 <= p50 <= 0.070
    assert 0.085 <= p99 <= 0.105
    assert histogram.to_dict()["count"] == 100


def test_zipfian_schedule_is_deterministic_and_head_heavy():
    distinct = [{"id": i} for i in range(10)]
    first = zipfian_schedule(distinct, 500, s=1.2, seed=7)
    again = zipfian_schedule(distinct, 500, s=1.2, seed=7)
    assert first == again
    head = sum(1 for item in first if item["id"] == 0)
    tail = sum(1 for item in first if item["id"] == 9)
    assert head > 5 * max(tail, 1)


# ----------------------------------------------------- server end-to-end


def make_server_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        port=0, jobs=2, queue_limit=8,
        cache_dir=str(tmp_path / "serve-cache"),
        drain_grace_s=5.0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def serve_test(config, body, worker=None):
    """Boot a server, run ``body(server, client)``, always drain."""

    async def main():
        kwargs = {"worker": worker} if worker is not None else {}
        server = SynthesisServer(config, **kwargs)
        await server.start()
        client = HttpClient(server.host, server.port)
        try:
            return await body(server, client)
        finally:
            await client.close()
            await server.drain()

    return asyncio.run(main())


def slow_ok_worker(payload):
    """A worker with a controlled 250 ms compile, for concurrency tests."""
    time.sleep(0.25)
    return [
        CellResult(
            workload=lane["workload"], flow=payload["options"].flow,
            args=tuple(lane.get("args", ())), verdict=OK, value=42,
            cache_key=str(lane.get("cache_key", "")),
        ).to_dict()
        for lane in payload["lanes"]
    ]


def dying_worker(payload):
    """Kills its worker process on one source; compiles every other one."""
    if "i * 3" in payload["source"]:
        os._exit(9)
    return execute_cell(payload)


def test_validation_refused_before_dispatch(tmp_path):
    async def body(server, client):
        status, data = await client.request(
            "POST", "/synthesize", {"source": SRC, "flow": "vhdl"}
        )
        assert status == 400
        assert data["error"]["code"] == "unknown_flow"
        status, data = await client.request(
            "POST", "/synthesize", {"source": "y" * (1 << 17)}
        )
        assert status == 413
        assert data["error"]["code"] == "source_too_large"
        status, data = await client.request("POST", "/synthesize", None)
        assert status == 400
        status, data = await client.request(
            "POST", "/synthesize",
            {"source": SRC, "flow": "hardwarec", "options": {"resources": 3}},
        )
        assert status == 400
        assert data["error"]["code"] == "bad_field"
        assert "'resources'" in data["error"]["message"]
        # None of these ever reached the pool or the dedup tiers.
        assert server.stats.compiles == 0
        assert server.stats.invalid == 4
        assert server.pool.inflight == 0

    serve_test(make_server_config(tmp_path), body)


def test_bad_json_body_is_400(tmp_path):
    async def body(server, client):
        await client._connect()
        raw = b"{not json"
        client._writer.write(
            b"POST /synthesize HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(raw)}\r\n\r\n".encode() + raw
        )
        await client._writer.drain()
        line = await client._reader.readline()
        assert b"400" in line
        assert server.stats.compiles == 0

    serve_test(make_server_config(tmp_path), body)


def test_coalescing_n_identical_requests_one_compile(tmp_path):
    """The acceptance-criteria proof: N identical concurrent requests
    produce exactly one underlying compile, asserted via stats counters."""
    n = 8

    async def body(server, client):
        async def one():
            own = HttpClient(server.host, server.port)
            try:
                return await own.request(
                    "POST", "/synthesize",
                    {"source": SRC, "flow": "handelc", "args": [5]},
                )
            finally:
                await own.close()

        outcomes = await asyncio.gather(*(one() for _ in range(n)))
        assert [status for status, _ in outcomes] == [200] * n
        assert all(data["value"] == 42 for _, data in outcomes)
        # Exactly one underlying compile; everyone else joined it (or, if
        # scheduling delayed them past completion, hit the fresh artifact).
        assert server.stats.compiles == 1
        assert server.stats.coalesced >= 1
        assert server.stats.coalesced + server.stats.hits == n - 1
        tiers = {data["served_by"] for _, data in outcomes}
        assert "compile" in tiers and "coalesced" in tiers

    serve_test(make_server_config(tmp_path), body, worker=slow_ok_worker)


def test_warm_hit_skips_the_pool(tmp_path):
    async def body(server, client):
        request = {"source": SRC, "flow": "handelc", "args": [5]}
        status, first = await client.request("POST", "/synthesize", request)
        assert status == 200 and first["served_by"] == "compile"
        assert first["verdict"] == "ok" and first["value"] == 30
        status, second = await client.request("POST", "/synthesize", request)
        assert status == 200 and second["served_by"] == "cache"
        assert second["value"] == first["value"]
        assert second["key"] == first["key"]
        assert server.stats.compiles == 1 and server.stats.hits == 1
        # Whitespace-only edits normalize to the same artifact.
        spaced = dict(request, source=SRC.replace(" int s", "   int s"))
        status, third = await client.request("POST", "/synthesize", spaced)
        assert status == 200 and third["served_by"] == "cache"

    serve_test(make_server_config(tmp_path), body)


def test_served_verdicts_agree_with_the_matrix_engine(tmp_path):
    """A served cell is judged against the golden model like every other
    cell, and the server shares its cache with sweeps: for each program
    the served verdict, an uncached engine's verdict and a verdict
    replayed from the server's cache are one verdict."""
    diverging = json.loads((
        pathlib.Path(__file__).parent
        / "corpus" / "handelc" / "mismatch--aa28172b11cb.json"
    ).read_text())
    requests = [
        {"source": diverging["source"], "flow": diverging["flow"],
         "args": diverging["args"], **diverging["options"]},
        {"source": SRC, "flow": "handelc", "args": [5]},
    ]
    config = make_server_config(tmp_path)

    async def body(server, client):
        return [await client.request("POST", "/synthesize", request)
                for request in requests]

    answers = serve_test(config, body)
    replay = MatrixEngine(cache=ArtifactCache(config.cache_dir))
    for request, (status, served) in zip(requests, answers):
        assert status == 200 and served["served_by"] == "compile"
        parsed = parse_synthesize(request, LIMITS)
        task = CellTask("agree", parsed.source, parsed.options, parsed.args)
        [fresh] = MatrixEngine().run_cells([task])
        [stored] = replay.run_cells([task])
        assert stored.cached
        assert served["verdict"] == fresh.verdict == stored.verdict
        assert served["value"] == fresh.value == stored.value


def test_rejection_is_a_domain_result_not_an_http_error(tmp_path):
    async def body(server, client):
        status, data = await client.request(
            "POST", "/synthesize",
            {"source": SRC, "flow": "cones", "args": [5]},
        )
        assert status == 200
        assert data["verdict"] == "rejected"
        assert data["rule"]
        return None

    serve_test(make_server_config(tmp_path), body)


def test_lexer_rejections_are_classified_alike(tmp_path):
    """A non-ASCII digit is a front-end error like any other bad
    character, not a crash while computing the cache key."""

    async def body(server, client):
        answers = []
        for bad in ("$", "\u00b2", "1\u0663"):
            source = f"int main(int n) {{ return {bad}; }}"
            answers.append(await client.request(
                "POST", "/synthesize", {"source": source, "flow": "handelc"}
            ))
        return answers

    answers = serve_test(make_server_config(tmp_path), body)
    assert [status for status, _ in answers] == [200, 200, 200]
    assert [data["verdict"] for _, data in answers] == ["error"] * 3
    for (_, data), bad in zip(answers, ("'$'", "'\u00b2'", "'\u0663'")):
        assert f"unexpected character {bad}" in data["diagnostics"][-1]


def test_rate_limit_answers_429_with_retry_after(tmp_path):
    async def body(server, client):
        headers = {"X-Client-Id": "hammer"}
        request = {"source": SRC, "flow": "handelc"}
        outcomes = []
        for _ in range(4):
            status, data = await client.request(
                "POST", "/synthesize", request, headers
            )
            outcomes.append((status, data))
        statuses = [status for status, _ in outcomes]
        assert statuses[:2] == [200, 200]
        assert 429 in statuses[2:]
        refused = next(d for s, d in outcomes if s == 429)
        assert refused["error"]["code"] == "rate_limited"
        assert int(client.last_headers.get("retry-after", "0")) >= 1
        assert server.stats.rate_limited >= 1
        # A different client id is a different bucket.
        status, _ = await client.request(
            "POST", "/synthesize", request, {"X-Client-Id": "other"}
        )
        assert status == 200

    serve_test(
        make_server_config(tmp_path, rate=0.001, burst=2.0),
        body, worker=slow_ok_worker,
    )


def test_backpressure_sheds_with_503(tmp_path):
    async def body(server, client):
        async def one(index):
            own = HttpClient(server.host, server.port)
            try:
                # Distinct sources: no coalescing, so each wants a worker.
                return await own.request(
                    "POST", "/synthesize",
                    {"source": SRC.replace("i * i", f"i * {index}"),
                     "flow": "handelc", "args": [4]},
                )
            finally:
                await own.close()

        outcomes = await asyncio.gather(*(one(i + 2) for i in range(4)))
        statuses = sorted(status for status, _ in outcomes)
        assert 503 in statuses
        assert 200 in statuses
        shed = next(d for s, d in outcomes if s == 503)
        assert shed["error"]["code"] == "overloaded"
        assert server.stats.shed >= 1

    serve_test(
        make_server_config(tmp_path, jobs=1, queue_limit=0),
        body, worker=slow_ok_worker,
    )


def test_stats_healthz_and_routing(tmp_path):
    async def body(server, client):
        status, health = await client.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, data = await client.request("GET", "/nope")
        assert status == 404 and data["error"]["code"] == "not_found"
        status, data = await client.request("GET", "/synthesize")
        assert status == 405
        status, data = await client.request(
            "POST", "/synthesize", {"source": SRC, "flow": "handelc"}
        )
        assert status == 200
        status, stats = await client.request("GET", "/stats")
        assert status == 200
        assert stats["dedup"]["compiles"] == 1
        assert stats["responses"]["200"] >= 2
        assert "synthesize" in stats["latency"]
        # Both the 405 probe and the real POST land in the histogram.
        assert stats["latency"]["synthesize"]["count"] >= 1

    serve_test(make_server_config(tmp_path), body)


def test_lint_and_check_endpoints_with_memo(tmp_path):
    async def body(server, client):
        request = {"source": SRC, "flows": ["handelc", "cones"]}
        status, first = await client.request("POST", "/lint", request)
        assert status == 200
        assert first["served_by"] == "fresh"
        assert first["verdicts"]["handelc"] in ("clean", "warn")
        assert first["verdicts"]["cones"] == "reject"
        status, second = await client.request("POST", "/lint", request)
        assert second["served_by"] == "memo"
        assert server.stats.analysis_runs == 1
        assert server.stats.analysis_memo_hits == 1

        status, checked = await client.request(
            "POST", "/check", {"source": SRC, "flows": ["handelc"],
                               "pipeline_ii": 1}
        )
        assert status == 200
        assert "verdicts" in checked
        assert server.stats.analysis_runs == 2

    serve_test(make_server_config(tmp_path), body)


def test_draining_server_refuses_new_work(tmp_path):
    async def body(server, client):
        server._draining = True
        status, data = await client.request(
            "POST", "/synthesize", {"source": SRC, "flow": "handelc"}
        )
        assert status == 503
        assert data["error"]["code"] == "draining"
        status, health = await client.request("GET", "/healthz")
        assert status == 200 and health["status"] == "draining"

    serve_test(make_server_config(tmp_path), body)


def test_drain_finishes_inflight_work(tmp_path):
    async def body(server, client):
        task = asyncio.ensure_future(client.request(
            "POST", "/synthesize", {"source": SRC, "flow": "handelc"}
        ))
        await asyncio.sleep(0.05)  # let the request reach the pool
        await server.drain()
        status, data = await task
        assert status == 200 and data["value"] == 42
        assert server.pool.queue_depth == 0
        assert len(server.inflight) == 0

    serve_test(make_server_config(tmp_path), body, worker=slow_ok_worker)


def test_check_flag_is_part_of_the_cache_key(tmp_path):
    async def body(server, client):
        plain = {"source": SRC, "flow": "handelc", "args": [5]}
        status, first = await client.request("POST", "/synthesize", plain)
        status, checked = await client.request(
            "POST", "/synthesize", dict(plain, check=True)
        )
        assert first["key"] != checked["key"]
        assert server.stats.compiles == 2  # distinct identities, no reuse

    serve_test(make_server_config(tmp_path), body)


def test_dead_worker_is_an_error_verdict_not_a_dead_server(tmp_path):
    async def body(server, client):
        status, data = await client.request(
            "POST", "/synthesize",
            {"source": SRC.replace("i * i", "i * 3"), "flow": "handelc",
             "args": [4]},
        )
        assert status == 200
        assert data["verdict"] == ERROR
        assert "died" in data["diagnostics"][0]
        # The pool was rebuilt: the next request compiles normally.
        status, data = await client.request(
            "POST", "/synthesize",
            {"source": SRC, "flow": "handelc", "args": [5]},
        )
        assert status == 200 and data["served_by"] == "compile"
        assert data["verdict"] == OK and data["value"] == 30
        status, health = await client.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"

    serve_test(make_server_config(tmp_path), body, worker=dying_worker)
