"""A cache write that fails leaves results uncached, never lost or hung.

``ENOSPC`` is injected where the artifact cache opens its temp file
(``os.fdopen`` as :mod:`repro.runner.cache` sees it).  A sweep must
still return every verdict it computed, and the server must still answer
200 for a compile that succeeded and leave no stale in-flight future for
the next identical request to wait on.
"""

import asyncio
import errno
import os

import pytest

from repro.runner import OK, REJECTED, ArtifactCache, MatrixEngine, suite_tasks
from repro.runner import cache as cache_module
from repro.serve import HttpClient, ServeConfig, SynthesisServer
from repro.workloads import WORKLOADS


class _FullDisk:
    """The ``os`` module as the cache sees it, on a full disk."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def fdopen(fd, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def full_disk(monkeypatch):
    monkeypatch.setattr(cache_module, "os", _FullDisk())


def test_store_reports_a_failed_write(tmp_path, full_disk):
    cache = ArtifactCache(tmp_path / "cache")
    [task] = suite_tasks(workloads=WORKLOADS[:1], flows=["c2verilog"])
    [result] = MatrixEngine(jobs=1, cache=None).run_cells([task])
    assert cache.store("ab" * 32, result) is False
    assert cache.write_errors == 1
    # No temp file is left behind for the failed write.
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def test_sweep_keeps_its_verdicts_on_a_full_disk(tmp_path, full_disk):
    cache = ArtifactCache(tmp_path / "cache")
    tasks = suite_tasks(workloads=WORKLOADS[:3], flows=["c2verilog"])
    engine = MatrixEngine(jobs=1, cache=cache)
    results = engine.run_cells(tasks)
    assert [r.workload for r in results] == [w.name for w in WORKLOADS[:3]]
    assert all(r.verdict in (OK, REJECTED) for r in results)
    assert cache.write_errors == 3
    assert len(cache) == 0


SRC = (
    "int main(int n) { int s = 0;"
    " for (int i = 0; i < n; i++) { s += i * i; } return s; }"
)


def test_server_answers_and_settles_on_a_full_disk(tmp_path, full_disk):
    config = ServeConfig(port=0, jobs=1, queue_limit=4,
                         cache_dir=str(tmp_path / "serve-cache"),
                         drain_grace_s=5.0)
    request = {"source": SRC, "flow": "handelc", "args": [5]}

    async def main():
        server = SynthesisServer(config)
        await server.start()
        client = HttpClient(server.host, server.port)
        try:
            status, first = await client.request("POST", "/synthesize", request)
            assert status == 200
            assert first["served_by"] == "compile" and first["value"] == 30
            assert len(server.inflight) == 0
            status, second = await asyncio.wait_for(
                client.request("POST", "/synthesize", request), timeout=5.0)
            assert status == 200 and second["value"] == 30
            status, stats = await client.request("GET", "/stats")
            assert status == 200
            assert stats["dedup"]["cache_write_errors"] == 2
            assert stats["dedup"]["stored"] == 0
        finally:
            await client.close()
            await server.drain()

    asyncio.run(main())
