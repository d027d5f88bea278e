"""Artifact-cache capacity tools and concurrent-write safety."""

import json
import os
import threading

import pytest

from repro.__main__ import main
from repro.runner import OK, ArtifactCache, CellResult


def make_result(value: int = 7, pad: int = 0) -> CellResult:
    diagnostics = [f"pad-{'x' * pad}"] if pad else []
    return CellResult(
        workload="w", flow="handelc", verdict=OK, value=value,
        diagnostics=diagnostics,
    )


def key_for(index: int) -> str:
    return f"{index:02x}" + "ab" * 31


def test_stats_counts_entries_and_bytes(tmp_path):
    cache = ArtifactCache(tmp_path)
    assert cache.stats().entries == 0
    for index in range(3):
        assert cache.store(key_for(index), make_result(index))
    stats = cache.stats()
    assert stats.entries == 3
    assert stats.total_bytes > 0
    assert stats.newest_mtime >= stats.oldest_mtime
    assert stats.orphan_tmp_files == 0
    assert stats.to_dict()["entries"] == 3


def test_prune_evicts_oldest_first(tmp_path):
    cache = ArtifactCache(tmp_path)
    paths = []
    for index in range(4):
        key = key_for(index)
        cache.store(key, make_result(index, pad=64))
        path = cache._path(key)
        # Deterministic LRU order: entry 0 oldest, entry 3 newest.
        os.utime(path, (1000.0 + index, 1000.0 + index))
        paths.append(path)
    sizes = [path.stat().st_size for path in paths]
    keep_budget = sizes[2] + sizes[3]

    report = cache.prune(max_bytes=keep_budget)
    assert report.removed == 2
    assert report.kept == 2
    assert report.freed_bytes == sizes[0] + sizes[1]
    assert not paths[0].exists() and not paths[1].exists()
    assert paths[2].exists() and paths[3].exists()
    # The survivors still load.
    assert cache.load(key_for(3)).value == 3


def test_prune_noop_when_under_budget(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store(key_for(0), make_result())
    report = cache.prune(max_bytes=10 << 20)
    assert report.removed == 0 and report.kept == 1


def test_prune_sweeps_stale_tmp_orphans(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store(key_for(0), make_result())
    bucket = cache._path(key_for(0)).parent
    stale = bucket / ".deadbeef.tmp"
    stale.write_text("torn half-write from a dead worker")
    os.utime(stale, (1.0, 1.0))
    fresh = bucket / ".cafe.tmp"
    fresh.write_text("a writer mid-flight right now")

    assert cache.stats().orphan_tmp_files == 2
    report = cache.prune(max_bytes=10 << 20)
    assert report.tmp_swept == 1
    assert not stale.exists()
    assert fresh.exists()  # younger than an hour: left alone


def test_concurrent_stores_never_expose_a_torn_entry(tmp_path):
    """Two writers racing on one key: every read sees a complete entry."""
    cache = ArtifactCache(tmp_path)
    key = key_for(0)
    result = make_result(pad=512)
    cache.store(key, result)
    path = cache._path(key)
    stop = threading.Event()
    failures = []

    def writer():
        while not stop.is_set():
            cache.store(key, result)

    def reader():
        while not stop.is_set():
            try:
                data = json.loads(path.read_text())
                assert data["key"] == key
            except Exception as error:  # torn write would land here
                failures.append(error)
                return

    threads = [threading.Thread(target=writer) for _ in range(2)]
    threads.append(threading.Thread(target=reader))
    for thread in threads:
        thread.start()
    threading.Event().wait(0.4)
    stop.set()
    for thread in threads:
        thread.join()
    assert not failures
    # No tmp litter left behind by the racing writers.
    assert list(tmp_path.glob("*/*.tmp")) == []
    assert cache.load(key).value == 7


def test_store_failure_leaves_no_tmp_litter(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)

    def explode(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", explode)
    # A failed write degrades to "not cached": reported, counted, no raise.
    assert cache.store(key_for(1), make_result()) is False
    assert cache.write_errors == 1
    monkeypatch.undo()
    assert list(tmp_path.glob("*/*.tmp")) == []
    assert cache.load(key_for(1)) is None


# -------------------------------------------------------------------- CLI


def test_cache_stats_command(tmp_path, capsys):
    cache = ArtifactCache(tmp_path)
    cache.store(key_for(0), make_result())
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries    : 1" in out

    assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"] == 1
    assert data["total_bytes"] > 0


def test_cache_prune_command_with_suffix(tmp_path, capsys):
    cache = ArtifactCache(tmp_path)
    for index in range(3):
        cache.store(key_for(index), make_result(index))
        os.utime(cache._path(key_for(index)),
                 (1000.0 + index, 1000.0 + index))
    assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                 "--max-bytes", "0"]) == 0
    assert "pruned 3 entries" in capsys.readouterr().out
    assert len(cache) == 0

    cache.store(key_for(9), make_result())
    assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                 "--max-bytes", "1M", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["removed"] == 0 and report["kept"] == 1
    assert report["max_bytes"] == 1 << 20


def test_cache_clear_command(tmp_path, capsys):
    cache = ArtifactCache(tmp_path)
    cache.store(key_for(0), make_result())
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert len(cache) == 0
