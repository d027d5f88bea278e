"""Corpus files are written whole or not at all, and a corrupt one shows.

The fuzz corpus (:mod:`repro.fuzz.corpus`) writes each entry through the
same atomic helper as the artifact cache
(:func:`repro.runner.cache.write_atomic`): an ``OSError`` part-way
through a write leaves no partial ``*.json`` and no temp file.  An entry
that does not parse is reported, never skipped: the corpus lists it and
``repro fuzz`` names it and exits nonzero.
"""

import errno
import os

import pytest

from repro.__main__ import main
from repro.fuzz import Corpus
from repro.fuzz.signature import Divergence
from repro.runner import cache as cache_module


def _divergence(value=1):
    return Divergence(
        flow="c2verilog", kind="mismatch",
        source=f"int main(int x) {{ return x + {value}; }}", args=(2,),
        detail="pinned for the corpus I/O tests",
        extra={"expect": {"verdict": "mismatch", "value": value}},
    )


def test_truncated_entry_is_reported(tmp_path):
    corpus = Corpus(tmp_path)
    entry = corpus.add(_divergence())
    path = entry.path(tmp_path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    reloaded = Corpus(tmp_path)
    assert len(reloaded) == 0
    assert [p for p, _ in reloaded.corrupt] == [path]


def test_fuzz_names_a_corrupt_entry_and_fails(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    broken = corpus_dir / "c2verilog" / "mismatch--000000000000.json"
    broken.parent.mkdir(parents=True)
    broken.write_text('{"flow": "c2verilog", "kind": "mism')
    code = main(["fuzz", "--flows", "c2verilog", "--seeds", "1",
                 "--no-reduce", "--no-cache",
                 "--corpus-dir", str(corpus_dir)])
    captured = capsys.readouterr()
    assert code != 0
    assert str(broken) in captured.err
    assert "corrupt corpus entry" in captured.out


class _TornDisk:
    """The ``os`` module as the atomic writer sees it, on a disk that
    fills up after the first half of a write."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def fdopen(fd, *args, **kwargs):
        handle = os.fdopen(fd, *args, **kwargs)
        write = handle.write

        class Torn:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                handle.close()
                return False

            def write(self, text):
                write(text[: len(text) // 2])
                handle.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        return Torn()


def test_failed_write_leaves_no_partial_entry(tmp_path, monkeypatch):
    corpus = Corpus(tmp_path)
    corpus.add(_divergence(1))
    monkeypatch.setattr(cache_module, "os", _TornDisk())
    with pytest.raises(OSError):
        corpus.add(_divergence(2))
    monkeypatch.undo()
    files = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) == 1 and files[0].endswith(".json")
    reloaded = Corpus(tmp_path)
    assert len(reloaded) == 1 and not reloaded.corrupt


@pytest.fixture
def umask_022(monkeypatch):
    """Umask 022, both the process's and the one ``write_atomic`` read
    when its module was imported."""
    from repro.runner import cache

    monkeypatch.setattr(cache, "_UMASK", 0o022)
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_atomic_writes_take_the_umask_mode(tmp_path, umask_022):
    """A cache entry, a corpus entry and a merged shard-corpus entry are
    published as a plain ``open`` would create them: 0o644 under umask
    022, not the private 0o600 of the temp file they start in."""
    from repro.fuzz.shard import merge_corpus_dirs
    from repro.runner import ArtifactCache, MatrixEngine, suite_tasks
    from repro.workloads import WORKLOADS

    cache = ArtifactCache(tmp_path / "cache")
    [task] = suite_tasks(workloads=WORKLOADS[:1], flows=["c2verilog"])
    MatrixEngine(jobs=1, cache=cache).run_cells([task])
    [cached] = (tmp_path / "cache").glob("*/*.json")

    entry = Corpus(tmp_path / "corpus").add(_divergence())
    stored = entry.path(tmp_path / "corpus")

    shard = tmp_path / "shard"
    (shard / "cyber").mkdir(parents=True)
    (shard / "cyber" / "e.json").write_bytes(b'{"v": 1}')
    merge_corpus_dirs([shard], tmp_path / "merged")
    merged = tmp_path / "merged" / "cyber" / "e.json"

    for path in (cached, stored, merged):
        assert path.stat().st_mode & 0o777 == 0o644, path
