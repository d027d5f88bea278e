"""Content-addressed artifact cache for matrix cells.

A cell's cache key is the SHA-256 of everything its result can depend on:

* the **token-normalized source** — the lexer's token stream, not the raw
  text, so whitespace and comment edits replay from the cache while any
  token-level change (a constant, an identifier, an operator) misses;
* the **flow key** and compile **options**;
* the entry **function** and simulation **args**;
* the **package version** and the **registry fingerprint** (the set of
  flow classes and their feature tables), so upgrading the compiler or
  editing a flow's semantics invalidates its artifacts.

Entries are one JSON file per key under ``root/<key[:2]>/<key>.json``,
written atomically; a corrupt or stale-schema file is treated as a miss
and removed.  Only deterministic verdicts are stored (see
``cells.CACHEABLE_VERDICTS``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .cells import CACHEABLE_VERDICTS, SCHEMA_VERSION, CellResult, CellTask

DEFAULT_CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro/matrix")
).expanduser()


def normalized_source(source: str) -> str:
    """The cache's view of a program: its token stream.

    Lexing strips whitespace and comments, so two sources that differ only
    in layout normalize identically.  Sources the lexer rejects fall back
    to their raw text — they will fail identically in every flow anyway."""
    from ..lang.errors import FrontendError
    from ..lang.lexer import tokenize

    try:
        tokens = tokenize(source)
    except FrontendError:
        return "raw:" + source
    return "\n".join(f"{tok.kind.name} {tok.text}" for tok in tokens)


def cell_key(task: CellTask, salt: str = "") -> str:
    """SHA-256 content address for one cell.

    The task half of the key is ``CellTask.identity()``, which derives
    from ``SynthesisOptions.identity()`` — one definition of "what can
    change a synthesis result", shared with the API facade, so the cache
    key cannot drift from the real option set.  ``salt`` carries the
    environment part (package version plus registry fingerprint); the
    engine computes it once per run."""
    payload = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "source": normalized_source(task.source),
            "task": task.identity(),
            "salt": salt,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def environment_salt() -> str:
    """Package version + registry fingerprint, the non-task key inputs."""
    from .. import __version__
    from ..flows.registry import registry_fingerprint

    return f"{__version__}:{registry_fingerprint()}"


def _read_umask() -> int:
    """The process umask.  Reading it means setting it, so it is read
    once, at import, before any thread of this process writes a file."""
    mask = os.umask(0o777)
    os.umask(mask)
    return mask


_UMASK = _read_umask()


def write_atomic(path: pathlib.Path, text: Union[str, bytes]) -> None:
    """Publish ``text`` (or raw bytes) at ``path`` all at once, or not at
    all.

    The content lands in a uniquely named temp file beside ``path``
    (``mkstemp``, so two writers — or two threads sharing a pid — never
    interleave) and is published with one atomic ``os.replace``.  On an
    ``OSError`` (a full disk, an I/O error) the temp file is removed and
    the error raised: ``path`` keeps its old content, or stays absent.
    The file gets the mode a plain ``open`` would give it (``0o666``
    less the umask), not ``mkstemp``'s private 0600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem[:16]}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        try:
            handle = os.fdopen(fd, "wb" if isinstance(text, bytes) else "w")
        except BaseException:
            os.close(fd)
            raise
        with handle:
            handle.write(text)
        os.chmod(tmp_name, 0o666 & ~_UMASK)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ArtifactCache:
    """A directory of content-addressed :class:`CellResult` artifacts."""

    def __init__(self, root=DEFAULT_CACHE_DIR):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        self.write_errors = 0     # stores a full disk or I/O error dropped

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[CellResult]:
        """The cached result for ``key``, or None (counted as a miss)."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(data, dict)
            or data.get("schema") != SCHEMA_VERSION
            or data.get("key") != key
        ):
            # Stale or foreign entry: drop it so it cannot shadow a rebuild.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        result = CellResult.from_dict(data["result"])
        result.cached = True
        return result

    def store(self, key: str, result: CellResult) -> bool:
        """Persist ``result`` under ``key`` if its verdict is deterministic.

        Concurrent-write safe (see :func:`write_atomic`): a reader either
        sees the old complete entry or the new complete entry, never a
        torn one; losing the last-writer race is benign because both
        writers hold the same deterministic content.

        A write that fails with an ``OSError`` (a full disk, an I/O error)
        leaves the result good but uncached: it returns False and counts
        in :attr:`write_errors` instead of raising."""
        if result.verdict not in CACHEABLE_VERDICTS:
            return False
        path = self._path(key)
        envelope: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "result": result.to_dict(),
        }
        try:
            write_atomic(path, json.dumps(envelope, sort_keys=True))
        except OSError:
            self.write_errors += 1
            return False
        return True

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        removed = 0
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -- capacity management ----------------------------------------------

    def _entries(self) -> List[Tuple[pathlib.Path, int, float]]:
        """(path, size_bytes, mtime) per entry, oldest access first.

        ``load()`` never touches mtime, so this is insertion-order LRU:
        good enough to keep a long-lived server's cache from growing
        without bound, with zero bookkeeping on the hit path."""
        entries: List[Tuple[pathlib.Path, int, float]] = []
        if not self.root.is_dir():
            return entries
        for path in self.root.glob("*/*.json"):
            try:
                status = path.stat()
            except OSError:
                continue
            entries.append((path, status.st_size, status.st_mtime))
        entries.sort(key=lambda entry: entry[2])
        return entries

    def stats(self) -> "CacheStats":
        """Entry count, total bytes, and age span of the cache directory."""
        entries = self._entries()
        orphans = 0
        if self.root.is_dir():
            orphans = sum(1 for _ in self.root.glob("*/*.tmp"))
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=sum(size for _, size, _ in entries),
            oldest_mtime=entries[0][2] if entries else 0.0,
            newest_mtime=entries[-1][2] if entries else 0.0,
            orphan_tmp_files=orphans,
        )

    def prune(self, max_bytes: int) -> "PruneReport":
        """Delete oldest-mtime entries until the cache fits ``max_bytes``.

        Also sweeps orphaned ``*.tmp`` files older than an hour — debris
        from a writer that died between ``mkstemp`` and ``os.replace``."""
        report = PruneReport(max_bytes=max_bytes)
        now = time.time()
        if self.root.is_dir():
            for tmp in self.root.glob("*/*.tmp"):
                try:
                    if now - tmp.stat().st_mtime > 3600:
                        tmp.unlink()
                        report.tmp_swept += 1
                except OSError:
                    pass
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        for path, size, _mtime in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            report.removed += 1
            report.freed_bytes += size
        report.kept = len(entries) - report.removed
        report.kept_bytes = total
        return report


@dataclass
class CacheStats:
    """What ``repro cache stats`` reports."""

    root: str = ""
    entries: int = 0
    total_bytes: int = 0
    oldest_mtime: float = 0.0
    newest_mtime: float = 0.0
    orphan_tmp_files: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "oldest_mtime": self.oldest_mtime,
            "newest_mtime": self.newest_mtime,
            "orphan_tmp_files": self.orphan_tmp_files,
        }


@dataclass
class PruneReport:
    """What one ``ArtifactCache.prune`` pass removed and kept."""

    max_bytes: int = 0
    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0
    tmp_swept: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_bytes": self.max_bytes,
            "removed": self.removed,
            "freed_bytes": self.freed_bytes,
            "kept": self.kept,
            "kept_bytes": self.kept_bytes,
            "tmp_swept": self.tmp_swept,
        }
