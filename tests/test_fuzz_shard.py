"""Sharded campaigns: deterministic splits and idempotent merges.

The contracts CI leans on: ``assign_shard`` partitions the seed space as
a pure function of the campaign seed; a sharded run covers every base
seed exactly once and folds into the same signatures as the equivalent
single-shard run; and ``merge_corpus_dirs`` produces a byte-identical
corpus regardless of the order shard deltas arrive in, with self-merge
as a no-op.
"""

import errno
import json
import os

from repro.__main__ import main
from repro.fuzz import (
    FuzzOptions,
    assign_shard,
    merge_corpus_dirs,
    run_campaign,
)
from repro.fuzz import shard
from repro.fuzz.shard import mix, shard_options
from repro.runner import cache as cache_module

_real_shard_worker = shard._shard_worker


class _FullDiskFor:
    """The ``os`` module as the atomic writer sees it, on a disk that
    fills up half-way through writing ``victim`` (any other write goes
    through)."""

    def __init__(self, victim):
        self.victim = victim

    def __getattr__(self, name):
        return getattr(os, name)

    def fdopen(self, fd, *args, **kwargs):
        handle = os.fdopen(fd, *args, **kwargs)
        victim = self.victim

        class Torn:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                handle.close()
                return False

            def write(self, data):
                if data != victim:
                    return handle.write(data)
                handle.write(data[: len(data) // 2])
                handle.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        return Torn()


def _dying_shard_worker(payload):
    """Shard 1's worker process dies outright; shard 0 runs normally."""
    if payload["index"] == 1:
        os._exit(3)
    return _real_shard_worker(payload)


class TestMix:
    def test_stable_across_calls(self):
        assert mix("shard", 0, 7) == mix("shard", 0, 7)
        assert 0 <= mix("anything") < 2**32

    def test_field_boundaries_matter(self):
        assert mix("ab", "c") != mix("a", "bc")


class TestAssignShard:
    def test_partitions_completely_and_deterministically(self):
        shards = 4
        owners = {seed: assign_shard(seed, 0, shards) for seed in range(200)}
        assert set(owners.values()) <= set(range(shards))
        # Every shard gets work and the split is balanced-ish.
        per_shard = [list(owners.values()).count(i) for i in range(shards)]
        assert all(count > 20 for count in per_shard)
        assert owners == {
            seed: assign_shard(seed, 0, shards) for seed in range(200)
        }

    def test_campaign_seed_reshuffles(self):
        a = [assign_shard(s, 0, 4) for s in range(100)]
        b = [assign_shard(s, 1, 4) for s in range(100)]
        assert a != b

    def test_single_shard_owns_everything(self):
        assert all(assign_shard(s, 3, 1) == 0 for s in range(50))


class TestShardOptions:
    def test_slices_index_and_divides_jobs(self):
        parent = FuzzOptions(shards=4, jobs=8)
        child = shard_options(parent, 2)
        assert child.shard_index == 2
        assert child.jobs == 2
        assert child.shards == 4

    def test_jobs_never_drop_below_one(self):
        assert shard_options(FuzzOptions(shards=4, jobs=1), 0).jobs == 1


class TestShardedCampaign:
    def _options(self, tmp_path, **overrides):
        base = dict(
            flows=("cyber",), seeds=12, reduce=False, mutations=1,
            corpus_dir=str(tmp_path / "corpus"), coverage=True,
        )
        base.update(overrides)
        return FuzzOptions.make(**base)

    def test_shards_cover_each_seed_exactly_once(self, tmp_path):
        whole = run_campaign(self._options(tmp_path))
        split = run_campaign(self._options(tmp_path, shards=2))
        assert split.stats["cyber"].seeds == whole.stats["cyber"].seeds
        assert len(split.shard_reports) == 2
        assert sum(row["cells_run"] for row in split.shard_reports) \
            == split.cells_run

    def test_sharded_fold_is_deterministic(self, tmp_path):
        first = run_campaign(self._options(tmp_path, shards=2))
        second = run_campaign(self._options(tmp_path, shards=2))
        assert first.coverage.buckets == second.coverage.buckets
        assert [d.signature().id for d in first.divergences] \
            == [d.signature().id for d in second.divergences]
        assert first.new_signatures == second.new_signatures

    def test_dead_shard_is_a_classified_outcome(self, tmp_path, monkeypatch):
        monkeypatch.setattr(shard, "_shard_worker", _dying_shard_worker)
        report = run_campaign(self._options(tmp_path, shards=2))
        alive, dead = report.shard_reports
        assert "died" in dead["error"]
        assert dead["cells_run"] == 0
        assert alive["error"] is None
        assert report.failed
        # The surviving shard's findings are folded in, exactly as that
        # slice reports them when run on its own.
        survivor = run_campaign(
            self._options(tmp_path, shards=2, shard_index=0)
        )
        assert report.stats["cyber"] == survivor.stats["cyber"]
        assert report.cells_run == survivor.cells_run > 0
        assert [d.signature().id for d in report.divergences] \
            == [d.signature().id for d in survivor.divergences]

    def test_explicit_shard_index_runs_one_slice(self, tmp_path):
        slices = [
            run_campaign(self._options(tmp_path, shards=2, shard_index=i))
            for i in range(2)
        ]
        total = sum(r.stats["cyber"].seeds for r in slices)
        assert total == 12
        assert all(len(r.shard_reports) == 0 for r in slices)


class TestCorpusMerge:
    def _write(self, root, rel, payload):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return path

    def test_merge_is_order_independent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._write(a, "cyber/one.json", b'{"x": 1}')
        self._write(a, "cyber/shared.json", b'{"x": 0}')
        self._write(b, "cash/two.json", b'{"y": 2}')
        self._write(b, "cyber/shared.json", b'{"x": 9}')

        forward, backward = tmp_path / "fwd", tmp_path / "bwd"
        merge_corpus_dirs([a, b], forward)
        merge_corpus_dirs([b, a], backward)

        def snapshot(root):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.glob("*/*.json"))
            }

        assert snapshot(forward) == snapshot(backward)
        # Conflict kept the lexicographically smaller bytes.
        assert snapshot(forward)["cyber/shared.json"] == b'{"x": 0}'

    def test_merge_is_idempotent(self, tmp_path):
        src, dest = tmp_path / "src", tmp_path / "dest"
        self._write(src, "cyber/one.json", b'{"x": 1}')
        first = merge_corpus_dirs([src], dest)
        assert first.copied == ["cyber/one.json"] and first.changed
        second = merge_corpus_dirs([src], dest)
        assert not second.changed
        assert second.identical == 1
        # Self-merge of the destination is also a no-op.
        third = merge_corpus_dirs([dest], dest)
        assert not third.changed and third.identical == 1

    def test_dest_conflicts_prefer_smaller_bytes(self, tmp_path):
        src, dest = tmp_path / "src", tmp_path / "dest"
        self._write(dest, "cyber/e.json", b'{"v": 5}')
        self._write(src, "cyber/e.json", b'{"v": 3}')
        report = merge_corpus_dirs([src], dest)
        assert report.conflicts == ["cyber/e.json"]
        assert (dest / "cyber/e.json").read_bytes() == b'{"v": 3}'
        # The larger byte string never overwrites a smaller incumbent.
        self._write(src, "cyber/e.json", b'{"v": 7}')
        again = merge_corpus_dirs([src], dest)
        assert not again.changed
        assert (dest / "cyber/e.json").read_bytes() == b'{"v": 3}'

    def test_sharded_deltas_merge_identically_any_order(self, tmp_path):
        """End to end: two shard runs promote their new findings into
        per-shard delta dirs; merging the deltas in either order yields a
        byte-identical corpus."""
        from repro.fuzz import promote

        deltas = []
        for index in range(2):
            options = FuzzOptions.make(
                flows=("cash",), seeds=30, reduce=False, mutations=1,
                corpus_dir=str(tmp_path / "empty"), coverage=False,
                shards=2, shard_index=index,
                shard_dir=str(tmp_path / f"delta{index}"),
            )
            report = run_campaign(options)
            promote(report, options.promote_path,
                    only=set(report.new_signatures))
            deltas.append(options.promote_path)

        def snapshot(root):
            out = {}
            for p in sorted(root.glob("*/*.json")):
                out[p.relative_to(root).as_posix()] = json.loads(
                    p.read_text()
                )
            return out

        forward, backward = tmp_path / "fwd", tmp_path / "bwd"
        merge_corpus_dirs(deltas, forward)
        merge_corpus_dirs(list(reversed(deltas)), backward)
        merged = snapshot(forward)
        assert merged == snapshot(backward)
        assert merged, "expected cash divergences to promote"

    def test_full_disk_on_one_entry_keeps_its_old_bytes(
            self, tmp_path, monkeypatch):
        src, dest = tmp_path / "src", tmp_path / "dest"
        self._write(dest, "cyber/e.json", b'{"v": 5}')
        self._write(src, "cyber/e.json", b'{"v": 3}')    # would win
        self._write(src, "cash/a.json", b'{"a": 1}')
        self._write(src, "cyber/z.json", b'{"z": 1}')
        monkeypatch.setattr(cache_module, "os", _FullDiskFor(b'{"v": 3}'))
        report = merge_corpus_dirs([src], dest)
        monkeypatch.undo()
        assert (dest / "cyber/e.json").read_bytes() == b'{"v": 5}'
        assert (dest / "cash/a.json").read_bytes() == b'{"a": 1}'
        assert (dest / "cyber/z.json").read_bytes() == b'{"z": 1}'
        assert report.failed == [str(dest / "cyber/e.json")]
        assert report.copied == ["cash/a.json", "cyber/z.json"]
        assert "1 failed" in report.summary()
        assert sorted(p.name for p in dest.rglob("*") if p.is_file()) == [
            "a.json", "e.json", "z.json"]

    def test_unreadable_source_entry_is_reported(self, tmp_path, capsys):
        src, dest = tmp_path / "src", tmp_path / "dest"
        (src / "cyber" / "broken.json").mkdir(parents=True)  # read: EISDIR
        self._write(src, "cyber/ok.json", b'{"x": 1}')
        code = main(["fuzz-merge", str(src), "--dest", str(dest)])
        captured = capsys.readouterr()
        assert code == 1
        assert str(src / "cyber" / "broken.json") in captured.err
        assert "corpus += cyber/ok.json" in captured.out
        assert (dest / "cyber/ok.json").read_bytes() == b'{"x": 1}'
