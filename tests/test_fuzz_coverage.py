"""Coverage signal, seed pool, and the guided campaign loop.

Pins the determinism contracts the guided mode rests on: log2 bucketing,
``CoverageMap`` algebra (merge is order-independent), ``cell_signals``
purity in the non-deterministic fields, power scheduling in ``SeedPool``,
engine-side ``sim_stats`` capture (including the cache bypass), and —
end to end — that two guided campaigns over the same options agree
signature-for-signature and bucket-for-bucket, with coverage strictly
growing over the run.
"""

import random

from repro.api import SynthesisOptions
from repro.fuzz import CoverageMap, FuzzOptions, PoolEntry, SeedPool, run_campaign
from repro.fuzz.coverage import FAMILIES, cell_signals, log2_bucket
from repro.runner import CellResult, MatrixEngine
from repro.runner.cells import CellTask


class TestLog2Bucket:
    def test_integers_bucket_by_doubling(self):
        assert log2_bucket(0) == "0"
        assert log2_bucket(1) == "2^1"
        assert log2_bucket(2) == "2^2"
        assert log2_bucket(3) == "2^2"
        assert log2_bucket(4) == "2^3"
        assert log2_bucket(1023) == "2^10"
        assert log2_bucket(-8) == log2_bucket(8)

    def test_bools_and_strings_pass_through(self):
        assert log2_bucket(True) == "1"
        assert log2_bucket(False) == "0"
        assert log2_bucket("ok") == "ok"
        assert len(log2_bucket("x" * 100)) == 24


class TestCoverageMap:
    def test_add_returns_novelty_and_counts_hits(self):
        cov = CoverageMap()
        assert cov.add(["a", "b", "a"]) == 2
        assert cov.add(["a", "c"]) == 1
        assert cov.distinct() == 3
        assert cov.buckets["a"] == 3

    def test_peek_does_not_record(self):
        cov = CoverageMap()
        cov.add(["a"])
        assert cov.peek(["a", "b", "b"]) == 1
        assert cov.distinct() == 1

    def test_merge_is_order_independent(self):
        parts = [["a", "b"], ["b", "c"], ["c", "d", "a"]]
        forward = CoverageMap()
        for p in parts:
            forward.merge(CoverageMap({s: p.count(s) for s in p}))
        backward = CoverageMap()
        for p in reversed(parts):
            backward.merge(CoverageMap({s: p.count(s) for s in p}))
        assert forward.buckets == backward.buckets

    def test_round_trips_through_dict(self):
        cov = CoverageMap()
        cov.add(["f:verdict:ok", "f:ctr:ops:2^3", "f:verdict:ok"])
        again = CoverageMap.from_dict(cov.to_dict())
        assert again.buckets == cov.buckets
        assert cov.summary() == {
            "distinct": 2, "families": {"ctr": 1, "verdict": 1},
        }

    def test_families_split_on_second_field(self):
        cov = CoverageMap()
        cov.add(["f:verdict:ok", "f:rule:X", "f:phase:parse",
                 "f:ctr:n:0", "f:sim:states:2^2", "f:cycles:2^4"])
        assert set(cov.families()) == set(FAMILIES)


class TestCellSignals:
    def _result(self, **overrides):
        base = dict(
            workload="w", flow="cyber", verdict="ok", rule="",
            wall_s=1.234, cycles=12,
            trace={"spans": [
                {"name": "compile", "args": {"ops": 9, "flag": True},
                 "children": [{"name": "parse", "args": {},
                               "children": []}]},
            ]},
            sim_stats={"machines": 1, "states": 5, "visits": [8, 3]},
        )
        base.update(overrides)
        return CellResult(**base)

    def test_signal_shape(self):
        signals = cell_signals(self._result())
        assert "cyber:verdict:ok" in signals
        assert "cyber:phase:compile" in signals
        assert "cyber:phase:parse" in signals
        assert "cyber:ctr:compile.ops:2^4" in signals
        assert "cyber:sim:machines:1" in signals
        assert "cyber:sim:rank0:2^4" in signals
        assert "cyber:cycles:2^4" in signals

    def test_wall_time_never_leaks(self):
        fast = cell_signals(self._result(wall_s=0.001))
        slow = cell_signals(self._result(wall_s=99.0))
        assert fast == slow

    def test_rule_only_when_present(self):
        rejected = self._result(verdict="rejected", rule="PTR01",
                                trace=None, sim_stats=None, cycles=0)
        signals = cell_signals(rejected)
        assert signals == ["cyber:verdict:rejected", "cyber:rule:PTR01"]


class TestSeedPool:
    def _entry(self, key, novelty=0):
        return PoolEntry(key=key, flow="cyber", profile="scalar",
                         seed=1, statements=8, new_buckets=novelty)

    def test_energy_starts_at_one_plus_novelty(self):
        pool = SeedPool()
        entry = pool.add(self._entry("a", novelty=6))
        assert entry.energy == 7.0
        assert entry.mutation_bonus() == 1
        assert self._entry("x", novelty=100).mutation_bonus() == 2

    def test_add_dedups_by_key(self):
        pool = SeedPool()
        first = pool.add(self._entry("a", novelty=2))
        second = pool.add(self._entry("a", novelty=9))
        assert second is first
        assert first.new_buckets == 9
        assert len(pool) == 1

    def test_selection_is_deterministic_and_decays(self):
        def draws(n):
            pool = SeedPool()
            pool.add(self._entry("a", novelty=10))
            pool.add(self._entry("b", novelty=0))
            rng = random.Random(42)
            return [pool.select(rng).key for _ in range(n)]

        assert draws(6) == draws(6)
        pool = SeedPool()
        hot = pool.add(self._entry("a", novelty=10))
        before = hot.energy
        pool.select(random.Random(0))
        assert hot.energy < before

    def test_hot_parents_dominate_early_draws(self):
        pool = SeedPool()
        pool.add(self._entry("hot", novelty=40))
        for i in range(5):
            pool.add(self._entry(f"cold{i}", novelty=0))
        rng = random.Random(7)
        first_draws = [pool.select(rng).key for _ in range(3)]
        assert "hot" in first_draws


class TestEngineCoverageCapture:
    SOURCE = (
        "int main() {\n"
        "  int a = 3;\n"
        "  int b = a + 4;\n"
        "  return a + b;\n"
        "}\n"
    )

    def _run(self, trace):
        engine = MatrixEngine(jobs=1, cache=None, trace=trace)
        task = CellTask(workload="w", source=self.SOURCE,
                        options=SynthesisOptions(flow="cyber"))
        return engine.run_cells([task])[0]

    def test_sim_stats_captured_when_enabled(self):
        result = self._run(trace=True)
        assert result.verdict == "ok"
        assert result.sim_stats
        assert result.sim_stats["machines"] >= 1
        assert result.sim_stats["visits"]
        assert cell_signals(result)

    def test_sim_stats_absent_when_disabled(self):
        assert self._run(trace=False).sim_stats is None

    def test_cache_hits_without_stats_are_bypassed(self, tmp_path):
        from repro.runner.cache import ArtifactCache

        task = CellTask(workload="w", source=self.SOURCE,
                        options=SynthesisOptions(flow="cyber"))
        plain = MatrixEngine(jobs=1, cache=ArtifactCache(tmp_path / "c"))
        plain.run_cells([task])
        guided = MatrixEngine(jobs=1, cache=ArtifactCache(tmp_path / "c"),
                              trace=True)
        result = guided.run_cells([task])[0]
        assert result.sim_stats, "stale cache hit must not mask coverage"


class TestGuidedCampaign:
    def _options(self, tmp_path, **overrides):
        base = dict(
            flows=("cyber",), seeds=12, reduce=False, mutations=1,
            corpus_dir=str(tmp_path / "corpus"),
        )
        base.update(overrides)
        return FuzzOptions.make(**base)

    def test_guided_campaign_is_deterministic(self, tmp_path):
        first = run_campaign(self._options(tmp_path))
        second = run_campaign(self._options(tmp_path))
        assert first.coverage_growth == second.coverage_growth
        assert first.coverage.buckets == second.coverage.buckets
        assert [d.signature().id for d in first.divergences] \
            == [d.signature().id for d in second.divergences]
        assert first.cells_run == second.cells_run

    def test_coverage_strictly_grows_over_waves(self, tmp_path):
        report = run_campaign(self._options(tmp_path))
        growth = report.coverage_growth
        assert len(growth) >= 2
        assert growth == sorted(growth)
        assert growth[-1] > growth[0]
        assert report.coverage.distinct() == growth[-1]

    def test_campaign_seed_changes_the_schedule(self, tmp_path):
        base = run_campaign(self._options(tmp_path))
        moved = run_campaign(self._options(tmp_path, campaign_seed=9))
        assert base.coverage.buckets != moved.coverage.buckets

    def test_profiles_restrict_generation(self, tmp_path):
        report = run_campaign(self._options(
            tmp_path, profiles=("scalar",), seeds=8, mutations=0))
        assert report.stats["cyber"].seeds == 8
        assert report.coverage.distinct() > 0
