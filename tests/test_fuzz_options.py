"""The frozen FuzzOptions facade: builders and the report schema.

Covers the api_redesign contract: ``FuzzOptions`` is immutable with
``make``/``with_`` builders and a JSON-stable identity;
``CampaignReport.to_dict`` is a pinned schema; and corpus entries record
the exact options they were found under so replays reconstruct them
instead of re-deriving ad hoc.
"""

import dataclasses
import json

import pytest

from repro.fuzz import CorpusEntry, FuzzOptions, run_campaign
from repro.fuzz.corpus import replay_options


class TestFrozenOptions:
    def test_options_are_frozen(self):
        options = FuzzOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.seeds = 5

    def test_make_rejects_unknown_fields(self):
        with pytest.raises(TypeError, match="no field"):
            FuzzOptions.make(seedz=10)

    def test_make_normalizes_shapes(self):
        options = FuzzOptions.make(
            flows=["cyber", "cash"], profiles=["scalar"],
            opt_levels=[0, 2], corpus_dir=__import__("pathlib").Path("x"),
        )
        assert options.flows == ("cyber", "cash")
        assert options.profiles == ("scalar",)
        assert options.opt_levels == (0, 2)
        assert options.corpus_dir == "x"

    def test_with_overrides_without_mutating(self):
        base = FuzzOptions(seeds=10)
        derived = base.with_(seeds=20, shard_index=1)
        assert base.seeds == 10 and base.shard_index is None
        assert derived.seeds == 20 and derived.shard_index == 1

    def test_identity_round_trips_through_payload(self):
        options = FuzzOptions(
            flows=("cyber",), profiles=("scalar", "control"),
            seeds=7, campaign_seed=3, opt_levels=(0, 2), shards=4,
        )
        payload = json.loads(json.dumps(options.to_payload()))
        assert FuzzOptions.from_payload(payload) == options

    def test_payload_with_retired_fields_still_loads(self):
        # Reports written before the single schedule carried these keys.
        payload = FuzzOptions(seeds=7).to_payload()
        assert "coverage" not in payload and "batch_size" not in payload
        payload.update(coverage=False, batch_size=50)
        assert FuzzOptions.from_payload(payload) == FuzzOptions(seeds=7)

    def test_cli_has_no_schedule_switch(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--no-coverage"])
        assert exit_info.value.code == 2
        assert "--no-coverage" in capsys.readouterr().err

    def test_promote_path_prefers_shard_dir(self):
        assert FuzzOptions().promote_path == FuzzOptions().corpus_path
        sharded = FuzzOptions(shard_dir="deltas/0")
        assert str(sharded.promote_path) == "deltas/0"


class TestReportSchema:
    def _report(self, tmp_path, **overrides):
        options = FuzzOptions.make(
            flows=("cyber",), seeds=8, reduce=False, mutations=1,
            corpus_dir=str(tmp_path / "corpus"), **overrides,
        )
        return run_campaign(options)

    def test_to_dict_schema_is_pinned(self, tmp_path):
        report = self._report(tmp_path)
        data = report.to_dict()
        assert data["schema"] == "repro-fuzz-report/1"
        assert set(data) == {
            "schema", "options", "stats", "cells_run", "elapsed_s",
            "budget_exhausted", "new_signatures", "known_signatures",
            "divergences", "coverage", "coverage_growth", "shards",
        }
        assert data["options"]["flows"] == ["cyber"]
        assert data["stats"]["cyber"]["seeds"] == 8
        assert data["coverage"]["distinct"] > 0
        # to_json is valid, sorted JSON of the same dict.
        assert json.loads(report.to_json()) == json.loads(
            json.dumps(data, sort_keys=True)
        )


class TestRecordedReplayOptions:
    def test_campaign_records_options_on_entries(self, tmp_path):
        from repro.fuzz import promote

        report = run_campaign(FuzzOptions(
            flows=("cash",), seeds=30, reduce=False, mutations=1,
            corpus_dir=str(tmp_path / "empty"),
        ))
        assert report.divergences, "expected cash to diverge in 30 seeds"
        promote(report, tmp_path / "corpus")
        from repro.fuzz import Corpus

        corpus = Corpus(tmp_path / "corpus")
        assert corpus.entries
        for entry in corpus.entries:
            assert entry.options == {"sim_backend": "interp"}

    def test_replay_options_prefers_recorded_then_overrides(self):
        entry = CorpusEntry(
            flow="cyber", kind="mismatch", rule="", program_hash="x",
            source="int main() { return 1; }",
            options={"sim_backend": "compiled", "opt_level": 2},
        )
        recorded = replay_options(entry)
        assert recorded.flow == "cyber"
        assert recorded.sim_backend == "compiled"
        assert recorded.opt_level == 2
        overridden = replay_options(entry, sim_backend="interp", opt_level=0)
        assert overridden.sim_backend == "interp"
        assert overridden.opt_level == 0

    def test_entries_without_options_use_historical_defaults(self):
        from repro.api import DEFAULT_OPT_LEVEL

        entry = CorpusEntry(
            flow="cyber", kind="mismatch", rule="", program_hash="x",
            source="int main() { return 1; }",
        )
        options = replay_options(entry)
        assert options.sim_backend == "interp"
        assert options.opt_level == DEFAULT_OPT_LEVEL
