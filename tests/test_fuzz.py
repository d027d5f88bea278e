"""Unit tests for the fuzzing subsystem: masks, grammar, mutations,
signatures, corpus storage, and campaign determinism."""

import json
from collections import Counter

import pytest

import repro.fuzz.mutate as mutate_module
from repro.analysis.lint import lint
from repro.flows import COMPILABLE
from repro.fuzz import (
    Corpus,
    CorpusEntry,
    FuzzOptions,
    MUTATION_NAMES,
    all_masks,
    available_profiles,
    feature_mask,
    generate_program,
    mutants,
    program_hash,
    run_campaign,
)
from repro.fuzz.corpus import entry_from_divergence
from repro.fuzz.grammar import GeneratedProgram
from repro.fuzz.masks import GENERATABLE_FEATURES
from repro.fuzz.signature import Divergence, KIND_MISMATCH, Signature
from repro.lang import parse
from repro.lang.pretty import print_program
from repro.lang.semantic import FEATURE_CHANNELS, FEATURE_PAR, FEATURE_POINTERS


class TestMasks:
    def test_every_compilable_flow_has_a_mask(self):
        masks = all_masks()
        assert set(masks) == set(COMPILABLE)

    def test_masks_mirror_the_lint_registry(self):
        # Spot-check flows whose restrictions the paper documents.
        assert not feature_mask("handelc").allows(FEATURE_POINTERS)
        assert feature_mask("handelc").allows(FEATURE_CHANNELS)
        assert feature_mask("handelc").allows(FEATURE_PAR)
        assert not feature_mask("c2verilog").allows(FEATURE_CHANNELS)
        assert feature_mask("cones").requires_static_bounds
        assert not feature_mask("cones").allows_processes

    def test_boundary_features_are_generatable_and_forbidden(self):
        for flow, mask in all_masks().items():
            for feature in mask.boundary_features:
                assert feature in GENERATABLE_FEATURES
                assert not mask.allows(feature)

    def test_unknown_flow_raises(self):
        with pytest.raises(KeyError):
            feature_mask("vaporware")


class TestGrammar:
    def test_profiles_respect_the_mask(self):
        for flow, mask in all_masks().items():
            for profile in available_profiles(mask):
                program = generate_program(11, mask)
                parse(program.source)

    def test_forbidden_profiles_are_excluded(self):
        handelc = available_profiles(feature_mask("handelc"))
        assert "pointer" not in handelc
        assert "channel" in handelc
        c2v = available_profiles(feature_mask("c2verilog"))
        assert "channel" not in c2v
        assert "pointer" in c2v

    def test_boundary_program_names_carry_the_feature(self):
        mask = feature_mask("handelc")
        program = generate_program(7, mask, boundary=True)
        assert program.is_boundary
        assert program.boundary_feature in mask.boundary_features
        assert "bnd" in program.name

    def test_boundary_downgrades_when_nothing_is_forbidden(self):
        mask = feature_mask("specc")     # permissive: nothing to inject
        if mask.boundary_features:
            pytest.skip("specc grew restrictions")
        program = generate_program(3, mask, boundary=True)
        assert not program.is_boundary   # silently a clean-side program


class TestMutations:
    SOURCE = (
        "int main(int x, int y) {\n"
        "    int a = x + y;\n"
        "    int b = (a * 3) & (y ^ x);\n"
        "    for (int i = 0; i < 4; i++) {\n"
        "        a = a + b;\n"
        "    }\n"
        "    return a ^ b;\n"
        "}\n"
    )

    def test_mutants_are_valid_and_distinct(self):
        produced = mutants(self.SOURCE, seed=1, count=4)
        assert produced
        seen = set()
        for mutant in produced:
            assert mutant.name in MUTATION_NAMES
            parse(mutant.source)
            assert mutant.source != self.SOURCE
            assert mutant.source not in seen
            seen.add(mutant.source)

    @pytest.mark.parametrize("seed", [1, 3, 32])
    def test_no_mutant_prints_as_the_unmutated_program(self, seed):
        # Commuting two equal operands changes the tree but not its text;
        # such a mutant could never diverge from its original.
        mask = feature_mask("cones")
        source = generate_program(seed, mask).source
        printed = print_program(parse(source)[0])
        produced = mutants(source, seed=seed, count=5, mask=mask)
        assert produced
        assert all(mutant.source != printed for mutant in produced)

    def test_the_source_is_parsed_once(self, monkeypatch):
        parsed = []

        def counting_parse(text, *args):
            parsed.append(text)
            return parse(text, *args)

        monkeypatch.setattr(mutate_module, "parse", counting_parse)
        produced = mutants(self.SOURCE, seed=1, count=6)
        assert produced
        # The source once, then each attempt's new printed text once.
        assert parsed[0] == self.SOURCE
        assert max(Counter(parsed).values()) == 1
        assert len(parsed) <= 1 + 6 * 6

    def test_mutants_are_deterministic(self):
        first = [m.source for m in mutants(self.SOURCE, seed=9, count=3)]
        second = [m.source for m in mutants(self.SOURCE, seed=9, count=3)]
        assert first == second

    def test_static_bound_masks_suppress_loop_rotation(self):
        cones = feature_mask("cones")
        for mutant in mutants(self.SOURCE, seed=2, count=6, mask=cones):
            assert mutant.name != "rotate-loop"

    def test_calls_keep_their_order(self):
        source = (
            "int g;\n"
            "int bump(int a) { g = g + a; return g; }\n"
            "int main(int x) { return bump(1) * bump(x) + (x & 3); }\n"
        )
        produced = mutants(source, seed=0, count=6,
                           only=["commute", "reassociate"])
        assert produced
        for mutant in produced:
            assert mutant.source.index("bump(1)") < mutant.source.index("bump(x)")

    def test_loop_with_unbraced_continue_is_not_rotated(self):
        # The continue binds to the for loop, so rotating it into a
        # do-while would skip the step; it hides under a brace-less if.
        source = (
            "int main(int x) { int s = 0;"
            " for (int i = 0; i < 4; i++) { if (i == 2) continue; s = s + i; }"
            " return s; }"
        )
        assert mutants(source, seed=1, count=4)
        assert not mutants(source, seed=1, count=4, only=["rotate-loop"])
        braced = source.replace("continue;", "{ s = s; }")
        assert mutants(braced, seed=1, count=4, only=["rotate-loop"])


class TestSignatures:
    def test_hash_ignores_layout(self):
        a = "int main(int x, int y) { return x + y; }"
        b = "int main(int x,\n  int y)\n{\n  return x + y;  // sum\n}"
        assert program_hash(a) == program_hash(b)

    def test_hash_sees_token_changes(self):
        a = "int main(int x, int y) { return x + y; }"
        b = "int main(int x, int y) { return x - y; }"
        assert program_hash(a) != program_hash(b)

    def test_id_and_coarse(self):
        sig = Signature("handelc", "mismatch", "", "abc123")
        assert sig.id == "handelc--mismatch--abc123"
        assert sig.coarse == ("handelc", "mismatch", "")
        with_rule = Signature("cones", "lint-disagree", "SYN101", "fff")
        assert with_rule.id == "cones--lint-disagree--SYN101--fff"

    def test_divergence_prefers_reduced_source(self):
        divergence = Divergence(
            flow="cash", kind=KIND_MISMATCH,
            source="int main(int x, int y) { int dead = 1; return x; }",
        )
        full = divergence.signature()
        divergence.reduced_source = "int main(int x, int y) { return x; }"
        reduced = divergence.signature()
        assert full.program_hash != reduced.program_hash
        assert full.coarse == reduced.coarse


class TestCorpusStorage:
    def _divergence(self):
        return Divergence(
            flow="cash", kind=KIND_MISMATCH,
            source="int g = 1;\nint main(int x, int y) { return x; }\n",
            args=(1, 2), detail="test entry", seed=42, profile="seeded",
            extra={"expect": {"verdict": "mismatch", "value": 1}},
        )

    def test_entry_round_trips_through_json(self):
        entry = entry_from_divergence(self._divergence())
        clone = CorpusEntry.from_json(entry.to_json())
        assert clone == entry
        assert json.loads(entry.to_json())["expect"]["verdict"] == "mismatch"

    def test_add_is_idempotent(self, tmp_path):
        corpus = Corpus(tmp_path)
        first = corpus.add(self._divergence())
        assert first is not None
        assert first.path(corpus.root).is_file()
        assert corpus.add(self._divergence()) is None
        assert len(Corpus(tmp_path)) == 1

    def test_known_coarse_matches_reduced_variants(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.add(self._divergence())
        other = self._divergence()
        other.reduced_source = "int main(int x, int y) { return x; }"
        assert other.signature() not in corpus
        assert other.signature().coarse in corpus.known_coarse()

    def test_a_mismatch_in_a_field_no_entry_pins_is_new(self, monkeypatch):
        """A mismatch's rule is the kind of the field it differs in, so a
        Cones mismatch in its return value is new to the triaged corpus,
        whose Cones entries all differ in an absent global."""
        from pathlib import Path

        from repro.fuzz.campaign import (
            CampaignReport, FlowStats, _WorkItem, _classify_item,
            _tasks_for, compare_with_corpus,
        )
        from repro.interp import Observable
        from repro.runner import MatrixEngine
        from repro.runner import engine as engine_module

        corpus_dir = Path(__file__).parent / "corpus"
        assert {e.rule for e in Corpus(corpus_dir).entries
                if e.flow == "cones"} == {"global-absent"}
        monkeypatch.setattr(engine_module, "golden_observable",
                            lambda source, function, args: Observable(999))
        item = _WorkItem(program=GeneratedProgram(
            name="p", flow="cones", profile="arith", seed=0,
            source="int main(int a) { return a + 1; }", args=(3,),
        ))
        results = MatrixEngine().run_cells(_tasks_for(item, opt_levels=()))
        found = _classify_item(item, results, FlowStats(), opt_levels=())
        assert [(d.kind, d.rule) for d in found] == [(KIND_MISMATCH, "value")]
        report = CampaignReport(options=FuzzOptions(), divergences=found)
        compare_with_corpus(report, corpus_dir)
        assert report.new_signatures == [found[0].signature().id]
        assert report.known_signatures == []


class TestCampaignDeterminism:
    def _run(self, tmp_path):
        options = FuzzOptions(
            flows=("cyber",), seeds=8, jobs=1, reduce=False,
            mutations=1, corpus_dir=str(tmp_path / "corpus"),
        )
        return run_campaign(options)

    def test_same_seeds_same_signatures(self, tmp_path):
        first = self._run(tmp_path)
        second = self._run(tmp_path)
        assert [d.signature().id for d in first.divergences] \
            == [d.signature().id for d in second.divergences]
        assert first.cells_run == second.cells_run
        assert first.stats["cyber"].ok == second.stats["cyber"].ok

    def test_boundary_seeds_probe_rejections(self, tmp_path):
        report = self._run(tmp_path)
        stats = report.stats["cyber"]
        assert stats.boundary_seeds == 2          # seeds 3 and 7 of 0..7
        assert stats.expected_rejections == 2     # both rejected, both predicted
        assert stats.seeds == 8

    def test_boundary_rejections_are_lint_predicted(self):
        mask = feature_mask("cyber")
        program = generate_program(3, mask, boundary=True)
        report = lint(program.source, flow="cyber")
        assert report.errors("cyber")


class TestCrossLevelFuzz:
    """The --opt-levels cross-level mode: every clean program also runs
    at each listed opt_level, and level-dependent behaviour is triaged
    as an opt-diverge finding."""

    def _item(self):
        from repro.fuzz.campaign import _WorkItem
        from repro.fuzz.grammar import GeneratedProgram

        program = GeneratedProgram(
            name="synthetic", flow="c2verilog", profile="arith", seed=0,
            source="int main(int a) { return a + 1; }", args=(3,),
        )
        return _WorkItem(program=program)

    def _cell(self, verdict="ok", value=4, observable=None, rule=""):
        from repro.runner.cells import CellResult

        return CellResult(
            workload="synthetic", flow="c2verilog", args=(3,),
            verdict=verdict, value=value, rule=rule,
            observable=observable if observable is not None else [value],
        )

    def test_opt_rule_round_trips(self):
        from repro.fuzz.campaign import _opt_rule, _parse_opt_rule

        assert _opt_rule(2) == "opt1-vs-opt2"
        assert _parse_opt_rule("opt1-vs-opt2") == (1, 2)
        assert _parse_opt_rule("opt0-vs-opt3") == (0, 3)
        assert _parse_opt_rule("TIM102-within-infeasible") is None
        assert _parse_opt_rule("") is None

    def test_tasks_carry_levels_between_lanes_and_mutants(self):
        from repro.fuzz.campaign import _tasks_for

        tasks = _tasks_for(self._item(), opt_levels=(0, 2))
        assert len(tasks) == 3
        assert tasks[1].workload.endswith("-opt0")
        assert tasks[1].options == tasks[0].options.with_(opt_level=0)
        assert tasks[2].options == tasks[0].options.with_(opt_level=2)
        # Boundary probes never get cross-level variants.
        item = self._item()
        item.program = GeneratedProgram(
            name="b", flow="c2verilog", profile="arith", seed=3,
            source="int main() { return 1; }", args=(),
            boundary_feature="pointers",
        )
        assert len(_tasks_for(item, opt_levels=(0, 2))) == 1

    def test_classify_flags_observable_divergence(self):
        from repro.fuzz.campaign import FlowStats, _classify_item
        from repro.fuzz.signature import KIND_OPT_DIVERGE

        item = self._item()
        results = [
            self._cell(value=4),
            self._cell(value=4),             # opt_level=0 agrees
            self._cell(value=7),             # opt_level=2 drifted
        ]
        stats = FlowStats()
        found = _classify_item(item, results, stats, opt_levels=(0, 2))
        assert stats.opt_cells == 2
        assert [d.kind for d in found] == [KIND_OPT_DIVERGE]
        assert found[0].rule == "opt1-vs-opt2"
        assert "value 4 vs 7" in found[0].detail

    def test_classify_flags_verdict_flip(self):
        from repro.fuzz.campaign import FlowStats, _classify_item
        from repro.fuzz.signature import KIND_OPT_DIVERGE

        item = self._item()
        results = [
            self._cell(value=4),
            self._cell(verdict="error", value=None),   # opt_level=0 broke
            self._cell(value=4),
        ]
        found = _classify_item(item, results, FlowStats(),
                               opt_levels=(0, 2))
        assert [d.kind for d in found] == [KIND_OPT_DIVERGE]
        assert found[0].rule == "opt1-vs-opt0"

    def test_classify_is_quiet_when_levels_agree(self):
        from repro.fuzz.campaign import FlowStats, _classify_item

        item = self._item()
        results = [self._cell(value=4)] * 3
        stats = FlowStats()
        assert _classify_item(item, results, stats,
                              opt_levels=(0, 2)) == []
        assert stats.ok == 1 and stats.opt_cells == 2

    def test_campaign_cross_level_mode_is_clean(self, tmp_path):
        options = FuzzOptions(
            flows=("c2verilog",), seeds=8, jobs=1, reduce=False,
            mutations=0, corpus_dir=str(tmp_path / "corpus"),
            opt_levels=(0, 2),
        )
        report = run_campaign(options)
        stats = report.stats["c2verilog"]
        assert stats.opt_cells == 2 * (stats.seeds - stats.boundary_seeds)
        assert not report.new_signatures, report.new_signatures

    def test_opt_diverge_entry_replays_through_both_levels(self, tmp_path):
        from repro.fuzz import replay_entry
        from repro.fuzz.signature import KIND_OPT_DIVERGE

        source = "int main(int a) { return a * 2; }"
        entry = CorpusEntry(
            flow="c2verilog", kind=KIND_OPT_DIVERGE,
            rule="opt1-vs-opt2", program_hash=program_hash(source),
            source=source, args=[5],
        )
        reproduced, detail = replay_entry(entry)
        # A healthy optimizer makes the levels agree, so the pinned
        # divergence reports as gone — exactly the refresh signal.
        assert not reproduced
        assert "agree" in detail
