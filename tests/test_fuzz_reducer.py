"""Reducer contracts: 1-minimality, termination, and budget discipline.

The predicates here are synthetic (string/AST properties rather than flow
runs) so the contracts are checked exactly and fast; the integration path
— reducing a real divergence under a real engine predicate — is covered
by the corpus entries themselves, which were produced by that pipeline
and are asserted minimal in test_corpus_replay.py.
"""

from collections import Counter

import pytest

import repro.fuzz.reduce as reduce_module
from repro.fuzz import is_statement_minimal, reduce_source
from repro.fuzz.reduce import _statement_sites
from repro.lang import ast_nodes as ast
from repro.lang import parse


BIG_PROGRAM = """
int junk1[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int helper(int a, int b) {
    int h = a + b;
    return h * 2;
}
int main(int x, int y) {
    int a = x + 1;
    int b = y - 2;
    int trigger = a ^ b;
    for (int i = 0; i < 4; i++) {
        a = a + i;
    }
    if (a > b) {
        b = helper(a, b);
    } else {
        b = 0;
    }
    return a + b + trigger;
}
"""


def has_xor(source: str) -> bool:
    try:
        parse(source)
    except Exception:
        return False
    return "^" in source


class TestReduction:
    def test_shrinks_while_preserving_the_predicate(self):
        result = reduce_source(BIG_PROGRAM, has_xor)
        assert result.reproduced
        assert has_xor(result.reduced)
        assert len(result.reduced) < len(BIG_PROGRAM) / 2
        assert result.shrink_ratio < 0.5

    def test_result_is_one_minimal_at_statement_granularity(self):
        result = reduce_source(BIG_PROGRAM, has_xor)
        assert is_statement_minimal(result.reduced, has_xor)

    def test_unrelated_statements_are_gone(self):
        result = reduce_source(BIG_PROGRAM, has_xor)
        assert "junk1" not in result.reduced
        assert "helper" not in result.reduced
        assert "for" not in result.reduced

    def test_reduction_is_deterministic(self):
        first = reduce_source(BIG_PROGRAM, has_xor)
        second = reduce_source(BIG_PROGRAM, has_xor)
        assert first.reduced == second.reduced
        assert first.predicate_calls == second.predicate_calls


class TestTermination:
    def test_non_reproducing_input_returns_after_one_call(self):
        calls = []

        def never(source):
            calls.append(source)
            return False

        result = reduce_source(BIG_PROGRAM, never)
        assert not result.reproduced
        assert result.reduced == BIG_PROGRAM
        assert len(calls) == 1
        assert result.predicate_calls == 1

    def test_unparseable_input_never_reaches_the_predicate(self):
        calls = []

        def count(source):
            calls.append(source)
            return True

        result = reduce_source("int main( {", count)
        assert not result.reproduced
        assert calls == []

    def test_always_true_predicate_still_terminates(self):
        # Everything reproduces, so reduction bottoms out at the empty-ish
        # fixpoint instead of looping.
        result = reduce_source(BIG_PROGRAM, lambda s: has_xor(s) or True)
        assert result.reproduced
        parse(result.reduced)

    def test_budget_bounds_predicate_calls(self):
        result = reduce_source(BIG_PROGRAM, has_xor, max_predicate_calls=5)
        assert result.predicate_calls <= 5
        assert any("budget" in note for note in result.notes)

    def test_raising_predicate_is_treated_as_non_reproducing(self):
        def explode(source):
            raise RuntimeError("flow crashed")

        result = reduce_source(BIG_PROGRAM, explode)
        assert not result.reproduced
        assert result.reduced == BIG_PROGRAM


class TestCandidates:
    def test_statement_paths_cover_nested_blocks_and_globals(self):
        program, _ = parse(BIG_PROGRAM)
        sites = _statement_sites(program)
        top = [node for node, path in sites if len(path) == 1]
        assert [type(node) for node in top] == [ast.VarDecl, ast.FunctionDef]
        # main's top level has 6 statements; nested bodies add more.
        assert len(sites) - len(top) > 10

    def test_main_is_never_a_deletion_candidate(self):
        program, _ = parse(BIG_PROGRAM)
        names = {node.name for node, _ in _statement_sites(program)
                 if isinstance(node, ast.FunctionDef)}
        assert names == {"helper"}

    def test_statements_below_an_unbraced_body_are_deletable(self):
        # The block under the unbraced for body's if is reached through
        # that if, so its first statement is a deletion candidate.
        source = (
            "int main(int x) { int s = 0;"
            " for (int i = 0; i < 3; i++) if (i == 1) { s = s + 5; s = s + 6; }"
            " return s; }"
        )
        keep = lambda text: "s + 6" in text
        result = reduce_source(source, keep)
        assert "s = s;" not in result.reduced
        assert is_statement_minimal(result.reduced, keep)
        # What reduction stopped at when that block was out of reach.
        stuck = (
            "int main(int x) { int s = 0;"
            " for (int i = 0; i; i = i) if (i) { s = s; s = (s + 6); } }"
        )
        assert not is_statement_minimal(stuck, keep)

    def test_token_pass_shrinks_below_statement_level(self):
        source = (
            "int main(int x, int y) {\n"
            "    int t = (x + 77) ^ (y + 1000);\n"
            "    return t;\n"
            "}\n"
        )
        result = reduce_source(source, has_xor)
        assert result.reproduced
        # The additions around the XOR are not statements; only the token
        # pass can remove them.
        assert "77" not in result.reduced
        assert "1000" not in result.reduced


@pytest.mark.parametrize("needle", ["junk1", "helper", "trigger"])
def test_minimality_checker_rejects_padded_programs(needle):
    # BIG_PROGRAM itself is far from minimal for has_xor, and the checker
    # must say so (each named artifact is singly deletable).
    assert needle in BIG_PROGRAM
    assert not is_statement_minimal(BIG_PROGRAM, has_xor)


def test_the_reduction_judges_each_text_once():
    # Replacing ``a + a`` by either operand renders the same text.
    source = "int main(int x) { return (x ^ 1) + (x ^ 1); }"
    judged = []

    def keep(text):
        judged.append(text)
        return "+" in text and "^" in text

    result = reduce_source(source, keep)
    assert result.reproduced
    assert max(Counter(judged).values()) == 1
    assert result.predicate_calls == len(judged)


def test_each_text_is_parsed_once(monkeypatch):
    parsed = []

    def counting_parse(text, *args):
        parsed.append(text)
        return parse(text, *args)

    monkeypatch.setattr(reduce_module, "parse", counting_parse)
    result = reduce_source(BIG_PROGRAM, has_xor)
    assert result.reduced != BIG_PROGRAM
    # The input once, then each rendered candidate once.
    assert parsed[0] == BIG_PROGRAM
    assert max(Counter(parsed).values()) == 1
