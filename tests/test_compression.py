"""Abstraction discovery: utility arithmetic, rewriting, branch-and-bound
against the brute-force oracle, and semantics preservation."""

import random

import pytest

import mathsynth.compression
from mathsynth.compression import (
    CompressionError,
    Pattern,
    abstraction_from_pattern,
    best_pattern,
    compress_detailed,
    render_pattern,
    rewrite_with_abstraction,
    utility,
)
from mathsynth.equations import parse_prefix
from mathsynth.programs import (
    AbsRef,
    Apply,
    Lambda,
    VarRef,
    evaluate,
    parse_program,
    program_cost,
    render_program,
)

from oracles import exhaustive_oracle


def corp(*texts):
    return [(f"t{i}", parse_program(s)) for i, s in enumerate(texts)]


def test_identical_whole_programs_are_abstracted():
    corpus = corp(*["(lambda (sub $0 5))"] * 3)
    abstractions, _, rewritten = compress_detailed(corpus)
    assert abstractions
    a = abstractions[0]
    assert render_program(a.body) == "(lambda (sub $0 5))"
    before = sum(program_cost(p) for _, p in corpus)
    after = sum(program_cost(p) for _, p in rewritten)
    assert after < before
    assert all(p == AbsRef(a) for _, p in rewritten)


def test_trivial_identity_program_yields_nothing():
    abstractions, _, rewritten = compress_detailed(corp("(lambda $0)"))
    assert abstractions == []
    assert rewritten == corp("(lambda $0)")


@pytest.mark.parametrize(
    "text", ["(lambda (sub $0))", "(lambda (lambda (sub $1 $0)))", "sub", "5"],
    ids=["under-applied", "two-parameters", "bare-primitive", "bare-integer"],
)
def test_a_corpus_program_that_is_no_tstr_to_tstr_chain_is_refused(monkeypatch, text):
    def scored(*_):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(mathsynth.compression, "utility", scored)
    with pytest.raises(CompressionError, match="'t1'"):
        best_pattern(corp("(lambda (sub $0 5))", text))


def test_rounds_must_be_positive():
    with pytest.raises(CompressionError):
        compress_detailed(corp("(lambda (sub $0 5))"), rounds=0)


SHARED_FRAGMENT = (
    "(lambda (simplify (rrotate (sub $0 3) 1) 0))",
    "(lambda (simplify (rrotate (add $0 3) 1) 0))",
    "(lambda (simplify (rrotate (div (swap $0 1) 3) 1) 0))",
)


def test_shared_fragment_with_hole_is_found():
    corpus = corp(*SHARED_FRAGMENT)
    pattern, u, _ = best_pattern(corpus)
    assert render_pattern(pattern) == "(simplify (rrotate ?0 1) 0)"
    assert u == utility(pattern, corpus)
    a = abstraction_from_pattern(pattern)
    assert render_program(a.body) == "(lambda (simplify (rrotate $0 1) 0))"


def test_unmatched_pattern_utility_is_minus_own_cost():
    corpus = corp("(lambda (sub $0 5))")
    stray = Pattern(parse_program("(lambda (add $0 9))"), 0)
    assert utility(stray, corpus) == -program_cost(stray.term)


def test_rewrite_preserves_evaluation():
    corpus = corp(
        "(lambda (simplify (rrotate (sub $0 3) 1) 0))",
        "(lambda (simplify (rrotate (add $0 3) 1) 0))",
    )
    inputs = [parse_prefix("(= (+ x 2) 9)"), parse_prefix("(= (- x 2) 9)")]
    abstractions, _, rewritten = compress_detailed(corpus)
    for (_, before), (_, after), e in zip(corpus, rewritten, inputs):
        assert evaluate(before, e)[0] == evaluate(after, e)[0]


def test_rewrite_leaves_a_differing_whole_program_as_it_is():
    corpus = corp("(lambda (simplify (simplify $0 0) 0))")
    out = rewrite_with_abstraction(
        best_pattern(corp(*["(lambda (simplify $0 0))"] * 2))[0], corpus
    )
    assert out == corpus


def test_rewrite_replaces_leftmost_outermost_then_inside_the_filler():
    pattern = best_pattern(corp(*SHARED_FRAGMENT))[0]
    fn = AbsRef(abstraction_from_pattern(pattern))
    nested = corp("(lambda (simplify (rrotate (simplify (rrotate $0 1) 0) 1) 0))")
    [(_, out)] = rewrite_with_abstraction(pattern, nested)
    assert out == Lambda(Apply(fn, Apply(fn, VarRef(0))))


@pytest.mark.parametrize(
    "texts, max_nodes, render, u, scored",
    [
        (SHARED_FRAGMENT, None, "(simplify (rrotate ?0 1) 0)", 404, 31),
        (SHARED_FRAGMENT, 7, "(rrotate ?0 1)", 0, 12),
        (["(lambda (sub $0 5))"] * 3, None, "(lambda (sub $0 5))", 306, 3),
    ],
    ids=["fragment", "fragment-7-nodes", "whole-program"],
)
def test_search_scores_a_fixed_number_of_candidates(texts, max_nodes, render, u, scored):
    # the benchmark compares candidates_scored exactly, as a work count
    pattern, got_u, got_scored = best_pattern(corp(*texts), max_pattern_nodes=max_nodes)
    assert (render_pattern(pattern), got_u, got_scored) == (render, u, scored)


def test_each_compression_round_scores_a_fixed_number_of_candidates():
    _, info, _ = compress_detailed(corp(*SHARED_FRAGMENT))
    assert [r.candidates_scored for r in info] == [31, 24]


def test_round_utility_matches_realized_saving_for_fragments():
    corpus = corp(
        "(lambda (simplify (rrotate (sub $0 3) 1) 0))",
        "(lambda (simplify (rrotate (add $0 3) 1) 0))",
        "(lambda (simplify (rrotate (add $0 5) 1) 0))",
    )
    abstractions, info, rewritten = compress_detailed(corpus, rounds=1)
    assert info[0].eq3_utility > 0
    before = sum(program_cost(p) for _, p in corpus)
    after = sum(program_cost(p) for _, p in rewritten)
    assert before - after == info[0].realized_saving


def test_known_abstractions_are_skipped():
    corpus = corp(*["(lambda (sub $0 5))"] * 3)
    first, _, _ = compress_detailed(corpus)
    again, _, _ = compress_detailed(corpus, known=set(first))
    assert first[0] not in again


def test_stops_when_no_positive_utility_remains():
    corpus = corp(
        "(lambda (sub $0 5))",
        "(lambda (add $0 3))",
    )
    abstractions, info, _ = compress_detailed(corpus, rounds=3)
    assert abstractions == []
    assert len(info) == 1
    assert info[0].eq3_utility <= 0


def test_oracle_bounds_enforced():
    big = corp(*["(lambda (sub $0 5))"] * 6)
    with pytest.raises(CompressionError):
        exhaustive_oracle(big)
    with pytest.raises(CompressionError):
        exhaustive_oracle(corp("(lambda (sub $0 5))"), max_pattern_nodes=9)
    with pytest.raises(CompressionError):
        exhaustive_oracle([])


def _random_program(rng):
    prims = ["sub", "add", "div", "swap", "rrotate", "simplify", "mult"]
    depth = rng.randint(1, 3)
    body = "$0"
    for _ in range(depth):
        body = f"({rng.choice(prims)} {body} {rng.randint(0, 6)})"
    return f"(lambda {body})"


def test_branch_and_bound_matches_oracle_on_random_corpora():
    rng = random.Random(7)
    for trial in range(10):
        corpus = [
            (f"t{i}", parse_program(_random_program(rng)))
            for i in range(rng.randint(2, 4))
        ]
        pattern, u, _ = best_pattern(corpus, max_pattern_nodes=7)
        oracle_pattern, oracle_u = exhaustive_oracle(corpus)
        assert u == oracle_u, render_pattern(pattern)
        assert render_pattern(pattern) == render_pattern(oracle_pattern)


def test_tie_break_is_deterministic():
    corpus = corp(
        "(lambda (sub $0 5))",
        "(lambda (sub $0 5))",
        "(lambda (add $0 5))",
        "(lambda (add $0 5))",
    )
    runs = {render_pattern(best_pattern(corpus)[0]) for _ in range(5)}
    assert len(runs) == 1


def test_whole_program_rewrite_leaves_bare_reference():
    corpus = corp(*["(lambda (simplify (rrotate (sub $0 3) 1) 0))"] * 2)
    abstractions, _, rewritten = compress_detailed(corpus, rounds=1)
    a = abstractions[0]
    assert [p for _, p in rewritten] == [AbsRef(a), AbsRef(a)]
    assert program_cost(rewritten[0][1]) == 100
