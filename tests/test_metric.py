from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathsynth.equations import parse_prefix
from mathsynth.metric import (
    MetricError,
    Solution,
    c_score,
    dedup_steps,
    extract_steps,
    mean_c_score,
    solution_cost_f,
)
from mathsynth.programs import parse_program

from conftest import equations
from samples import SAMPLE_TASK_ID, concise_solution, verbose_solution


def sol(task_id, *prefixes):
    return Solution(task_id, tuple(parse_prefix(s) for s in prefixes))


def test_concise_reference_solution_costs_8():
    assert solution_cost_f(concise_solution()) == 8


def test_verbose_baseline_costs_24_raw_23_dedup():
    v = verbose_solution()
    assert solution_cost_f(v) == 24
    assert solution_cost_f(dedup_steps(v)) == 23


def test_single_state_solution_costs_0():
    assert solution_cost_f(sol("t", "(= x 4)")) == 0


def test_identical_consecutive_states_cost_the_floor():
    s = sol("t", "(= x 4)", "(= x 4)")
    assert solution_cost_f(s) == 1


def test_c_score_of_reference_vs_baseline():
    c = c_score(concise_solution(), verbose_solution())
    assert c == Fraction(2, 3)
    assert c > 0


def test_c_score_formula():
    a = sol("t", "(= (+ (* 3 x) 1) 5)", "(= x (/ 4 3))")
    b = sol(
        "t",
        "(= (+ (* 3 x) 1) 5)",
        "(= (- (+ (* 3 x) 1) 1) (- 5 1))",
        "(= (* 3 x) 4)",
        "(= x (/ 4 3))",
    )
    fa, fb = solution_cost_f(a), solution_cost_f(b)
    assert c_score(a, b) == Fraction(fb - fa, fb)


def test_c_score_requires_matching_task_ids():
    with pytest.raises(MetricError):
        c_score(sol("a", "(= x 4)"), sol("b", "(= x 4)"))


def test_c_score_undefined_for_zero_cost_baseline():
    with pytest.raises(MetricError):
        c_score(sol("t", "(= x 4)", "(= x 4)"), sol("t", "(= x 4)"))


@given(equations(max_depth=3), st.integers(2, 6))
def test_self_c_score_is_zero(e, n):
    s = Solution("t", tuple([e] * n))
    assert c_score(s, s) == 0


def test_mean_c_score_over_intersection():
    targets = {
        "a": sol("a", "(= (+ x 1) 3)", "(= x 2)"),
        SAMPLE_TASK_ID: concise_solution(),
        "only-target": sol("only-target", "(= x 4)"),
    }
    baselines = {
        "a": sol("a", "(= (+ x 1) 3)", "(= x 2)"),
        SAMPLE_TASK_ID: verbose_solution(),
        "only-baseline": sol("only-baseline", "(= x 4)"),
    }
    mean, report = mean_c_score(targets, baselines)
    assert report.n_intersection == 2
    assert mean == (Fraction(0) + Fraction(2, 3)) / 2
    assert report.c_scores["a"] == 0
    assert "only-target" not in report.c_scores


def test_mean_undefined_on_disjoint_sets():
    mean, report = mean_c_score(
        {"a": sol("a", "(= x 4)")}, {"b": sol("b", "(= x 4)")}
    )
    assert mean is None
    assert report.n_intersection == 0


def test_zero_cost_baselines_are_excluded_and_flagged():
    targets = {"a": sol("a", "(= x 4)", "(= x 4)")}
    baselines = {"a": sol("a", "(= x 4)")}
    mean, report = mean_c_score(targets, baselines)
    assert mean is None
    assert report.undefined_tasks == ("a",)


def test_dedup_collapses_only_consecutive_repeats():
    a, b = "(= x 4)", "(= x 5)"
    assert dedup_steps(sol("t", a, a, b)).states == sol("t", a, b).states
    assert dedup_steps(sol("t", a, b, a)).states == sol("t", a, b, a).states
    assert dedup_steps(sol("t", a, b)).states == sol("t", a, b).states


@given(equations(max_depth=2), equations(max_depth=2), st.integers(1, 4))
def test_dedup_never_increases_cost(e1, e2, reps):
    states = tuple([e1] * reps + [e2] * reps)
    s = Solution("t", states)
    assert solution_cost_f(dedup_steps(s)) <= solution_cost_f(s)


def test_extract_steps_matches_trace_granularity():
    p = parse_program("(lambda (simplify (rrotate (div (swap $0 1) 3) 1) 0))")
    e = parse_prefix("(= (* 5 x) 3)")
    s = extract_steps(p, e, task_id="t")
    assert len(s.states) == 5
    assert s.states[0] == e
    assert s.states[-1] == parse_prefix("(= x (/ 3 5))")


def test_extract_steps_identity_program():
    e = parse_prefix("(= x 4)")
    assert extract_steps(parse_program("(lambda $0)"), e).states == (e,)
