from fractions import Fraction

import pytest

from mathsynth.corpus import GoalOracle
from mathsynth.enumerator import SearchBudget, Task, solve_task, solve_task_with_stats
from mathsynth.equations import check_solved, parse_prefix
from mathsynth.grammar import Library, fit_grammar
from mathsynth.programs import evaluate, parse_program, render_program


def _task(prefix, tid="t0"):
    e = parse_prefix(prefix)
    return Task(tid, tid, e, GoalOracle().solve(e))


def test_already_solved_equation_needs_identity_only():
    found = solve_task(_task("(= x 4)"), Library.initial(), SearchBudget())
    assert found
    assert render_program(found[0][0]) == "(lambda $0)"


def test_solves_single_multiplication():
    # the four-action chain is out of reach for a uniform grammar at unit
    # budgets; fit toward its primitives first, as training would
    task = _task("(= (* 5 x) 3)")
    assert task.goal == Fraction(3, 5)
    chain = parse_program("(lambda (simplify (rrotate (div (swap $0 1) 3) 1) 0))")
    lib = fit_grammar(Library.initial(), [chain] * 5)
    found = solve_task(task, lib, SearchBudget(max_expansions=400_000), k=2)
    assert found
    for p, _ in found:
        result, _ = evaluate(p, task.input)
        assert check_solved(result) == Fraction(3, 5)


def test_unsolvable_within_budget_returns_empty():
    task = _task("(= (+ (* 3 x) (* 4 x)) 9)")
    assert solve_task(task, Library.initial(), SearchBudget(max_expansions=200)) == []


def test_solutions_ordered_by_log_prior_and_distinct():
    task = _task("(= x (/ 6 2))")
    found = solve_task(
        task, Library.initial(), SearchBudget(max_expansions=100_000), k=4
    )
    assert len(found) >= 2
    logps = [lp for _, lp in found]
    assert logps == sorted(logps, reverse=True)
    renders = [render_program(p) for p, _ in found]
    assert len(set(renders)) == len(renders)


def test_patience_cuts_search_after_first_find():
    task = _task("(= x (/ 6 2))")
    budget = SearchBudget(max_expansions=300_000)
    _, stats_full = solve_task_with_stats(task, Library.initial(), budget, k=8)
    _, stats_cut = solve_task_with_stats(
        task, Library.initial(), budget, k=8, patience=1_000
    )
    assert stats_cut["expansions"] < stats_full["expansions"]


def test_fitted_grammar_finds_known_shape_faster():
    task = _task("(= (+ x 4) 6)")
    budget = SearchBudget(max_expansions=400_000)
    uniform = Library.initial()
    _, stats_u = solve_task_with_stats(task, uniform, budget, k=1)
    corpus = [parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))")] * 3
    fitted = fit_grammar(uniform, corpus)
    _, stats_f = solve_task_with_stats(task, fitted, budget, k=1)
    assert stats_f["expansions"] < stats_u["expansions"]


@pytest.mark.parametrize(
    "prefix, budget, k, patience, stop",
    [
        ("(= x 4)", SearchBudget(), 1, None, "k"),
        ("(= x (/ 6 2))", SearchBudget(max_expansions=300_000), 8, 1_000, "patience"),
        ("(= (+ (* 3 x) (* 4 x)) 9)", SearchBudget(max_expansions=200), 1, None, "budget"),
        ("(= (+ (* 3 x) (* 4 x)) 9)", SearchBudget(wall_timeout=0.0), 1, None, "timeout"),
        # searched with a library that has no chain actions
        ("(= (+ (* 3 x) (* 4 x)) 9)", SearchBudget(), 1, None, "frontier"),
    ],
)
def test_a_search_says_why_it_stopped(prefix, budget, k, patience, stop):
    lib = Library([]) if stop == "frontier" else Library.initial()
    found, stats = solve_task_with_stats(_task(prefix), lib, budget, k, patience)
    assert stats["stop"] == stop
    first = stats["first_solution"]
    assert (first is None) == (not found)
    if stop == "k":
        assert stats["expansions"] == first == 0 and len(found) == k
    elif stop == "patience":
        assert 0 < first and stats["expansions"] == first + patience and len(found) < k
    elif stop == "budget":
        assert stats["expansions"] == budget.max_expansions
    elif stop == "timeout":
        assert stats["expansions"] == 1024  # the clock is read every 1024 expansions
    else:
        assert stats["expansions"] == 0 and stats["states"] == 1


@pytest.mark.parametrize(
    "fields",
    [
        {"max_expansions": -1},
        {"wall_timeout": -0.5},
        {"wall_timeout": float("nan")},
    ],
)
def test_a_budget_that_cannot_mean_anything_is_rejected(fields):
    with pytest.raises(ValueError):
        SearchBudget(**fields)


def test_zero_and_unbounded_budgets_stay_valid():
    SearchBudget(max_expansions=0, wall_timeout=0.0)
    SearchBudget(wall_timeout=float("inf"))
