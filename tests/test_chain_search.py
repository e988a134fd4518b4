"""The chain search's runs, shape skips and interned states against one
plain heap loop.

``heap_solve`` is the search loop without runs, skips or interning, kept
here as the oracle: it pushes every cursor on one heap keyed
``(-(logp + a_r), seq, r)`` and applies every action it pops.
"""

import gc
import heapq

import pytest

import mathsynth.enumerator
import mathsynth.equations
from mathsynth.corpus import GoalOracle
from mathsynth.enumerator import (
    SearchBudget,
    Task,
    _chain_actions,
    _ChainNode,
    _rebuild_program,
    solve_task_with_stats,
)
from mathsynth.equations import check_solved, parse_prefix
from mathsynth.grammar import CTX_TSTR, VAR, Library, fit_grammar
from mathsynth.primitives import PrimitiveError, apply_primitive
from mathsynth.programs import (
    EvalError,
    Lambda,
    Prim,
    VarRef,
    apply_abstraction,
    parse_program,
    program_cost,
    render_program,
    subterms,
)


def heap_solve(task, lib, budget, k=5, patience=None):
    actions = _chain_actions(lib)
    var_logp = lib.table(CTX_TSTR)[VAR][0]
    found = []
    cutoff = budget.max_expansions
    root = _ChainNode(task.input, var_logp, 101, None, None, 0)
    first_solution = None
    if check_solved(task.input) == task.goal:
        found.append((Lambda(VarRef(0)), var_logp))
        first_solution = 0
        if patience is not None:
            cutoff = min(cutoff, patience)
    visited = {task.input: True}
    heap = []

    def push_cursor(node, rank):
        while rank < len(actions):
            action = actions[rank]
            if node.cost + action.step_cost > budget.max_program_cost:
                rank += 1
                continue
            heapq.heappush(heap, (-(node.logp + action.log_prob), node.seq, rank, node))
            return

    push_cursor(root, 0)
    expansions = 0
    nodes_made = 0
    while heap and len(found) < k and expansions < cutoff:
        expansions += 1
        neg_logp, _, rank, node = heapq.heappop(heap)
        push_cursor(node, rank + 1)
        action = actions[rank]
        try:
            if type(action.head) is Prim:
                child_eq = apply_primitive(action.head.name, node.eq, action.lits[0])
            else:
                child_eq = apply_abstraction(
                    action.head.abstraction, (node.eq,) + action.lits
                )
        except (PrimitiveError, EvalError):
            continue
        if child_eq in visited:
            continue
        visited[child_eq] = True
        nodes_made += 1
        child = _ChainNode(
            child_eq, -neg_logp, node.cost + action.step_cost, node, action, nodes_made
        )
        if check_solved(child_eq) == task.goal:
            found.append((_rebuild_program(child), child.logp))
            if first_solution is None:
                first_solution = expansions
            if patience is not None:
                cutoff = min(cutoff, expansions + patience)
        push_cursor(child, 0)
    if len(found) >= k:
        stop = "k"
    elif not heap:
        stop = "frontier"
    else:
        stop = "patience" if cutoff < budget.max_expansions else "budget"
    stats = {
        "expansions": expansions,
        "states": len(visited),
        "solutions": len(found),
        "stop": stop,
        "first_solution": first_solution,
    }
    return found, stats


def _task(prefix):
    e = parse_prefix(prefix)
    return Task("t", "t", e, GoalOracle().solve(e))


def _same_search(task, lib, budget, k, patience=None):
    got, got_stats = solve_task_with_stats(task, lib, budget, k=k, patience=patience)
    want, want_stats = heap_solve(task, lib, budget, k=k, patience=patience)
    assert got_stats == want_stats
    assert [(render_program(p), lp) for p, lp in got] == [
        (render_program(p), lp) for p, lp in want
    ]
    return got, got_stats


def _skewed_library():
    """Fitted hard toward one primitive chain, with learned abstractions of
    arity 1, 2 and 3, so actions differ in log probability and step cost,
    and the cheapest action, the arity-1 abstraction, ranks 44th."""
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))"))
    lib.add_abstraction(parse_program("(lambda (lambda (simplify (swap $1 $0) 0)))"))
    lib.add_abstraction(
        parse_program("(lambda (lambda (lambda (simplify (rrotate (div $2 $1) 1) $0))))")
    )
    chain = parse_program("(lambda (simplify (rrotate (div (swap $0 1) 3) 1) 0))")
    return fit_grammar(lib, [chain] * 30 + [parse_program("(lambda (sub $0 2))")])


def test_initial_library_matches_single_heap():
    found, stats = _same_search(
        _task("(= x (/ 6 2))"), Library.initial(), SearchBudget(max_expansions=30_000), k=3
    )
    assert found and stats["expansions"] == 30_000


def test_skewed_library_matches_single_heap():
    lib = _skewed_library()
    for prefix in ("(= (* 5 x) 3)", "(= (+ x 4) 6)", "(= (- (* 3 x) 2) 7)"):
        _same_search(
            _task(prefix), lib, SearchBudget(max_expansions=20_000), k=4, patience=3_000
        )


def test_rank_skipping_cost_cap_matches_single_heap(monkeypatch):
    # a node that can afford only the arity-1 abstraction (step cost 101, not
    # 202 or 303) skips the 44 ranks before it: its first cursor is pushed at
    # a rank >= 1
    seen = set()
    skipped = []
    push = mathsynth.enumerator.heappush

    def counting_push(frontier, cursor):
        if cursor[1] not in seen and cursor[2] >= 1:
            skipped.append(cursor[2])
        seen.add(cursor[1])
        push(frontier, cursor)

    monkeypatch.setattr(mathsynth.enumerator, "heappush", counting_push)
    lib = _skewed_library()
    for cap in (505, 606, 808):
        _same_search(
            _task("(= (+ x 4) 6)"),
            lib,
            SearchBudget(max_expansions=20_000, max_program_cost=cap),
            k=4,
        )
    assert skipped


def test_interrupted_runs_match_single_heap(monkeypatch):
    # under the skewed library, a child or another node's cursor often beats
    # the next rank of the node being expanded, which then goes back into
    # the frontier at a rank >= 1: the only way such a cursor is pushed
    pushed_back = []
    push = mathsynth.enumerator.heappush

    def counting_push(frontier, cursor):
        if cursor[2] >= 1:
            pushed_back.append(cursor[2])
        push(frontier, cursor)

    monkeypatch.setattr(mathsynth.enumerator, "heappush", counting_push)
    lib = _skewed_library()
    for prefix in ("(= (* 5 x) 3)", "(= (- (* 3 x) 2) 7)", "(= (+ x 4) 6)"):
        _same_search(_task(prefix), lib, SearchBudget(max_expansions=15_000), k=3)
    assert pushed_back


def _library_of_calls():
    """The skewed library refitted toward calls of its abstractions, which
    take 0, 1 and 2 integer arguments, so searches return programs that
    use each of them."""
    lib = _skewed_library()
    calls = ["(lambda (fn_0 $0))", "(lambda (fn_1 (fn_0 $0) 1))", "(lambda (fn_2 $0 3 0))"]
    return fit_grammar(lib, [parse_program(c, lib) for c in calls] * 3)


_CALL_TASKS = ("(= (* 3 x) 6)", "(= (+ x 3) 5)", "(= x (/ 6 2))")


def _found(prefix, lib, max_cost=10_000):
    budget = SearchBudget(max_expansions=5_000, max_program_cost=max_cost)
    return solve_task_with_stats(_task(prefix), lib, budget, k=10)[0]


def test_a_returned_log_prior_is_the_library_prior():
    lib = _library_of_calls()
    heads = set()
    for prefix in _CALL_TASKS:
        for program, logp in _found(prefix, lib):
            assert logp == pytest.approx(lib.log_prior(program), abs=1e-9)
            heads.update(render_program(t, named=True) for t in subterms(program))
    assert {"fn_0", "fn_1", "fn_2", "simplify"} <= heads


def test_the_cost_cap_admits_a_program_at_its_cost_and_not_below():
    # pins the search's step cost, 100 + (1 + n_int) + 100 * n_int for an
    # action with n_int integer arguments, and its root cost 101, to
    # programs.program_cost
    lib = _library_of_calls()
    checked = 0
    for prefix in _CALL_TASKS:
        for program, _ in _found(prefix, lib):
            cost = program_cost(program)
            assert program in [p for p, _ in _found(prefix, lib, max_cost=cost)]
            assert program not in [p for p, _ in _found(prefix, lib, max_cost=cost - 1)]
            checked += 1
    assert checked >= 5


def _closed():
    return mathsynth.equations._nodes is None and mathsynth.equations._simp_memo is None


def test_intern_table_closes_when_a_search_returns_or_raises(monkeypatch):
    """The table and its simplify memo close, and the cyclic GC, paused for
    the search, is on again exactly when it was on before."""
    task = _task("(= (+ x 4) 6)")
    budget = SearchBudget(max_expansions=2_000)
    seen = []

    def spy(name, e, i):
        seen.append(gc.isenabled())
        return apply_primitive(name, e, i)

    monkeypatch.setattr(mathsynth.enumerator, "apply_primitive", spy)
    assert gc.isenabled()
    solve_task_with_stats(task, Library.initial(), budget, k=1)
    assert _closed() and gc.isenabled()
    assert seen and not any(seen)
    gc.disable()
    try:
        solve_task_with_stats(task, Library.initial(), budget, k=1)
        assert _closed() and not gc.isenabled()
    finally:
        gc.enable()

    def broken(name, e, i):
        raise RuntimeError("broken primitive")

    monkeypatch.setattr(mathsynth.enumerator, "apply_primitive", broken)
    with pytest.raises(RuntimeError, match="broken primitive"):
        solve_task_with_stats(task, Library.initial(), budget, k=1)
    assert _closed() and gc.isenabled()
