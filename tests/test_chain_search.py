"""The chain search's runs, shape skips and interned states against one
plain heap loop.

``heap_solve`` is the search loop without runs, skips, interning or a
separate queue of new states, kept here as the oracle: it pushes every
cursor on one heap keyed ``(-(logp + a_r), seq, r)`` and applies every
action it pops through the checked path: ``apply_primitive``, or for an
abstraction the reference walk ``oracles.interpreted``, which shares no
code with the search's unrolled steps.  Its states are ``_ChainNode`` objects, and it
rebuilds a program by walking their parents.  It counts the actions that
raised there, which the search splits into index skips, shape skips,
failed rewrites and failed chains, and the children it had already
visited.
"""

import gc
import heapq
import tracemalloc
from collections import Counter

import pytest

import mathsynth.enumerator
import mathsynth.equations
import mathsynth.programs
from conftest import doubling_nest
from oracles import interpreted
from mathsynth.corpus import GoalOracle
from mathsynth.enumerator import (
    SearchBudget,
    Task,
    _chain_actions,
    solve_task_with_stats,
)
from mathsynth.equations import check_solved, parse_prefix, render_prefix
from mathsynth.grammar import VAR, Library, fit_grammar
from mathsynth.primitives import PrimitiveError, apply_primitive
from mathsynth.programs import (
    Apply,
    EvalError,
    IntLit,
    Lambda,
    Prim,
    VarRef,
    parse_program,
    render_program,
    subterms,
)


class _ChainNode:
    __slots__ = ("eq", "logp", "parent", "action", "seq")

    def __init__(self, eq, logp, parent, action, seq):
        self.eq = eq
        self.logp = logp
        self.parent = parent
        self.action = action
        self.seq = seq


def _rebuild_program(node):
    steps = []
    while node.action is not None:
        steps.append(node.action)
        node = node.parent
    body = VarRef(0)
    for action in reversed(steps):
        body = Apply(action.head, body)
        for v in action.lits:
            body = Apply(body, IntLit(v))
    return Lambda(body)


def heap_solve(task, lib, budget, k=5, patience=None):
    actions = _chain_actions(lib)
    var_logp = lib.table()[VAR][0]
    found = []
    cutoff = budget.max_expansions
    root = _ChainNode(task.input, var_logp, None, None, 0)
    first_solution = None
    if check_solved(task.input) == task.goal:
        found.append((Lambda(VarRef(0)), var_logp))
        first_solution = 0
        if patience is not None:
            cutoff = min(cutoff, patience)
    visited = {task.input: True}
    heap = []

    def push_cursor(node, rank):
        if rank < len(actions):
            key = -(node.logp + actions[rank].log_prob)
            heapq.heappush(heap, (key, node.seq, rank, node))

    push_cursor(root, 0)
    expansions = unapplied = duplicates = 0
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
                child_eq = interpreted(action.head.abstraction, (node.eq,) + action.lits)
        except (PrimitiveError, EvalError):
            unapplied += 1
            continue
        if child_eq in visited:
            duplicates += 1
            continue
        visited[child_eq] = True
        nodes_made += 1
        child = _ChainNode(child_eq, -neg_logp, node, action, nodes_made)
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
        "unapplied": unapplied,
        "duplicates": duplicates,
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
    compared = dict(got_stats)
    del compared["seconds"]  # the oracle keeps no clock
    del compared["runs"]  # nor runs: it pops one cursor per expansion
    skipped = compared.pop("skipped")
    assert skipped == compared.pop("index_skips") + compared.pop("shape_skips")
    failed = compared.pop("failed")
    assert failed == compared.pop("rewrite_failed") + compared.pop("chain_failed")
    compared["unapplied"] = skipped + failed
    assert compared == want_stats
    assert [(render_program(p), lp) for p, lp in got] == [
        (render_program(p), lp) for p, lp in want
    ]
    return got, got_stats


def _skewed_library():
    """Fitted hard toward one primitive chain, with learned abstractions of
    arity 1, 2 and 3, so actions differ in log probability and arity; dist,
    fitted a little, fails its rewrite where no factor is shared."""
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))"))
    lib.add_abstraction(parse_program("(lambda (lambda (simplify (swap $1 $0) 0)))"))
    lib.add_abstraction(
        parse_program("(lambda (lambda (lambda (simplify (rrotate (div $2 $1) 1) $0))))")
    )
    chain = parse_program("(lambda (simplify (rrotate (div (swap $0 1) 3) 1) 0))")
    return fit_grammar(lib, [chain] * 30 + [parse_program("(lambda (dist (sub $0 2) 1))")])


def test_every_initial_production_makes_an_action():
    lib = Library.initial()
    assert {a.head for a in _chain_actions(lib)} == {p.head for p in lib.productions}


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


def test_interrupted_runs_match_single_heap(monkeypatch):
    # under the skewed library, a child or another node's cursor often beats
    # the next rank of the node being expanded, which then goes back into
    # the frontier: the only cursors the heap takes
    pushed_back = []
    push = mathsynth.enumerator.heappush

    def counting_push(heap, cursor):
        pushed_back.append(cursor[2])
        push(heap, cursor)

    monkeypatch.setattr(mathsynth.enumerator, "heappush", counting_push)
    lib = _skewed_library()
    for prefix in ("(= (* 5 x) 3)", "(= (- (* 3 x) 2) 7)", "(= (+ x 4) 6)"):
        _same_search(_task(prefix), lib, SearchBudget(max_expansions=15_000), k=3)
    assert pushed_back and min(pushed_back) >= 1


def _library_of_calls():
    """The skewed library refitted toward calls of its abstractions, which
    take 0, 1 and 2 integer arguments, so searches return programs that
    use each of them."""
    lib = _skewed_library()
    calls = ["(lambda (fn_0 $0))", "(lambda (fn_1 (fn_0 $0) 1))", "(lambda (fn_2 $0 3 0))"]
    return fit_grammar(lib, [parse_program(c, lib) for c in calls] * 3)


_CALL_TASKS = ("(= (* 3 x) 6)", "(= (+ x 3) 5)", "(= x (/ 6 2))")


def _unrolled_library():
    """Abstractions the search unrolls into rule steps: a call nested two
    deep, an index given by a parameter, three arguments; fitted toward
    calls of each."""
    lib = Library.initial()
    for text in (
        "(lambda (#(lambda (#(lambda (simplify (rrotate $0 1) 0)) (sub $0 3))) (swap $0 1)))",
        "(lambda (lambda (simplify (rrotate (sub $1 $0) 1) 0)))",
        "(lambda (lambda (lambda (#(lambda (lambda (simplify (rrotate $1 $0) 0))) (div $2 $1) $0))))",
    ):
        lib.add_abstraction(parse_program(text))
    calls = ["(lambda (fn_0 $0))", "(lambda (fn_1 $0 3))", "(lambda (fn_2 $0 3 1))"]
    return fit_grammar(lib, [parse_program(c, lib) for c in calls] * 3)


def test_unrolled_abstraction_actions_match_single_heap(monkeypatch):
    """Every abstraction action runs as rule steps, never through
    apply_abstraction, and searches as the oracle does."""
    called = []
    apply = mathsynth.enumerator.apply_abstraction

    def recorded(a, args):
        called.append(a.name)
        return apply(a, args)

    monkeypatch.setattr(mathsynth.enumerator, "apply_abstraction", recorded)
    lib = _unrolled_library()
    heads = Counter()
    failed = 0
    for prefix in ("(= (+ 3 x) 5)", "(= (+ (+ x 1) 4) 9)", "(= (* x 3) 6)", "(= (- (* 3 x) 2) 7)"):
        found, stats = _same_search(_task(prefix), lib, SearchBudget(max_expansions=8_000), k=6)
        heads.update(render_program(t, named=True) for p, _ in found for t in subterms(p))
        failed += stats["chain_failed"]
    assert called == []
    assert failed and {"fn_0", "fn_1", "fn_2"} <= set(heads)


def test_set_up_walks_each_nested_call_once(monkeypatch):
    """The doubling nest's deepest member makes 2**19 - 1 calls, past the
    step limit: set-up walks each (abstraction, arguments) pair once and
    never calls apply_abstraction, and each expansion of the action fails
    as a chain, as the oracle's reference walk fails at the limit."""
    walks = Counter()
    walk = mathsynth.programs._unroll_body

    def counted(a, args, memo):
        walks[a, args] += 1
        return walk(a, args, memo)

    def unexpected(a, args):
        raise AssertionError("a chain went through apply_abstraction")

    deep_calls = []
    apply = interpreted

    def oracle_apply(a, args):
        deep_calls.append(a)
        return apply(a, args)

    monkeypatch.setattr(mathsynth.programs, "_unroll_body", counted)
    monkeypatch.setattr(mathsynth.enumerator, "apply_abstraction", unexpected)
    monkeypatch.setitem(globals(), "interpreted", oracle_apply)
    lib = Library.initial()
    deep = lib.add_abstraction(doubling_nest(18).body)
    _, stats = _same_search(_task("(= (+ x 2) 9)"), lib, SearchBudget(max_expansions=12), k=1)
    assert len(walks) == 19 and set(walks.values()) == {1}
    assert deep_calls and set(deep_calls) == {deep}
    assert stats["chain_failed"] == len(deep_calls)


def _found(prefix, lib):
    budget = SearchBudget(max_expansions=5_000)
    return solve_task_with_stats(_task(prefix), lib, budget, k=10)[0]


def test_a_returned_log_prior_is_the_library_prior():
    lib = _library_of_calls()
    heads = set()
    for prefix in _CALL_TASKS:
        for program, logp in _found(prefix, lib):
            assert logp == pytest.approx(lib.log_prior(program), abs=1e-9)
            heads.update(render_program(t, named=True) for t in subterms(program))
    assert {"fn_0", "fn_1", "fn_2", "simplify"} <= heads


def test_a_state_costs_the_search_at_most_100_bytes(monkeypatch):
    """What the search's own code holds per state, its Node objects aside:
    at the 10,000th state, root included, the bytes allocated in
    enumerator.py and not yet freed.  A state is a slot in each of four
    per-search columns, about 38 B; duplicates are found by the mark on the
    state's root node, which takes no bytes of its own.  tracemalloc counts
    requested bytes, so the figure is the same on any host."""
    made = 0
    snapshot = None

    def spy(e):
        nonlocal made, snapshot
        made += 1
        if made == 10_000:
            snapshot = tracemalloc.take_snapshot()
        return check_solved(e)

    monkeypatch.setattr(mathsynth.enumerator, "check_solved", spy)
    tracemalloc.start()
    try:
        _, stats = solve_task_with_stats(
            _task("(= (+ (* 3 x) (* 4 x)) 9)"),
            Library.initial(),
            SearchBudget(max_expansions=40_000),
            k=1,
        )
    finally:
        tracemalloc.stop()
    assert stats["states"] > 10_000
    own = snapshot.filter_traces([tracemalloc.Filter(True, mathsynth.enumerator.__file__)])
    held = sum(stat.size for stat in own.statistics("filename"))
    assert held / 10_000 <= 50


def test_a_search_reports_its_own_wall_time():
    _, stats = solve_task_with_stats(
        _task("(= (+ x 4) 6)"), Library.initial(), SearchBudget(max_expansions=2_000), k=1
    )
    assert type(stats["seconds"]) is float and stats["seconds"] >= 0


def test_a_search_from_another_search_s_state_is_the_search_from_its_copy(monkeypatch):
    """A state a search made is marked on its root, and stays marked when
    the search ends.  A second search from it rebuilds it in a fresh table,
    so it searches as it would from a freshly parsed copy."""
    made = []

    def spy(e):
        made.append(e)
        return check_solved(e)

    monkeypatch.setattr(mathsynth.enumerator, "check_solved", spy)
    lib = Library.initial()
    task = _task("(= x (/ 6 2))")
    solve_task_with_stats(task, lib, SearchBudget(max_expansions=3_000), k=100)
    state = made[5]  # a state the search made, not its root
    assert state.is_state
    searched = []
    for eq in (state, parse_prefix(render_prefix(state))):
        # a rewrite keeps the solution, so the state's goal is the task's
        found, stats = solve_task_with_stats(
            Task("t", "t", eq, task.goal), lib, SearchBudget(max_expansions=20_000), k=3
        )
        del stats["seconds"]
        searched.append(([(render_program(p), lp) for p, lp in found], stats))
    assert searched[0] == searched[1]
    assert searched[0][0] and searched[0][1]["states"] > 1_000


@pytest.mark.parametrize("prefix, k", [("(= (+ x 4) 6)", 0), ("(= x 4)", 1)])
def test_a_search_with_k_programs_at_its_root_expands_nothing(prefix, k):
    found, stats = solve_task_with_stats(_task(prefix), Library.initial(), SearchBudget(), k=k)
    assert len(found) == k
    assert (stats["expansions"], stats["states"], stats["stop"]) == (0, 1, "k")


def _closed():
    return mathsynth.equations._nodes is None and mathsynth.equations._simp_memo is None


def test_intern_table_closes_when_a_search_returns_or_raises(monkeypatch):
    """The table and its simplify memo close, and the cyclic GC, paused for
    the search, is on again exactly when it was on before."""
    task = _task("(= (+ x 4) 6)")
    budget = SearchBudget(max_expansions=2_000)
    seen = []

    def spy(e):
        seen.append(gc.isenabled())
        return check_solved(e)

    monkeypatch.setattr(mathsynth.enumerator, "check_solved", spy)
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

    def broken(e):
        raise RuntimeError("broken check")

    monkeypatch.setattr(mathsynth.enumerator, "check_solved", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        solve_task_with_stats(task, Library.initial(), budget, k=1)
    assert _closed() and gc.isenabled()


_STOPS = [
    ("(= x 4)", SearchBudget(), 1, None, "k"),
    ("(= x (/ 6 2))", SearchBudget(max_expansions=300_000), 8, 1_000, "patience"),
    ("(= (+ (* 3 x) (* 4 x)) 9)", SearchBudget(max_expansions=3_000), 1, None, "budget"),
    ("(= (+ (* 3 x) (* 4 x)) 9)", SearchBudget(wall_timeout=0.0), 1, None, "timeout"),
    # searched with a library that has no chain actions, so the root has no
    # cursor
    ("(= (- (* 3 x) 2) 7)", SearchBudget(), 1, None, "frontier"),
]


@pytest.mark.parametrize("library", [Library.initial, _skewed_library])
def test_every_expansion_is_skipped_failed_a_duplicate_or_a_new_state(library):
    """An expansion skips its action, has it raise, reaches a state already
    visited, or makes a new state; the root is a state no expansion made,
    and the expansion that finds the clock run out does none of these."""
    lib = library()
    counts = ("index_skips", "shape_skips", "rewrite_failed", "chain_failed", "duplicates")
    totals = dict.fromkeys(counts, 0)
    for prefix, budget, k, patience, stop in _STOPS:
        searched = Library([]) if stop == "frontier" else lib
        _, stats = solve_task_with_stats(_task(prefix), searched, budget, k, patience)
        assert stats["stop"] == stop
        assert stats["skipped"] == stats["index_skips"] + stats["shape_skips"]
        assert stats["failed"] == stats["rewrite_failed"] + stats["chain_failed"]
        accounted = stats["skipped"] + stats["failed"] + stats["duplicates"]
        accounted += stats["states"] - 1
        assert stats["expansions"] - (stop == "timeout") == accounted
        if stats["expansions"]:
            assert 1 <= stats["runs"] <= stats["expansions"]
        else:
            assert stats["runs"] == 0
        for key in totals:
            totals[key] += stats[key]
    # the initial library has no abstraction actions to fail
    assert all(totals[key] for key in counts if key != "chain_failed")
    assert bool(totals["chain_failed"]) == (library is _skewed_library)
