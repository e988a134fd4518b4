"""The chain search's runs and rank-bucketed frontier against one plain heap.

``heap_solve`` is the single-heap search loop the frontier replaced, kept
here as the oracle: it pushes every cursor on one heap keyed
``(-(logp + a_r), seq, r)`` and applies every action it pops.
"""

import bisect
import heapq
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import mathsynth.enumerator
from mathsynth.corpus import GoalOracle
from mathsynth.enumerator import (
    SearchBudget,
    Task,
    _chain_actions,
    _ChainNode,
    _Frontier,
    _rebuild_program,
    solve_task_with_stats,
)
from mathsynth.equations import check_solved, parse_prefix
from mathsynth.grammar import CTX_TSTR, Library, fit_grammar
from mathsynth.primitives import PrimitiveError, apply_primitive
from mathsynth.programs import (
    EvalError,
    Lambda,
    Prim,
    VarRef,
    apply_abstraction,
    parse_program,
    render_program,
)


def heap_solve(task, lib, budget, k=5, patience=None):
    actions = _chain_actions(lib)
    var_logp = next(c.log_prob for c in lib.candidates(CTX_TSTR) if c.kind == "var")
    found = []
    cutoff = budget.max_expansions
    root = _ChainNode(task.input, var_logp, 101, None, None, 0)
    if check_solved(task.input) == task.goal:
        found.append((Lambda(VarRef(0)), var_logp))
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
            if patience is not None:
                cutoff = min(cutoff, expansions + patience)
        push_cursor(child, 0)
    stats = {"expansions": expansions, "states": len(visited), "solutions": len(found)}
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
    # 202 or 303) skips the 44 ranks before it, and lands in that rank's
    # queue out of key order when a better node reaches the rank later
    inserted = []

    def counting_insort(q, entry):
        inserted.append(entry)
        bisect.insort(q, entry)

    monkeypatch.setattr(mathsynth.enumerator, "insort", counting_insort)
    lib = _skewed_library()
    for cap in (505, 606, 808):
        _same_search(
            _task("(= (+ x 4) 6)"),
            lib,
            SearchBudget(max_expansions=20_000, max_program_cost=cap),
            k=4,
        )
    assert inserted


def test_interrupted_runs_match_single_heap(monkeypatch):
    # under the skewed library, a child or another node's cursor often beats
    # the next rank of the node being expanded, which then goes back into
    # the frontier at a rank >= 1: the only way such a cursor is pushed
    pushed_back = []
    push = _Frontier.push

    def counting_push(self, cursor):
        if cursor[2] >= 1:
            pushed_back.append(cursor[2])
        push(self, cursor)

    monkeypatch.setattr(_Frontier, "push", counting_push)
    lib = _skewed_library()
    for prefix in ("(= (* 5 x) 3)", "(= (- (* 3 x) 2) 7)", "(= (+ x 4) 6)"):
        _same_search(_task(prefix), lib, SearchBudget(max_expansions=15_000), k=3)
    assert pushed_back


def _float_keys():
    base = st.sampled_from([1.0, 2.5, 7.25, 1e-3])
    return st.builds(
        lambda b, ulps: b if ulps == 0 else (
            math.nextafter(b, math.inf) if ulps > 0 else math.nextafter(b, -math.inf)
        ),
        base,
        st.integers(-1, 1),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("push"), _float_keys(), st.integers(0, 40), st.integers(0, 5)),
            st.just(("pop",)),
        ),
        max_size=80,
    )
)
def test_frontier_pops_in_heap_order(ops):
    """Any mix of pushes and pops, with equal, 1-ulp-apart and out-of-order
    keys at every rank, pops what one heap pops."""
    frontier = _Frontier(6)
    heap = []
    used = set()
    for op in ops:
        if op[0] == "push":
            _, neg_logp, seq, rank = op
            if seq in used:  # a seq names one node, which has one cursor
                continue
            used.add(seq)
            cursor = (neg_logp, seq, rank, f"node{seq}")
            frontier.push(cursor)
            heapq.heappush(heap, cursor)
        elif heap:
            assert frontier.pop() == heapq.heappop(heap)
        assert bool(frontier) == bool(heap)
    while heap:
        assert frontier.pop() == heapq.heappop(heap)
    assert not frontier
