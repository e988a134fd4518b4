"""Per-task solving: a best-first chain search over equation states.

solve_task exploits the shape of equation-valued programs: every one is a
chain prim(...(prim($0, i1), ...), ik), so program search is a best-first
walk over equation states with one action per (production, literal
arguments) pair.  Integer arguments come from the literals 0..10; the
search never builds a newConstGen composite.  States are created in
non-increasing log-prior order and deduplicated, keeping the first (best
priority) program per state, so a fixed library and budget always give the
same search.

The chain search's frontier holds one cursor per node: the rank r of the
next action to try on it, in the library's best-first action order.  A
cursor's key is ``(-(logp + a_r), seq, r)``, with logp the node's log prior,
a_r the log probability of action r and seq the node's creation number, and
the cursor with the smallest key is expanded next.  Expanding a cursor
tries action r and moves the cursor on to the next rank the node can
afford under max_program_cost.  Every expanded cursor counts as one
expansion, whether the action applies, fails its precondition, or is
skipped because its index lies outside the equation or the subtree there
fails the primitive's shape precondition; max_expansions and patience
count these.  The keys never repeat, so the expansion order is fully
determined by them; the frontier is one heap of cursors.

A popped node is expanded in a run: it keeps the floor, rank after rank,
while its next cursor's key is smaller than every key in the frontier, the
children it adds included, and goes back into the frontier only when
another cursor is smaller.  Every rank of a run counts as one expansion,
the popped one and each continued one alike, and each is subject to the
same k, cutoff and wall-clock checks as a pop.  So a run expands exactly
the cursors a pop per expansion would, in the same order.  For the length
of a run the search holds the state's subtrees in a pre-order table, which
lets it test a primitive action's shape (the primitive's entry in
primitives.RULES) and skip the call when it fails; the table is dropped when
the run ends.

Duplicate states are found by identity.  A search opens an equation intern
table for its length (equations.open_table) and interns the task's input,
so every state it builds is made of interned nodes: a state reached again
is the very object stored among the visited states, and the lookup hits
without comparing trees node by node.  The table carries a simplify memo
too, so a subtree the search simplifies again is looked up, not normalized
again.  The table is closed when the search returns or raises, so it never
outlives one search, and each --jobs worker has its own.

The cyclic garbage collector is paused for the length of a search.  A
search makes no reference cycles: its states, cursors and table are freed
by reference counting when it ends.  But it allocates hundreds of thousands
of long-lived objects, and every collection would walk them all and free
nothing.  The collector is turned back on after the table is closed, and
only if it was on before, whether the search returns or raises.

The stats a search returns count its work (expansions, states, solutions)
and say why it ended: stop is "k" when it found k programs, "patience" or
"budget" when it spent the expansions it was allowed after its first
solution or in all, "timeout" when the wall clock ran out, and "frontier"
when no cursor was left within max_program_cost.  first_solution is the
expansion count at the first program found, or None.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Optional

from .equations import Equation, check_solved, close_table, intern, open_table, subtrees
from .grammar import CTX_TINT, CTX_TSTR, Library
from .primitives import RULES, PrimitiveError, apply_primitive
from .programs import (
    AbsRef,
    Apply,
    EvalError,
    IntLit,
    Lambda,
    Prim,
    Term,
    VarRef,
    apply_abstraction,
)


@dataclass(frozen=True)
class Task:
    id: str
    template_id: str
    input: Equation
    goal: Fraction


@dataclass(frozen=True)
class SearchBudget:
    max_expansions: int = 50_000
    wall_timeout: float = 1000.0
    max_program_cost: int = 10_000

    def __post_init__(self):
        if self.max_expansions < 0 or self.max_program_cost < 0:
            raise ValueError("max_expansions and max_program_cost must be >= 0")
        if not self.wall_timeout >= 0:  # NaN compares false too
            raise ValueError(f"wall_timeout must be >= 0 seconds, not {self.wall_timeout}")


def _candidate_head(c) -> Term:
    if c.kind == "prim":
        return Prim(c.payload.item)
    return AbsRef(c.payload.item)


@dataclass(frozen=True, slots=True)
class _Action:
    log_prob: float
    prefix: str  # child render = prefix + parent render + suffix
    suffix: str
    head: Term  # Prim or AbsRef
    lits: tuple
    step_cost: int
    prim: Optional[str]  # the primitive's name; None for an abstraction
    shape: Optional[Callable]  # the primitive's shape precondition


def _chain_actions(lib: Library) -> list[_Action]:
    """Every (equation production, literal argument tuple) pair, ordered
    best-probability first with the render text as tiebreak."""
    lit_logp = {
        c.payload: c.log_prob for c in lib.candidates(CTX_TINT) if c.kind == "lit"
    }
    actions = []
    for c in lib.candidates(CTX_TSTR):
        if c.kind == "var":
            continue
        if c.arg_ctxs[:1] != (CTX_TSTR,) or any(a != CTX_TINT for a in c.arg_ctxs[1:]):
            continue  # not a chainable equation transformer
        head = _candidate_head(c)
        prim = head.name if type(head) is Prim else None
        shape = RULES[prim].shape if prim is not None else None
        n_int = len(c.arg_ctxs) - 1
        step_cost = 100 + (1 + n_int) + 100 * n_int
        for lits in itertools.product(range(0, 11), repeat=n_int):
            logp = c.log_prob + sum(lit_logp[v] for v in lits)
            suffix = "".join(f" {v}" for v in lits) + ")"
            actions.append(
                _Action(
                    logp, f"({c.render_key} ", suffix, head, lits, step_cost, prim, shape
                )
            )
    actions.sort(key=lambda a: (-a.log_prob, a.prefix, a.suffix))
    return actions


class _ChainNode:
    __slots__ = ("eq", "logp", "cost", "parent", "action", "seq")

    def __init__(self, eq, logp, cost, parent, action, seq):
        self.eq = eq
        self.logp = logp
        self.cost = cost
        self.parent = parent
        self.action = action
        self.seq = seq


def _rebuild_program(node: _ChainNode) -> Term:
    steps = []
    while node.action is not None:
        steps.append(node.action)
        node = node.parent
    body: Term = VarRef(0)
    for action in reversed(steps):
        body = Apply(action.head, body)
        for v in action.lits:
            body = Apply(body, IntLit(v))
    return Lambda(body)


def solve_task_with_stats(
    task: Task,
    lib: Library,
    budget: SearchBudget,
    k: int = 5,
    patience: Optional[int] = None,
) -> tuple[list[tuple[Term, float]], dict]:
    """Best-first chain search.

    ``patience`` optionally caps how many further expansions to spend after
    a solution has been found; it trades completeness of the k-list for
    wake-phase throughput and keeps runs deterministic (the cutoff counts
    expansions, not time).
    """
    previous = open_table()
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return _chain_search(task, lib, budget, k, patience)
    finally:
        close_table(previous)
        if gc_was_on:
            gc.enable()


def _chain_search(task, lib, budget, k, patience):
    actions = _chain_actions(lib)
    var_logp = next(c.log_prob for c in lib.candidates(CTX_TSTR) if c.kind == "var")
    found: list[tuple[Term, float]] = []
    cutoff = budget.max_expansions
    max_cost = budget.max_program_cost

    root_eq = intern(task.input)
    root = _ChainNode(root_eq, var_logp, 101, None, None, 0)
    first_solution = None
    if check_solved(root_eq) == task.goal:
        found.append((Lambda(VarRef(0)), var_logp))
        first_solution = 0
        if patience is not None:
            cutoff = min(cutoff, patience)

    visited = {root_eq: True}
    n_actions = len(actions)
    frontier = []  # a heap of cursors
    push = heappush

    def first_cursor(node: _ChainNode) -> Optional[tuple]:
        rank = 0
        while rank < n_actions:
            action = actions[rank]
            if node.cost + action.step_cost <= max_cost:
                return (-(node.logp + action.log_prob), node.seq, rank, node)
            rank += 1  # later actions may be cheaper only in logp, not cost
        return None

    cursor = first_cursor(root)
    if cursor is not None:
        push(frontier, cursor)
    expansions = 0
    nodes_made = 0
    timed_out = False
    node = None  # the node whose run is in progress, at cursor rank
    start = time.monotonic()
    while (node is not None or frontier) and len(found) < k and expansions < cutoff:
        expansions += 1
        if expansions % 1024 == 0 and time.monotonic() - start > budget.wall_timeout:
            timed_out = True
            break
        if node is None:
            _, seq, rank, node = heappop(frontier)
            eq, logp, cost = node.eq, node.logp, node.cost
            table = subtrees(eq)
            n_nodes = len(table)
            top = frontier[0] if frontier else None  # from here on, only children join
        action = actions[rank]
        child_eq = None
        try:
            if action.prim is not None:
                index = action.lits[0]
                if index < n_nodes and action.shape(table[index]):
                    child_eq = apply_primitive(action.prim, eq, index)
            else:
                child_eq = apply_abstraction(action.head.abstraction, (eq,) + action.lits)
        except (PrimitiveError, EvalError):
            pass
        if child_eq is not None and child_eq not in visited:
            visited[child_eq] = True
            nodes_made += 1
            child = _ChainNode(
                child_eq, logp + action.log_prob, cost + action.step_cost, node, action,
                nodes_made,
            )
            solution = check_solved(child_eq)
            if solution is not None and solution == task.goal:
                found.append((_rebuild_program(child), child.logp))
                if first_solution is None:
                    first_solution = expansions
                if patience is not None:
                    cutoff = min(cutoff, expansions + patience)
            cursor = first_cursor(child)
            if cursor is not None:
                push(frontier, cursor)
                if top is None or cursor < top:
                    top = cursor
        rank += 1
        while rank < n_actions and cost + actions[rank].step_cost > max_cost:
            rank += 1
        if rank == n_actions:
            node = None
        elif top is not None:
            cursor = (-(logp + actions[rank].log_prob), seq, rank, node)
            if top < cursor:
                push(frontier, cursor)
                node = None

    if timed_out:
        stop = "timeout"
    elif len(found) >= k:
        stop = "k"
    elif node is None and not frontier:
        stop = "frontier"
    elif cutoff < budget.max_expansions:
        stop = "patience"
    else:
        stop = "budget"
    stats = {
        "expansions": expansions,
        "states": len(visited),
        "solutions": len(found),
        "stop": stop,
        "first_solution": first_solution,
    }
    return found, stats


def solve_task(
    task: Task,
    lib: Library,
    budget: SearchBudget,
    k: int = 5,
) -> list[tuple[Term, float]]:
    """Up to k distinct programs that solve the task, best log-prior first."""
    found, _ = solve_task_with_stats(task, lib, budget, k)
    return found
