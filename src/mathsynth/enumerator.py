"""Per-task solving: a best-first chain search over equation states.

solve_task exploits the shape of equation-valued programs: every one is a
chain prim(...(prim($0, i1), ...), ik), so program search is a best-first
walk over equation states with one action per (production, literal
arguments) pair.  Integer arguments are the literals 0..10, since no
production returns an integer.  States are created in non-increasing
log-prior order and deduplicated, keeping the first (best priority)
program per state, so a fixed library and budget always give the same
search.

A state is its creation number, seq: the root is 0 and each new state
takes the next.  The search keeps four flat columns indexed by seq: the
states' equations (a list), their log priors (an array of doubles), and
their parents' seqs and the ranks of the actions that made them (arrays of
64-bit ints, -1 for the root).  A returned program is rebuilt by walking
the parents and ranks back to the root.  So the search itself holds about
38 bytes per state, a slot in each column.  The state's nodes belong to
the intern table.

The chain search's frontier holds one cursor per state: the rank r of the
next action to try on it, in the library's best-first action order.  A
cursor's key is ``(-(logp + a_r), seq, r)``, with logp the state's log
prior and a_r the log probability of action r, and the cursor with the
smallest key is expanded next.  Expanding a cursor tries action r and
moves the cursor on to rank r + 1.  Every expanded cursor counts as one
expansion, whether the action applies, fails its precondition, or is
skipped because its index lies outside the equation or the subtree there
fails the primitive's shape precondition; max_expansions and patience
count these.  The keys never repeat, so the expansion order is fully
determined by them.

The frontier is two queues, and a pop takes the smaller of their heads.
Every cursor a search makes has a key no smaller than the one being
expanded, so the expanded keys never decrease.  Every state's first
cursor is its rank-0 cursor.  A new state's log prior is minus the key
that made it, so states are made in the key order of their rank-0
cursors, and the columns in seq order already are the queue of those
cursors, the root's first.  It is read from a head seq, and the key of
its head, ``-(logp[seq] + a_0)``, is computed when it is peeked.  A heap
holds the rest, the cursors ``(key, seq, rank)`` that go back into the
frontier after a run.

A popped state is expanded in a run: it keeps the floor, rank after rank,
while its next cursor's key is smaller than every key in the frontier, the
cursors of its children included, and goes back into the heap only when
another cursor is smaller.  The action log probabilities are sorted best
first and float addition is monotone, so a state's cursor keys never
decrease with the rank, and the rank at which the run ends is found by
bisection (_run_end) when the state is popped, and again only when a child
lowers the frontier's smallest key.  Every rank of a run counts as one
expansion, the popped one and each continued one alike, and each is
subject to the same k, cutoff and wall-clock checks as a pop.  So a run
expands exactly the cursors a pop per expansion would, in the same order.
For the length of a run the search holds the state's subtrees in a
pre-order table.  A primitive action tests its rule's shape (the
primitive's entry in primitives.RULES) on the subtree there and is skipped
when it fails; otherwise the search calls the rule's rewrite with that
subtree itself, not primitives.apply_primitive, whose root and range checks
hold for every state and index it tries.  Where the shape's answer depends
on the index alone (primitives.shape_at), the search decides it once and
calls no shape.  The table is dropped when the run ends.  The loop reads
each rank's log probability, index, shape and rewrite from flat lists
built once per search.

An abstraction action is a chain of rule steps.  At set-up the search
unrolls each one (programs.unrolled_steps) into a tuple of (shape,
rewrite, index) steps, walking each nested call once for the whole
library.  At expansion the first step reads its subtree from the run's
table and later steps descend to theirs (equations._descend) after a
range check.  A step whose index is out of range, or whose shape rejects
its subtree, ends the action as failed, with no exception; a rewrite that
raises fails it too.  A call that would pass the step limit, which
evaluate applies to each top-level call alike, fails on every equation, so
its action is marked at set-up and fails at once.  Every abstraction body
is a chain (see programs), so every abstraction action runs this way.

Duplicate states are found by identity.  A search opens an equation intern
table for its length (equations.open_table) and interns the task's input,
so every state it builds is made of interned nodes: a state reached again
is the very root node it was made as.  The search marks that root
(Node.is_state) when it makes the state, the root state included, and a
child whose root is marked is a duplicate, found with no hash and no
comparison of trees.  The mark stays on the node when the search ends,
but no later search reads it: a table's nodes never enter another table,
since intern rebuilds the task's input in the fresh, empty table.  The
table carries a simplify memo too, so a subtree the search simplifies
again is looked up, not normalized again.  The table is closed when the
search returns or raises, so it never outlives one search, and each --jobs
worker has its own.

The cyclic garbage collector is paused for the length of a search.  A
search makes no reference cycles: its columns, cursors and table are freed
by reference counting when it ends.  But it allocates hundreds of thousands
of long-lived objects, and every collection would walk them all and free
nothing.  The collector is turned back on after the table is closed, and
only if it was on before, whether the search returns or raises.

The stats a search returns count its work (expansions, states, solutions)
and say why it ended: stop is "k" when it found k programs, "patience" or
"budget" when it spent the expansions it was allowed after its first
solution or in all, "timeout" when the wall clock ran out, and "frontier"
when no cursor was left, as when the library has no chain actions.
first_solution is the expansion count at the first program found, or
None.  The stats also say where the expansions went: index_skips (an
index outside the state), shape_skips (a subtree that fails the shape),
skipped (their sum), rewrite_failed (a primitive action's rewrite
raised), chain_failed (an abstraction action stopped before its last
step, step limit included), failed (their sum) and duplicates (the child
was a state already made).  Every other expansion makes a new state,
except the one that finds the clock run out, so expansions = skipped +
failed + duplicates + states - 1, plus one when stop is "timeout".
seconds is the search's own monotonic wall time, set-up and teardown
included.  No artifact holds any of these stats.
"""

from __future__ import annotations

import gc
import itertools
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from .equations import Equation, _descend, check_solved, close_table, intern, open_table, subtrees
from .grammar import CTX_TINT, CTX_TSTR, VAR, Library
from .primitives import RULES, PrimitiveError, shape_at
from .programs import (
    Apply,
    EvalError,
    IntLit,
    Lambda,
    LITERAL_RANGE,
    Prim,
    Term,
    VarRef,
    render_program,
    unrolled_steps,
)

# unused here; bench/tracing.py wraps both by attribute
from .primitives import apply_primitive  # noqa: F401
from .programs import apply_abstraction  # noqa: F401


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

    def __post_init__(self):
        if self.max_expansions < 0:
            raise ValueError(f"max_expansions must be >= 0, not {self.max_expansions}")
        if not self.wall_timeout >= 0:  # NaN compares false too
            raise ValueError(f"wall_timeout must be >= 0 seconds, not {self.wall_timeout}")


@dataclass(frozen=True, slots=True)
class _Action:
    log_prob: float
    prefix: str
    suffix: str
    head: Term  # Prim or AbsRef
    lits: tuple


def _chain_actions(lib: Library) -> list[_Action]:
    """Every (equation production, literal argument tuple) pair, ordered
    best-probability first with the render text as tiebreak; an
    abstraction's inline text is rendered once and kept on it."""
    lit_logp = {v: lib.table(CTX_TINT)[IntLit(v)][0] for v in LITERAL_RANGE}
    actions = []
    for head, (log_prob, arg_ctxs) in lib.table(CTX_TSTR).items():
        if not arg_ctxs:
            continue  # the variable; every other head takes the equation, then integers
        n_int = len(arg_ctxs) - 1
        prefix = f"({render_program(head)} "
        for lits in itertools.product(LITERAL_RANGE, repeat=n_int):
            logp = log_prob + sum(lit_logp[v] for v in lits)
            suffix = "".join(f" {v}" for v in lits) + ")"
            actions.append(_Action(logp, prefix, suffix, head, lits))
    actions.sort(key=lambda a: (-a.log_prob, a.prefix, a.suffix))
    return actions


def _rebuild_program(seq: int, parents, made_by, actions: list[_Action]) -> Term:
    """The program of the search state ``seq``: the chain of the actions
    that made it from the root, seq 0, ``actions[made_by[s]]`` for each
    state s on the way."""
    steps = []
    while seq:
        steps.append(actions[made_by[seq]])
        seq = parents[seq]
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
    start = time.monotonic()
    previous = open_table()
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        found, stats = _chain_search(task, lib, budget, k, patience)
    finally:
        close_table(previous)
        if gc_was_on:
            gc.enable()
    stats["seconds"] = time.monotonic() - start
    return found, stats


_INF = float("inf")
_EMPTY = (_INF, _INF)  # the head of an empty frontier part
_FAILS = "fails on every equation"  # an abstraction action's chain


def _unrolled(action: _Action, memo: dict):
    """An abstraction action's (shape, rewrite, index) steps, or _FAILS for
    a call past the step limit."""
    try:
        steps = unrolled_steps(action.head.abstraction, action.lits, memo)
    except EvalError:
        return _FAILS
    return tuple((shape_at(name, i), RULES[name].rewrite, i) for name, i in steps)


def _run_end(logp, seq, logps, lo, hi, top_key, top_seq):
    """The first rank r in [lo, hi) whose cursor ``(-(logp + logps[r]),
    seq)`` is greater than ``(top_key, top_seq)``, or hi if none is.  logps
    is sorted best first and float addition is monotone, so the cursors'
    keys never decrease with r and bisection finds it."""
    while lo < hi:
        mid = (lo + hi) // 2
        key = -(logp + logps[mid])
        if key > top_key or (key == top_key and seq > top_seq):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _chain_search(task, lib, budget, k, patience):
    actions = _chain_actions(lib)
    n_actions = len(actions)
    # the loop reads each rank from flat lists; a primitive action applies
    # its rule at the index given by its one literal, an abstraction action
    # runs its chain of rule steps
    logps = [a.log_prob for a in actions]
    rules = [RULES[a.head.name] if type(a.head) is Prim else None for a in actions]
    indices = [a.lits[0] if r is not None else None for a, r in zip(actions, rules)]
    shapes = [
        shape_at(a.head.name, i) if r is not None else None
        for a, r, i in zip(actions, rules, indices)
    ]
    rewrites = [r.rewrite if r is not None else None for r in rules]
    memo: dict = {}
    chains = [_unrolled(a, memo) if r is None else None for a, r in zip(actions, rules)]
    var_logp = lib.table(CTX_TSTR)[VAR][0]
    found: list[tuple[Term, float]] = []
    cutoff = budget.max_expansions

    root_eq = intern(task.input)
    first_solution = None
    if check_solved(root_eq) == task.goal:
        found.append((Lambda(VarRef(0)), var_logp))
        first_solution = 0
        if patience is not None:
            cutoff = min(cutoff, patience)
    if len(found) >= k:
        cutoff = 0  # the root alone made k programs; the loop tests k after each solution

    # the states, by seq: equation, log prior, parent seq and the rank that
    # made it; the root, seq 0, has no parent
    eqs = [root_eq]
    root_eq.is_state = True
    priors = array("d", [var_logp])
    parents = array("q", [-1])
    made_by = array("q", [-1])
    heap = []  # put-back cursors (key, seq, rank)
    push = heappush
    # with no actions the root has no cursor and nothing is expanded
    logp0 = logps[0] if actions else 0.0
    fifo_head = 0 if actions else 1  # the rank-0 cursors of eqs[:fifo_head] are expanded
    expansions = index_skips = shape_skips = rewrite_failed = chain_failed = duplicates = 0
    timed_out = False
    seq = None  # the state whose run is in progress, at cursor rank; it ends at rank end
    start = time.monotonic()
    while (seq is not None or heap or fifo_head < len(eqs)) and expansions < cutoff:
        expansions += 1
        if expansions % 1024 == 0 and time.monotonic() - start > budget.wall_timeout:
            timed_out = True
            break
        if seq is None:
            # pop the smaller head by (key, seq); seqs are unique, so a
            # comparison never reaches a rank
            h = heap[0] if heap else _EMPTY
            f = (-(priors[fifo_head] + logp0), fifo_head) if fifo_head < len(eqs) else _EMPTY
            if f < h:
                seq = fifo_head
                rank = 0
                fifo_head += 1
                f = (-(priors[fifo_head] + logp0), fifo_head) if fifo_head < len(eqs) else _EMPTY
            else:
                _, seq, rank = heappop(heap)
                h = heap[0] if heap else _EMPTY
            eq, logp = eqs[seq], priors[seq]
            table = subtrees(eq)
            n_nodes = len(table)
            # the smallest (key, seq) in the frontier; from here on only
            # children join it
            top_key, top_seq = min(h[:2], f)
            end = _run_end(logp, seq, logps, rank + 1, n_actions, top_key, top_seq)
        rewrite = rewrites[rank]
        child_eq = None
        if rewrite is not None:
            index = indices[rank]
            if index >= n_nodes:
                index_skips += 1
            else:
                y = table[index]
                shape = shapes[rank]
                if shape is None or shape(y):
                    try:
                        child_eq = rewrite(eq, index, y)
                    except PrimitiveError:
                        rewrite_failed += 1
                else:
                    shape_skips += 1
        else:
            chain = chains[rank]
            if chain is not _FAILS:
                # the first step reads the run's table, as does a step
                # whose equation an earlier step left as it was
                e = eq
                try:
                    for step_shape, step_rewrite, i in chain:
                        if i >= e.size:
                            break
                        y = table[i] if e is eq else _descend(e, i)
                        if step_shape is not None and not step_shape(y):
                            break
                        e = step_rewrite(e, i, y)
                    else:
                        child_eq = e
                except PrimitiveError:
                    pass
            if child_eq is None:
                chain_failed += 1
        if child_eq is not None:
            if child_eq.is_state:
                duplicates += 1
            else:
                child_eq.is_state = True
                child = len(eqs)
                child_logp = logp + logps[rank]
                eqs.append(child_eq)
                priors.append(child_logp)
                parents.append(seq)
                made_by.append(rank)
                solution = check_solved(child_eq)
                if solution is not None and solution == task.goal:
                    found.append((_rebuild_program(child, parents, made_by, actions), child_logp))
                    if first_solution is None:
                        first_solution = expansions
                    if len(found) >= k:
                        break
                    if patience is not None:
                        cutoff = min(cutoff, expansions + patience)
                # expanded keys never decrease, so neither do these: the
                # child's rank-0 cursor joins the queue at its seq
                key = -(child_logp + logp0)
                if key < top_key or (key == top_key and child < top_seq):
                    top_key, top_seq = key, child
                    end = _run_end(logp, seq, logps, rank + 1, end, top_key, top_seq)
        rank += 1
        if rank == end:
            if end < n_actions:
                push(heap, (-(logp + logps[rank]), seq, rank))
            seq = None

    if timed_out:
        stop = "timeout"
    elif len(found) >= k:
        stop = "k"
    elif seq is None and not heap and fifo_head == len(eqs):
        stop = "frontier"
    elif cutoff < budget.max_expansions:
        stop = "patience"
    else:
        stop = "budget"
    stats = {
        "expansions": expansions,
        "states": len(eqs),
        "solutions": len(found),
        "skipped": index_skips + shape_skips,
        "index_skips": index_skips,
        "shape_skips": shape_skips,
        "failed": rewrite_failed + chain_failed,
        "rewrite_failed": rewrite_failed,
        "chain_failed": chain_failed,
        "duplicates": duplicates,
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
