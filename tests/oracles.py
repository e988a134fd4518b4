"""Reference implementations that the tests check the package against.

exhaustive_oracle scores every candidate pattern of a small corpus by brute
force; best_pattern's branch-and-bound must find the same optimum.
verify_goal checks a task's label by substitution, independently of the
symbolic solver that produced it.  interpreted runs an abstraction call by
a call-by-value walk over the terms themselves, abstraction bodies
included, sharing no code with the package's runner but the primitives.
"""

import itertools

import mathsynth.programs

from mathsynth.compression import (
    CompressionError,
    Corpus,
    Pattern,
    _node_count,
    _PHole,
    render_pattern,
    subtrees,
    type_of,
    utility,
)
from mathsynth.enumerator import Task
from mathsynth.equations import Node, eval_at
from mathsynth.primitives import EQUATION_PRIMITIVES, PrimitiveError
from mathsynth.programs import (
    AbsRef,
    Apply,
    EvalError,
    IntLit,
    Lambda,
    Prim,
    Term,
    VarRef,
    map_leaves,
    spine,
    subterms,
)


def exhaustive_oracle(
    corpus: Corpus,
    max_arity: int = 2,
    max_pattern_nodes: int = 7,
) -> tuple[Pattern, int]:
    """Brute-force argmax over every candidate pattern within bounds."""
    if not corpus:
        raise CompressionError("empty corpus")
    if len(corpus) > 5 or any(_node_count(p) > 15 for _, p in corpus):
        raise CompressionError("corpus exceeds oracle bounds")
    if max_pattern_nodes > 7:
        raise CompressionError("max_pattern_nodes exceeds oracle bound")

    candidates: dict = {}

    def add(p: Pattern):
        candidates.setdefault(render_pattern(p), p)

    def anti_instances(site) -> list:
        """All hole/keep choices of a site subtree, as (term, n_holes)."""
        head, args = spine(site)
        th = type(head)
        out = []
        if th not in (VarRef, Lambda):
            choices_per_arg = [
                anti_instances(a) + [(_PHole(-1, type_of(a)), 1)] for a in args
            ]
            combos = [([], 0)]
            for ch in choices_per_arg:
                combos = [
                    (built + [t], holes + h)
                    for built, holes in combos
                    for t, h in ch
                ]
            for built, holes in combos:
                term: Term = head
                for b in built:
                    term = Apply(term, b)
                out.append((term, holes))
        return out

    for _, prog in corpus:
        # a whole program is a candidate when it makes a step
        body = prog.body if type(prog) is Lambda else None
        if type(body) is Apply and _node_count(prog) <= max_pattern_nodes:
            add(Pattern(prog, 0))
        for site in subtrees(prog):
            for term, holes in anti_instances(site):
                if holes < 1 or holes > max_arity:
                    continue
                if _node_count(term) > max_pattern_nodes:
                    continue
                if not any(type(t) in (Prim, AbsRef) for t in subterms(term)):
                    continue
                add(Pattern(_number_holes(term), holes))

    if not candidates:
        raise CompressionError("no candidate patterns in corpus")
    best_key = None
    best_pat = None
    best_u = None
    for render in sorted(candidates):
        pat = candidates[render]
        u = utility(pat, corpus)
        key = (-u, render)
        if best_key is None or key < best_key:
            best_key, best_pat, best_u = key, pat, u
    return best_pat, best_u


def _number_holes(term: Term) -> Term:
    """Number the holes 0, 1, ... in the order they first occur."""
    count = itertools.count()
    return map_leaves(
        term, lambda t: _PHole(next(count), t.type) if type(t) is _PHole else t
    )


def verify_goal(task: Task) -> bool:
    """Substituting the goal must satisfy the equation exactly."""
    return eval_at(task.input.left, task.goal) == eval_at(task.input.right, task.goal)


def interpreted(a, args: tuple):
    """The abstraction ``a`` applied to ``args``, in call order, as one
    top-level call: it may make programs._STEP_LIMIT abstraction calls, its
    own and the nested ones, and raises EvalError past that."""
    calls = [1]
    value = reference_eval(a.body, (), calls)
    for arg in args:
        value = reference_apply(value, arg, calls)
    return value


def reference_eval(term, env: tuple, calls: list):
    """A call-by-value walk over the term itself; nothing in it is
    compiled or unrolled.  A function value is a tuple: ("closure", body,
    env) or ("prim", name, arguments so far).  calls[0] counts the
    abstraction calls made so far."""
    tt = type(term)
    if tt is IntLit:
        return term.value
    if tt is VarRef:
        return env[term.index]
    if tt is Prim:
        return ("prim", term.name, ())
    if tt is AbsRef:
        calls[0] += 1
        if calls[0] > mathsynth.programs._STEP_LIMIT:
            raise EvalError("step limit")
        return reference_eval(term.abstraction.body, (), calls)
    if tt is Lambda:
        return ("closure", term.body, env)
    fn = reference_eval(term.fn, env, calls)
    return reference_apply(fn, reference_eval(term.arg, env, calls), calls)


def reference_apply(fn, arg, calls: list):
    if type(fn) is not tuple:
        raise EvalError("not a function")
    if fn[0] == "closure":
        return reference_eval(fn[1], (arg,) + fn[2], calls)
    _, name, got = fn
    got += (arg,)
    if len(got) < 2:  # a primitive takes an equation and an index
        return ("prim", name, got)
    if type(got[0]) is not Node or got[0].op != "=":
        raise EvalError("not an equation")
    try:
        return EQUATION_PRIMITIVES[name](*got)
    except PrimitiveError:
        raise EvalError(name) from None
