"""Corpus compression: find the abstraction that best shortens a program
corpus, then rewrite the corpus to call it.

A candidate is a pattern: a term whose leaves may be typed argument holes.
It is either a whole program, a lambda with no holes (duplicates collapse
to a single library call), or a lambda-free application fragment with holes
at argument positions.  Holes are numbered from 0 in the order they first
occur, and each is used once, so hole i is the abstraction's i-th
parameter.  A fragment may not contain a bare de Bruijn variable, since the
variable's binder would be left outside the extracted body.

Utility follows the corpus-compression accounting: the abstraction pays its
own cost once, and every program contributes the best saving over its match
sites, floored at zero.  With cost(site) = concrete pattern cost plus filler
costs, the saving at any site of a fixed pattern is the same:
concrete_cost - 100 - arity.  Search is branch-and-bound that grows a
pattern top-down, leftmost hole first, so a partial pattern is the list of
its pre-order pieces; the bound assumes every remaining hole resolves for
free, which never underestimates a completion's utility.

The rewrite pass replaces leftmost-outermost non-overlapping matches and
recurses into the argument fillers, so nested occurrences still compress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .programs import (
    AbsRef,
    Abstraction,
    Apply,
    IntLit,
    Lambda,
    Prim,
    ProgramError,
    Term,
    TINT,
    TSTR,
    VarRef,
    infer_type,
    map_leaves,
    program_cost,
    render_program,
    signature,
    spine,
    subterms,
)

Corpus = list  # list of (task_id, Term)


class CompressionError(Exception):
    pass


@dataclass(frozen=True)
class _PHole:
    """Pattern argument hole: parameter ``index`` of the abstraction."""

    index: int
    type: str


@dataclass(frozen=True)
class Pattern:
    """A term whose holes are numbered from 0 in the order they first
    occur, each used once; ``arity`` is their count.  A whole program is a
    pattern with no holes whose term is a lambda."""

    term: Term  # may contain _PHole leaves
    arity: int


def type_of(term: Term) -> Optional[str]:
    """What kind of value the chain subterm ``term`` is: TINT for a
    literal, TSTR for $0 or a call, None for a lambda or a bare reference,
    which stand in no argument position of a chain."""
    tt = type(term)
    if tt is IntLit:
        return TINT
    if tt is VarRef or tt is Apply:
        return TSTR
    return None


def _check_corpus(corpus: Corpus) -> None:
    """CompressionError unless every program is a tstr -> tstr chain."""
    for task_id, prog in corpus:
        try:
            arity = infer_type(prog)
        except ProgramError as err:
            raise CompressionError(f"corpus program of {task_id!r} is no chain: {err}") from err
        if arity != 1:
            raise CompressionError(
                f"corpus program of {task_id!r} has type {signature(arity)}, not tstr -> tstr"
            )


def _render_hole(hole: _PHole) -> str:
    return f"?{hole.index}"


def render_pattern(p: Pattern) -> str:
    return render_program(p.term, hole=_render_hole)


def subtrees(term: Term):
    """Application-structure subtrees, pre-order: the term itself, then
    those of a lambda's body or of each argument of an application.  Does
    not enter abstraction bodies."""
    yield term
    tt = type(term)
    if tt is Lambda:
        yield from subtrees(term.body)
    elif tt is Apply:
        for a in spine(term)[1]:
            yield from subtrees(a)


def match_pattern(pattern_term, site: Term) -> Optional[list]:
    """The fillers of the pattern's holes in hole order, if the pattern
    matches the site, else None."""
    fillers = []

    def walk(p, s) -> bool:
        tp = type(p)
        if tp is _PHole:
            fillers.append(s)
            return type_of(s) == p.type
        ts = type(s)
        if tp is not ts:
            return False
        if tp is Prim:
            return p.name == s.name
        if tp is AbsRef:
            return p.abstraction == s.abstraction
        if tp is IntLit:
            return p.value == s.value
        if tp is VarRef:
            return p.index == s.index
        if tp is Lambda:
            return walk(p.body, s.body)
        return walk(p.fn, s.fn) and walk(p.arg, s.arg)

    return fillers if walk(pattern_term, site) else None


def abstraction_from_pattern(p: Pattern) -> Abstraction:
    body = map_leaves(
        p.term, lambda t: VarRef(p.arity - 1 - t.index) if type(t) is _PHole else t
    )
    for _ in range(p.arity):
        body = Lambda(body)
    return Abstraction(body)


def utility(p: Pattern, corpus: Corpus) -> int:
    """Exact compression utility of a pattern against a corpus."""
    total = -program_cost(abstraction_from_pattern(p).body)
    for _, prog in corpus:
        best = 0
        for site in subtrees(prog):
            fillers = match_pattern(p.term, site)
            if fillers is None:
                continue
            rewritten = 100 + len(fillers) + sum(program_cost(f) for f in fillers)
            best = max(best, program_cost(site) - rewritten)
        total += best
    return total


def rewrite_with_abstraction(p: Pattern, corpus: Corpus) -> Corpus:
    """Replace leftmost-outermost non-overlapping matches in every program."""
    a = abstraction_from_pattern(p)

    def rw(term):
        fillers = match_pattern(p.term, term)
        if fillers is not None:
            out: Term = AbsRef(a)
            for f in fillers:
                out = Apply(out, rw(f))
            return out
        tt = type(term)
        if tt is Lambda:
            return Lambda(rw(term.body))
        if tt is Apply:
            return Apply(rw(term.fn), rw(term.arg))
        return term

    return [(task_id, rw(prog)) for task_id, prog in corpus]


# --- search -------------------------------------------------------------------


@dataclass
class RoundInfo:
    pattern: Optional[Pattern]
    eq3_utility: int
    realized_saving: int
    candidates_scored: int


def _build(pieces: tuple) -> Term:
    """The term whose pre-order pieces are ``pieces``: each a hole, or a
    ``(head, n_args)`` pair followed by the pieces of its arguments."""
    it = iter(pieces)

    def take():
        piece = next(it)
        if type(piece) is _PHole:
            return piece
        term, n_args = piece
        for _ in range(n_args):
            term = Apply(term, take())
        return term

    return take()


def best_pattern(
    corpus: Corpus,
    max_arity: int = 2,
    max_pattern_nodes: Optional[int] = None,
    known: Optional[set] = None,
) -> tuple[Optional[Pattern], int, int]:
    """Argmax-utility pattern via branch-and-bound.

    Returns (pattern, utility, candidates_scored); pattern is None only for
    a corpus with no candidate at all.  Ties prefer the smaller render
    string so the result never depends on exploration order.  Patterns whose
    abstraction is already in `known` are not candidates, so repeated calls
    keep mining new structure instead of re-finding old.
    """
    _check_corpus(corpus)
    best: Optional[Pattern] = None
    best_u = None
    best_key = None
    scored = 0

    def consider(p: Pattern):
        nonlocal best, best_u, best_key, scored
        if known is not None and abstraction_from_pattern(p) in known:
            return
        scored += 1
        u = utility(p, corpus)
        key = (-u, render_pattern(p))
        if best_key is None or key < best_key:
            best, best_u, best_key = p, u, key

    # whole programs that make a step: duplicates collapse into a single
    # library call
    seen = {}
    for _, prog in corpus:
        if type(prog) is Lambda and type(prog.body) is Apply and prog not in seen:
            seen[prog] = True
            if max_pattern_nodes is None or _node_count(prog) <= max_pattern_nodes:
                consider(Pattern(prog, 0))

    # fragment patterns, grown top-down from an equation-valued root hole:
    # an integer site is a bare literal, which no pattern with a hole
    # matches, and a program's own lambda is no equation
    sites = [
        (pi, s, program_cost(s))
        for pi, (_, prog) in enumerate(corpus)
        for s in subtrees(prog)
        if type_of(s) == TSTR
    ]
    # state: the pattern's pre-order pieces so far, the types of its open
    # holes (leftmost first), its concrete cost, node count and number of
    # argument holes, and per match the program, the site's cost and the
    # subtrees that the open holes stand for
    stack = [((), (TSTR,), 0, 1, 0, [(pi, c, (s,)) for pi, s, c in sites])]
    while stack:
        pieces, hole_types, cc, nodes, n_args, matches = stack.pop()
        if not matches:
            continue
        if not hole_types:
            if n_args:
                consider(Pattern(_build(pieces), n_args))
            continue
        # admissible bound: every remaining hole resolves for free
        per_prog: dict = {}
        for pi, site_cost, _ in matches:
            per_prog[pi] = max(per_prog.get(pi, 0), site_cost - 100)
        bound = sum(v for v in per_prog.values() if v > 0) - cc
        if best_u is not None and bound < best_u:
            continue
        ht = hole_types[0]
        rest = hole_types[1:]
        # choice 1: make this hole an argument; a bare hole at the root
        # would hold no Prim or AbsRef, so it is no candidate
        if pieces and n_args < max_arity:
            new_matches = [(pi, sc, pending[1:]) for pi, sc, pending in matches]
            stack.append(
                (pieces + (_PHole(n_args, ht),), rest, cc, nodes, n_args + 1,
                 new_matches)
            )
        # choice 2: expand to a concrete head drawn from the match sites
        heads: dict = {}
        for pi, sc, pending in matches:
            head, args = spine(pending[0])
            th = type(head)
            if th is VarRef or th is Lambda:
                continue  # a bare variable cannot be extracted
            key = render_program(head) + f"/{len(args)}"
            heads.setdefault(key, (head, len(args), []))[2].append(
                (pi, sc, tuple(args) + pending[1:])
            )
        for key in sorted(heads):
            head, n_head_args, new_matches = heads[key]
            # the head takes the hole's place and adds n applications and n
            # holes: the equation's, then the indices' (a literal takes none)
            new_nodes = nodes + 2 * n_head_args
            if max_pattern_nodes is not None and new_nodes > max_pattern_nodes:
                continue
            kinds = (TSTR, *(TINT,) * (n_head_args - 1))[:n_head_args]
            stack.append(
                (pieces + ((head, n_head_args),), kinds + rest,
                 cc + 100 + n_head_args, new_nodes, n_args, new_matches)
            )

    return best, (best_u if best_u is not None else 0), scored


def _node_count(term) -> int:
    return sum(1 for _ in subterms(term))


def compress_detailed(
    corpus: Corpus,
    rounds: int = 3,
    max_arity: int = 2,
    known: Optional[set] = None,
) -> tuple[list[Abstraction], list[RoundInfo], Corpus]:
    """Iteratively extract the best abstraction and rewrite the corpus.

    Returns the abstractions, one RoundInfo per round and the rewritten
    corpus.  Stops early once no candidate has positive utility.
    """
    if rounds < 1:
        raise CompressionError("rounds must be at least 1")
    abstractions: list[Abstraction] = []
    rounds_info: list[RoundInfo] = []
    skip = set(known) if known is not None else set()
    current = list(corpus)
    for _ in range(rounds):
        pattern, u, scored = best_pattern(current, max_arity, known=skip or None)
        if pattern is None or u <= 0:
            rounds_info.append(RoundInfo(pattern, u, 0, scored))
            break
        before = sum(program_cost(p) for _, p in current)
        rewritten = rewrite_with_abstraction(pattern, current)
        after = sum(program_cost(p) for _, p in rewritten)
        abstraction = abstraction_from_pattern(pattern)
        abstractions.append(abstraction)
        skip.add(abstraction)
        rounds_info.append(RoundInfo(pattern, u, before - after, scored))
        current = rewritten
    return abstractions, rounds_info, current

