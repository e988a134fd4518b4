"""Weighted unigram grammar over programs, a.k.a. the library.

The library holds every production the search may use: the built-in
primitives plus learned abstractions.  A production is its head term, a
Prim or an AbsRef, with a type and a log weight.  Weights are unnormalized;
each hole context has one table, keyed by head term, that maps every head
allowed there to its normalized log probability and the contexts of its
arguments, so Eq-style priors are products of per-choice probabilities.

Three contexts exist: equation-valued holes (the bound equation variable
$0, equation primitives, equation-valued abstractions), integer-valued holes
(the literals 0..10, newConstGen, integer-valued abstractions) and the
arguments of integer producers, which are restricted to bare literals so
integer subterms never nest past one application (values stay within
0..110).

fit_grammar counts production uses in a program corpus and sets weight =
count + 1 (Laplace smoothing), so a production used 9 times ends up 10x the
weight of an unused one.  Literals always stay uniform within their block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .programs import (
    AbsRef,
    Abstraction,
    Apply,
    IntLit,
    Lambda,
    LITERAL_RANGE,
    Prim,
    PRIM_TYPES,
    ProgramError,
    Term,
    TSTR,
    VarRef,
    arrow,
    parse_program,
    render_program,
    render_type,
    spine,
    split_type,
    subterms,
)

CTX_TSTR = "tstr"
CTX_TINT = "tint"
CTX_TINT_INNER = "tint_inner"

VAR = VarRef(0)  # the bound equation variable, the head that takes no arguments


class GrammarError(Exception):
    pass


@dataclass
class Production:
    head: Union[Prim, AbsRef]
    type: object
    log_weight: float

    @property
    def name(self) -> str:
        head = self.head
        return head.name if type(head) is Prim else head.abstraction.name


class Library:
    """Productions plus fitted weights; iteration tags when it was updated."""

    def __init__(self, productions: list[Production], var_log_weight: float = 0.0,
                 iteration: int = 0):
        self.productions = productions
        self.var_log_weight = var_log_weight
        self.iteration = iteration
        self._tables: Optional[dict] = None

    @classmethod
    def initial(cls) -> "Library":
        return cls([Production(Prim(name), t, 0.0) for name, t in PRIM_TYPES.items()])

    def abstractions(self) -> list[Abstraction]:
        return [p.head.abstraction for p in self.productions if type(p.head) is AbsRef]

    def add_abstraction(self, body, origin_iteration: int = 0) -> Abstraction:
        """Register a new abstraction under fn_<k>, the smallest k that
        no production is named.

        If an equal-bodied abstraction is already present it is returned
        unchanged instead of being duplicated.
        """
        for a in self.abstractions():
            if a.body == body:
                return a
        taken = {p.name for p in self.productions}
        k = 0
        while f"fn_{k}" in taken:
            k += 1
        a = Abstraction(body, name=f"fn_{k}", origin_iteration=origin_iteration)
        self.productions.append(Production(AbsRef(a), a.type, 0.0))
        self._tables = None
        return a

    # -- normalized tables ------------------------------------------------

    def _build_tables(self) -> dict:
        # entry = (head, log_weight, arg_ctxs)
        tstr_entries = [(VAR, self.var_log_weight, ())]
        tint_entries = [(IntLit(v), 0.0, ()) for v in LITERAL_RANGE]
        inner_entries = list(tint_entries)
        for p in self.productions:
            arg_types, result_type = split_type(p.type)
            if result_type == TSTR:
                entries, int_ctx = tstr_entries, CTX_TINT
            else:
                # integer producers take only literal arguments
                entries, int_ctx = tint_entries, CTX_TINT_INNER
            ctxs = tuple(CTX_TSTR if a == TSTR else int_ctx for a in arg_types)
            entries.append((p.head, p.log_weight, ctxs))

        def normalize(entries):
            try:
                mass = sum(math.exp(w) for _, w, _ in entries)
            except OverflowError:
                mass = math.inf
            if not 0.0 < mass < math.inf:
                raise GrammarError(
                    "production weights overflow or underflow when normalized"
                )
            total = math.log(mass)
            return {head: (w - total, ctxs) for head, w, ctxs in entries}

        return {
            CTX_TSTR: normalize(tstr_entries),
            CTX_TINT: normalize(tint_entries),
            CTX_TINT_INNER: normalize(inner_entries),
        }

    def table(self, ctx: str) -> dict:
        """head -> (log_prob, arg_ctxs) for every head allowed in context
        ``ctx``: VAR, an IntLit, a Prim or an AbsRef."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables[ctx]

    # -- scoring ----------------------------------------------------------

    def log_prior(self, p: Term) -> float:
        """Log of the Eq-style product prior for a closed program.

        A tstr -> tstr program is a lambda whose body is scored in the
        equation context; a bare library call stands for its one-step
        chain (lambda (fn $0)); any other bare term is scored as an
        integer expression.
        """
        if type(p) is Lambda:
            return self._score(p.body, CTX_TSTR)
        if type(p) is AbsRef and p.abstraction.type == arrow(TSTR, TSTR):
            return self._score(Apply(p, VAR), CTX_TSTR)
        return self._score(p, CTX_TINT)

    def _score(self, term: Term, ctx: str) -> float:
        head, args = spine(term)
        entry = self.table(ctx).get(head)
        if entry is None:
            raise GrammarError(f"no production for {render_program(head)} in context {ctx}")
        log_prob, arg_ctxs = entry
        if len(args) != len(arg_ctxs):
            raise GrammarError(
                f"{render_program(head)} applied to {len(args)} args, expected {len(arg_ctxs)}"
            )
        return log_prob + sum(self._score(a, actx) for a, actx in zip(args, arg_ctxs))

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        prods = []
        for p in self.productions:
            d = {
                "kind": "primitive",
                "name": p.name,
                "type": render_type(p.type),
                "log_weight": p.log_weight,
            }
            if type(p.head) is AbsRef:
                a = p.head.abstraction
                d["kind"] = "abstraction"
                d["body"] = render_program(a.body)
                d["origin_iteration"] = a.origin_iteration
            prods.append(d)
        return {
            "iteration": self.iteration,
            "var_log_weight": self.var_log_weight,
            "productions": prods,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Library":
        """Inverse of to_dict; GrammarError for anything else, a production
        listed twice included."""
        _check_fields(d, "checkpoint", _CHECKPOINT_FIELDS)
        _check_finite(d["var_log_weight"], "var_log_weight")
        lib = cls([], var_log_weight=d["var_log_weight"], iteration=d["iteration"])
        names = set()
        bodies = {}  # abstraction -> its name, compared by body
        for pd in d["productions"]:
            _check_fields(pd, "checkpoint production", _PRODUCTION_FIELDS)
            name = pd["name"]
            _check_finite(pd["log_weight"], f"log_weight of {name!r}")
            if name in names:
                raise GrammarError(f"checkpoint lists two productions named {name!r}")
            names.add(name)
            if pd["kind"] not in ("primitive", "abstraction"):
                raise GrammarError(f"unknown production kind {pd['kind']!r} in checkpoint")
            if pd["kind"] == "primitive":
                if name not in PRIM_TYPES:
                    raise GrammarError(f"unknown primitive {name!r} in checkpoint")
                prod = Production(Prim(name), PRIM_TYPES[name], pd["log_weight"])
            else:
                _check_fields(pd, "checkpoint abstraction", _ABSTRACTION_FIELDS)
                origin = pd.get("origin_iteration", 0)
                if type(origin) is not int:
                    raise GrammarError(
                        f"checkpoint abstraction {name!r} field 'origin_iteration'"
                        f" has a value of type {type(origin).__name__}"
                    )
                body = parse_program(pd["body"], lib)
                a = Abstraction(body, name=name, origin_iteration=origin)
                if a in bodies:
                    raise GrammarError(
                        f"checkpoint abstractions {bodies[a]!r} and {name!r} have the same body"
                    )
                bodies[a] = name
                _check_name(a, [*lib.abstractions(), a])
                prod = Production(AbsRef(a), a.type, pd["log_weight"])
            if render_type(prod.type) != pd["type"]:
                raise GrammarError(
                    f"type mismatch for {name}: checkpoint says {pd['type']}, "
                    f"inferred {render_type(prod.type)}"
                )
            lib.productions.append(prod)
        return lib


_NUMBER = (int, float)
_CHECKPOINT_FIELDS = {"var_log_weight": _NUMBER, "iteration": int, "productions": list}
_PRODUCTION_FIELDS = {"kind": str, "name": str, "type": str, "log_weight": _NUMBER}
_ABSTRACTION_FIELDS = {"body": str}


def _check_fields(d, what: str, fields: dict) -> None:
    """GrammarError unless ``d`` is a dict holding every field with a value
    of its type; a JSON ``true`` or ``false`` is no number."""
    if not isinstance(d, dict):
        raise GrammarError(f"{what} must be a JSON object, not {type(d).__name__}")
    for key, types in fields.items():
        if key not in d:
            raise GrammarError(f"{what} lacks the field {key!r}")
        if not isinstance(d[key], types) or type(d[key]) is bool:
            raise GrammarError(
                f"{what} field {key!r} has a value of type {type(d[key]).__name__}"
            )


def _check_name(a: Abstraction, abstractions: list) -> None:
    """GrammarError unless program text can refer to ``a`` by its name: a
    call of ``a`` rendered by name must parse back to that call."""
    call = Lambda(Apply(AbsRef(a), VAR))
    text = render_program(call, named=True)
    try:
        same = bool(a.name) and parse_program(text, abstractions) == call
    except ProgramError:
        same = False
    if not same:
        raise GrammarError(
            f"checkpoint abstraction name {a.name!r} is not a program token that names it"
        )


def _check_finite(weight, what: str) -> None:
    # JSON reads Infinity, -Infinity, NaN and 1e400 as non-finite floats; an
    # int is finite, and one too large for a float fails normalization
    if isinstance(weight, float) and not math.isfinite(weight):
        raise GrammarError(f"checkpoint {what} is {weight}, not a finite number")


def production_counts(programs: Iterable[Term]) -> tuple[dict, int]:
    """Usage counts of Prim and AbsRef heads, keyed by the term (an AbsRef
    compares by abstraction body), plus the variable-use count.

    Counts do not descend into abstraction bodies: an abstraction call is a
    single production use.
    """
    counts: dict = {}
    var_uses = 0
    for program in programs:
        for t in subterms(program):
            tt = type(t)
            if tt is Prim or tt is AbsRef:
                counts[t] = counts.get(t, 0) + 1
            elif tt is VarRef:
                var_uses += 1
    return counts, var_uses


def fit_grammar(lib: Library, programs: Iterable[Term]) -> Library:
    """Refit weights from usage counts: weight = log(count + 1)."""
    counts, var_uses = production_counts(programs)
    prods = [
        Production(p.head, p.type, math.log(counts.get(p.head, 0) + 1))
        for p in lib.productions
    ]
    return Library(prods, var_log_weight=math.log(var_uses + 1), iteration=lib.iteration)
