"""Weighted unigram grammar over programs, a.k.a. the library.

The library holds every production the enumerator may use: the built-in
primitives plus learned abstractions, each with a type and a log weight.
Weights are unnormalized; probabilities come from normalizing over the
candidates that can fill a hole of a given type context, so Eq-style priors
are products of per-choice probabilities.

Three contexts exist: equation-valued holes (the bound equation variable,
equation primitives, equation-valued abstractions), integer-valued holes
(literals 0..10, newConstGen, integer-valued abstractions) and the
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

from .primitives import EQUATION_PRIMITIVES
from .programs import (
    AbsRef,
    Abstraction,
    Apply,
    IntLit,
    Lambda,
    Prim,
    PRIM_TYPES,
    Term,
    TSTR,
    VarRef,
    arrow,
    is_arrow,
    parse_program,
    render_program,
    render_type,
    spine,
    subterms,
)

CTX_TSTR = "tstr"
CTX_TINT = "tint"
CTX_TINT_INNER = "tint_inner"

LITERAL_RANGE = range(0, 11)


class GrammarError(Exception):
    pass


@dataclass
class Production:
    item: Union[str, Abstraction]  # primitive name or learned abstraction
    type: object
    log_weight: float

    @property
    def name(self) -> str:
        return self.item if isinstance(self.item, str) else self.item.name

    def result_type(self):
        t = self.type
        while is_arrow(t):
            t = t[2]
        return t

    def arg_types(self) -> tuple:
        out = []
        t = self.type
        while is_arrow(t):
            out.append(t[1])
            t = t[2]
        return tuple(out)


@dataclass(frozen=True)
class Candidate:
    """One normalized choice for a hole: how to build the head term, its
    probability in this context, and the contexts of any argument holes."""

    kind: str  # "var" | "lit" | "prim" | "abs"
    payload: object
    log_prob: float
    arg_ctxs: tuple
    render_key: str


def _arg_ctx(arg_type, inner: bool):
    if arg_type == TSTR:
        return CTX_TSTR
    return CTX_TINT_INNER if inner else CTX_TINT


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
        prods = [Production(name, PRIM_TYPES[name], 0.0) for name in EQUATION_PRIMITIVES]
        prods.append(Production("newConstGen", PRIM_TYPES["newConstGen"], 0.0))
        return cls(prods)

    def abstractions(self) -> list[Abstraction]:
        return [p.item for p in self.productions if isinstance(p.item, Abstraction)]

    def add_abstraction(self, body, origin_iteration: int = 0) -> Abstraction:
        """Register a new abstraction under the next free fn_<k> name.

        If an equal-bodied abstraction is already present it is returned
        unchanged instead of being duplicated.
        """
        for a in self.abstractions():
            if a.body == body:
                return a
        n = sum(1 for p in self.productions if isinstance(p.item, Abstraction))
        a = Abstraction(body, name=f"fn_{n}", origin_iteration=origin_iteration)
        self.productions.append(Production(a, a.type, 0.0))
        self._tables = None
        return a

    # -- normalized candidate tables ------------------------------------

    def _build_tables(self) -> dict:
        # entry = (kind, payload, log_weight, arg_ctxs, render_key)
        tstr_entries = [("var", None, self.var_log_weight, (), "$0")]
        tint_entries = [("lit", v, 0.0, (), str(v)) for v in LITERAL_RANGE]
        inner_entries = list(tint_entries)
        for p in self.productions:
            term = Prim(p.item) if isinstance(p.item, str) else AbsRef(p.item)
            key = render_program(term)
            kind = "prim" if isinstance(p.item, str) else "abs"
            if p.result_type() == TSTR:
                ctxs = tuple(_arg_ctx(a, inner=False) for a in p.arg_types())
                tstr_entries.append((kind, p, p.log_weight, ctxs, key))
            else:
                # integer producers take only literal arguments
                ctxs = tuple(_arg_ctx(a, inner=True) for a in p.arg_types())
                tint_entries.append((kind, p, p.log_weight, ctxs, key))

        def normalize(entries):
            total = math.log(sum(math.exp(w) for _, _, w, _, _ in entries))
            return [
                Candidate(kind, payload, w - total, ctxs, key)
                for kind, payload, w, ctxs, key in entries
            ]

        return {
            CTX_TSTR: normalize(tstr_entries),
            CTX_TINT: normalize(tint_entries),
            CTX_TINT_INNER: normalize(inner_entries),
        }

    def candidates(self, ctx: str) -> list[Candidate]:
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
            return self._score(Apply(p, VarRef(0)), CTX_TSTR)
        return self._score(p, CTX_TINT)

    def _score(self, term: Term, ctx: str) -> float:
        tt = type(term)
        table = self.candidates(ctx)
        if tt is VarRef:
            for c in table:
                if c.kind == "var":
                    return c.log_prob
            raise GrammarError("no variable production in this context")
        if tt is IntLit:
            for c in table:
                if c.kind == "lit" and c.payload == term.value:
                    return c.log_prob
            raise GrammarError(f"literal {term.value} not available in context {ctx}")
        head, args = spine(term)
        if type(head) is Prim:
            match = lambda c: c.kind == "prim" and c.payload.item == head.name
        elif type(head) is AbsRef:
            match = lambda c: c.kind == "abs" and c.payload.item == head.abstraction
        else:
            raise GrammarError(f"cannot score head {head!r}")
        for c in table:
            if match(c):
                if len(args) != len(c.arg_ctxs):
                    raise GrammarError(
                        f"{c.render_key} applied to {len(args)} args, expected {len(c.arg_ctxs)}"
                    )
                return c.log_prob + sum(
                    self._score(a, actx) for a, actx in zip(args, c.arg_ctxs)
                )
        raise GrammarError(f"no production for {render_program(term)} in context {ctx}")

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        prods = []
        for p in self.productions:
            d = {
                "kind": "abstraction" if isinstance(p.item, Abstraction) else "primitive",
                "name": p.name,
                "type": render_type(p.type),
                "log_weight": p.log_weight,
            }
            if isinstance(p.item, Abstraction):
                d["body"] = render_program(p.item.body)
                d["origin_iteration"] = p.item.origin_iteration
            prods.append(d)
        return {
            "iteration": self.iteration,
            "var_log_weight": self.var_log_weight,
            "productions": prods,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Library":
        """Inverse of to_dict; GrammarError for anything else."""
        _check_fields(d, "checkpoint", _CHECKPOINT_FIELDS)
        lib = cls([], var_log_weight=d["var_log_weight"], iteration=d["iteration"])
        for pd in d["productions"]:
            _check_fields(pd, "checkpoint production", _PRODUCTION_FIELDS)
            if pd["kind"] not in ("primitive", "abstraction"):
                raise GrammarError(f"unknown production kind {pd['kind']!r} in checkpoint")
            if pd["kind"] == "primitive":
                if pd["name"] not in PRIM_TYPES:
                    raise GrammarError(f"unknown primitive {pd['name']!r} in checkpoint")
                lib.productions.append(
                    Production(pd["name"], PRIM_TYPES[pd["name"]], pd["log_weight"])
                )
            else:
                _check_fields(pd, "checkpoint abstraction", _ABSTRACTION_FIELDS)
                body = parse_program(pd["body"], lib)
                a = Abstraction(body, name=pd["name"],
                                origin_iteration=pd.get("origin_iteration", 0))
                lib.productions.append(Production(a, a.type, pd["log_weight"]))
        declared = {pd["name"]: pd["type"] for pd in d["productions"]}
        for p in lib.productions:
            if render_type(p.type) != declared[p.name]:
                raise GrammarError(
                    f"type mismatch for {p.name}: checkpoint says {declared[p.name]}, "
                    f"inferred {render_type(p.type)}"
                )
        return lib


_NUMBER = (int, float)
_CHECKPOINT_FIELDS = {"var_log_weight": _NUMBER, "iteration": int, "productions": list}
_PRODUCTION_FIELDS = {"kind": str, "name": str, "type": str, "log_weight": _NUMBER}
_ABSTRACTION_FIELDS = {"body": str}


def _check_fields(d, what: str, fields: dict) -> None:
    """GrammarError unless ``d`` is a dict holding every field with a value
    of its type."""
    if not isinstance(d, dict):
        raise GrammarError(f"{what} must be a JSON object, not {type(d).__name__}")
    for key, types in fields.items():
        if key not in d:
            raise GrammarError(f"{what} lacks the field {key!r}")
        if not isinstance(d[key], types):
            raise GrammarError(
                f"{what} field {key!r} has a value of type {type(d[key]).__name__}"
            )


def production_counts(programs: Iterable[Term]) -> tuple[dict, int]:
    """Usage counts of primitives/abstractions plus the variable-use count.

    Counts do not descend into abstraction bodies: an abstraction call is a
    single production use.
    """
    counts: dict = {}
    var_uses = 0
    for program in programs:
        for t in subterms(program):
            tt = type(t)
            if tt is Prim:
                counts[t.name] = counts.get(t.name, 0) + 1
            elif tt is AbsRef:
                counts[t.abstraction] = counts.get(t.abstraction, 0) + 1
            elif tt is VarRef:
                var_uses += 1
    return counts, var_uses


def fit_grammar(lib: Library, programs: Iterable[Term]) -> Library:
    """Refit weights from usage counts: weight = log(count + 1)."""
    counts, var_uses = production_counts(programs)
    prods = [
        Production(p.item, p.type, math.log(counts.get(p.item, 0) + 1))
        for p in lib.productions
    ]
    return Library(prods, var_log_weight=math.log(var_uses + 1), iteration=lib.iteration)
