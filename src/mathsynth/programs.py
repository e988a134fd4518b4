"""Programs over the equation-rewriting primitives.

Programs are lambda terms with de Bruijn variables, written as
s-expressions: ``(lambda (simplify (sub $0 5) 0))``.  The leaves are
primitive names, integer literals 0..10 and ``$k`` references; learned
abstractions appear either by name or inline as ``#(lambda ...)``.  The
inline form is the canonical serialization: it is self-contained, so parsing
it never needs a library.

Types are simple: ``tstr`` (an equation), ``tint`` (an integer) and arrows.
Every equation-valued primitive has type ``tstr -> tint -> tstr`` with the
equation first.

Evaluation is call-by-value and compiled: _compile turns a term into a
Python closure over a de Bruijn environment tuple.  A function value is a
one-argument callable; a primitive or abstraction value is curried, a lambda
value closes over its environment.  An application of an equation primitive
or an abstraction to all its arguments becomes a direct call.  An
abstraction's body is compiled on first use, without a recorder, and cached
on the Abstraction; the cache is never pickled, so an Abstraction travels as
its body, name and origin iteration and is compiled again where it lands.

With tracing on, evaluate compiles the program with a recorder: every
application appends the equation it yields, inside the program's own
lambdas too, while an abstraction call is a single step whose inner states
are not recorded.

A top-level call (evaluate or apply_abstraction) may make at most
_STEP_LIMIT steps, lambda-closure applications and saturated abstraction
calls together, and fails with EvalError past that, since a body read from
a checkpoint can nest lambdas or abstraction calls into exponential work.
Saturated primitive calls are not counted.

unrolled_steps turns a saturated call of an abstraction into the
(primitive name, index) steps it makes, for the chain search to run
through the rule table.  It takes a chain body: primitive applications,
saturated calls of other chain bodies (inlined), literals, parameters and
newConstGen indices, where a body that returns an equation takes exactly
one and a body that returns an integer takes none.  Any other body, such
as one with an inner lambda, which only a hand-written checkpoint can
hold, has no steps.  A chain body applies no closure, so its call makes
one step per abstraction call, and past _STEP_LIMIT it fails whatever the
equation.  The unroller walks each (abstraction, arguments) pair once per
memo and stops counting at the limit, so a nest of calls that doubles at
each level is never walked out.

Cost charges 100 per terminal (primitive, literal, variable or abstraction
reference) and 1 per application or lambda, so ``(lambda (sub $0 5))``
costs 303 and ``(lambda $0)`` costs 101.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .equations import MAX_NESTING, Equation, Node, _too_deep, is_equation, render_prefix
from .primitives import EQUATION_PRIMITIVES, PrimitiveError, new_const_gen

TSTR = "tstr"
TINT = "tint"


class ProgramError(Exception):
    """Parse or type failure."""


class EvalError(Exception):
    """Runtime failure while executing a program."""


class _PrimitiveFailed(EvalError):
    """A primitive's PrimitiveError, raised as (name, i, e, err).  The
    message renders the whole equation, so it is built only when read; the
    chain search discards nearly every one."""

    def __str__(self):
        name, i, e, err = self.args
        return f"{name} at index {i} failed on {render_prefix(e)}: {err}"


def arrow(*types):
    """Right-nested function type: arrow(a, b, c) == a -> (b -> c)."""
    if len(types) < 2:
        raise ValueError("arrow needs at least two types")
    t = types[-1]
    for arg in reversed(types[:-1]):
        t = ("->", arg, t)
    return t


def is_arrow(t) -> bool:
    return type(t) is tuple and t[0] == "->"


def split_type(t) -> tuple:
    """(argument types, result type): split_type(arrow(a, b, c)) is
    ((a, b), c), and split_type(a) is ((), a)."""
    args = []
    while is_arrow(t):
        args.append(t[1])
        t = t[2]
    return tuple(args), t


def render_type(t) -> str:
    """``tstr -> tint -> tstr``; a type variable, an int during inference,
    renders as ``t<n>``."""
    if type(t) is int:
        return f"t{t}"
    if not is_arrow(t):
        return t
    lhs = render_type(t[1])
    if is_arrow(t[1]):
        lhs = f"({lhs})"
    return f"{lhs} -> {render_type(t[2])}"


EQ_PRIM_TYPE = arrow(TSTR, TINT, TSTR)
PRIM_TYPES = {name: EQ_PRIM_TYPE for name in EQUATION_PRIMITIVES}
PRIM_TYPES["newConstGen"] = arrow(TINT, TINT, TINT, TINT)

LITERAL_RANGE = range(0, 11)  # the integer literals a program may contain


# --- terms ------------------------------------------------------------------


@dataclass(frozen=True)
class Lambda:
    body: "Term"


@dataclass(frozen=True)
class Apply:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class VarRef:
    index: int


@dataclass(frozen=True)
class Prim:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


class Abstraction:
    """A named, reusable program fragment; equality is by body alone."""

    __slots__ = ("name", "body", "origin_iteration", "_hash", "_type", "_compiled")

    def __init__(self, body: "Term", name: Optional[str] = None, origin_iteration: int = 0):
        if type(body) is not Lambda:
            raise ProgramError("an abstraction body must start with a lambda")
        self.body = body
        self.name = name
        self.origin_iteration = origin_iteration
        self._hash = hash(("abstraction", body))
        self._type = None
        self._compiled = None

    def __reduce__(self):
        # the caches, the compiled closure above all, are rebuilt on demand
        return (Abstraction, (self.body, self.name, self.origin_iteration))

    @property
    def arity(self) -> int:
        n, t = 0, self.body
        while type(t) is Lambda:
            n, t = n + 1, t.body
        return n

    @property
    def type(self):
        if self._type is None:
            self._type = infer_type(self.body)
        return self._type

    def run(self, args: tuple):
        """Apply to exactly ``arity`` evaluated arguments, in call order."""
        global _steps
        _steps += 1
        if _steps > _STEP_LIMIT:
            raise EvalError("evaluation step limit exceeded")
        fn = self._compiled
        if fn is None:
            core = self.body
            for _ in range(self.arity):
                core = core.body
            fn = self._compiled = _compile(core)
        # de Bruijn: $0 is the innermost binder, i.e. the last argument
        return fn(args[::-1])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Abstraction) and other.body == self.body
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Abstraction({self.name or render_program(self.body)})"


@dataclass(frozen=True)
class AbsRef:
    abstraction: Abstraction


Term = Union[Lambda, Apply, VarRef, Prim, IntLit, AbsRef]


# --- serialization ----------------------------------------------------------


def render_program(p: Term, named: bool = False, hole=None) -> str:
    """S-expression text.  Abstraction references render inline as
    ``#(lambda ...)`` unless ``named`` is set and the abstraction has a name.
    ``hole`` renders any leaf that is not a term, such as the hole of a
    partial program."""
    tt = type(p)
    if tt is Lambda:
        return f"(lambda {render_program(p.body, named, hole)})"
    if tt is Apply:
        head, args = spine(p)
        return "(" + " ".join(render_program(t, named, hole) for t in [head, *args]) + ")"
    if tt is VarRef:
        return f"${p.index}"
    if tt is Prim:
        return p.name
    if tt is IntLit:
        return str(p.value)
    if tt is AbsRef:
        a = p.abstraction
        if named and a.name:
            return a.name
        return f"#{render_program(a.body, named)}"
    if hole is not None:
        return hole(p)
    raise ProgramError(f"cannot render {p!r}")


def _tokenize_program(text: str) -> list[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "#" and i + 1 < n and text[i + 1] == "(":
            tokens.append("#(")
            i += 2
        elif c in "()":
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def parse_program(text: str, lib=None) -> Term:
    """Parse s-expression program text.

    ``lib`` may be a Library, an iterable of Abstractions, or None.  A name
    token resolves to the library's abstraction of that name; an inline
    ``#(lambda ...)`` is matched against the library by body when one is
    given, so it keeps its name, and otherwise parses as an anonymous
    abstraction.
    """
    abstractions = _abstraction_index(lib)
    tokens = _tokenize_program(text)
    if not tokens:
        raise ProgramError("empty program text")
    if _too_deep(tokens):
        raise ProgramError(f"program text nests deeper than {MAX_NESTING} levels")
    term, pos = _parse_term(tokens, 0, 0, abstractions)
    if pos != len(tokens):
        raise ProgramError(f"trailing input: {tokens[pos]!r}")
    return term


def _abstraction_index(lib) -> tuple[dict, dict]:
    """(by name, by body) maps over the abstractions of ``lib``."""
    if lib is None:
        lib = ()
    elif hasattr(lib, "abstractions"):
        lib = lib.abstractions()
    by_name, by_body = {}, {}
    for a in lib:
        if a.name:
            by_name[a.name] = a
        by_body[a.body] = a
    return by_name, by_body


def _parse_term(tokens, pos, depth, abstractions):
    if pos >= len(tokens):
        raise ProgramError("unexpected end of program text")
    tok = tokens[pos]
    if tok == "(":
        if pos + 1 < len(tokens) and tokens[pos + 1] == "lambda":
            body, pos = _parse_term(tokens, pos + 2, depth + 1, abstractions)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ProgramError("expected ')' after lambda body")
            return Lambda(body), pos + 1
        head, pos = _parse_term(tokens, pos + 1, depth, abstractions)
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            arg, pos = _parse_term(tokens, pos, depth, abstractions)
            args.append(arg)
        if pos >= len(tokens):
            raise ProgramError("unbalanced parentheses")
        if not args:
            raise ProgramError("application needs at least one argument")
        term = head
        for a in args:
            term = Apply(term, a)
        return term, pos + 1
    if tok == "#(":
        return _parse_inline_abstraction(tokens, pos, abstractions)
    if tok == ")":
        raise ProgramError("unexpected ')'")
    if tok.startswith("$"):
        try:
            k = int(tok[1:])
        except ValueError:
            raise ProgramError(f"bad variable token {tok!r}") from None
        if k < 0 or k >= depth:
            raise ProgramError(f"unbound variable {tok} at lambda depth {depth}")
        return VarRef(k), pos + 1
    if tok.isdigit() or (tok[0] == "-" and tok[1:].isdigit()):
        try:
            v = int(tok)
        except ValueError:  # a digit int() does not read, or too many digits
            raise ProgramError(f"bad integer literal {tok!r}") from None
        if v not in LITERAL_RANGE:
            raise ProgramError(f"integer literal {v} outside 0..10")
        return IntLit(v), pos + 1
    if tok in PRIM_TYPES:
        return Prim(tok), pos + 1
    by_name = abstractions[0]
    if tok in by_name:
        return AbsRef(by_name[tok]), pos + 1
    raise ProgramError(f"unknown primitive {tok!r}")


def _parse_inline_abstraction(tokens, pos, abstractions):
    # pos points at "#("; reuse the lambda parser with a fresh depth of 0
    if pos + 1 >= len(tokens) or tokens[pos + 1] != "lambda":
        raise ProgramError("'#(' must introduce a lambda")
    body, pos = _parse_term(tokens, pos + 2, 1, abstractions)
    if pos >= len(tokens) or tokens[pos] != ")":
        raise ProgramError("expected ')' after inline abstraction")
    term = Lambda(body)
    by_body = abstractions[1]
    found = by_body.get(term)
    return AbsRef(found if found is not None else Abstraction(term)), pos + 1


def program_cost(p: Term) -> int:
    """100 per terminal, 1 per application node, 1 per lambda."""
    tt = type(p)
    if tt is Lambda:
        return 1 + program_cost(p.body)
    if tt is Apply:
        return 1 + program_cost(p.fn) + program_cost(p.arg)
    return 100


def subterms(p: Term):
    """Pre-order walk; does not descend into abstraction bodies."""
    yield p
    tt = type(p)
    if tt is Lambda:
        yield from subterms(p.body)
    elif tt is Apply:
        yield from subterms(p.fn)
        yield from subterms(p.arg)


def spine(term: Term) -> tuple:
    """(head, args) of an application spine, the arguments in call order;
    (term, []) for anything but an application."""
    args = []
    while type(term) is Apply:
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def map_leaves(term: Term, f) -> Term:
    """``term`` rebuilt with every leaf replaced by ``f(leaf)``, left to
    right; does not descend into abstraction bodies."""
    tt = type(term)
    if tt is Lambda:
        return Lambda(map_leaves(term.body, f))
    if tt is Apply:
        return Apply(map_leaves(term.fn, f), map_leaves(term.arg, f))
    return f(term)


# --- type inference ----------------------------------------------------------


def _resolve(t, subst):
    while type(t) is int and t in subst:
        t = subst[t]
    if is_arrow(t):
        return ("->", _resolve(t[1], subst), _resolve(t[2], subst))
    return t


def _unify(a, b, subst):
    a = _resolve(a, subst)
    b = _resolve(b, subst)
    if a == b:
        return
    if type(a) is int:
        subst[a] = b
        return
    if type(b) is int:
        subst[b] = a
        return
    if is_arrow(a) and is_arrow(b):
        _unify(a[1], b[1], subst)
        _unify(a[2], b[2], subst)
        return
    raise ProgramError(f"type mismatch: {render_type(a)} vs {render_type(b)}")


def _default_free(t):
    if type(t) is int:
        return TSTR
    if is_arrow(t):
        return ("->", _default_free(t[1]), _default_free(t[2]))
    return t


def infer_type(p: Term, env: tuple = ()):
    """Principal simple type with unconstrained positions defaulting to tstr.

    Fresh type variables are integers during inference; callers only ever
    see concrete types built from tstr, tint and arrows.
    """
    subst: dict = {}
    counter = [0]

    def fresh():
        counter[0] += 1
        return counter[0]

    def infer(term, env):
        tt = type(term)
        if tt is IntLit:
            return TINT
        if tt is Prim:
            return PRIM_TYPES[term.name]
        if tt is AbsRef:
            return term.abstraction.type
        if tt is VarRef:
            if term.index >= len(env):
                raise ProgramError(f"unbound variable ${term.index}")
            return env[term.index]
        if tt is Lambda:
            tv = fresh()
            tbody = infer(term.body, (tv,) + env)
            return ("->", _resolve(tv, subst), tbody)
        if tt is Apply:
            tf = infer(term.fn, env)
            ta = infer(term.arg, env)
            tr = fresh()
            _unify(tf, ("->", ta, tr), subst)
            return _resolve(tr, subst)
        raise ProgramError(f"cannot type {term!r}")

    return _default_free(_resolve(infer(p, env), subst))


# --- evaluation ---------------------------------------------------------------


_STEP_LIMIT = 100_000
# Steps (closure applications and abstraction calls) since the last top-level
# call.  Every top-level call resets it first, so no count carries over from
# one call to the next; being module-level, it needs no state threaded
# through the compiled closures.
_steps = 0


def _run_equation_prim(name: str, e, i):
    if type(e) is not Node or e.op != "=":
        raise EvalError(f"{name} expects an equation as its first argument")
    try:
        return EQUATION_PRIMITIVES[name](e, i)
    except PrimitiveError as err:
        raise _PrimitiveFailed(name, i, e, err) from err


def _curried(run, arity: int, got: tuple = ()):
    """One-argument function value that calls ``run`` with ``arity``
    arguments, in call order, once it has them all."""

    def fn(arg):
        args = got + (arg,)
        if len(args) == arity:
            return run(args)
        return _curried(run, arity, args)

    return fn


def _prim_value(name: str):
    if name == "newConstGen":
        return _curried(lambda args: new_const_gen(*args), 3)
    return _curried(lambda args: _run_equation_prim(name, *args), 2)


def _closure(body, env):
    def fn(arg):
        global _steps
        _steps += 1
        if _steps > _STEP_LIMIT:
            raise EvalError("evaluation step limit exceeded")
        return body((arg,) + env)

    return fn


def _apply(fn, arg):
    if not callable(fn):
        raise EvalError(f"cannot apply a non-function value to {arg!r}")
    return fn(arg)


def _compile(term, rec: Optional[list] = None):
    """Closure computing ``term``'s value from a de Bruijn environment tuple.

    With a recorder list ``rec``, every application appends the equation it
    yields.  Function values are one-argument callables; abstraction bodies
    are compiled on their own, without a recorder."""
    tt = type(term)
    if tt is IntLit:
        value = term.value
        return lambda env: value
    if tt is VarRef:
        index = term.index
        return lambda env: env[index]
    if tt is Prim:
        prim = _prim_value(term.name)
        return lambda env: prim
    if tt is AbsRef:
        a = term.abstraction
        ref = _curried(a.run, a.arity)
        return lambda env: ref
    if tt is Lambda:
        body = _compile(term.body, rec)
        return lambda env: _closure(body, env)
    head, args = spine(term)
    arg_fns = [_compile(arg, rec) for arg in args]
    if type(head) is Prim and head.name in EQUATION_PRIMITIVES and len(args) == 2:
        name = head.name
        eq_fn, index_fn = arg_fns
        run = lambda env: _run_equation_prim(name, eq_fn(env), index_fn(env))
    elif type(head) is AbsRef and len(args) == head.abstraction.arity:
        call = head.abstraction.run
        run = lambda env: call(tuple([f(env) for f in arg_fns]))
    else:
        head_fn = _compile(head, rec)

        def run(env):
            val = head_fn(env)
            for arg in [f(env) for f in arg_fns]:
                val = _apply(val, arg)
            return val

    if rec is None:
        return run

    def recorded(env):
        val = run(env)
        if is_equation(val):
            rec.append(val)
        return val

    return recorded


def unrolled_steps(a: Abstraction, ints: tuple, memo: Optional[dict] = None):
    """The (primitive name, index) steps, in order, that a saturated call of
    ``a`` makes on an equation, given its integer arguments ``ints`` in call
    order; None for a body that is not a chain.

    Applied one by one through apply_primitive, the steps give what
    apply_abstraction gives, failures included.  Raises EvalError when the
    call passes the step limit, which it then does whatever the equation.
    ``memo`` maps (abstraction, arguments) to the walk's result, so a caller
    that unrolls many calls walks each nested call once."""
    types, result = split_type(a.type)
    if result != TSTR or types.count(TSTR) != 1:
        return None
    ints = iter(ints)
    args = tuple(() if t == TSTR else next(ints) for t in types)
    found = _unrolled_call(a, args, {} if memo is None else memo)
    return None if found is None else found[1]


def _unrolled_call(a: Abstraction, args: tuple, memo: dict):
    """(calls, value) of the call of ``a`` on ``args``, or None; the
    equation argument, if any, is () and an equation value is the tuple of
    steps that made it from there."""
    key = (a, args)
    if key not in memo:
        try:
            memo[key] = _unroll_body(a, args, memo)
        except EvalError:
            memo[key] = EvalError
            raise
    found = memo[key]
    if found is EvalError:
        raise EvalError("evaluation step limit exceeded")
    return found


def _unroll_body(a: Abstraction, args: tuple, memo: dict):
    types, result = split_type(a.type)
    # an equation-valued body takes one equation and an int-valued one
    # none, so every equation a body makes feeds the next step, and the
    # last is its value: the steps form one chain
    if any(t not in (TSTR, TINT) for t in types) or types.count(TSTR) != (result == TSTR):
        return None
    core = a.body
    for _ in types:
        core = core.body
    calls = [1]
    value = _unroll_term(core, args[::-1], memo, calls)
    return None if value is None else (calls[0], value)


def _unroll_term(term, env: tuple, memo: dict, calls: list):
    """The value of ``term``, an int or a step tuple, or None where the
    term is not a chain; adds its abstraction calls to calls[0]."""
    tt = type(term)
    if tt is IntLit:
        return term.value
    if tt is VarRef:
        return env[term.index]
    if tt is not Apply:
        return None
    head, args = spine(term)
    values = []
    for arg in args:
        v = _unroll_term(arg, env, memo, calls)
        if v is None:
            return None
        values.append(v)
    # the body type-checked, so a saturated call gets values of its types
    if type(head) is Prim:
        if head.name == "newConstGen":
            return new_const_gen(*values) if len(values) == 3 else None
        return values[0] + ((head.name, values[1]),) if len(values) == 2 else None
    if type(head) is not AbsRef or len(values) != head.abstraction.arity:
        return None
    eq = next((v for v in values if type(v) is tuple), ())
    found = _unrolled_call(head.abstraction, tuple(() if v is eq else v for v in values), memo)
    if found is None:
        return None
    calls[0] += found[0]
    if calls[0] > _STEP_LIMIT:
        raise EvalError("evaluation step limit exceeded")
    value = found[1]
    return eq + value if type(value) is tuple else value


def apply_abstraction(a: Abstraction, args: tuple):
    """Run an abstraction on exactly ``a.arity`` evaluated argument values,
    in call order."""
    global _steps
    _steps = 0
    return a.run(args)


def evaluate(p: Term, input_equation: Equation, trace: bool = False):
    """Run a tstr -> tstr program on an equation.

    Returns (result, states) where states is None without tracing and
    otherwise the list of equation states starting with the input and ending
    with the output.
    """
    global _steps
    t = infer_type(p)
    if t != arrow(TSTR, TSTR):
        raise EvalError(f"program has type {render_type(t)}, expected tstr -> tstr")
    rec = [] if trace else None
    _steps = 0
    result = _apply(_compile(p, rec)(()), input_equation)
    if not is_equation(result):
        raise EvalError("program did not produce an equation")
    if not trace:
        return result, None
    if not rec or rec[-1] is not result:
        rec.append(result)
    states = [input_equation]
    for s in rec:
        if s is not states[-1]:
            states.append(s)
    return result, states
