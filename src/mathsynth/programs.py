"""Programs over the equation-rewriting primitives.

Programs are lambda terms with de Bruijn variables, written as
s-expressions: ``(lambda (simplify (sub $0 5) 0))``.  The leaves are
primitive names, integer literals 0..10 and ``$k`` references; learned
abstractions appear either by name or inline as ``#(lambda ...)``.  The
inline form is the canonical serialization: it is self-contained, so parsing
it never needs a library.

Types are simple: ``tstr`` (an equation), ``tint`` (an integer) and arrows.
Every primitive has type ``tstr -> tint -> tstr`` with the equation first.

A program is a chain: a variable, a literal, or a call of a primitive or an
abstraction on exactly as many arguments as its type takes, each a chain of
the type its position takes.  An argument in equation position is tstr; an
index argument is tint: a literal or a parameter.  infer_type reads a
chain's type off these positions.  An abstraction body is leading lambdas
over a chain that uses every parameter, an equation parameter once.  Every
head takes one equation and returns one, so a body takes exactly one
equation, as its first parameter, and each equation it makes feeds the
next step.  The Abstraction constructor raises ProgramError for any other
body: an inner lambda, a partial application, a function-valued argument,
an unused parameter, an equation used twice, or an equation parameter that
is not the first, which no chain search step could call.  A top-level
program is ``(lambda $0)``, a lambda over a chain on ``$0``, or a bare
tstr -> tstr abstraction reference, the eta-reduced form training stores.

There is one runner.  unrolled_steps turns a call of an abstraction into the
(primitive name, index) steps it makes.  evaluate splits a program into its
top-level calls, each a tuple of such steps, and runs every step through
apply_primitive; apply_abstraction runs a single call the same way, and the
chain search runs the same steps through the rule table.  A top-level call
may make at most _STEP_LIMIT abstraction calls, nested ones included, and
past that it fails with EvalError whatever the equation, since a body read
from a checkpoint can nest calls into exponential work; primitive steps are
not counted.  The unroller walks each (abstraction, arguments) pair once per
memo and stops counting at the limit, so a nest of calls that doubles at
each level is never walked out.  A trace records one state per top-level
call: the inner states of an abstraction call are not recorded.

Cost charges 100 per terminal (primitive, literal, variable or abstraction
reference) and 1 per application or lambda, so ``(lambda (sub $0 5))``
costs 303 and ``(lambda $0)`` costs 101.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .equations import MAX_NESTING, Equation, _too_deep, is_equation, render_prefix
from .primitives import EQUATION_PRIMITIVES, PrimitiveError, apply_primitive

TSTR = "tstr"
TINT = "tint"


class ProgramError(Exception):
    """Parse or type failure."""


class EvalError(Exception):
    """Runtime failure while executing a program."""


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
    """``tstr -> tint -> tstr``."""
    args, result = split_type(t)
    return " -> ".join((*args, result))


EQ_PRIM_TYPE = arrow(TSTR, TINT, TSTR)
PRIM_TYPES = {name: EQ_PRIM_TYPE for name in EQUATION_PRIMITIVES}

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
    """A named, reusable program fragment; equality is by body alone.

    The type is read off the body when it is made, and the inline text
    when it is first rendered; pickling drops both, so an Abstraction
    travels as its body, name and origin iteration."""

    __slots__ = ("name", "body", "origin_iteration", "type", "_hash", "_text")

    def __init__(self, body: "Term", name: Optional[str] = None, origin_iteration: int = 0):
        if type(body) is not Lambda:
            raise ProgramError("an abstraction body must start with a lambda")
        self.type = infer_type(body)
        if split_type(self.type)[0][0] != TSTR:
            raise ProgramError(
                f"an abstraction of type {render_type(self.type)} does not take"
                " its equation first"
            )
        self.body = body
        self.name = name
        self.origin_iteration = origin_iteration
        self._hash = hash(("abstraction", body))
        self._text = None

    def __reduce__(self):
        return (Abstraction, (self.body, self.name, self.origin_iteration))

    @property
    def arity(self) -> int:
        n, t = 0, self.body
        while type(t) is Lambda:
            n, t = n + 1, t.body
        return n

    @property
    def inline(self) -> str:
        """``#(lambda ...)``, nested abstractions inline too: a nested
        render joins the texts of the abstractions it calls."""
        if self._text is None:
            self._text = f"#{render_program(self.body)}"
        return self._text

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
        return f"#{render_program(a.body, named)}" if named else a.inline
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


# --- types ----------------------------------------------------------------------


def infer_type(p: Term, env: tuple = ()):
    """The type of ``p``, read off argument positions.

    A bare Prim or AbsRef has its own type; anything else must be leading
    lambdas over a chain that uses every parameter, and ProgramError says
    why it is not.  ``env`` holds the types of the variables free in ``p``,
    innermost first."""
    tt = type(p)
    if tt is Prim:
        return PRIM_TYPES[p.name]
    if tt is AbsRef:
        return p.abstraction.type
    n, core = 0, p
    while type(core) is Lambda:
        n, core = n + 1, core.body
    used = [None] * (n + len(env))
    result = _chain_type(core, None, used)
    for k, t in enumerate(env, n):
        if used[k] not in (None, t):
            raise ProgramError(f"${k} is used as {used[k]}, not {t}")
    params = used[n - 1::-1] if n else []  # call order: $0 is the last parameter
    if None in params:
        raise ProgramError(f"${n - 1 - params.index(None)} is never used")
    return arrow(*params, result) if n else result


def _chain_type(term: Term, want, used: list):
    """The type of the chain ``term``, tstr or tint, which must be ``want``
    unless that is None.  used[k] is the type $k is used at so far, or
    None; an equation variable may be used once."""
    tt = type(term)
    if tt is VarRef:
        k, t = term.index, want or TSTR
        if k >= len(used):
            raise ProgramError(f"unbound variable ${k}")
        if used[k] == TSTR or used[k] not in (None, t):
            raise ProgramError(f"${k} is used as {used[k]} and again as {t}")
        used[k] = t
        return t
    if tt is IntLit:
        if want == TSTR:
            raise ProgramError(f"the integer {term.value} stands where an equation goes")
        return TINT
    head, args = spine(term)
    th = type(head)
    if th is Lambda:
        raise ProgramError("an inner lambda is no chain step")
    if th is not Prim and th is not AbsRef:
        raise ProgramError(f"{render_program(term)} calls no primitive or abstraction")
    types, result = split_type(infer_type(head))
    if len(args) != len(types):
        raise ProgramError(
            f"{render_program(head, named=True)} takes {len(types)} arguments, not {len(args)}"
        )
    if want is not None and result != want:
        raise ProgramError(
            f"{render_program(head, named=True)} returns {result} where {want} goes"
        )
    for arg, t in zip(args, types):
        _chain_type(arg, t, used)
    return result


# --- evaluation ---------------------------------------------------------------


_STEP_LIMIT = 100_000


def unrolled_steps(a: Abstraction, ints: tuple, memo: Optional[dict] = None) -> tuple:
    """The (primitive name, index) steps, in order, that a call of the
    equation-valued ``a`` makes on an equation, given its integer arguments
    ``ints`` in call order.

    Raises EvalError when the call passes the step limit, which it then
    does whatever the equation.  ``memo`` maps (abstraction, arguments) to
    the walk's result, so a caller that unrolls many calls walks each
    nested call once."""
    return _unrolled_call(a, ((), *ints), {} if memo is None else memo)[1]


def _unrolled_call(a: Abstraction, args: tuple, memo: dict):
    """(calls, steps) of the call of ``a`` on ``args``, whose equation
    argument is (); steps are those that make its value from there."""
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
    core = a.body
    for _ in args:
        core = core.body
    calls = [1]
    value = _unroll_term(core, args[::-1], memo, calls)
    return calls[0], value


def _unroll_term(term, env: tuple, memo: dict, calls: list):
    """The value of the chain ``term``, an int or a step tuple; adds its
    abstraction calls to calls[0]."""
    tt = type(term)
    if tt is IntLit:
        return term.value
    if tt is VarRef:
        return env[term.index]
    head, args = spine(term)
    return _unroll_call(head, [_unroll_term(arg, env, memo, calls) for arg in args], memo, calls)


def _unroll_call(head, values: list, memo: dict, calls: list):
    """The steps of ``head`` called on ``values``, in call order, the
    equation's steps first; adds its abstraction calls to calls[0]."""
    if type(head) is Prim:
        return values[0] + ((head.name, values[1]),)
    found = _unrolled_call(head.abstraction, ((), *values[1:]), memo)
    calls[0] += found[0]
    if calls[0] > _STEP_LIMIT:
        raise EvalError("evaluation step limit exceeded")
    return values[0] + found[1]


def _top_level_calls(p: Term, memo: dict) -> list:
    """The steps of each top-level call of the tstr -> tstr chain program
    ``p``, first call first; each call has a step limit of its own."""
    if type(p) is AbsRef:
        return [unrolled_steps(p.abstraction, (), memo)]
    calls = []
    term = p.body
    while type(term) is Apply:
        head, args = spine(term)
        ints = [arg.value for arg in args[1:]]  # a top-level index is a literal
        calls.append(_unroll_call(head, [(), *ints], memo, [0]))
        term = args[0]
    return calls[::-1]


def _run(calls, e: Equation, states: Optional[list] = None) -> Equation:
    """``e`` after every step of ``calls``, a tuple of steps per call,
    applied in order through apply_primitive; the state after each call
    goes on ``states`` unless it is the very state before it."""
    for steps in calls:
        for name, i in steps:
            try:
                e = apply_primitive(name, e, i)
            except PrimitiveError as err:
                raise EvalError(f"{name} at index {i} failed on {render_prefix(e)}: {err}") from err
        if states is not None and e is not states[-1]:
            states.append(e)
    return e


def apply_abstraction(a: Abstraction, args: tuple):
    """Run an abstraction on exactly ``a.arity`` evaluated argument values,
    in call order, as one top-level call."""
    if len(args) != a.arity:
        raise EvalError(f"{a!r} takes {a.arity} arguments, not {len(args)}")
    return _run((_unrolled_call(a, ((), *args[1:]), {})[1],), args[0])


def evaluate(p: Term, input_equation: Equation, trace: bool = False):
    """Run a tstr -> tstr program on an equation.

    Returns (result, states) where states is None without tracing and
    otherwise the list of equation states starting with the input and ending
    with the output.  EvalError for a program that is no chain.
    """
    try:
        t = infer_type(p)
    except ProgramError as err:
        raise EvalError(f"not a chain program: {err}") from err
    if t != arrow(TSTR, TSTR):
        raise EvalError(f"program has type {render_type(t)}, expected tstr -> tstr")
    if not is_equation(input_equation):
        raise EvalError("a program runs on an equation")
    states = [input_equation] if trace else None
    return _run(_top_level_calls(p, {}), input_equation, states), states
