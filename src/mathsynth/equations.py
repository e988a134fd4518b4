"""Equation syntax trees, codecs and semantic checks.

An equation is an immutable binary tree.  Internal nodes carry one of the
operators ``=``, ``+``, ``-``, ``*``, ``/``; leaves are integer constants or
the single variable ``x``.  The ``=`` operator appears exactly once, at the
root (the Node constructor rejects nested ``=``).  Rewrites never mutate a
tree; they build a new one that shares untouched subtrees.

Within a search, equal trees are one object.  The chain search opens an
intern table for its length (open_table / close_table); while it is open,
the trusted constructor _node, used by _splice and by every primitive,
returns the existing node for an operator and two child objects it has seen
before, and _const does the same for a constant.  A state the search
reaches again is then put together from nodes that already exist, down to
its root, which the search marks (Node.is_state) when it first makes the
state.  Equality stays structural, for trees built outside a search.

An open table also carries a memo for the simplify primitive
(primitives._simp): the normal form of every node simplify has
normalized while the table is open.  The memo is opened and dropped with
the table, and with no table open simplify runs without one.

Two text codecs are provided.  The prefix codec is the canonical wire format:
fully parenthesized, whitespace separated, e.g. ``(= (+ (* 2 x) 1) 7)``.
The infix codec accepts human-style strings such as ``2x + 1 = 7`` and
renders back with minimal parentheses.

Both codecs reject input nested deeper than MAX_NESTING levels, since the
tree walks here and in the primitives recurse once per level.

Subtrees are addressed by pre-order index: the root is 0 and the left
subtree is numbered completely before the right one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

OPS = ("=", "+", "-", "*", "/")

# The deepest nesting the text parsers accept: parentheses in the prefix
# and program codecs, tree levels in the infix codec.  Real equations and
# programs nest a few dozen levels at most.  The walks over a parsed tree
# recurse once per level, and comparing or hashing a program term takes up
# to six frames per parenthesis; a bound of 100 keeps all of them well
# inside Python's default limit of 1000 frames.
MAX_NESTING = 100


class EquationError(Exception):
    """Malformed tree, bad subtree index, parse failure or bad evaluation."""


class Const:
    """Integer constant leaf."""

    __slots__ = ("value", "size", "has_var", "_hash")

    def __init__(self, value: int):
        self.value = value
        self.size = 1
        self.has_var = False
        self._hash = hash(("const", value))

    def __eq__(self, other):
        return self is other or (type(other) is Const and other.value == self.value)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Const({self.value})"


class Var:
    """The variable leaf; every equation speaks about the same ``x``."""

    __slots__ = ("size", "has_var", "_hash")

    def __init__(self):
        self.size = 1
        self.has_var = True
        self._hash = hash("the-variable-x")

    def __eq__(self, other):
        return type(other) is Var

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Var()"


X = Var()
ZERO = Const(0)
ONE = Const(1)


class Node:
    """Binary operator node.  ``size`` and the hash are cached; ``has_var``
    is computed when read, which only simplify's ``A/A -> 1`` rule does.
    ``is_state`` is False on every node built; the chain search sets it on
    the root of each state it makes (see enumerator)."""

    __slots__ = ("op", "left", "right", "size", "is_state", "_hash")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        if op not in OPS:
            raise EquationError(f"unknown operator {op!r}")
        if (type(left) is Node and left.op == "=") or (
            type(right) is Node and right.op == "="
        ):
            raise EquationError("'=' may only appear at the root of an equation")
        self.op = op
        self.left = left
        self.right = right
        self.size = 1 + left.size + right.size
        self.is_state = False
        self._hash = hash((op, left._hash, right._hash))

    @property
    def has_var(self) -> bool:
        return self.left.has_var or self.right.has_var

    def __eq__(self, other):
        if self is other:
            return True
        if (
            type(other) is not Node
            or other._hash != self._hash
            or other.op != self.op
        ):
            return False
        return other.left == self.left and other.right == self.right

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Node({self.op!r}, {self.left!r}, {self.right!r})"


Expr = Union[Const, Var, Node]
Equation = Node  # an "="-rooted Node


# --- interning ------------------------------------------------------------

# The open intern table: node hash -> Node, and value -> Const; both None
# when no table is open.  A node's hash is its key, so the table adds no key
# object per node.  Hashes do collide, for one because hash(-1) ==
# hash(-2), so a node whose hash another node holds is keyed by its operator
# and the identities of its children instead; the table holds every node it
# names, so no id in such a key is reused while it is open.
_nodes: Optional[dict] = None
_consts: Optional[dict] = None
# The open table's simplify memo (primitives._simp): node -> its normal
# form; None when no table is open.  It is keyed by the node itself, not by
# its id, so it holds every node it names and no key can stand for another
# node.
_simp_memo: Optional[dict] = None


def open_table() -> tuple:
    """Open a fresh intern table and simplify memo; returns the ones they
    replace, for close_table."""
    global _nodes, _consts, _simp_memo
    previous = (_nodes, _consts, _simp_memo)
    _nodes, _consts, _simp_memo = {}, {0: ZERO, 1: ONE}, {}
    return previous


def close_table(previous: tuple) -> None:
    global _nodes, _consts, _simp_memo
    _nodes, _consts, _simp_memo = previous


def _node(op: str, left: Expr, right: Expr) -> Node:
    """Node(op, left, right) without its checks, for an operator from OPS
    and children that keep '=' at the root only.  While a table is open it
    returns the node already built from op and these two child objects, if
    any."""
    h = hash((op, left._hash, right._hash))
    table = _nodes
    if table is not None:
        key = h
        n = table.get(key)
        if n is not None:
            if n.left is left and n.right is right and n.op == op:
                return n
            key = (op, id(left), id(right))
            n = table.get(key)
            if n is not None:
                return n
    n = object.__new__(Node)
    n.op = op
    n.left = left
    n.right = right
    n.size = 1 + left.size + right.size
    n.is_state = False
    n._hash = h
    if table is not None:
        table[key] = n
    return n


def _const(value: int) -> Const:
    """Const(value); the interned one when a table is open."""
    table = _consts
    if table is None:
        return Const(value)
    c = table.get(value)
    if c is None:
        c = table[value] = Const(value)
    return c


def intern(e: Expr) -> Expr:
    """The tree equal to ``e`` built from the open table's nodes; ``e``
    itself when no table is open."""
    if _nodes is None:
        return e
    if type(e) is Const:
        return _const(e.value)
    if type(e) is Var:
        return X
    return _node(e.op, intern(e.left), intern(e.right))


def equation(left: Expr, right: Expr) -> Equation:
    return Node("=", left, right)


def is_equation(e: Expr) -> bool:
    return type(e) is Node and e.op == "="


def node_count(e: Expr) -> int:
    return e.size


def subtree_at(e: Expr, i: int) -> Expr:
    """Subtree whose pre-order index is ``i`` (root = 0, left before right)."""
    if i < 0 or i >= e.size:
        raise EquationError(f"subtree index {i} out of range for {e.size} nodes")
    return _descend(e, i)


def _descend(e: Expr, i: int) -> Expr:
    """subtree_at for an index already known to satisfy 0 <= i < e.size."""
    while i:
        left = e.left
        if i <= left.size:
            e, i = left, i - 1
        else:
            e, i = e.right, i - 1 - left.size
    return e


def subtrees(e: Expr, limit: Optional[int] = None) -> list:
    """The subtrees of ``e`` in pre-order, ``subtrees(e)[i]`` being
    ``subtree_at(e, i)``: every one, or with ``limit`` the first ``limit``
    of them (all when e has fewer).  The walk visits only the subtrees it
    returns, so a caller that reads a few low indices pays for those."""
    n = e.size if limit is None or limit > e.size else limit
    out = []
    stack = [e]
    for _ in range(n):
        t = stack.pop()
        out.append(t)
        if type(t) is Node:
            stack.append(t.right)
            stack.append(t.left)
    return out


def replace_subtree(e: Expr, i: int, r: Expr) -> Expr:
    """Copy of ``e`` with the subtree at pre-order index ``i`` replaced by ``r``.

    Untouched subtrees are shared with ``e``.  The replacement may not
    introduce a nested ``=``: replacing the root of an equation requires an
    equation, and any deeper replacement requires an ``=``-free tree.
    """
    if i < 0 or i >= e.size:
        raise EquationError(f"subtree index {i} out of range for {e.size} nodes")
    if i == 0:
        if is_equation(r) != is_equation(e):
            raise EquationError("root replacement must preserve equation-ness")
        return r
    if is_equation(r):
        raise EquationError("'=' may only appear at the root of an equation")
    return _splice(e, i, r)


def _splice(t: Expr, i: int, r: Expr) -> Expr:
    """replace_subtree without its checks, for an index already known to be
    in range and a replacement that keeps '=' at the root only."""
    if i == 0:
        return r
    left = t.left
    if i <= left.size:
        return _node(t.op, _splice(left, i - 1, r), t.right)
    return _node(t.op, left, _splice(t.right, i - 1 - left.size, r))


def eval_at(e: Expr, x) -> Fraction:
    """Exact rational value of an ``=``-free expression at ``x``."""
    t = type(e)
    if t is Const:
        return Fraction(e.value)
    if t is Var:
        return Fraction(x)
    op = e.op
    if op == "=":
        raise EquationError("'=' has no numeric value; evaluate each side")
    a = eval_at(e.left, x)
    b = eval_at(e.right, x)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        raise EquationError("division by zero")
    return a / b


def _reduced_value(t: Expr) -> Optional[Fraction]:
    """Value of a finished right-hand side: a constant, or a '/' of two
    constants already in lowest terms with denominator >= 2."""
    if type(t) is Const:
        return Fraction(t.value)
    if (
        type(t) is Node
        and t.op == "/"
        and type(t.left) is Const
        and type(t.right) is Const
    ):
        p, q = t.left.value, t.right.value
        if q >= 2 and math.gcd(p, q) == 1:
            return Fraction(p, q)
    return None


def check_solved(e: Equation) -> Optional[Fraction]:
    """The solution shown by ``e`` if it has solved form, else None.

    Solved form means one side is exactly ``x`` and the other is a constant
    or a lowest-terms fraction with denominator >= 2; both orientations
    count.
    """
    if type(e) is not Node or e.op != "=":
        raise EquationError("expected an '='-rooted tree")
    if type(e.left) is Var:
        return _reduced_value(e.right)
    if type(e.right) is Var:
        return _reduced_value(e.left)
    return None


# --- prefix codec ---------------------------------------------------------


def _too_deep(tokens: list[str]) -> bool:
    """Whether the parentheses of ``tokens`` nest deeper than MAX_NESTING;
    ``#(``, which opens an inline abstraction in program text, counts as
    one."""
    depth = 0
    for tok in tokens:
        if tok == ")":
            depth -= 1
        elif tok == "(" or tok == "#(":
            depth += 1
            if depth > MAX_NESTING:
                return True
    return False


_INT_CHARS = frozenset("0123456789")


def _is_int_token(tok: str) -> bool:
    body = tok[1:] if tok[0] == "-" else tok
    return bool(body) and all(c in _INT_CHARS for c in body)


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise EquationError(f"integer literal of {len(tok)} characters") from None


def parse_prefix(text: str) -> Expr:
    """Parse the fully parenthesized prefix form, e.g. ``(+ (* 2 x) 1)``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise EquationError("empty input")
    if _too_deep(tokens):
        raise EquationError(f"input nests deeper than {MAX_NESTING} levels")
    expr, pos = _parse_prefix(tokens, 0)
    if pos != len(tokens):
        raise EquationError(f"trailing input after position {pos}: {tokens[pos]!r}")
    return expr


def _parse_prefix(tokens: list[str], pos: int) -> tuple[Expr, int]:
    if pos >= len(tokens):
        raise EquationError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        if pos + 1 >= len(tokens) or tokens[pos + 1] not in OPS:
            raise EquationError(f"expected operator after '(' at token {pos + 1}")
        op = tokens[pos + 1]
        left, pos = _parse_prefix(tokens, pos + 2)
        right, pos = _parse_prefix(tokens, pos)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise EquationError(f"expected ')' at token {pos}")
        return Node(op, left, right), pos + 1
    if tok == "x":
        return X, pos + 1
    if _is_int_token(tok):
        return Const(_int(tok)), pos + 1
    raise EquationError(f"unexpected token {tok!r}")


def render_prefix(e: Expr) -> str:
    if type(e) is Const:
        return str(e.value)
    if type(e) is Var:
        return "x"
    return f"({e.op} {render_prefix(e.left)} {render_prefix(e.right)})"


# --- infix codec ----------------------------------------------------------

_PREC = {"=": 0, "+": 1, "-": 1, "*": 2, "/": 2}


def _tokenize_infix(text: str) -> list[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _INT_CHARS:
            j = i + 1
            while j < n and text[j] in _INT_CHARS:
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c == "x":
            tokens.append("x")
            i += 1
        elif c in "()=+-*/":
            tokens.append(c)
            i += 1
        else:
            raise EquationError(f"unexpected character {c!r} in infix input")
    return tokens


class _InfixParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise EquationError("unexpected end of infix input")
        self.pos += 1
        return tok

    def parse_equation(self) -> Equation:
        left = self.parse_expr()
        if self.next() != "=":
            raise EquationError("expected '=' between the two sides")
        right = self.parse_expr()
        if self.peek() is not None:
            raise EquationError(f"trailing input: {self.peek()!r}")
        return Node("=", left, right)

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            e = Node(op, e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                op = self.next()
                e = Node(op, e, self.parse_factor())
            elif tok == "x" or tok == "(":
                # implicit multiplication: 2x, 2(x+3), (1+2)x
                e = Node("*", e, self.parse_factor())
            else:
                return e

    def parse_factor(self) -> Expr:
        tok = self.next()
        if tok == "(":
            e = self.parse_expr()
            if self.next() != ")":
                raise EquationError("unbalanced parentheses")
            return e
        if tok == "x":
            return X
        if tok == "-":
            follow = self.next()
            if not _is_int_token(follow):
                raise EquationError("'-' here must precede an integer literal")
            return Const(-_int(follow))
        if _is_int_token(tok):
            return Const(_int(tok))
        raise EquationError(f"unexpected token {tok!r} in infix input")


def parse_equation_infix(text: str) -> Equation:
    """Parse ``2x + 1 = 7`` style input; coefficients may be implicit."""
    tokens = _tokenize_infix(text)
    if _too_deep(tokens):
        raise EquationError(f"input nests deeper than {MAX_NESTING} levels")
    e = _InfixParser(tokens).parse_equation()
    if _depth(e) > MAX_NESTING:  # a long chain like 1 + 1 + ... needs no parentheses
        raise EquationError(f"input nests deeper than {MAX_NESTING} levels")
    return e


def _depth(e: Expr) -> int:
    """Tree levels above ``e``'s deepest leaf, counted without recursion."""
    deepest, stack = 0, [(e, 0)]
    while stack:
        t, d = stack.pop()
        if type(t) is Node:
            stack.append((t.left, d + 1))
            stack.append((t.right, d + 1))
        elif d > deepest:
            deepest = d
    return deepest


def render_infix(e: Expr) -> str:
    return _render_infix(e, 0, False)


def _render_infix(e: Expr, parent_prec: int, is_right: bool) -> str:
    if type(e) is Const:
        return str(e.value)
    if type(e) is Var:
        return "x"
    prec = _PREC[e.op]
    # coefficient forms: 2x, 2(x + 3)
    if e.op == "*" and type(e.left) is Const:
        if type(e.right) is Var:
            s = f"{e.left.value}x"
        else:
            s = f"{e.left.value}({_render_infix(e.right, 0, False)})"
        if prec < parent_prec or (prec == parent_prec and is_right):
            return f"({s})"
        return s
    s = (
        f"{_render_infix(e.left, prec, False)} {e.op} "
        f"{_render_infix(e.right, prec, True)}"
    )
    if prec < parent_prec or (prec == parent_prec and is_right and e.op != "="):
        return f"({s})"
    return s
