"""Equation-rewriting primitives.

Every equation-valued primitive takes an equation and a pre-order subtree
index and returns a new equation.  Transformations are pure; where a
primitive does not apply it raises PrimitiveError rather than returning a
sentinel.

The arithmetic group (add/sub/mult/div) applies an operation with a copied
subtree to both sides.  The structural group (rotations, swap, dist,
revdist) rearranges one subtree.  simplify normalizes a subtree bottom-up to
a fixpoint, and the identity group (addzero/subzero/multone/divone) inserts
a neutral element, which is occasionally needed to expose structure for the
other rules.

One table, RULES, holds each primitive once, as a Rule: a shape predicate
over the subtree y at the index, the '=' root included, and a rewrite that
gets (e, i, y) and returns the new equation.  apply_primitive is the one
checked path through it: it checks that e is '='-rooted and i in range,
descends to y once, tests the shape, then rewrites.
EQUATION_PRIMITIVES[name](e, i) is apply_primitive with the name bound.

A caller that already holds the subtree (the chain search, which lists a
state's subtrees once per state) can test RULES[name].shape itself and
skip a call that would raise.  A shape states a necessary condition only:
when it rejects y the primitive raises, but when it accepts y the rewrite
may still raise on a check the shape leaves out, such as dist's shared
factor or simplify's zero denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .equations import (
    ONE,
    ZERO,
    Const,
    Equation,
    Expr,
    Node,
    Var,
    _const,
    _descend,
    _node,
    _splice,
)


class PrimitiveError(Exception):
    """A primitive was applied where its precondition does not hold."""


class Rule(NamedTuple):
    shape: Callable[[Expr], bool]  # necessary condition on the subtree y
    rewrite: Callable[[Equation, int, Expr], Equation]  # (e, i, y) -> equation


_ADDITIVE = ("+", "-")
_OP_CLASS = {"+": 0, "-": 0, "*": 1, "/": 1}
_FLIP = {"+": "-", "-": "+", "*": "/", "/": "*"}


def _eq_free(y: Expr) -> bool:
    """Operand of the arithmetic and identity groups: any subtree but the
    '=' root."""
    return type(y) is not Node or y.op != "="


def _any_subtree(y: Expr) -> bool:
    return True


# --- arithmetic on both sides ----------------------------------------------


def _both_sides(op: str):
    """(= L R) -> (= (op L y) (op R y)) for y the subtree at i."""
    return lambda e, i, y: _node("=", _node(op, e.left, y), _node(op, e.right, y))


def new_const_gen(a: int, b: int, c: int) -> int:
    """Integer composition a*b + c; widens the reachable index range."""
    return a * b + c


# --- rotations --------------------------------------------------------------


def _rrotate_shape(y: Expr) -> bool:
    """((a o2 b) o1 c) with o1 and o2 from one class."""
    if type(y) is not Node or type(y.left) is not Node:
        return False
    c1 = _OP_CLASS.get(y.op)
    return c1 is not None and c1 == _OP_CLASS.get(y.left.op)


def _rrotate(e: Equation, i: int, y: Node) -> Equation:
    """((a o2 b) o1 c) -> (a o2 (b o3 c)); o3 is o1, flipped when o2 inverts.

    Both operators must come from the same class (additive or
    multiplicative) so the rewrite preserves value.
    """
    o1, o2 = y.op, y.left.op
    o3 = o1 if o2 in ("+", "*") else _FLIP[o1]
    return _splice(e, i, _node(o2, y.left.left, _node(o3, y.left.right, y.right)))


def _lrotate_shape(y: Expr) -> bool:
    """(a o1 (b o2 c)) with o1 and o2 from one class."""
    if type(y) is not Node or type(y.right) is not Node:
        return False
    c1 = _OP_CLASS.get(y.op)
    return c1 is not None and c1 == _OP_CLASS.get(y.right.op)


def _lrotate(e: Equation, i: int, y: Node) -> Equation:
    """(a o1 (b o2 c)) -> ((a o1 b) o3 c); o3 is o2, flipped when o1 inverts."""
    o1, o2 = y.op, y.right.op
    o3 = o2 if o1 in ("+", "*") else _FLIP[o2]
    return _splice(e, i, _node(o3, _node(o1, y.left, y.right.left), y.right.right))


def _swap_shape(y: Expr) -> bool:
    return type(y) is Node and y.op in ("+", "*", "=")


def _swap(e: Equation, i: int, y: Node) -> Equation:
    """Exchange the children of a commutative node ('+', '*' or '=')."""
    return _splice(e, i, _node(y.op, y.right, y.left))


# --- distributivity ----------------------------------------------------------


def _is_product(t: Expr) -> bool:
    return type(t) is Var or (type(t) is Node and t.op == "*")


def _as_product(t: Expr) -> Node:
    """View a product as a '*' node; a bare x counts as (* 1 x)."""
    return _node("*", ONE, t) if type(t) is Var else t


def _dist_shape(y: Expr) -> bool:
    """A '+' or '-' of two products; the shared factor is checked by dist."""
    return (
        type(y) is Node
        and y.op in _ADDITIVE
        and _is_product(y.left)
        and _is_product(y.right)
    )


def _dist(e: Equation, i: int, y: Node) -> Equation:
    """Factor a shared multiplicand out of a sum or difference of products.

    ((b*f) +/- (c*f)) -> ((b +/- c) * f) and ((f*b) +/- (f*c)) ->
    (f * (b +/- c)); the shared factor must sit in the same position on both
    sides and match syntactically.
    """
    u = _as_product(y.left)
    v = _as_product(y.right)
    if u.right == v.right:
        factored = _node("*", _node(y.op, u.left, v.left), u.right)
    elif u.left == v.left:
        factored = _node("*", u.left, _node(y.op, u.right, v.right))
    else:
        raise PrimitiveError("no shared factor in matching position")
    return _splice(e, i, factored)


def _is_sum(t: Expr) -> bool:
    return type(t) is Node and t.op in _ADDITIVE


def _revdist_shape(y: Expr) -> bool:
    """A '*' node with a sum or difference operand."""
    return type(y) is Node and y.op == "*" and (_is_sum(y.right) or _is_sum(y.left))


def _revdist(e: Equation, i: int, y: Node) -> Equation:
    """Expand a product over a sum or difference, preserving factor position."""
    f, s = y.left, y.right
    if _is_sum(s):
        expanded = _node(s.op, _node("*", f, s.left), _node("*", f, s.right))
    else:
        expanded = _node(f.op, _node("*", f.left, s), _node("*", f.right, s))
    return _splice(e, i, expanded)


# --- simplify ----------------------------------------------------------------


def _fold(op: str, a: int, b: int) -> Expr:
    if op == "+":
        return _const(a + b)
    if op == "-":
        return _const(a - b)
    if op == "*":
        return _const(a * b)
    if b == 0:
        raise PrimitiveError("zero denominator while folding constants")
    q = Fraction(a, b)
    if q.denominator == 1:
        return _const(q.numerator)
    return _node("/", _const(q.numerator), _const(q.denominator))


def _simp(t: Expr) -> Expr:
    """Bottom-up normalization; returns t itself when nothing applies."""
    if type(t) is not Node:
        return t
    left = _simp(t.left)
    right = _simp(t.right)
    op = t.op
    if op != "=":
        if type(left) is Const and type(right) is Const:
            folded = _fold(op, left.value, right.value)
            return t if folded == t else folded
        if type(right) is Const:
            rv = right.value
            if rv == 0 and op in ("+", "-"):
                return left
            if rv == 1 and op in ("*", "/"):
                return left
            if rv == 0 and op == "*":
                return ZERO
        if op == "-" and left == right:
            return ZERO
        if op == "/" and left == right and left.has_var:
            return ONE
    if left is t.left and right is t.right:
        return t
    return _node(op, left, right)


def _simplify(e: Equation, i: int, y: Expr) -> Equation:
    """Normalize the subtree at i to a fixpoint of the local rules.

    Rules, applied bottom-up: constant folding (division reduces by gcd and
    keeps a '/' node when not exact), A+0 -> A, A-0 -> A, A*1 -> A,
    A/1 -> A, A-A -> 0, A*0 -> 0 and A/A -> 1 for A containing x.  A
    subtree already in normal form comes back unchanged.
    """
    s = _simp(y)
    return e if s is y else _splice(e, i, s)


# --- identity insertion -------------------------------------------------------


def _insert(op: str, unit: Const):
    """y -> (op y unit)."""
    return lambda e, i, y: _splice(e, i, _node(op, y, unit))


RULES = {
    "add": Rule(_eq_free, _both_sides("+")),
    "sub": Rule(_eq_free, _both_sides("-")),
    "mult": Rule(_eq_free, _both_sides("*")),
    "div": Rule(_eq_free, _both_sides("/")),
    "lrotate": Rule(_lrotate_shape, _lrotate),
    "rrotate": Rule(_rrotate_shape, _rrotate),
    "swap": Rule(_swap_shape, _swap),
    "dist": Rule(_dist_shape, _dist),
    "revdist": Rule(_revdist_shape, _revdist),
    "simplify": Rule(_any_subtree, _simplify),
    "addzero": Rule(_eq_free, _insert("+", ZERO)),
    "subzero": Rule(_eq_free, _insert("-", ZERO)),
    "multone": Rule(_eq_free, _insert("*", ONE)),
    "divone": Rule(_eq_free, _insert("/", ONE)),
}


def apply_primitive(name: str, e: Equation, i: int) -> Equation:
    """The primitive ``name`` applied at pre-order index ``i`` of ``e``."""
    try:
        shape, rewrite = RULES[name]
    except KeyError:
        raise PrimitiveError(f"unknown primitive {name!r}") from None
    if type(e) is not Node or e.op != "=":
        raise PrimitiveError("primitives operate on '='-rooted equations")
    if i < 0 or i >= e.size:
        raise PrimitiveError(f"index {i} out of range for {e.size} nodes")
    y = _descend(e, i)
    if not shape(y):
        raise PrimitiveError(f"{name} does not apply to the subtree at index {i}")
    return rewrite(e, i, y)


EQUATION_PRIMITIVES = {name: partial(apply_primitive, name) for name in RULES}
