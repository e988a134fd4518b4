"""Equation-rewriting primitives.

Every equation-valued primitive has the same shape: it takes an equation and
a pre-order subtree index, and returns a new equation.  Transformations are
pure; on any precondition failure they raise PrimitiveError rather than
returning a sentinel.

The arithmetic group (add/sub/mult/div) applies an operation with a copied
subtree to both sides.  The structural group (rotations, swap, dist,
revdist) rearranges one subtree.  simplify normalizes a subtree bottom-up to
a fixpoint, and the identity group (addzero/subzero/multone/divone) inserts
a neutral element, which is occasionally needed to expose structure for the
other rules.
"""

from __future__ import annotations

from fractions import Fraction

from .equations import (
    Const,
    Equation,
    Expr,
    Node,
    Var,
    _descend,
    _splice,
)


class PrimitiveError(Exception):
    """A primitive was applied where its precondition does not hold."""


_ADDITIVE = ("+", "-")
_MULTIPLICATIVE = ("*", "/")
_FLIP = {"+": "-", "-": "+", "*": "/", "/": "*"}
_ZERO = Const(0)
_ONE = Const(1)


def _subtree(e: Equation, i: int) -> Expr:
    if type(e) is not Node or e.op != "=":
        raise PrimitiveError("primitives operate on '='-rooted equations")
    if i < 0 or i >= e.size:
        raise PrimitiveError(f"index {i} out of range for {e.size} nodes")
    return _descend(e, i)


def _eq_free_subtree(e: Equation, i: int) -> Expr:
    y = _subtree(e, i)
    if type(y) is Node and y.op == "=":
        raise PrimitiveError("operand subtree may not contain '='")
    return y


def _replace(e: Equation, i: int, r: Expr) -> Equation:
    """replace_subtree for an index _subtree accepted.  Every rule builds an
    '='-rooted replacement at the root and an '='-free one below it."""
    if i == 0:
        return r
    return _splice(e, i, r)


# --- arithmetic on both sides ----------------------------------------------


def _apply_both_sides(op: str, e: Equation, i: int) -> Equation:
    y = _eq_free_subtree(e, i)
    return Node("=", Node(op, e.left, y), Node(op, e.right, y))


def op_add(e: Equation, i: int) -> Equation:
    """(= L R) -> (= (+ L y) (+ R y)) for y the subtree at i."""
    return _apply_both_sides("+", e, i)


def op_sub(e: Equation, i: int) -> Equation:
    return _apply_both_sides("-", e, i)


def op_mult(e: Equation, i: int) -> Equation:
    return _apply_both_sides("*", e, i)


def op_div(e: Equation, i: int) -> Equation:
    return _apply_both_sides("/", e, i)


def new_const_gen(a: int, b: int, c: int) -> int:
    """Integer composition a*b + c; widens the reachable index range."""
    return a * b + c


# --- rotations --------------------------------------------------------------


def _op_class(op: str):
    if op in _ADDITIVE:
        return 0
    if op in _MULTIPLICATIVE:
        return 1
    return None


def op_rrotate(e: Equation, i: int) -> Equation:
    """((a o2 b) o1 c) -> (a o2 (b o3 c)); o3 is o1, flipped when o2 inverts.

    Both operators must come from the same class (additive or
    multiplicative) so the rewrite preserves value.
    """
    y = _subtree(e, i)
    if type(y) is not Node or type(y.left) is not Node:
        raise PrimitiveError("right rotation needs shape ((a o2 b) o1 c)")
    o1, o2 = y.op, y.left.op
    c1, c2 = _op_class(o1), _op_class(o2)
    if c1 is None or c1 != c2:
        raise PrimitiveError("rotation operators must share a class")
    o3 = o1 if o2 in ("+", "*") else _FLIP[o1]
    a, b, c = y.left.left, y.left.right, y.right
    return _replace(e, i, Node(o2, a, Node(o3, b, c)))


def op_lrotate(e: Equation, i: int) -> Equation:
    """(a o1 (b o2 c)) -> ((a o1 b) o3 c); o3 is o2, flipped when o1 inverts."""
    y = _subtree(e, i)
    if type(y) is not Node or type(y.right) is not Node:
        raise PrimitiveError("left rotation needs shape (a o1 (b o2 c))")
    o1, o2 = y.op, y.right.op
    c1, c2 = _op_class(o1), _op_class(o2)
    if c1 is None or c1 != c2:
        raise PrimitiveError("rotation operators must share a class")
    o3 = o2 if o1 in ("+", "*") else _FLIP[o2]
    a, b, c = y.left, y.right.left, y.right.right
    return _replace(e, i, Node(o3, Node(o1, a, b), c))


def op_swap(e: Equation, i: int) -> Equation:
    """Exchange the children of a commutative node ('+', '*' or '=')."""
    y = _subtree(e, i)
    if type(y) is not Node or y.op not in ("+", "*", "="):
        raise PrimitiveError("swap needs a '+', '*' or '=' node")
    return _replace(e, i, Node(y.op, y.right, y.left))


# --- distributivity ----------------------------------------------------------


def _as_product(t: Expr):
    """View a term as a '*' node; a bare x counts as (* 1 x)."""
    if type(t) is Var:
        return Node("*", _ONE, t)
    if type(t) is Node and t.op == "*":
        return t
    return None


def op_dist(e: Equation, i: int) -> Equation:
    """Factor a shared multiplicand out of a sum or difference of products.

    ((b*f) +/- (c*f)) -> ((b +/- c) * f) and ((f*b) +/- (f*c)) ->
    (f * (b +/- c)); the shared factor must sit in the same position on both
    sides and match syntactically.
    """
    y = _subtree(e, i)
    if type(y) is not Node or y.op not in _ADDITIVE:
        raise PrimitiveError("dist needs a '+' or '-' of two products")
    u = _as_product(y.left)
    v = _as_product(y.right)
    if u is None or v is None:
        raise PrimitiveError("dist needs a '+' or '-' of two products")
    if u.right == v.right:
        factored = Node("*", Node(y.op, u.left, v.left), u.right)
    elif u.left == v.left:
        factored = Node("*", u.left, Node(y.op, u.right, v.right))
    else:
        raise PrimitiveError("no shared factor in matching position")
    return _replace(e, i, factored)


def op_revdist(e: Equation, i: int) -> Equation:
    """Expand a product over a sum or difference, preserving factor position."""
    y = _subtree(e, i)
    if type(y) is not Node or y.op != "*":
        raise PrimitiveError("revdist needs a '*' node")
    f, s = y.left, y.right
    if type(s) is Node and s.op in _ADDITIVE:
        expanded = Node(s.op, Node("*", f, s.left), Node("*", f, s.right))
    elif type(f) is Node and f.op in _ADDITIVE:
        expanded = Node(f.op, Node("*", f.left, s), Node("*", f.right, s))
    else:
        raise PrimitiveError("revdist needs a sum or difference operand")
    return _replace(e, i, expanded)


# --- simplify ----------------------------------------------------------------


def _fold(op: str, a: int, b: int) -> Expr:
    if op == "+":
        return Const(a + b)
    if op == "-":
        return Const(a - b)
    if op == "*":
        return Const(a * b)
    if b == 0:
        raise PrimitiveError("zero denominator while folding constants")
    q = Fraction(a, b)
    if q.denominator == 1:
        return Const(q.numerator)
    return Node("/", Const(q.numerator), Const(q.denominator))


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
                return _ZERO
        if op == "-" and left == right:
            return _ZERO
        if op == "/" and left == right and left.has_var:
            return _ONE
    if left is t.left and right is t.right:
        return t
    return Node(op, left, right)


def op_simplify(e: Equation, i: int) -> Equation:
    """Normalize the subtree at i to a fixpoint of the local rules.

    Rules, applied bottom-up: constant folding (division reduces by gcd and
    keeps a '/' node when not exact), A+0 -> A, A-0 -> A, A*1 -> A,
    A/1 -> A, A-A -> 0, A*0 -> 0 and A/A -> 1 for A containing x.  A
    subtree already in normal form comes back unchanged.
    """
    y = _subtree(e, i)
    s = _simp(y)
    if s is y:
        return e
    return _replace(e, i, s)


# --- identity insertion -------------------------------------------------------


def op_addzero(e: Equation, i: int) -> Equation:
    """y -> (+ y 0)."""
    return _replace(e, i, Node("+", _eq_free_subtree(e, i), _ZERO))


def op_subzero(e: Equation, i: int) -> Equation:
    """y -> (- y 0)."""
    return _replace(e, i, Node("-", _eq_free_subtree(e, i), _ZERO))


def op_multone(e: Equation, i: int) -> Equation:
    """y -> (* y 1)."""
    return _replace(e, i, Node("*", _eq_free_subtree(e, i), _ONE))


def op_divone(e: Equation, i: int) -> Equation:
    """y -> (/ y 1)."""
    return _replace(e, i, Node("/", _eq_free_subtree(e, i), _ONE))


EQUATION_PRIMITIVES = {
    "add": op_add,
    "sub": op_sub,
    "mult": op_mult,
    "div": op_div,
    "lrotate": op_lrotate,
    "rrotate": op_rrotate,
    "swap": op_swap,
    "dist": op_dist,
    "revdist": op_revdist,
    "simplify": op_simplify,
    "addzero": op_addzero,
    "subzero": op_subzero,
    "multone": op_multone,
    "divone": op_divone,
}


def apply_primitive(name: str, e: Equation, i: int) -> Equation:
    try:
        fn = EQUATION_PRIMITIVES[name]
    except KeyError:
        raise PrimitiveError(f"unknown primitive {name!r}") from None
    return fn(e, i)
