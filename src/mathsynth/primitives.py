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

Shape preconditions.  SHAPE_PRECONDITIONS maps every primitive to a
predicate over the subtree at the index, the '=' root included.  Each
primitive calls its own predicate and raises PrimitiveError when it fails,
so the rules are written once; a caller holding the subtree (the chain
search, which lists a state's subtrees once per state) can test the
predicate and skip a call that would raise.  A predicate states a necessary
condition only: when it rejects a subtree the primitive raises, but when it
accepts one the primitive may still raise on a check the predicate leaves
out, such as dist's shared factor or simplify's zero denominator.
"""

from __future__ import annotations

from fractions import Fraction

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


_ADDITIVE = ("+", "-")
_OP_CLASS = {"+": 0, "-": 0, "*": 1, "/": 1}
_FLIP = {"+": "-", "-": "+", "*": "/", "/": "*"}


def _subtree(e: Equation, i: int) -> Expr:
    if type(e) is not Node or e.op != "=":
        raise PrimitiveError("primitives operate on '='-rooted equations")
    if i < 0 or i >= e.size:
        raise PrimitiveError(f"index {i} out of range for {e.size} nodes")
    return _descend(e, i)


def _eq_free(y: Expr) -> bool:
    """Operand of the arithmetic and identity groups: any subtree but the
    '=' root."""
    return type(y) is not Node or y.op != "="


def _eq_free_subtree(e: Equation, i: int) -> Expr:
    y = _subtree(e, i)
    if not _eq_free(y):
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
    return _node("=", _node(op, e.left, y), _node(op, e.right, y))


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


def _rrotate_shape(y: Expr) -> bool:
    """((a o2 b) o1 c) with o1 and o2 from one class."""
    if type(y) is not Node or type(y.left) is not Node:
        return False
    c1 = _OP_CLASS.get(y.op)
    return c1 is not None and c1 == _OP_CLASS.get(y.left.op)


def _lrotate_shape(y: Expr) -> bool:
    """(a o1 (b o2 c)) with o1 and o2 from one class."""
    if type(y) is not Node or type(y.right) is not Node:
        return False
    c1 = _OP_CLASS.get(y.op)
    return c1 is not None and c1 == _OP_CLASS.get(y.right.op)


def op_rrotate(e: Equation, i: int) -> Equation:
    """((a o2 b) o1 c) -> (a o2 (b o3 c)); o3 is o1, flipped when o2 inverts.

    Both operators must come from the same class (additive or
    multiplicative) so the rewrite preserves value.
    """
    y = _subtree(e, i)
    if not _rrotate_shape(y):
        raise PrimitiveError("right rotation needs ((a o2 b) o1 c), o1 and o2 of one class")
    o1, o2 = y.op, y.left.op
    o3 = o1 if o2 in ("+", "*") else _FLIP[o1]
    a, b, c = y.left.left, y.left.right, y.right
    return _replace(e, i, _node(o2, a, _node(o3, b, c)))


def op_lrotate(e: Equation, i: int) -> Equation:
    """(a o1 (b o2 c)) -> ((a o1 b) o3 c); o3 is o2, flipped when o1 inverts."""
    y = _subtree(e, i)
    if not _lrotate_shape(y):
        raise PrimitiveError("left rotation needs (a o1 (b o2 c)), o1 and o2 of one class")
    o1, o2 = y.op, y.right.op
    o3 = o2 if o1 in ("+", "*") else _FLIP[o2]
    a, b, c = y.left, y.right.left, y.right.right
    return _replace(e, i, _node(o3, _node(o1, a, b), c))


def _swap_shape(y: Expr) -> bool:
    return type(y) is Node and y.op in ("+", "*", "=")


def op_swap(e: Equation, i: int) -> Equation:
    """Exchange the children of a commutative node ('+', '*' or '=')."""
    y = _subtree(e, i)
    if not _swap_shape(y):
        raise PrimitiveError("swap needs a '+', '*' or '=' node")
    return _replace(e, i, _node(y.op, y.right, y.left))


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


def op_dist(e: Equation, i: int) -> Equation:
    """Factor a shared multiplicand out of a sum or difference of products.

    ((b*f) +/- (c*f)) -> ((b +/- c) * f) and ((f*b) +/- (f*c)) ->
    (f * (b +/- c)); the shared factor must sit in the same position on both
    sides and match syntactically.
    """
    y = _subtree(e, i)
    if not _dist_shape(y):
        raise PrimitiveError("dist needs a '+' or '-' of two products")
    u = _as_product(y.left)
    v = _as_product(y.right)
    if u.right == v.right:
        factored = _node("*", _node(y.op, u.left, v.left), u.right)
    elif u.left == v.left:
        factored = _node("*", u.left, _node(y.op, u.right, v.right))
    else:
        raise PrimitiveError("no shared factor in matching position")
    return _replace(e, i, factored)


def _is_sum(t: Expr) -> bool:
    return type(t) is Node and t.op in _ADDITIVE


def _revdist_shape(y: Expr) -> bool:
    """A '*' node with a sum or difference operand."""
    return type(y) is Node and y.op == "*" and (_is_sum(y.right) or _is_sum(y.left))


def op_revdist(e: Equation, i: int) -> Equation:
    """Expand a product over a sum or difference, preserving factor position."""
    y = _subtree(e, i)
    if not _revdist_shape(y):
        raise PrimitiveError("revdist needs a '*' node with a sum or difference operand")
    f, s = y.left, y.right
    if _is_sum(s):
        expanded = _node(s.op, _node("*", f, s.left), _node("*", f, s.right))
    else:
        expanded = _node(f.op, _node("*", f.left, s), _node("*", f.right, s))
    return _replace(e, i, expanded)


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


def _any_subtree(y: Expr) -> bool:
    return True


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
    return _replace(e, i, _node("+", _eq_free_subtree(e, i), ZERO))


def op_subzero(e: Equation, i: int) -> Equation:
    """y -> (- y 0)."""
    return _replace(e, i, _node("-", _eq_free_subtree(e, i), ZERO))


def op_multone(e: Equation, i: int) -> Equation:
    """y -> (* y 1)."""
    return _replace(e, i, _node("*", _eq_free_subtree(e, i), ONE))


def op_divone(e: Equation, i: int) -> Equation:
    """y -> (/ y 1)."""
    return _replace(e, i, _node("/", _eq_free_subtree(e, i), ONE))


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


SHAPE_PRECONDITIONS = {
    "add": _eq_free,
    "sub": _eq_free,
    "mult": _eq_free,
    "div": _eq_free,
    "lrotate": _lrotate_shape,
    "rrotate": _rrotate_shape,
    "swap": _swap_shape,
    "dist": _dist_shape,
    "revdist": _revdist_shape,
    "simplify": _any_subtree,
    "addzero": _eq_free,
    "subzero": _eq_free,
    "multone": _eq_free,
    "divone": _eq_free,
}


def apply_primitive(name: str, e: Equation, i: int) -> Equation:
    try:
        fn = EQUATION_PRIMITIVES[name]
    except KeyError:
        raise PrimitiveError(f"unknown primitive {name!r}") from None
    return fn(e, i)
