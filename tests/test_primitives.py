"""Primitive transformations: pinned behaviours plus truth preservation.

Truth preservation means the set of rational sample points satisfying the
equation is unchanged by the rewrite, modulo points excluded because some
denominator vanishes there.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathsynth.equations import (
    Const,
    Node,
    X,
    close_table,
    eval_at,
    intern,
    open_table,
    parse_prefix,
    subtree_at,
    subtrees,
)
from mathsynth.primitives import (
    EQUATION_PRIMITIVES,
    RULES,
    PrimitiveError,
    apply_primitive,
    new_const_gen,
)

from conftest import equations, safe_sample_points, truth_set


def P(s):
    return parse_prefix(s)


def test_arithmetic_applies_subtree_copy_to_both_sides():
    assert apply_primitive("sub", P("(= (+ (* 3 x) 5) 7)"), 5) == P(
        "(= (- (+ (* 3 x) 5) 5) (- 7 5))"
    )
    assert apply_primitive("div", P("(= (* x 5) 3)"), 3) == P(
        "(= (/ (* x 5) 5) (/ 3 5))"
    )
    assert apply_primitive("add", P("(= x 0)"), 2) == P("(= (+ x 0) (+ 0 0))")


def test_arithmetic_rejects_equation_operand():
    with pytest.raises(PrimitiveError):
        apply_primitive("add", P("(= x 0)"), 0)


def test_new_const_gen():
    assert new_const_gen(3, 4, 5) == 17
    assert new_const_gen(10, 10, 10) == 110
    assert new_const_gen(0, 7, 0) == 0


def test_rotations():
    assert apply_primitive("rrotate", P("(= (+ (+ 1 (* 2 x)) (* 3 x)) 4)"), 1) == P(
        "(= (+ 1 (+ (* 2 x) (* 3 x))) 4)"
    )
    assert apply_primitive("rrotate", P("(= (/ (* x 5) 5) (/ 3 5))"), 1) == P(
        "(= (* x (/ 5 5)) (/ 3 5))"
    )
    assert apply_primitive("lrotate", P("(= (- 7 (+ 2 1)) x)"), 1) == P(
        "(= (- (- 7 2) 1) x)"
    )


def test_rotation_rejects_mixed_classes_and_leaves():
    with pytest.raises(PrimitiveError):
        apply_primitive("rrotate", P("(= (+ (* 2 x) 1) 4)"), 1)
    with pytest.raises(PrimitiveError):
        apply_primitive("lrotate", P("(= x 4)"), 1)


def test_swap():
    assert apply_primitive("swap", P("(= 2 x)"), 0) == P("(= x 2)")
    assert apply_primitive("swap", P("(= (* 5 x) 3)"), 1) == P("(= (* x 5) 3)")
    with pytest.raises(PrimitiveError):
        apply_primitive("swap", P("(= (- 5 x) 3)"), 1)


def test_dist_factors_shared_multiplicand():
    assert apply_primitive("dist", P("(= (+ (* 2 x) (* 3 x)) 4)"), 1) == P(
        "(= (* (+ 2 3) x) 4)"
    )
    assert apply_primitive("dist", P("(= (- (* 3 x) (* 2 x)) 4)"), 1) == P(
        "(= (* (- 3 2) x) 4)"
    )
    with pytest.raises(PrimitiveError):
        apply_primitive("dist", P("(= (+ (* 2 x) (* 3 5)) 4)"), 1)


def test_dist_treats_bare_x_as_one_times_x():
    assert apply_primitive("dist", P("(= (+ x (* 3 x)) 4)"), 1) == P(
        "(= (* (+ 1 3) x) 4)"
    )


def test_revdist_expands_preserving_factor_position():
    assert apply_primitive("revdist", P("(= (* 2 (+ x 3)) 1)"), 1) == P(
        "(= (+ (* 2 x) (* 2 3)) 1)"
    )
    assert apply_primitive("revdist", P("(= (* (+ x 3) 2) 1)"), 1) == P(
        "(= (+ (* x 2) (* 3 2)) 1)"
    )
    with pytest.raises(PrimitiveError):
        apply_primitive("revdist", P("(= (+ x 3) 1)"), 1)


def test_simplify_runs_to_fixpoint():
    assert apply_primitive(
        "simplify", P("(= (+ (* 5 x) (- 1 1)) (- 4 1))"), 1
    ) == P("(= (* 5 x) (- 4 1))")
    assert apply_primitive("simplify", P("(= (* x (/ 5 5)) (/ 3 5))"), 1) == P(
        "(= x (/ 3 5))"
    )
    assert apply_primitive("simplify", P("(= x (/ 6 2))"), 2) == P("(= x 3)")


def test_simplify_reduces_fractions_by_gcd():
    assert apply_primitive("simplify", P("(= x (/ 4 6))"), 2) == P("(= x (/ 2 3))")
    assert apply_primitive("simplify", P("(= x (/ -4 6))"), 2) == P(
        "(= x (/ -2 3))"
    )


def test_simplify_cancels_var_over_itself():
    assert apply_primitive("simplify", P("(= (/ (* 2 x) (* 2 x)) 1)"), 1) == P(
        "(= 1 1)"
    )


def test_simplify_zero_denominator_is_an_error():
    with pytest.raises(PrimitiveError):
        apply_primitive("simplify", P("(= x (/ 3 0))"), 2)


def test_identity_insertions():
    assert apply_primitive("addzero", P("(= (* 5 x) 3)"), 4) == P(
        "(= (* 5 x) (+ 3 0))"
    )
    assert apply_primitive("multone", P("(= x 2)"), 1) == P("(= (* x 1) 2)")
    assert apply_primitive("divone", P("(= x 2)"), 2) == P("(= x (/ 2 1))")
    assert apply_primitive("subzero", P("(= x 2)"), 1) == P("(= (- x 0) 2)")


def test_unknown_primitive():
    with pytest.raises(PrimitiveError):
        apply_primitive("negate", P("(= x 2)"), 0)


@given(equations(), st.sampled_from(sorted(EQUATION_PRIMITIVES)), st.integers(0, 10))
@settings(max_examples=300)
def test_truth_preservation(e, name, i):
    try:
        out = apply_primitive(name, e, i)
    except PrimitiveError:
        return
    ok_after = set(safe_sample_points(out, n=10))
    points = [x for x in safe_sample_points(e) if x in ok_after]
    if name in ("mult", "div"):
        # multiplying or dividing by a zero-valued operand is excluded
        operand = subtree_at(e, i)
        points = [x for x in points if eval_at(operand, x) != 0]
    assert truth_set(e, points) == truth_set(out, points)


@given(equations(), st.sampled_from(sorted(EQUATION_PRIMITIVES)), st.data())
@settings(max_examples=500)
def test_shape_preconditions_are_necessary(e, name, data):
    """The chain search skips an action whose subtree a rule's shape
    rejects, so a rejected subtree must make the primitive raise, whether
    it is called by name or through EQUATION_PRIMITIVES.  Indices past the
    last subtree have no subtree to test; the primitive raises on them."""
    i = data.draw(st.integers(0, e.size + 1))
    if i < e.size and RULES[name].shape(subtree_at(e, i)):
        return
    with pytest.raises(PrimitiveError):
        apply_primitive(name, e, i)
    with pytest.raises(PrimitiveError):
        EQUATION_PRIMITIVES[name](e, i)


def _rebuilt(e):
    """``e`` built again through the validating constructors, which reject a
    nested '='."""
    if type(e) is Node:
        return Node(e.op, _rebuilt(e.left), _rebuilt(e.right))
    return Const(e.value) if type(e) is Const else X


def _apply_or_none(name, e, i):
    try:
        return apply_primitive(name, e, i)
    except PrimitiveError:
        return None


def _check_interned(e, name, i):
    plain = _apply_or_none(name, e, i)
    previous = open_table()
    try:
        got = _apply_or_none(name, intern(e), i)
        if got is not None:
            assert intern(plain) is got
            assert _apply_or_none(name, intern(e), i) is got
    finally:
        close_table(previous)
    assert (got is None) == (plain is None)
    if got is None:
        return
    assert got == plain and hash(got) == hash(plain)
    for a, b in zip(subtrees(got), subtrees(plain), strict=True):
        assert (a.size, a.has_var, hash(a)) == (b.size, b.has_var, hash(b))
    assert _rebuilt(got) == plain


@given(equations(), st.sampled_from(sorted(EQUATION_PRIMITIVES)), st.data())
@settings(max_examples=500)
def test_interned_outputs_equal_plain_ones(e, name, data):
    """With an intern table open, as during a search, every primitive builds
    the tree it builds without one, from interned nodes only."""
    _check_interned(e, name, data.draw(st.integers(0, e.size + 1)))


@pytest.mark.parametrize(
    "text",
    [
        "(= (+ (* 2 3) (- 4 6)) (/ (+ x 0) (* 2 x)))",
        "(= (* (+ x 1) 3) (+ (* 2 x) (* 2 x)))",
        "(= (/ 6 4) (- (- x 7) (+ 1 (* x 1))))",
        "(= (+ (- x -1) (- x -2)) (- -1 -2))",  # hash(-1) == hash(-2)
    ],
)
def test_interned_outputs_equal_plain_ones_pinned(text):
    """Every primitive at every index of equations where simplify folds each
    operator, dist, revdist and the rotations apply, and node hashes
    collide."""
    e = P(text)
    for name in EQUATION_PRIMITIVES:
        for i in range(e.size + 2):
            _check_interned(e, name, i)


def test_swap_twice_is_identity():
    e = P("(= (+ 1 (* 2 x)) (* 4 x))")
    for i in (0, 1):
        assert apply_primitive("swap", apply_primitive("swap", e, i), i) == e


def test_rotate_left_then_right_is_identity():
    e = P("(= (+ (+ 1 (* 2 x)) (* 3 x)) 4)")
    assert apply_primitive("lrotate", apply_primitive("rrotate", e, 1), 1) == e


def test_revdist_then_dist_is_identity():
    e = P("(= (* (+ 2 3) x) 4)")
    assert apply_primitive("dist", apply_primitive("revdist", e, 1), 1) == e


def test_simplify_is_idempotent_pinned():
    e = P("(= (+ (* 5 x) (- 1 1)) (- 4 1))")
    once = apply_primitive("simplify", e, 0)
    assert apply_primitive("simplify", once, 0) == once


@given(equations(max_depth=4), st.integers(0, 12))
@settings(max_examples=200)
def test_simplify_idempotent(e, i):
    try:
        once = apply_primitive("simplify", e, i)
    except PrimitiveError:
        return
    assert apply_primitive("simplify", once, i) == once
