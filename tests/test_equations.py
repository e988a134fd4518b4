from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathsynth.equations import (
    ONE,
    Const,
    EquationError,
    Node,
    X,
    _node,
    _splice,
    check_solved,
    close_table,
    equation,
    eval_at,
    intern,
    node_count,
    open_table,
    parse_equation_infix,
    parse_prefix,
    render_infix,
    render_prefix,
    replace_subtree,
    subtree_at,
    subtrees,
)

from conftest import equations, exprs
from samples import CONCISE_STEPS, SAMPLE_EQUATION_PREFIX, VERBOSE_STEPS


FIG1 = parse_prefix("(= (+ (+ 1 (* 2 x)) (* 3 x)) 4)")


def test_infix_parses_to_same_tree_as_prefix():
    assert parse_equation_infix("((1+2x)+3x) = 4") == FIG1
    assert parse_equation_infix("x = 3/5") == parse_prefix("(= x (/ 3 5))")
    assert parse_equation_infix("5x+1 = 4") == parse_prefix("(= (+ (* 5 x) 1) 4)")


def test_implicit_coefficient_binds_like_a_product():
    assert parse_equation_infix("2(x+3) = 1") == parse_prefix(
        "(= (* 2 (+ x 3)) 1)"
    )


def test_preorder_indexing():
    e = parse_prefix("(= (+ (* 3 x) 5) 7)")
    assert subtree_at(e, 0) is e
    assert subtree_at(e, 5) == Const(5)
    assert subtree_at(e, 2) == Node("*", Const(3), X)


def test_index_out_of_bounds():
    assert FIG1.size == 11
    with pytest.raises(EquationError):
        subtree_at(FIG1, 11)
    with pytest.raises(EquationError):
        subtree_at(FIG1, -1)


def test_replace_subtree_is_persistent():
    e = parse_prefix("(= (+ (* 3 x) 5) 7)")
    r = replace_subtree(e, 4, Node("+", X, Const(0)))
    assert r == parse_prefix("(= (+ (* 3 (+ x 0)) 5) 7)")
    assert e == parse_prefix("(= (+ (* 3 x) 5) 7)")


def test_replace_rejects_nested_equation():
    e = parse_prefix("(= x 4)")
    with pytest.raises(EquationError):
        replace_subtree(e, 2, equation(Const(1), Const(1)))


def test_node_count_examples():
    assert node_count(parse_prefix("(+ (* 5 x) 1)")) == 5
    assert node_count(Const(4)) == 1
    assert node_count(FIG1) == 11


def test_eval_at_examples():
    assert eval_at(parse_prefix("(+ (* 2 x) 1)"), 3) == 7
    assert eval_at(parse_prefix("(/ 3 5)"), 11) == Fraction(3, 5)
    with pytest.raises(EquationError):
        eval_at(parse_prefix("(/ 1 (- x x))"), 2)


def test_check_solved_accepts_both_orientations():
    assert check_solved(parse_prefix("(= x (/ 3 5))")) == Fraction(3, 5)
    assert check_solved(parse_prefix("(= (/ 3 5) x)")) == Fraction(3, 5)
    assert check_solved(parse_prefix("(= x 7)")) == 7
    assert check_solved(parse_prefix("(= (* 5 x) 3)")) is None


def test_check_solved_requires_lowest_terms_and_positive_denominator():
    assert check_solved(parse_prefix("(= x (/ -1 3))")) == Fraction(-1, 3)
    assert check_solved(parse_prefix("(= x (/ 2 6))")) is None
    assert check_solved(parse_prefix("(= x (/ 2 -6))")) is None
    assert check_solved(parse_prefix("(= x (/ 3 1))")) is None


@given(equations())
def test_prefix_round_trip(e):
    assert parse_prefix(render_prefix(e)) == e


@given(equations())
def test_infix_round_trip(e):
    assert parse_equation_infix(render_infix(e)) == e


@given(equations(max_depth=4))
def test_every_preorder_index_is_reachable(e):
    seen = [subtree_at(e, i) for i in range(e.size)]
    assert seen[0] is e
    assert sum(1 for _ in seen) == node_count(e)


@given(equations(max_depth=4), st.data())
def test_replace_with_own_subtree_is_identity(e, data):
    i = data.draw(st.integers(0, e.size - 1))
    assert replace_subtree(e, i, subtree_at(e, i)) == e


@given(exprs(with_var=False))
def test_eval_is_exact_on_constant_trees(t):
    try:
        v = eval_at(t, 0)
    except EquationError:
        return
    assert isinstance(v, Fraction)


def test_division_renders_with_parentheses_when_needed():
    e = parse_prefix("(= 6 (/ 6 (* 2 x)))")
    assert render_infix(e) == "6 = 6 / (2x)"
    assert parse_equation_infix(render_infix(e)) == e


def test_parse_errors():
    for bad in ["", "(+ 1", "(= x 4))", "(? 1 2)", "1 + = 2"]:
        with pytest.raises(EquationError):
            (parse_prefix if bad.startswith("(") else parse_equation_infix)(bad)


@given(equations())
def test_subtrees_lists_every_index_in_pre_order(e):
    table = subtrees(e)
    assert len(table) == e.size
    assert all(t is subtree_at(e, i) for i, t in enumerate(table))


def test_subtrees_with_a_limit_is_a_prefix_of_the_whole_table():
    samples = [parse_prefix(SAMPLE_EQUATION_PREFIX)]
    samples += [parse_equation_infix(s) for s in VERBOSE_STEPS + CONCISE_STEPS]
    for e in samples:
        whole = subtrees(e)
        for limit in range(e.size + 3):
            assert subtrees(e, limit) == whole[:limit]


def test_equal_trees_built_twice_in_one_table_are_one_object():
    previous = open_table()
    try:
        a = intern(parse_prefix("(= (+ (* 2 x) 1) 7)"))
        assert intern(parse_prefix("(= (+ (* 2 x) 1) 7)")) is a
        assert intern(a) is a
        assert intern(Const(1)) is ONE
        three = intern(Const(3))
        # (= (+ (* 3 x) 1) 7), spliced twice from interned parts
        assert _splice(a, 2, three) is _splice(a, 2, three)
        assert _node("+", a.left.left, ONE) is a.left
    finally:
        close_table(previous)


def test_without_a_table_equal_trees_stay_distinct_objects():
    e = parse_prefix("(= (+ (* 2 x) 1) 7)")
    assert intern(e) is e
    a, b = _node("+", X, ONE), _node("+", X, ONE)
    assert a is not b and a == b and hash(a) == hash(Node("+", X, Const(1)))


def test_a_node_is_built_unmarked():
    """No node is a search state until a search marks it: not one from
    Node, parse_prefix or _node, nor one interned from a marked tree."""
    e = parse_prefix("(= (+ (* 2 x) 1) 7)")
    built = [Node("=", X, ONE), _node("+", X, ONE)]
    assert not any(t.is_state for t in subtrees(e) + built if type(t) is Node)
    e.is_state = True
    previous = open_table()
    try:
        a = intern(e)
        assert a is not e and not any(t.is_state for t in subtrees(a) if type(t) is Node)
        assert not _splice(a, 2, ONE).is_state
    finally:
        close_table(previous)


def test_nodes_whose_hashes_collide_are_each_interned():
    previous = open_table()
    try:
        # hash(-1) == hash(-2), so these two trees share a hash
        a = intern(parse_prefix("(- x -1)"))
        b = intern(parse_prefix("(- x -2)"))
        assert hash(a) == hash(b) and a != b
        assert intern(parse_prefix("(- x -1)")) is a
        assert intern(parse_prefix("(- x -2)")) is b
    finally:
        close_table(previous)


def test_close_table_restores_the_table_it_replaced():
    outer = open_table()
    try:
        e = intern(parse_prefix("(= x 2)"))
        inner = open_table()
        try:
            assert intern(parse_prefix("(= x 2)")) is not e
        finally:
            close_table(inner)
        assert intern(parse_prefix("(= x 2)")) is e
    finally:
        close_table(outer)
