import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathsynth.equations import parse_prefix
from mathsynth.programs import (
    AbsRef,
    Abstraction,
    Apply,
    EvalError,
    IntLit,
    Lambda,
    Prim,
    ProgramError,
    TINT,
    TSTR,
    VarRef,
    apply_abstraction,
    arrow,
    evaluate,
    infer_type,
    map_leaves,
    parse_program,
    program_cost,
    render_program,
    render_type,
    spine,
)


def test_parse_pinned_forms():
    p = parse_program("(lambda (simplify (dist (rrotate $0 1) 1) 0))")
    assert infer_type(p) == arrow(TSTR, TSTR)
    assert infer_type(parse_program("(lambda $0)")) == arrow(TSTR, TSTR)


def test_unbound_de_bruijn_ref():
    with pytest.raises(ProgramError):
        parse_program("(lambda (sub $0 $1))")


def test_unknown_primitive_name():
    with pytest.raises(ProgramError):
        parse_program("(lambda (negate $0 1))")


def test_names_resolve_to_abstraction_names_only():
    a = Abstraction(parse_program("(lambda (sub $0 5))"), name="fn_0")
    assert parse_program("(lambda (fn_0 $0))", [a]) == Lambda(Apply(AbsRef(a), VarRef(0)))
    with pytest.raises(ProgramError):
        parse_program("(lambda (__bodies__ $0))", [a])


def test_render_type_names_type_variables():
    assert render_type(arrow(TSTR, TINT, TSTR)) == "tstr -> tint -> tstr"
    assert render_type(arrow(arrow(TSTR, 2), 1)) == "(tstr -> t2) -> t1"


def test_typecheck_examples():
    assert infer_type(parse_program("(lambda (sub $0 5))")) == arrow(TSTR, TSTR)
    assert infer_type(parse_program("(newConstGen 3 4 5)")) == TINT
    with pytest.raises(ProgramError):
        infer_type(Apply(Apply(Prim("sub"), IntLit(5)), Lambda(VarRef(0))))


def test_argument_order_is_equation_then_index():
    bad = Lambda(Apply(Apply(Prim("sub"), IntLit(5)), VarRef(0)))
    with pytest.raises(ProgramError):
        infer_type(bad)


def test_program_cost():
    assert program_cost(parse_program("(lambda (sub $0 5))")) == 303
    assert program_cost(parse_program("(lambda $0)")) == 101
    assert program_cost(IntLit(7)) == 100


def test_cost_counts_absref_as_one_terminal():
    a = Abstraction(parse_program("(lambda (sub $0 5))"), name="fn_0")
    assert program_cost(AbsRef(a)) == 100
    assert program_cost(Lambda(Apply(AbsRef(a), VarRef(0)))) == 202


def test_render_parse_round_trip_named_and_inline():
    a = Abstraction(parse_program("(lambda (sub $0 5))"), name="fn_0")
    p = Lambda(Apply(AbsRef(a), Apply(Apply(Prim("swap"), VarRef(0)), IntLit(1))))
    inline = render_program(p)
    assert inline == "(lambda (#(lambda (sub $0 5)) (swap $0 1)))"
    assert parse_program(inline) == p
    named = render_program(p, named=True)
    assert named == "(lambda (fn_0 (swap $0 1)))"
    assert parse_program(named, lib=[a]) == p


def test_evaluate_fig1_tail():
    p = parse_program("(lambda (simplify (rrotate (div (swap $0 1) 3) 1) 0))")
    e = parse_prefix("(= (* 5 x) 3)")
    result, states = evaluate(p, e, trace=True)
    assert result == parse_prefix("(= x (/ 3 5))")
    assert states == [
        e,
        parse_prefix("(= (* x 5) 3)"),
        parse_prefix("(= (/ (* x 5) 5) (/ 3 5))"),
        parse_prefix("(= (* x (/ 5 5)) (/ 3 5))"),
        parse_prefix("(= x (/ 3 5))"),
    ]


def test_identity_trace_is_input_only():
    e = parse_prefix("(= x 4)")
    result, states = evaluate(parse_program("(lambda $0)"), e, trace=True)
    assert result == e
    assert states == [e]


def test_evaluate_propagates_primitive_errors():
    p = parse_program("(lambda (swap $0 1))")
    with pytest.raises(EvalError):
        evaluate(p, parse_prefix("(= (- 5 x) 3)"))


def test_evaluate_rejects_non_function_programs():
    with pytest.raises(EvalError):
        evaluate(IntLit(3), parse_prefix("(= x 4)"))


def test_abstraction_call_traces_only_its_final_result():
    inner = parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))")
    a = Abstraction(inner, name="fn_0")
    p = Lambda(Apply(AbsRef(a), VarRef(0)))
    e = parse_prefix("(= (+ x 2) 9)")
    result, states = evaluate(p, e, trace=True)
    assert result == parse_prefix("(= x 7)")
    assert states == [e, result]


def test_abstraction_equality_ignores_name():
    body = parse_program("(lambda (sub $0 5))")
    assert Abstraction(body, name="fn_0") == Abstraction(body, name="fn_9")
    assert len({Abstraction(body, name="a"), Abstraction(body, name="b")}) == 1


def test_inlining_absref_preserves_evaluation():
    a = Abstraction(parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))"))
    named = Lambda(Apply(AbsRef(a), VarRef(0)))
    inlined = parse_program(render_program(named))
    e = parse_prefix("(= (+ x 2) 9)")
    assert evaluate(named, e)[0] == evaluate(inlined, e)[0]


@given(st.integers(0, 10), st.integers(0, 10))
def test_int_literals_render_and_cost(a, b):
    p = parse_program(f"(newConstGen {a} {b} 0)")
    assert program_cost(p) == 403
    assert render_program(p) == f"(newConstGen {a} {b} 0)"


SWAPPED = ["(= (+ x 2) 9)", "(= (+ 2 x) 9)"]


@pytest.mark.parametrize(
    "program, states",
    [
        (parse_program("(lambda ((lambda (swap $0 1)) $0))"), SWAPPED),
        # the eta-reduced form training stores: a bare reference
        (AbsRef(Abstraction(parse_program("(lambda (swap $0 1))"))), SWAPPED),
        (parse_program("(lambda (swap $0 (newConstGen 1 1 0)))"), SWAPPED),
        # states inside the program's own lambda are recorded
        (
            parse_program("(lambda ((lambda (sub (swap $0 1) 2)) (swap $0 1)))"),
            SWAPPED + ["(= (+ x 2) 9)", "(= (- (+ x 2) x) (- 9 x))"],
        ),
    ],
    ids=["beta-redex", "bare-absref", "int-subterm", "inner-lambda"],
)
def test_traced_states_through_generic_applications(program, states):
    e = parse_prefix("(= (+ x 2) 9)")
    result, traced = evaluate(program, e, trace=True)
    assert traced == [parse_prefix(s) for s in states]
    assert result == traced[-1]


def _twice_nested(n):
    """(lambda (D (D ... (D (lambda $0))) $0)) with D = twice: applies the
    identity 2**n times."""
    twice = parse_program("(lambda (lambda ($1 ($1 $0))))")
    term = parse_program("(lambda $0)")
    for _ in range(n):
        term = Apply(twice, term)
    return Lambda(Apply(term, VarRef(0)))


def test_step_limit_stops_runaway_programs():
    program = _twice_nested(20)
    assert infer_type(program) == arrow(TSTR, TSTR)
    e = parse_prefix("(= (+ x 2) 9)")
    assert evaluate(_twice_nested(5), e) == (e, None)
    with pytest.raises(EvalError, match="step limit"):
        evaluate(program, e)
    with pytest.raises(EvalError, match="step limit"):
        apply_abstraction(Abstraction(program), (e,))


def _nested_abstraction(k):
    """A_k with A_0 = (lambda (swap $0 1)) and A_k = (lambda (A_{k-1}
    (A_{k-1} $0))): one call of A_k makes 2**(k+1) - 1 abstraction calls."""
    a = Abstraction(parse_program("(lambda (swap $0 1))"))
    for _ in range(k):
        a = Abstraction(Lambda(Apply(AbsRef(a), Apply(AbsRef(a), VarRef(0)))))
    return a


def test_step_limit_stops_nested_abstraction_calls():
    e = parse_prefix("(= (+ x 2) 9)")
    # an even number of swaps leaves the equation as it was
    assert apply_abstraction(_nested_abstraction(10), (e,)) == e
    assert evaluate(Lambda(Apply(AbsRef(_nested_abstraction(10)), VarRef(0))), e) == (e, None)
    deep = _nested_abstraction(18)
    with pytest.raises(EvalError, match="step limit"):
        apply_abstraction(deep, (e,))
    with pytest.raises(EvalError, match="step limit"):
        evaluate(Lambda(Apply(AbsRef(deep), VarRef(0))), e)
    with pytest.raises(EvalError, match="step limit"):
        evaluate(AbsRef(deep), e)


def test_partial_applications_take_arguments_in_call_order():
    # swap gets its equation, then its index; newConstGen 0 5 1 is 0 * 5 + 1
    p = parse_program("(lambda ((lambda ($0 (newConstGen 0 5 1))) (swap $0)))")
    e = parse_prefix("(= (+ x 2) 9)")
    assert evaluate(p, e, trace=True)[1] == [e, parse_prefix("(= (+ 2 x) 9)")]


def test_spine_and_map_leaves_go_left_to_right():
    p = parse_program("(lambda (sub (swap $0 1) 2))")
    head, args = spine(p.body)
    assert head == Prim("sub") and [render_program(a) for a in args] == ["(swap $0 1)", "2"]
    assert spine(p) == (p, [])
    leaves = []
    assert map_leaves(p, lambda t: leaves.append(t) or t) == p
    assert [render_program(t) for t in leaves] == ["sub", "swap", "$0", "1", "2"]
    assert render_program(map_leaves(p, lambda t: "?"), hole=str) == "(lambda (? (? ? ?) ?))"
