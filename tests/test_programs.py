import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mathsynth.programs
from conftest import HAND_WRITTEN, NOT_CHAINS, doubling_nest, equations
from mathsynth.equations import parse_prefix
from mathsynth.grammar import Library
from mathsynth.primitives import PrimitiveError, apply_primitive
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
    split_type,
    unrolled_steps,
)
from oracles import interpreted


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


def test_render_type_joins_argument_and_result_types():
    assert render_type(arrow(TSTR, TINT, TSTR)) == "tstr -> tint -> tstr"


def test_split_type_separates_argument_types_from_the_result():
    assert split_type(arrow(TSTR, TINT, TSTR)) == ((TSTR, TINT), TSTR)
    assert split_type(TSTR) == ((), TSTR)
    # a function-typed argument stays whole
    assert split_type(arrow(arrow(TSTR, TSTR), TINT)) == ((arrow(TSTR, TSTR),), TINT)


def test_typecheck_examples():
    assert infer_type(parse_program("(lambda (sub $0 5))")) == arrow(TSTR, TSTR)
    assert infer_type(parse_program("(lambda (lambda (sub $1 $0)))")) == arrow(TSTR, TINT, TSTR)
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
    with pytest.raises(EvalError) as info:
        evaluate(p, parse_prefix("(= (- 5 x) 3)"))
    assert str(info.value) == (
        "swap at index 1 failed on (= (- 5 x) 3): "
        "swap does not apply to the subtree at index 1"
    )
    assert type(info.value.__cause__) is PrimitiveError


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
    p = parse_program(f"(lambda (swap (sub $0 {a}) {b}))")
    assert program_cost(p) == 505
    assert render_program(p) == f"(lambda (swap (sub $0 {a}) {b}))"


SWAPPED = ["(= (+ x 2) 9)", "(= (+ 2 x) 9)"]


@pytest.mark.parametrize(
    "program, states",
    [
        # the eta-reduced form training stores: a bare reference
        (AbsRef(Abstraction(parse_program("(lambda (swap $0 1))"))), SWAPPED),
        (parse_program("(lambda (#(lambda (lambda (#(lambda (lambda (swap $1 $0))) $1 $0))) $0 1))"),
         SWAPPED),
    ],
    ids=["bare-absref", "int-argument"],
)
def test_traced_states_through_generic_applications(program, states):
    e = parse_prefix("(= (+ x 2) 9)")
    result, traced = evaluate(program, e, trace=True)
    assert traced == [parse_prefix(s) for s in states]
    assert result == traced[-1]


def test_step_limit_stops_nested_abstraction_calls():
    e = parse_prefix("(= (+ x 2) 9)")
    # an even number of swaps leaves the equation as it was
    assert apply_abstraction(doubling_nest(10), (e,)) == e
    assert evaluate(Lambda(Apply(AbsRef(doubling_nest(10)), VarRef(0))), e) == (e, None)
    deep = doubling_nest(18)
    with pytest.raises(EvalError, match="step limit"):
        apply_abstraction(deep, (e,))
    with pytest.raises(EvalError, match="step limit"):
        evaluate(Lambda(Apply(AbsRef(deep), VarRef(0))), e)
    with pytest.raises(EvalError, match="step limit"):
        evaluate(AbsRef(deep), e)


def test_partial_applications_take_arguments_in_call_order():
    """A partial application is no chain; a call takes its arguments in
    call order, here the equation before the index."""
    e = parse_prefix("(= (+ x 2) 9)")
    with pytest.raises(EvalError, match="swap takes 2 arguments, not 1"):
        evaluate(parse_program(NOT_CHAINS["partial-application"]), e)
    p = parse_program("(lambda (#(lambda (lambda (swap $1 $0))) $0 1))")
    assert split_type(p.body.fn.fn.abstraction.type)[0] == (TSTR, TINT)
    assert evaluate(p, e, trace=True)[1] == [e, parse_prefix("(= (+ 2 x) 9)")]


def test_an_abstraction_that_takes_its_equation_later_is_refused():
    """The search chains a call on its first argument, so a body typed
    tint -> tstr -> tstr could never be used: it is refused as an
    abstraction body, inline, in a checkpoint and by add_abstraction."""
    text = "(lambda (lambda (swap $0 $1)))"
    with pytest.raises(ProgramError, match="tint -> tstr -> tstr does not take its equation first"):
        Abstraction(parse_program(text))
    with pytest.raises(ProgramError, match="equation first"):
        parse_program(f"(lambda (#{text} 1 $0))")
    doc = Library.initial().to_dict()
    doc["productions"].append({"kind": "abstraction", "name": "fn_0",
                               "type": "tint -> tstr -> tstr", "log_weight": 0.0,
                               "body": text, "origin_iteration": 1})
    with pytest.raises(ProgramError, match="equation first"):
        Library.from_dict(doc)
    lib = Library.initial()
    with pytest.raises(ProgramError, match="equation first"):
        lib.add_abstraction(parse_program(text))
    assert lib.abstractions() == []


@pytest.mark.parametrize("text", NOT_CHAINS.values(), ids=NOT_CHAINS.keys())
def test_a_term_that_is_no_chain_is_refused(text):
    """As an abstraction body, inline, in a checkpoint or run as a program."""
    term = parse_program(text)
    with pytest.raises(ProgramError):
        Abstraction(term)
    with pytest.raises(ProgramError):
        parse_program(f"#{text}")
    doc = Library.initial().to_dict()
    doc["productions"].append({"kind": "abstraction", "name": "fn_0", "type": "tstr -> tstr",
                               "log_weight": 0.0, "body": text, "origin_iteration": 1})
    with pytest.raises(ProgramError):
        Library.from_dict(doc)
    with pytest.raises(EvalError):
        evaluate(term, parse_prefix("(= (+ x 2) 9)"))


def test_an_abstraction_renders_inline_once_and_travels_without_its_caches():
    a = doubling_nest(3)
    text = render_program(AbsRef(a))
    assert text.count("#(lambda (swap $0 1))") == 8
    assert render_program(Lambda(Apply(AbsRef(a), VarRef(0)))) == f"(lambda ({text} $0))"
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and copy.type == a.type and copy._text is None
    assert render_program(AbsRef(copy)) == text


def test_spine_and_map_leaves_go_left_to_right():
    p = parse_program("(lambda (sub (swap $0 1) 2))")
    head, args = spine(p.body)
    assert head == Prim("sub") and [render_program(a) for a in args] == ["(swap $0 1)", "2"]
    assert spine(p) == (p, [])
    leaves = []
    assert map_leaves(p, lambda t: leaves.append(t) or t) == p
    assert [render_program(t) for t in leaves] == ["sub", "swap", "$0", "1", "2"]
    assert render_program(map_leaves(p, lambda t: "?"), hole=str) == "(lambda (? (? ? ?) ?))"


# bodies the unroller takes apart besides the hand-written ones: a call
# nested two deep, and a parameter passed on as the index of a nested call
UNROLLED = [
    "(lambda (#(lambda (#(lambda (simplify (rrotate $0 1) 0)) (sub $0 3))) (swap $0 1)))",
    "(lambda (lambda (swap (#(lambda (lambda (simplify (sub $1 $0) 0))) $1 $0) 1)))",
]


def _replayed(steps, eq):
    for name, i in steps:
        eq = apply_primitive(name, eq, i)
    return eq


def _outcome(run):
    try:
        return run()
    except (PrimitiveError, EvalError):
        return "fails"


@settings(max_examples=100, deadline=None)
@given(eq=equations(), lits=st.lists(st.integers(0, 10), min_size=2, max_size=2))
def test_unrolled_steps_replay_the_abstraction_call(mini_run, eq, lits):
    """Applied through apply_primitive, the steps give what the reference
    walk gives, failures included."""
    result, _ = mini_run
    learned = result.library.abstractions()
    assert learned
    for a in [Abstraction(parse_program(t)) for t in HAND_WRITTEN + UNROLLED] + learned:
        types, _ = split_type(a.type)
        assert types[0] == TSTR
        ints = tuple(lits[: len(types) - 1])
        steps = unrolled_steps(a, ints)
        assert _outcome(lambda: _replayed(steps, eq)) == _outcome(
            lambda: interpreted(a, (eq,) + ints)
        ), (a, ints)


def test_unrolled_steps_keep_the_step_limit_exact(monkeypatch):
    """The unroller fails a call exactly where the reference walk does, at
    the call past the limit, and only there."""
    e = parse_prefix("(= (+ x 2) 9)")
    assert unrolled_steps(doubling_nest(2), ()) == (("swap", 1),) * 4
    # doubling_nest(2) makes 7 calls, doubling_nest(3) 15
    monkeypatch.setattr(mathsynth.programs, "_STEP_LIMIT", 7)
    assert apply_abstraction(doubling_nest(2), (e,)) == interpreted(doubling_nest(2), (e,)) == e
    assert len(unrolled_steps(doubling_nest(2), ())) == 4
    for run in (apply_abstraction, interpreted):
        with pytest.raises(EvalError, match="step limit"):
            run(doubling_nest(3), (e,))
    with pytest.raises(EvalError, match="step limit"):
        unrolled_steps(doubling_nest(3), ())
    monkeypatch.setattr(mathsynth.programs, "_STEP_LIMIT", 6)
    with pytest.raises(EvalError, match="step limit"):
        unrolled_steps(doubling_nest(2), ())
