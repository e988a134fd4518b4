import math

import pytest

from mathsynth.grammar import LITERAL_LOG_PROB, VAR, GrammarError, Library, fit_grammar
from mathsynth.programs import (
    Abstraction,
    AbsRef,
    Apply,
    IntLit,
    Lambda,
    Prim,
    VarRef,
    parse_program,
    render_program,
)


def weight_of(lib, name):
    for p in lib.productions:
        if p.name == name:
            return p.log_weight
    raise AssertionError(f"no production {name}")


def test_initial_library_is_uniform():
    lib = Library.initial()
    weights = {p.log_weight for p in lib.productions}
    assert weights == {0.0}
    assert lib.abstractions() == []
    assert lib.iteration == 0


def test_fit_on_empty_corpus_keeps_uniform_weights():
    lib = fit_grammar(Library.initial(), [])
    assert len({p.log_weight for p in lib.productions}) == 1


def test_laplace_count_ratio():
    nine = [parse_program("(lambda (simplify $0 0))")] * 9
    lib = fit_grammar(Library.initial(), nine)
    ratio = math.exp(weight_of(lib, "simplify") - weight_of(lib, "divone"))
    assert ratio == pytest.approx(10.0)


def test_refit_is_idempotent():
    corpus = [parse_program("(lambda (swap (sub $0 3) 0))")] * 4
    one = fit_grammar(Library.initial(), corpus)
    two = fit_grammar(one, corpus)
    assert [(p.name, p.log_weight) for p in one.productions] == [
        (p.name, p.log_weight) for p in two.productions
    ]


def test_add_abstraction_names_sequentially_and_dedups():
    lib = Library.initial()
    a = lib.add_abstraction(parse_program("(lambda (sub $0 5))"))
    b = lib.add_abstraction(parse_program("(lambda (add $0 3))"))
    again = lib.add_abstraction(parse_program("(lambda (sub $0 5))"))
    assert (a.name, b.name) == ("fn_0", "fn_1")
    assert again is a
    assert len(lib.abstractions()) == 2


def test_add_abstraction_takes_a_name_no_production_has():
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (sub $0 5))"))
    doc = lib.to_dict()
    doc["productions"][-1]["name"] = "fn_1"  # as a checkpoint may name it
    loaded = Library.from_dict(doc)
    added = loaded.add_abstraction(parse_program("(lambda (add $0 3))"))
    assert added.name == "fn_0"
    again = loaded.add_abstraction(parse_program("(lambda (add $0 4))"))
    assert again.name == "fn_2"
    assert Library.from_dict(loaded.to_dict()).to_dict() == loaded.to_dict()


def test_abstractions_participate_in_prior():
    lib = Library.initial()
    a = lib.add_abstraction(parse_program("(lambda (simplify (rrotate $0 1) 0))"))
    call = Lambda(Apply(AbsRef(a), VarRef(0)))
    assert lib.log_prior(call) > lib.log_prior(
        parse_program("(lambda (simplify (rrotate $0 1) 0))")
    )


def test_log_prior_accepts_bare_abstraction_reference():
    lib = Library.initial()
    a = lib.add_abstraction(parse_program("(lambda (sub $0 5))"))
    eta = Lambda(Apply(AbsRef(a), VarRef(0)))
    assert lib.log_prior(AbsRef(a)) == lib.log_prior(eta)


def test_fitted_weights_sharpen_the_prior():
    corpus = [parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))")] * 5
    lib = fit_grammar(Library.initial(), corpus)
    p = corpus[0]
    assert lib.log_prior(p) > Library.initial().log_prior(p)


def test_a_fitted_library_takes_indices_from_the_literals_alone():
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (lambda (simplify (swap $1 $0) 0)))"))
    fitted = fit_grammar(lib, [parse_program("(lambda (fn_0 (sub $0 3) 1))", lib)] * 4)
    table = fitted.table()
    assert LITERAL_LOG_PROB == -math.log(11)
    assert not any(type(head) is IntLit for head in table)
    for v in range(11):
        prior = fitted.log_prior(parse_program(f"(lambda (sub $0 {v}))"))
        assert prior == table[Prim("sub")][0] + (table[VAR][0] + LITERAL_LOG_PROB)
    for index in (IntLit(11), VarRef(0), Prim("sub")):
        with pytest.raises(GrammarError, match="in an index position"):
            fitted.log_prior(Lambda(Apply(Apply(Prim("sub"), VarRef(0)), index)))


def test_checkpoint_types_are_the_equation_then_the_indices():
    lib = Library.initial()
    for body in ("(lambda (sub $0 5))", "(lambda (lambda (sub $1 $0)))",
                 "(lambda (lambda (lambda (swap (sub $2 $1) $0))))"):
        lib.add_abstraction(parse_program(body))
    types = {p["name"]: p["type"] for p in lib.to_dict()["productions"]}
    assert types["sub"] == "tstr -> tint -> tstr"
    assert [types[f"fn_{k}"] for k in range(3)] == [
        "tstr -> tstr", "tstr -> tint -> tstr", "tstr -> tint -> tint -> tstr",
    ]


def test_serialization_round_trip():
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (simplify (rrotate $0 1) 0))"))
    lib.add_abstraction(
        parse_program("(lambda (sub $0 5))"), origin_iteration=2
    )
    lib = fit_grammar(
        lib, [parse_program("(lambda (swap $0 0))")] * 3
    )
    back = Library.from_dict(lib.to_dict())
    assert back.to_dict() == lib.to_dict()
    assert [a.name for a in back.abstractions()] == ["fn_0", "fn_1"]
    assert back.abstractions()[1].origin_iteration == 2


def test_nested_abstraction_survives_round_trip():
    lib = Library.initial()
    inner = lib.add_abstraction(parse_program("(lambda (simplify (rrotate $0 1) 0))"))
    outer_body = Lambda(
        Apply(AbsRef(inner), Apply(Apply(parse_program("sub"), VarRef(0)), parse_program("5")))
    )
    lib.add_abstraction(outer_body)
    back = Library.from_dict(lib.to_dict())
    assert back.abstractions()[1].body == outer_body


def test_fit_counts_equal_bodied_abstractions_as_one_production():
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (sub $0 5))"))
    # parsed without the library, these are unnamed twins of fn_0
    twin = "#(lambda (sub $0 5))"
    corpus = [parse_program(f"(lambda ({twin} $0))")] * 2 + [parse_program(twin)]
    fitted = fit_grammar(lib, corpus)
    assert weight_of(fitted, "fn_0") == math.log(3 + 1)


@pytest.mark.parametrize(
    "text",
    [
        "(lambda ((lambda $0) $0))",
        "(lambda (swap $0))",
        "(lambda (swap $0 0 1))",
        "(lambda (#(lambda (sub $0 5)) $0))",
        "3",
    ],
    ids=["lambda-head", "too-few-args", "too-many-args", "unknown-abstraction", "bare-integer"],
)
def test_log_prior_rejects_a_program_the_library_cannot_produce(text):
    with pytest.raises(GrammarError):
        Library.initial().log_prior(parse_program(text))


def _abstraction_entry(name, body):
    return {"kind": "abstraction", "name": name, "type": "tstr -> tstr",
            "log_weight": 0.0, "body": body, "origin_iteration": 1}


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"kind": "primitive", "name": "swap", "type": "tstr -> tint -> tstr",
          "log_weight": 0.0}, "'swap'"),
        (_abstraction_entry("fn_1", "(lambda (sub $0 5))"), "'fn_0' and 'fn_1'"),
        (_abstraction_entry("fn_0", "(lambda (add $0 3))"), "'fn_0'"),
    ],
    ids=["primitive", "same-body", "same-name"],
)
def test_checkpoint_that_lists_a_production_twice_is_rejected(extra, named):
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (sub $0 5))"))
    doc = lib.to_dict()
    doc["productions"].append(extra)
    with pytest.raises(GrammarError, match=named):
        Library.from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("iteration", True),
        ("var_log_weight", True),
        ("log_weight", False),
        ("origin_iteration", "abc"),
        ("origin_iteration", 1.5),
        ("origin_iteration", None),
        ("origin_iteration", [1]),
        ("origin_iteration", True),
    ],
    ids=["iteration-bool", "var-weight-bool", "log-weight-bool", "origin-str",
         "origin-float", "origin-null", "origin-list", "origin-bool"],
)
def test_checkpoint_field_of_the_wrong_type_is_rejected(field, value):
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (sub $0 5))"), origin_iteration=1)
    doc = lib.to_dict()
    entry = doc if field in doc else doc["productions"][-1]
    entry[field] = value
    with pytest.raises(GrammarError, match=f"field '{field}'"):
        Library.from_dict(doc)


def _checkpoint_naming(name):
    """The initial library without swap, plus one abstraction named ``name``."""
    doc = Library.initial().to_dict()
    doc["productions"] = [p for p in doc["productions"] if p["name"] != "swap"]
    doc["productions"].append(_abstraction_entry(name, "(lambda (sub $0 5))"))
    return doc


@pytest.mark.parametrize("name", ["7", "$0", "lambda", "swap", "fn ok", "", "(fn", "fn)"])
def test_checkpoint_abstraction_name_that_program_text_cannot_name_is_rejected(name):
    # named renders of a call, such as (lambda (7 $0)), would parse back to
    # another program or not at all
    with pytest.raises(GrammarError, match="is not a program token that names it"):
        Library.from_dict(_checkpoint_naming(name))


@pytest.mark.parametrize("name", ["fn_0", "sub5", "-"])
def test_checkpoint_abstraction_name_parses_back_to_the_abstraction(name):
    lib = Library.from_dict(_checkpoint_naming(name))
    call = parse_program(f"(lambda ({name} $0))", lib)
    assert call.body.fn.abstraction.body == parse_program("(lambda (sub $0 5))")
    assert render_program(call, named=True) == f"(lambda ({name} $0))"
