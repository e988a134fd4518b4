import math

import pytest

from mathsynth.grammar import GrammarError, Library, fit_grammar
from mathsynth.programs import (
    Abstraction,
    AbsRef,
    Apply,
    Lambda,
    VarRef,
    parse_program,
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
    ],
    ids=["lambda-head", "too-few-args", "too-many-args", "unknown-abstraction"],
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
