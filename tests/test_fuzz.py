"""Fuzzing the input codecs and loaders.

Whatever the input, only the module's own error type may escape: the CLI
turns those into an ``error:`` line and exit code 1 (``cli._ERRORS``), and
anything else ends in a traceback.  Text is drawn both as arbitrary unicode
and as sequences of each codec's own tokens, which reach deeper into the
parsers; JSON is drawn both as arbitrary values and as a valid document
with one value inside replaced or one key dropped.
"""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathsynth.corpus import CorpusError, load_corpus, load_solutions, make_task
from mathsynth.equations import (
    MAX_NESTING,
    EquationError,
    parse_equation_infix,
    parse_prefix,
    render_infix,
    render_prefix,
)
from mathsynth.grammar import GrammarError, Library, fit_grammar
from mathsynth.primitives import apply_primitive
from mathsynth.programs import (
    ProgramError,
    evaluate,
    infer_type,
    parse_program,
    render_program,
    signature,
    unrolled_steps,
)


def _token_text(tokens):
    return st.lists(st.sampled_from(tokens), max_size=24).map(" ".join)


PREFIX_TEXT = st.one_of(
    st.text(),
    _token_text(["(", ")", "=", "+", "-", "*", "/", "x", "0", "7", "-3", "12"]),
)
INFIX_TEXT = st.one_of(
    st.text(),
    _token_text(["(", ")", "=", "+", "-", "*", "/", "x", "2x", "0", "7", "-3", "12"]),
)
PROGRAM_TEXT = st.one_of(
    st.text(),
    _token_text(
        ["(", ")", "lambda", "#(", "$0", "$1", "sub", "swap", "simplify",
         "0", "3", "10", "11", "-1", "fn_0"]
    ),
)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value somewhere inside replaced by arbitrary JSON,
    or one key of an object dropped."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node:
        parent = node
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
        if draw(st.booleans()):
            break
    if parent is None:
        return draw(JSON)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON)
    return doc


def _checkpoint_doc() -> dict:
    lib = Library.initial()
    a = lib.add_abstraction(parse_program("(lambda (simplify (rrotate $0 1) 0))"))
    lib.add_abstraction(parse_program(f"(lambda ({a.name} (sub $0 3)))", lib=lib))
    return fit_grammar(lib, [parse_program("(lambda (sub $0 3))")]).to_dict()


CHECKPOINT = _checkpoint_doc()
SOLUTIONS = {
    "t/0": ["2x + 1 = 7", "(= (* 2 x) 6)", "x = 3"],
    "t/1": {"program": "(lambda (swap $0 1))", "steps": ["x = 3", "3 = x"]},
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(PREFIX_TEXT)
@example("(= x 1" + "0" * 5000 + ")")
def test_prefix_codec_raises_only_equation_error(text):
    try:
        e = parse_prefix(text)
    except EquationError:
        return
    assert parse_prefix(render_prefix(e)) == e


@settings(max_examples=300)
@given(INFIX_TEXT)
@example("x = 1" + "0" * 5000)
def test_infix_codec_raises_only_equation_error(text):
    try:
        e = parse_equation_infix(text)
    except EquationError:
        return
    assert parse_equation_infix(render_infix(e)) == e


@settings(max_examples=300)
@given(PROGRAM_TEXT)
@example("²")
@example("(lambda (sub $0 1" + "0" * 5000 + "))")
def test_program_codec_raises_only_program_error(text):
    lib = Library.from_dict(CHECKPOINT)
    try:
        p = parse_program(text, lib)
    except ProgramError:
        return
    assert parse_program(render_program(p, named=True), lib) == p
    assert parse_program(render_program(p)) == p


def _nested(open_, leaf, close, depth):
    return open_ * depth + leaf + close * depth


@pytest.mark.parametrize(
    "parse, text, error",
    [
        (parse_prefix, _nested("(+ ", "x", " 1)", 1_200), EquationError),
        (parse_equation_infix, _nested("(", "x", ")", 1_200) + " = 3", EquationError),
        (parse_equation_infix, "x" + " + 1" * 1_200 + " = 3", EquationError),
        (parse_program, _nested("(lambda ", _nested("(swap ", "$0", " 1)", 1_200), ")", 1),
         ProgramError),
    ],
    ids=["prefix", "infix-parentheses", "infix-chain", "program"],
)
def test_input_nested_too_deep_raises_the_codec_error(parse, text, error):
    """The tree walks recurse once per level, so deep input is refused at
    parse time instead of ending in a RecursionError later."""
    with pytest.raises(error, match="nests deeper"):
        parse(text)


def test_input_at_the_nesting_bound_parses_and_runs():
    d = MAX_NESTING - 1  # the '=' root and the lambda take one level each
    eq = parse_prefix("(= " + _nested("(+ ", "x", " 1)", d) + " 3)")
    assert parse_equation_infix(render_infix(eq)) == eq
    program = parse_program(_nested("(lambda ", _nested("(swap ", "$0", " 1)", d), ")", 1))
    assert evaluate(program, eq)[0] == apply_primitive("swap", eq, 1)  # d is odd
    assert parse_program(render_program(program)) == program


@given(st.one_of(JSON, mutated(CHECKPOINT)))
def test_checkpoint_loading_raises_only_grammar_or_program_errors(doc):
    # an abstraction body is program text, so a bad one is a ProgramError
    try:
        Library.from_dict(doc)
    except (GrammarError, ProgramError):
        pass


# program text in the shape of terms: lambdas, calls of any head on any
# number of arguments, variables and literals, so that some of it parses
# and is a chain, and more of it parses and is not
TERM_TEXT = st.recursive(
    st.sampled_from(["$0", "$1", "0", "3", "10", "sub", "swap", "simplify", "fn_0"]),
    lambda inner: st.builds("(lambda {})".format, inner)
    | st.lists(inner, min_size=2, max_size=4).map(lambda ts: f"({' '.join(ts)})"),
    max_leaves=10,
)


@settings(max_examples=300)
@given(st.one_of(PROGRAM_TEXT, TERM_TEXT.map("(lambda {})".format)))
@example("(lambda (fn_0 (sub $0 3)))")
@example("(lambda (lambda (swap (fn_0 $1) $0)))")
@example("(lambda (lambda (lambda ($2 $1 $0))))")
def test_a_checkpoint_abstraction_loads_only_as_a_chain(text):
    """Loading raises only GrammarError or ProgramError, and every
    abstraction that loads unrolls into steps."""
    base = Library.from_dict(CHECKPOINT)
    try:
        type_ = signature(infer_type(parse_program(text, base)))
    except ProgramError:
        type_ = "tstr -> tstr"  # the body is refused before its type is read
    doc = json.loads(json.dumps(CHECKPOINT))
    doc["productions"].append({"kind": "abstraction", "name": "fn_9", "type": type_,
                               "log_weight": 0.0, "body": text, "origin_iteration": 1})
    try:
        lib = Library.from_dict(doc)
    except (GrammarError, ProgramError):
        return
    for a in lib.abstractions():
        assert infer_type(a.body) == a.arity >= 1
        steps = unrolled_steps(a, (2,) * (a.arity - 1))
        assert all(type(name) is str and type(i) is int for name, i in steps)


def _task_records():
    rng = random.Random(0)
    return [
        {"equation": render_prefix(t.input), "goal": str(t.goal), "id": t.id,
         "template_id": t.template_id}
        for t in (make_task("ax_plus_b", i, rng) for i in range(2))
    ]


TASK_RECORDS = _task_records()


@given(st.lists(st.one_of(JSON, mutated(TASK_RECORDS[0])), min_size=1, max_size=3))
@example([dict(TASK_RECORDS[0], goal="1/0")])
def test_task_loading_raises_only_corpus_error(scratch, records):
    path = scratch / "tasks.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in [TASK_RECORDS[1]] + records) + "\n")
    try:
        load_corpus(str(path))
    except CorpusError:
        pass


@given(st.one_of(JSON, mutated(SOLUTIONS)))
def test_solutions_loading_raises_only_corpus_error(scratch, doc):
    path = scratch / "solutions.json"
    path.write_text(json.dumps(doc))
    try:
        load_solutions(str(path))
    except CorpusError:
        pass
