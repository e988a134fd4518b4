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
    EquationError,
    parse_equation_infix,
    parse_prefix,
    render_infix,
    render_prefix,
)
from mathsynth.grammar import GrammarError, Library, fit_grammar
from mathsynth.programs import ProgramError, parse_program, render_program


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
        ["(", ")", "lambda", "#(", "$0", "$1", "sub", "swap", "newConstGen",
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


@given(st.one_of(JSON, mutated(CHECKPOINT)))
def test_checkpoint_loading_raises_only_grammar_or_program_errors(doc):
    # an abstraction body is program text, so a bad one is a ProgramError
    try:
        Library.from_dict(doc)
    except (GrammarError, ProgramError):
        pass


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
