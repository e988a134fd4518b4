import json
import random
from fractions import Fraction

import pytest

from mathsynth.corpus import (
    SHAPE_FAMILY,
    CorpusError,
    GoalOracle,
    generate_corpus,
    instantiate,
    load_checkpoint,
    load_corpus,
    load_solutions,
    make_task,
    parse_step,
    reinstantiate,
    save_checkpoint,
    save_solutions,
    save_tasks,
    shape_slots,
    template_shape,
)
from mathsynth.enumerator import Task
from mathsynth.equations import parse_prefix, render_prefix
from mathsynth.grammar import Library, fit_grammar
from mathsynth.metric import Solution
from mathsynth.programs import parse_program

from oracles import verify_goal

ORACLE = GoalOracle()


def test_every_shape_instantiates_to_a_solvable_task():
    rng = random.Random(0)
    for i, shape in enumerate(sorted(SHAPE_FAMILY)):
        task = make_task(shape, i, rng)
        assert task.template_id == f"{shape}-{i:03d}"
        assert task.id == f"{task.template_id}/0"
        assert verify_goal(task)
        assert template_shape(task.template_id) == shape


def test_slot_values_are_distinct_and_in_range():
    rng = random.Random(3)
    for _ in range(50):
        task = make_task("collect_two_x", 0, rng)
        consts = [
            int(tok)
            for tok in render_prefix(task.input).replace("(", " ").replace(")", " ").split()
            if tok.lstrip("-").isdigit()
        ]
        assert len(consts) == len(set(consts)) == 4
        assert all(1 <= c <= 10 for c in consts)


def test_oracle_pinned_examples():
    assert ORACLE.solve(parse_prefix("(= (+ (/ 6 x) 1) 4)")) == 2
    assert ORACLE.solve(parse_prefix("(= (+ (+ 1 (* 2 x)) (* 3 x)) 4)")) == Fraction(3, 5)
    assert ORACLE.solve(parse_prefix("(= (+ (* 3 x) 1) 5)")) == Fraction(4, 3)
    assert ORACLE.solve(parse_prefix("(= 7 (- (* 9 x) (* 2 x)))")) == 1


def test_oracle_rejects_degenerate_equations():
    with pytest.raises(CorpusError, match="no unique solution"):
        ORACLE.solve(parse_prefix("(= x x)"))
    with pytest.raises(CorpusError, match="no solution"):
        ORACLE.solve(parse_prefix("(= (+ x 1) x)"))
    with pytest.raises(CorpusError, match="not linear"):
        ORACLE.solve(parse_prefix("(= (* x x) 4)"))
    with pytest.raises(CorpusError, match="not in domain"):
        ORACLE.solve(parse_prefix("(= (/ (* 2 x) x) 3)"))


def test_oracle_agrees_with_substitution_on_generated_tasks():
    rng = random.Random(9)
    for i in range(40):
        shape = sorted(SHAPE_FAMILY)[i % len(SHAPE_FAMILY)]
        assert verify_goal(make_task(shape, i, rng))


def test_shape_slots():
    assert shape_slots("ax_plus_b") == ("A", "B", "C")
    assert shape_slots("collect_two_x") == ("A", "B", "C", "D")
    assert shape_slots("x_plus_b") == ("B", "C")


def test_instantiate_fills_slots():
    eq = instantiate("ax_plus_b", {"A": 3, "B": 1, "C": 5})
    assert eq == parse_prefix("(= (+ (* 3 x) 1) 5)")


def test_generate_corpus_is_deterministic_and_disjoint():
    train1, test1 = generate_corpus(11, n_templates=30)
    train2, test2 = generate_corpus(11, n_templates=30)
    assert [t.id for t in train1] == [t.id for t in train2]
    assert [render_prefix(t.input) for t in train1] == [
        render_prefix(t.input) for t in train2
    ]
    assert len(train1) == 21 and len(test1) == 9
    assert not {t.template_id for t in train1} & {t.template_id for t in test1}
    assert all(verify_goal(t) for t in train1 + test1)


def test_generate_corpus_round_robins_shapes():
    train, test = generate_corpus(5, n_templates=14)
    shapes = sorted(template_shape(t.template_id) for t in train + test)
    assert shapes == sorted(SHAPE_FAMILY)


def test_generate_corpus_rejects_bad_arguments():
    with pytest.raises(CorpusError, match="unknown shape"):
        generate_corpus(0, n_templates=4, shapes=["nope"])
    with pytest.raises(CorpusError, match="train_fraction"):
        generate_corpus(0, n_templates=4, train_fraction=1.5)


def test_reinstantiate_keeps_template_changes_instance():
    task = make_task("ax_plus_b", 7, random.Random(2))
    probe = reinstantiate(task, random.Random(99), instance=3)
    assert probe.template_id == task.template_id
    assert probe.id == f"{task.template_id}/3"
    assert verify_goal(probe)


def test_tasks_file_round_trip(tmp_path):
    train, _ = generate_corpus(4, n_templates=8)
    path = str(tmp_path / "train.jsonl")
    save_tasks(path, train)
    loaded = load_corpus(path)
    assert loaded == train


def test_load_corpus_rejects_goal_contradicting_oracle(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    rec = {
        "equation": "(= (+ x 1) 5)",
        "goal": "3",
        "id": "x_plus_b-000/0",
        "template_id": "x_plus_b-000",
    }
    path_text = json.dumps(rec, sort_keys=True) + "\n"
    (tmp_path / "bad.jsonl").write_text(path_text)
    with pytest.raises(CorpusError, match="declared goal 3 but oracle finds 4"):
        load_corpus(path)


def test_load_corpus_reports_malformed_lines(tmp_path):
    path = tmp_path / "corrupt.jsonl"
    path.write_text('{"equation": "(= x", "goal": "1", "id": "a/0", "template_id": "a"}\n')
    with pytest.raises(CorpusError, match="corrupt.jsonl:1"):
        load_corpus(str(path))


TASK_RECORD = {
    "equation": "(= (+ x 1) 5)",
    "goal": "4",
    "id": "x_plus_b-000/0",
    "template_id": "x_plus_b-000",
}


@pytest.mark.parametrize(
    "field, value",
    [("equation", 5), ("goal", [1]), ("id", 5), ("goal", True)],
    ids=["int-equation", "list-goal", "int-id", "bool-goal"],
)
def test_load_corpus_rejects_wrongly_typed_fields(tmp_path, field, value):
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps({**TASK_RECORD, field: value}) + "\n")
    with pytest.raises(CorpusError, match=f"typed.jsonl:1: .*'{field}'"):
        load_corpus(str(path))


def test_load_corpus_rejects_an_id_given_twice(tmp_path):
    path = tmp_path / "twice.jsonl"
    other = {**TASK_RECORD, "equation": "(= (+ x 2) 5)", "goal": "3"}
    path.write_text(json.dumps(TASK_RECORD) + "\n\n" + json.dumps(other) + "\n")
    with pytest.raises(CorpusError, match="twice.jsonl:3: task id 'x_plus_b-000/0' .* line 1"):
        load_corpus(str(path))


def test_load_corpus_accepts_an_integer_goal(tmp_path):
    path = tmp_path / "int_goal.jsonl"
    path.write_text(json.dumps({**TASK_RECORD, "goal": 4}) + "\n")
    assert load_corpus(str(path))[0].goal == 4


def test_parse_step_accepts_both_notations():
    assert parse_step("(= (* 5 x) 3)") == parse_step("5x = 3")


def test_solutions_file_round_trip(tmp_path):
    a = Solution("t-a/0", (parse_prefix("(= (+ x 1) 5)"), parse_prefix("(= x 4)")))
    b = Solution("t-b/0", (parse_prefix("(= (* 2 x) 6)"), parse_prefix("(= x 3)")))
    path = str(tmp_path / "solutions.json")
    save_solutions(path, {"t-a/0": a, "t-b/0": b}, programs={"t-a/0": "(lambda (simplify (sub $0 1) 0))"})
    loaded = load_solutions(path)
    assert loaded["t-a/0"].states == a.states
    assert loaded["t-b/0"].states == b.states
    data = json.loads((tmp_path / "solutions.json").read_text())
    assert data["t-a/0"]["program"] == "(lambda (simplify (sub $0 1) 0))"
    assert isinstance(data["t-b/0"], list)


def test_load_solutions_rejects_unparseable_steps(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"t/0": ["x = ="]}))
    with pytest.raises(CorpusError, match="t/0"):
        load_solutions(str(path))


def test_checkpoint_round_trip(tmp_path):
    lib = Library.initial()
    lib.add_abstraction(parse_program("(lambda (simplify (rrotate $0 1) 0))"), origin_iteration=1)
    lib = fit_grammar(lib, [parse_program("(lambda (simplify (sub $0 1) 0))")] * 3)
    path = str(tmp_path / "checkpoint-01.json")
    save_checkpoint(path, lib)
    loaded = load_checkpoint(path)
    assert loaded.to_dict() == lib.to_dict()


def test_checkpoint_write_is_byte_stable(tmp_path):
    lib = Library.initial()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(p1, lib)
    save_checkpoint(p2, lib)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_goal_detects_wrong_labels():
    eq = parse_prefix("(= (+ x 1) 5)")
    assert verify_goal(Task("t/0", "t", eq, Fraction(4)))
    assert not verify_goal(Task("t/0", "t", eq, Fraction(3)))
