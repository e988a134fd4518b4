import json
import logging
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mathsynth.training
from mathsynth.cli import main
from mathsynth.corpus import (
    load_checkpoint,
    load_corpus,
    load_solutions,
    save_checkpoint,
    save_tasks,
)
from mathsynth.enumerator import Task
from mathsynth.equations import parse_prefix
from mathsynth.grammar import GrammarError, Library, fit_grammar
from mathsynth.programs import parse_program

CHAIN = "(lambda (simplify (rrotate (sub $0 3) 1) 0))"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> train end to end on a tiny single-shape corpus, search seeded
    from a pre-fitted checkpoint so the whole thing stays fast."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    run_dir = root / "run"
    seed_lib = root / "seed.json"

    rc = main(
        [
            "gen",
            "--seed", "4",
            "--templates", "3",
            "--shapes", "x_plus_b",
            "--train-fraction", "1.0",
            "--out", str(corpus_dir),
        ]
    )
    assert rc == 0

    lib = fit_grammar(Library.initial(), [parse_program(CHAIN)] * 6)
    save_checkpoint(str(seed_lib), lib)

    rc = main(
        [
            "train",
            "--train", str(corpus_dir / "train.jsonl"),
            "--library", str(seed_lib),
            "--seed", "5",
            "--iterations", "2",
            "--budget-expansions", "60000",
            "--timeout-secs", "120",
            "--patience", "5000",
            "--k-programs", "3",
            "--probes", "1",
            "--out", str(run_dir),
        ]
    )
    assert rc == 0
    return corpus_dir, run_dir, seed_lib


def test_gen_writes_loadable_split(pipeline):
    corpus_dir, _, _ = pipeline
    train = load_corpus(str(corpus_dir / "train.jsonl"))
    test = load_corpus(str(corpus_dir / "test.jsonl"))
    assert len(train) == 3 and len(test) == 0
    assert all(t.template_id.startswith("x_plus_b-") for t in train)


def test_gen_is_deterministic(tmp_path):
    for name in ("a", "b"):
        rc = main(
            ["gen", "--seed", "7", "--templates", "4", "--out", str(tmp_path / name)]
        )
        assert rc == 0
    assert (tmp_path / "a" / "train.jsonl").read_bytes() == (
        tmp_path / "b" / "train.jsonl"
    ).read_bytes()


def test_gen_rejects_unknown_shape(tmp_path, capsys):
    rc = main(["gen", "--shapes", "nope", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_writes_run_artifacts(pipeline):
    _, run_dir, _ = pipeline
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == [
        "checkpoint-00.json",
        "checkpoint-01.json",
        "checkpoint-02.json",
        "curve.json",
        "library.json",
        "solutions.json",
    ]
    curve = json.loads((run_dir / "curve.json").read_text())
    assert curve[-1]["train_solved"] == 3
    lib = load_checkpoint(str(run_dir / "library.json"))
    assert lib.abstractions()
    solutions = load_solutions(str(run_dir / "solutions.json"))
    assert len(solutions) == 3


def test_train_zero_iterations_copies_initial_library(pipeline, tmp_path):
    corpus_dir, _, seed_lib = pipeline
    out = tmp_path / "run0"
    rc = main(
        [
            "train",
            "--train", str(corpus_dir / "train.jsonl"),
            "--library", str(seed_lib),
            "--iterations", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "checkpoint-00.json").read_bytes() == (
        out / "library.json"
    ).read_bytes()
    assert load_checkpoint(str(out / "library.json")).to_dict() == load_checkpoint(
        str(seed_lib)
    ).to_dict()


def test_solve_with_trained_library(pipeline, tmp_path, capsys):
    corpus_dir, run_dir, _ = pipeline
    out = tmp_path / "solved.json"
    rc = main(
        [
            "solve",
            "--tasks", str(corpus_dir / "train.jsonl"),
            "--library", str(run_dir / "library.json"),
            "--budget-expansions", "30000",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert "solved 3/3" in capsys.readouterr().out
    assert len(load_solutions(str(out))) == 3


def test_solve_warns_when_the_wall_timeout_fires(tmp_path, capsys, caplog):
    tasks = tmp_path / "hard.jsonl"
    eq = parse_prefix("(= (+ (* 3 x) (* 4 x)) 9)")
    save_tasks(str(tasks), [Task("hard/0", "hard", eq, Fraction(9, 7))])
    with caplog.at_level(logging.WARNING, logger="mathsynth"):
        rc = main(
            ["solve", "--tasks", str(tasks), "--budget-expansions", "5000", "--timeout-secs", "0"]
        )
    assert rc == 0
    assert "solved 0/1" in capsys.readouterr().out
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert messages == ["search for task hard/0 hit the wall timeout after 1024 expansions"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--budget-expansions", "-5"], "max_expansions"),
        (["solve", "--timeout-secs", "-1"], "wall_timeout"),
        (["solve", "--timeout-secs", "nan"], "wall_timeout"),
        (["train", "--patience", "-1"], "patience"),
    ],
    ids=["negative-expansions", "negative-timeout", "nan-timeout", "negative-patience"],
)
def test_a_budget_that_cannot_mean_anything_is_an_error(tmp_path, capsys, argv, message):
    tasks = tmp_path / "tasks.jsonl"
    save_tasks(str(tasks), [Task("t/0", "t", parse_prefix("(= (+ x 4) 6)"), Fraction(2))])
    rc = main(argv[:1] + ["--tasks" if argv[0] == "solve" else "--train", str(tasks)] + argv[1:])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


# each setting of train at one below the least value it takes
_BELOW_LEAST = {
    "iterations": -1,
    "eval_every": 0,
    "k_programs": 0,
    "rounds": 0,
    "max_arity": -1,
    "probes": -1,
    "jobs": 0,
}


@pytest.mark.parametrize("field", _BELOW_LEAST)
def test_a_training_setting_out_of_range_is_refused_by_name(tmp_path, capsys, field):
    tasks = tmp_path / "tasks.jsonl"
    save_tasks(str(tasks), [Task("t/0", "t", parse_prefix("(= (+ x 4) 6)"), Fraction(2))])
    value = _BELOW_LEAST[field]
    rc = main(["train", "--train", str(tasks), "--" + field.replace("_", "-"), str(value)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {field} must be >= {value + 1}, not {value}\n"


def test_score_reports_raw_and_dedup_costs(pipeline, tmp_path, capsys):
    _, run_dir, _ = pipeline
    out = tmp_path / "scores.json"
    rc = main(
        ["score", "--solutions", str(run_dir / "solutions.json"), "--out", str(out)]
    )
    assert rc == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head.split() == ["task", "steps", "f", "raw", "f", "dedup"]
    scores = json.loads(out.read_text())
    assert all({"steps", "f_raw", "f_dedup"} <= set(v) for v in scores.values())


def test_compare_solutions_to_themselves_scores_zero(pipeline, tmp_path):
    _, run_dir, _ = pipeline
    out = tmp_path / "cmp.json"
    sols = str(run_dir / "solutions.json")
    rc = main(["compare", "--target", sols, "--baseline", sols, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["raw"]["mean_c_score"] == "0"
    assert report["dedup"]["mean_c_score"] == "0"


def test_compare_hand_built_pair(tmp_path):
    (tmp_path / "target.json").write_text(
        json.dumps({"a/0": ["2x = 6", "x = 3"]})
    )
    (tmp_path / "baseline.json").write_text(
        json.dumps(
            {
                "a/0": [
                    "2x = 6",
                    "(2x) / 2 = 6 / 2",
                    "x * (2 / 2) = 3",
                    "x * 1 = 3",
                    "x = 3",
                ]
            }
        )
    )
    out = tmp_path / "cmp.json"
    rc = main(
        [
            "compare",
            "--target", str(tmp_path / "target.json"),
            "--baseline", str(tmp_path / "baseline.json"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["raw"]["c_scores"]["a/0"] == "3/4"
    assert report["raw"]["n_intersection"] == 1


def test_library_listing(pipeline, tmp_path, capsys):
    _, run_dir, _ = pipeline
    out = tmp_path / "lib.json"
    rc = main(
        ["library", "--checkpoint", str(run_dir / "library.json"), "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "fn_0" in text and "expansions:" in text
    listing = json.loads(out.read_text())
    assert all({"arity", "body", "expansion", "origin_iteration"} <= set(v) for v in listing.values())
    assert any("(lambda" in v["expansion"] for v in listing.values())


def test_library_listing_of_primitive_only_checkpoint(tmp_path, capsys):
    path = tmp_path / "initial.json"
    save_checkpoint(str(path), Library.initial())
    rc = main(["library", "--checkpoint", str(path)])
    assert rc == 0
    assert "no abstractions" in capsys.readouterr().out


def test_missing_input_file_exits_nonzero(tmp_path, capsys):
    rc = main(["solve", "--tasks", str(tmp_path / "absent.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


_UNKNOWN_PRIMITIVE = {
    "iteration": 0,
    "var_log_weight": 0.0,
    "productions": [
        {"kind": "primitive", "name": "teleport", "type": "tstr -> tint -> tstr",
         "log_weight": 0.0}
    ],
}


def _with_abstraction(body: str, type_: str, name: str = "fn_0") -> dict:
    doc = Library.initial().to_dict()
    doc["productions"].append(
        {"kind": "abstraction", "name": name, "type": type_, "log_weight": 0.0,
         "body": body, "origin_iteration": 1}
    )
    return doc


def _listed_twice(production: dict) -> dict:
    doc = _with_abstraction("(lambda (sub $0 5))", "tstr -> tstr")
    doc["productions"].append({"type": "tstr -> tstr", "log_weight": 0.0, **production})
    return doc


@pytest.mark.parametrize(
    "checkpoint",
    [
        {},
        [],
        None,
        _UNKNOWN_PRIMITIVE,
        _with_abstraction("(lambda (__bodies__ $0))", "tstr -> tstr"),
        _with_abstraction("(lambda (swap $0))", "tstr -> tint -> tstr"),
        _listed_twice({"kind": "primitive", "name": "add", "type": "tstr -> tint -> tstr"}),
        _listed_twice({"kind": "abstraction", "name": "fn_1", "body": "(lambda (sub $0 5))"}),
        _listed_twice({"kind": "abstraction", "name": "fn_0", "body": "(lambda (add $0 3))"}),
        _with_abstraction("(lambda (sub $0 5))", "tstr -> tstr", name="7"),
        _with_abstraction("(lambda $0)", "tstr -> tstr"),
    ],
    ids=[
        "empty", "list", "null", "unknown", "not-a-name", "returns-function",
        "primitive-twice", "same-body", "same-name", "name-not-a-token", "identity",
    ],
)
def test_malformed_checkpoint_is_an_error_not_a_traceback(tmp_path, capsys, checkpoint):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(checkpoint))
    rc = main(["library", "--checkpoint", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_checkpoint_that_lists_newconstgen_is_refused(tmp_path, capsys):
    """Checkpoints once listed an integer producer, newConstGen, among the
    primitives; the DSL has none now, so such a checkpoint does not load."""
    doc = Library.initial().to_dict()
    doc["productions"].append({"kind": "primitive", "name": "newConstGen",
                               "type": "tint -> tint -> tint -> tint", "log_weight": 0.0})
    path = tmp_path / "library.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GrammarError, match="unknown primitive 'newConstGen' in checkpoint"):
        load_checkpoint(str(path))
    tasks = tmp_path / "tasks.jsonl"
    save_tasks(str(tasks), [Task("t/0", "t", parse_prefix("(= (+ x 2) 9)"), Fraction(7))])
    rc = main(["solve", "--tasks", str(tasks), "--library", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown primitive 'newConstGen' in checkpoint\n"


def test_task_line_that_is_not_an_object_is_an_error(tmp_path, capsys):
    path = tmp_path / "tasks.jsonl"
    path.write_text("[1, 2]\n")
    rc = main(["solve", "--tasks", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}:1:" in err


def test_a_task_id_that_names_two_tasks_is_an_error(tmp_path, capsys):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_tasks(str(train), [Task("t/0", "t", parse_prefix("(= (+ x 4) 6)"), Fraction(2))])
    save_tasks(str(test), [Task("t/0", "t", parse_prefix("(= (+ x 3) 6)"), Fraction(3))])
    rc = main(["train", "--train", str(train), "--test", str(test), "--iterations", "0",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "'t/0'" in err
    assert not (tmp_path / "run").exists()


def test_a_wake_worker_that_dies_is_an_error(tmp_path, capsys, monkeypatch):
    """A worker that exits mid-search breaks the process pool; train says
    so on an error line, not in a traceback, and names the tasks it left
    unfinished."""
    parent = os.getpid()

    def exits(*args, **kwargs):
        assert os.getpid() != parent, "the search ran in the test process"
        os._exit(3)

    monkeypatch.setattr(mathsynth.training, "solve_task_with_stats", exits)
    train = tmp_path / "train.jsonl"
    save_tasks(str(train), [Task(f"t/{b}", "t", parse_prefix(f"(= (+ x {b}) 6)"), Fraction(6 - b))
                            for b in (3, 4)])
    rc = main(["train", "--train", str(train), "--iterations", "1", "--jobs", "2",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a wake worker died" in err
    assert "t/3" in err and "t/4" in err  # every search exits, so none finished


@pytest.mark.parametrize(
    "solutions",
    [{"t/0": 5}, {"t/0": {"program": "x"}}, {"t/0": [3]}, None],
    ids=["number", "no-steps", "non-string-step", "null"],
)
@pytest.mark.parametrize("command", ["score", "compare"])
def test_malformed_solutions_file_is_an_error_not_a_traceback(
    tmp_path, capsys, solutions, command
):
    path = tmp_path / "solutions.json"
    path.write_text(json.dumps(solutions))
    if command == "score":
        rc = main(["score", "--solutions", str(path)])
    else:
        rc = main(["compare", "--target", str(path), "--baseline", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    if solutions is not None:
        assert "'t/0'" in err


def _weighted_checkpoint(weight: float, names) -> dict:
    doc = Library.initial().to_dict()
    for p in doc["productions"]:
        if p["name"] in names:
            p["log_weight"] = weight
    if "$0" in names:
        doc["var_log_weight"] = weight
    return doc


_EQUATION_PRODUCTIONS = ["$0", *(p.name for p in Library.initial().productions)]


@pytest.mark.parametrize(
    "checkpoint, message",
    [
        (_weighted_checkpoint(1000.0, ["add"]), "overflow or underflow"),
        (_weighted_checkpoint(-1000.0, _EQUATION_PRODUCTIONS), "overflow or underflow"),
        (_weighted_checkpoint(math.inf, ["add"]), "not a finite number"),
    ],
    ids=["overflow", "underflow", "infinity"],
)
def test_bad_checkpoint_weights_are_an_error(tmp_path, capsys, checkpoint, message):
    tasks = tmp_path / "tasks.jsonl"
    save_tasks(str(tasks), [Task("t/0", "t", parse_prefix("(= (+ x 1) 3)"), Fraction(2))])
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(checkpoint))  # math.inf is written as Infinity
    rc = main(["solve", "--tasks", str(tasks), "--library", str(path),
               "--budget-expansions", "100"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


_DEEP_EQUATION = "(= " + "(+ " * 1_200 + "x" + " 1)" * 1_200 + " 3)"
_DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize(
    "command, text",
    [
        ("solve", json.dumps({"equation": _DEEP_EQUATION, "goal": "3", "id": "t/0",
                              "template_id": "t"})),
        ("solve", _DEEP_JSON),
        ("score", _DEEP_JSON),
        ("library", _DEEP_JSON),
    ],
    ids=["deep-equation", "deep-json-tasks", "deep-json-solutions", "deep-json-checkpoint"],
)
def test_input_nested_too_deep_is_an_error_not_a_traceback(tmp_path, capsys, command, text):
    path = tmp_path / "deep"
    path.write_text(text + "\n")
    flag = {"solve": "--tasks", "score": "--solutions", "library": "--checkpoint"}[command]
    rc = main([command, flag, str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "nests" in err


def test_python_dash_m_mathsynth_runs_the_command():
    """An uninstalled checkout runs the README's commands as
    ``python -m mathsynth`` with ``src`` on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "mathsynth", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for command in ("gen", "train", "solve", "score", "library"):
        assert command in done.stdout
