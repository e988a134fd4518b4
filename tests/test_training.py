import json
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mathsynth.training
from conftest import CHAIN, HAND_WRITTEN_ABSTRACTIONS, doubling_nest, equations, seeded_setup
from mathsynth.corpus import load_checkpoint, make_task
from mathsynth.enumerator import SearchBudget, Task, solve_task_with_stats
from mathsynth.equations import check_solved, parse_prefix
from mathsynth.grammar import Library, fit_grammar
from mathsynth.primitives import apply_primitive
from mathsynth.programs import (
    TINT,
    AbsRef,
    Abstraction,
    Apply,
    EvalError,
    IntLit,
    Lambda,
    Prim,
    VarRef,
    apply_abstraction,
    evaluate,
    is_arrow,
    parse_program,
    render_program,
)
from mathsynth.training import (
    FRONTIER_CAP,
    RunConfig,
    TrainingError,
    _dedup_frontier,
    _eta_reduce,
    _passes_probes,
    _wake,
    evaluate_tasks,
    run_training_loop,
)
from oracles import interpreted


def abstraction_names(term):
    if type(term) is AbsRef:
        return {term.abstraction.name}
    if type(term) is Lambda:
        return abstraction_names(term.body)
    if type(term) is Apply:
        return abstraction_names(term.fn) | abstraction_names(term.arg)
    return set()


def test_run_config_rejects_bad_values():
    with pytest.raises(TrainingError):
        RunConfig(iterations=-1)
    with pytest.raises(TrainingError):
        RunConfig(eval_every=0)
    with pytest.raises(TrainingError):
        RunConfig(k_programs=0)
    with pytest.raises(TrainingError):
        RunConfig(jobs=0)


def test_eta_reduce():
    a = Abstraction(parse_program("(lambda (sub $0 5))"), name="h")
    assert _eta_reduce(Lambda(Apply(AbsRef(a), VarRef(0)))) == AbsRef(a)
    p = parse_program(CHAIN)
    assert _eta_reduce(p) == p


def test_dedup_frontier_caps_and_drops_duplicates():
    a = Abstraction(parse_program("(lambda (sub $0 5))"), name="h")
    eta_twin = Lambda(Apply(AbsRef(a), VarRef(0)))
    distinct = [parse_program(f"(lambda (sub $0 {i}))") for i in range(10)]
    kept = _dedup_frontier([AbsRef(a), eta_twin] + distinct)
    assert len(kept) == FRONTIER_CAP
    assert kept[0] == AbsRef(a)
    assert kept[1:] == tuple(distinct[:7])


def test_an_id_that_names_two_tasks_is_an_error(tmp_path):
    train, test, lib, config = seeded_setup()
    clash = Task(train[0].id, test[0].template_id, test[0].input, test[0].goal)
    assert clash != train[0]
    with pytest.raises(TrainingError, match=repr(train[0].id)):
        run_training_loop(train, [clash], lib, config)
    with pytest.raises(TrainingError, match=repr(train[0].id)):
        run_training_loop(train + [clash], [], lib, config)
    # the same task listed in both sets is one task
    config = RunConfig(iterations=0, out_dir=str(tmp_path))
    assert run_training_loop(train, [train[0]], lib, config).curve == []


def test_zero_iterations_leaves_library_untouched(tmp_path):
    train, test, lib, _ = seeded_setup()
    before = lib.to_dict()
    config = RunConfig(iterations=0, out_dir=str(tmp_path))
    result = run_training_loop(train, test, lib, config)
    assert result.curve == []
    assert result.best == {}
    assert result.library.to_dict() == before
    initial = load_checkpoint(str(tmp_path / "checkpoint-00.json"))
    final = load_checkpoint(str(tmp_path / "library.json"))
    assert initial.to_dict() == final.to_dict() == before


def test_mini_loop_solves_all_training_tasks(mini_run):
    result, _ = mini_run
    assert result.curve[0]["train_solved"] == 3
    assert result.curve[0]["newly_solved"] == 3
    assert result.curve[-1]["train_rate"] == 1.0
    for task_id, bp in result.best.items():
        task = result.tasks[task_id]
        out, _ = evaluate(bp.program, task.input)
        assert check_solved(out) == task.goal


def test_mini_loop_learns_the_shared_chain(mini_run):
    result, _ = mini_run
    bodies = [a.body for a in result.library.abstractions()]
    assert parse_program(CHAIN) in bodies
    assert result.curve[0]["new_abstractions"]
    assert result.curve[0]["round_utilities"][0] > 0


def test_learned_abstraction_is_reused_across_tasks(mini_run):
    result, _ = mini_run
    counts = {}
    for bp in result.best.values():
        for name in abstraction_names(bp.program):
            counts[name] = counts.get(name, 0) + 1
    assert counts and max(counts.values()) >= 2


def test_test_metrics_only_on_eval_iterations(mini_run):
    result, _ = mini_run
    assert "test_rate" not in result.curve[0]
    assert result.curve[-1]["test_rate"] == 1.0
    assert set(result.evals) == {2}


def test_mean_dedup_f_tracks_two_step_solutions(mini_run):
    result, _ = mini_run
    assert result.curve[-1]["mean_dedup_f"] == "2"
    assert all(f == 2 for f in result.curve[-1]["dedup_f"].values())


def test_checkpoints_written_per_iteration(mini_run):
    result, out = mini_run
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "checkpoint-00.json",
        "checkpoint-01.json",
        "checkpoint-02.json",
        "curve.json",
        "library.json",
    ]
    assert load_checkpoint(str(out / "library.json")).to_dict() == result.library.to_dict()
    assert json.loads((out / "curve.json").read_text()) == json.loads(
        json.dumps(result.curve)
    )


def test_same_seed_runs_are_byte_identical(tmp_path):
    outputs = []
    for name in ("first", "second"):
        train, test, lib, config = seeded_setup()
        out = tmp_path / name
        config = RunConfig(**{**config.__dict__, "out_dir": str(out)})
        run_training_loop(train, test, lib, config)
        outputs.append(out)
    a, b = outputs
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_evaluate_tasks_does_not_learn(mini_run):
    result, _ = mini_run
    train, test, lib, config = seeded_setup()
    snapshot = result.library.to_dict()
    solved = evaluate_tasks(test, result.library, config)
    assert len(solved) == 2
    assert result.library.to_dict() == snapshot


def test_probes_reject_instance_specific_programs():
    fake = Task("x_plus_b-000/0", "x_plus_b-000", parse_prefix("(= x 4)"), Fraction(4))
    identity = parse_program("(lambda $0)")
    assert _passes_probes(identity, fake, n_probes=0, seed=0)
    assert not _passes_probes(identity, fake, n_probes=2, seed=0)


def test_probes_accept_template_general_programs():
    task = make_task("x_plus_b", 0, random.Random(1))
    assert _passes_probes(parse_program(CHAIN), task, n_probes=3, seed=9)


def test_two_workers_write_the_same_bytes_as_one(mini_run, tmp_path):
    """The pool pickles the library to its workers and the found programs
    back; the artifacts must not tell that they travelled."""
    _, one_worker = mini_run
    train, test, lib, config = seeded_setup()
    config = RunConfig(**{**config.__dict__, "out_dir": str(tmp_path), "jobs": 2})
    run_training_loop(train, test, lib, config)
    files = sorted(p.name for p in one_worker.iterdir())
    assert files == sorted(p.name for p in tmp_path.iterdir())
    for name in files:
        assert (one_worker / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_a_wake_of_fewer_than_two_tasks_starts_no_pool(monkeypatch):
    """Zero or one task is searched in process; more get a pool no larger
    than the task count."""
    pools = []

    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError("a pool was started")

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    train, _, lib, config = seeded_setup()
    config = RunConfig(**{**config.__dict__, "jobs": 4, "budget": SearchBudget(max_expansions=500)})
    monkeypatch.setattr(mathsynth.training, "ProcessPoolExecutor", NoPool)
    assert _wake([], lib, config) == {}
    assert list(_wake(train[:1], lib, config)) == [train[0].id]
    assert evaluate_tasks([], lib, config) == {}
    monkeypatch.setattr(mathsynth.training, "ProcessPoolExecutor", InProcessPool)
    assert list(_wake(train[:2], lib, config)) == [t.id for t in train[:2]]
    assert list(_wake(train, lib, config)) == [t.id for t in train]
    assert pools == [2, 3]


def _outcome(run):
    try:
        return run()
    except EvalError:
        return EvalError


@settings(max_examples=150, deadline=None)
@given(eq=equations(), lits=st.lists(st.integers(0, 10), min_size=2, max_size=2))
def test_compiled_abstractions_match_the_interpreter(mini_run, eq, lits):
    result, _ = mini_run
    learned = result.library.abstractions()
    assert learned
    for a in learned + HAND_WRITTEN_ABSTRACTIONS:
        args, t, ints = [], a.type, iter(lits)
        while is_arrow(t):
            args.append(next(ints) if t[1] == TINT else eq)
            t = t[2]
        args = tuple(args)
        assert _outcome(lambda: apply_abstraction(a, args)) == _outcome(
            lambda: interpreted(a, args)
        ), (a, args)


def _chain_steps(program):
    """The (head, literal arguments) steps of a chain program, first step
    first: (lambda (h2 (h1 $0 a) b c)) gives [(h1, (a,)), (h2, (b, c))]."""
    steps = []
    body = program.body
    while type(body) is not VarRef:
        lits = []
        while type(body.arg) is IntLit:
            lits.append(body.arg.value)
            body = body.fn
        steps.append((body.fn, tuple(reversed(lits))))
        body = body.arg
    return steps[::-1]


def test_found_programs_replay_step_by_step(mini_run):
    """Every program the chain search returns, stepped through one action
    at a time, reaches the state evaluate reaches, and that state shows
    the goal."""
    result, _ = mini_run
    train, test, _, _ = seeded_setup()
    tasks = train + test + [
        Task("pinned/0", "pinned", parse_prefix("(= x (/ 6 2))"), Fraction(3)),
        Task("pinned/1", "pinned", parse_prefix("(= (+ x 0) (* 2 3))"), Fraction(6)),
    ]
    budget = SearchBudget(max_expansions=20_000)
    chains = {}
    for name, lib in (("initial", Library.initial()), ("learned", result.library)):
        chains[name] = []
        for task in tasks:
            found, _ = solve_task_with_stats(task, lib, budget, k=3)
            for program, _logp in found:
                steps = _chain_steps(program)
                eq = task.input
                for head, lits in steps:
                    if type(head) is Prim:
                        eq = apply_primitive(head.name, eq, *lits)
                    else:
                        eq = apply_abstraction(head.abstraction, (eq,) + lits)
                assert eq == evaluate(program, task.input)[0], render_program(program)
                assert check_solved(eq) == task.goal, render_program(program)
                chains[name].append(steps)
    assert len(chains["initial"]) >= 4 and max(map(len, chains["initial"])) >= 2
    learned_steps = [head for steps in chains["learned"] for head, _ in steps]
    assert len(chains["learned"]) >= 10 and any(type(h) is AbsRef for h in learned_steps)


def test_a_wall_timeout_that_fires_is_flagged_and_logged(caplog):
    task = Task("hard/0", "hard", parse_prefix("(= (+ (* 3 x) (* 4 x)) 9)"), Fraction(9, 7))
    budget = SearchBudget(max_expansions=5_000, wall_timeout=0.0)
    _, stats = solve_task_with_stats(task, Library.initial(), budget)
    # the clock is read every 1024 expansions, so a zero timeout stops there
    assert stats["expansions"] == 1024 and stats["stop"] == "timeout"
    _, untimed = solve_task_with_stats(task, Library.initial(), SearchBudget(max_expansions=2_000))
    assert untimed["expansions"] == 2_000 and untimed["stop"] == "budget"
    with caplog.at_level(logging.WARNING, logger="mathsynth"):
        wake = _wake([task], Library.initial(), RunConfig(budget=budget))
    assert wake[task.id][1]["stop"] == "timeout"
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "hard/0" in caplog.records[0].getMessage()


def test_the_step_limit_holds_per_top_level_call():
    """One call of the doubling nest A_15 makes 65,535 abstraction calls,
    under the step limit, and two calls make more than it together.
    evaluate gives each top-level call a limit of its own, as the search
    gives each action, so a program that the search returns through two
    such calls passes its probes."""
    e = parse_prefix("(= (+ x 2) 9)")
    a15 = Abstraction(doubling_nest(15).body, name="a15")
    assert evaluate(Lambda(Apply(AbsRef(a15), Apply(AbsRef(a15), VarRef(0)))), e) == (e, None)
    lib = Library.initial()
    for text in ("(lambda (swap (a15 $0) 1))", "(lambda (simplify (rrotate (sub (a15 $0) 3) 1) 0))"):
        lib.add_abstraction(parse_program(text, [a15]))
    lib = fit_grammar(lib, [parse_program("(lambda (fn_1 (fn_0 $0)))", lib)] * 6)
    task = make_task("b_plus_x", 0, random.Random(1))
    found, _ = solve_task_with_stats(task, lib, SearchBudget(max_expansions=2_000), k=1)
    assert [render_program(p, named=True) for p, _ in found] == ["(lambda (fn_1 (fn_0 $0)))"]
    assert _passes_probes(found[0][0], task, n_probes=2, seed=0)
