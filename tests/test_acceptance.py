"""System-level acceptance checks.

One test per contract, each at its stated tolerance, each emitting a single
PASS/FAIL line (visible with -rA, -rP or -s).  The scaled training run near
the end takes several minutes; everything else is fast.
"""

import random
import time
import zlib
from fractions import Fraction

import pytest

from mathsynth.cli import main
from mathsynth.compression import (
    best_pattern,
    rewrite_with_abstraction,
)
from mathsynth.corpus import (
    SHAPE_FAMILY,
    generate_corpus,
    instantiate,
    reinstantiate,
    save_checkpoint,
    shape_slots,
    template_shape,
)
from mathsynth import enumerator
from mathsynth.enumerator import SearchBudget, Task, solve_task_with_stats
from mathsynth.equations import (
    Const,
    EquationError,
    Node,
    Var,
    check_solved,
    eval_at,
    node_count,
    parse_prefix,
    render_prefix,
    subtree_at,
)
from mathsynth.grammar import Library, fit_grammar
from mathsynth.metric import Solution, c_score, solution_cost_f
from mathsynth.primitives import EQUATION_PRIMITIVES, PrimitiveError, apply_primitive
from mathsynth.programs import (
    AbsRef,
    Apply,
    Lambda,
    evaluate,
    parse_program,
    program_cost,
)
from mathsynth.training import RunConfig, run_training_loop

from oracles import exhaustive_oracle
from samples import concise_solution, verbose_solution

PRIM_NAMES = sorted(EQUATION_PRIMITIVES)
SHAPES = sorted(SHAPE_FAMILY)

SAMPLE_POOL = [
    Fraction(p, q)
    for p, q in [
        (1, 1), (2, 1), (3, 1), (-1, 1), (-2, 1), (5, 2), (-3, 2), (7, 3),
        (4, 3), (-5, 4), (9, 5), (11, 7), (1, 4), (-7, 5), (13, 6), (8, 3),
        (-9, 2), (2, 5), (17, 4), (-11, 6), (3, 7), (19, 9), (5, 6), (-13, 8),
    ]
]


def report(name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}"
    print(line, flush=True)
    assert ok, line


def random_instance(rng: random.Random):
    shape = rng.choice(SHAPES)
    slots = shape_slots(shape)
    values = dict(zip(slots, rng.sample(range(1, 11), len(slots))))
    return instantiate(shape, values)


def truth_at(eq, x) -> bool:
    return eval_at(eq.left, x) == eval_at(eq.right, x)


def test_01_primitive_soundness_over_1000_random_applications():
    rng = random.Random(2024)
    t0 = time.monotonic()
    successes = 0
    violations = []
    for _ in range(1000):
        e = random_instance(rng)
        name = rng.choice(PRIM_NAMES)
        i = rng.randrange(node_count(e))
        try:
            after = apply_primitive(name, e, i)
        except PrimitiveError:
            continue
        successes += 1
        checked = 0
        for x in SAMPLE_POOL:
            try:
                before_truth = truth_at(e, x)
                after_truth = truth_at(after, x)
                if name in ("mult", "div") and eval_at(subtree_at(e, i), x) == 0:
                    continue
            except EquationError:
                continue
            if before_truth != after_truth:
                violations.append((name, i, render_prefix(e), str(x)))
            checked += 1
            if checked == 5:
                break
        if checked < 5:
            violations.append((name, i, render_prefix(e), "under 5 sample points"))
    elapsed = time.monotonic() - t0
    report(
        "primitive soundness: 1000 random applications, truth preserved at 5 points each",
        not violations and successes >= 300 and elapsed < 10.0,
        f"{successes} successful applications, {elapsed:.2f}s"
        + (f"; first violation {violations[0]}" if violations else ""),
    )


def _strip_unit_coefficient(e):
    if type(e) is Node:
        left = _strip_unit_coefficient(e.left)
        right = _strip_unit_coefficient(e.right)
        if e.op == "*" and left == Const(1) and type(right) is Var:
            return right
        return Node(e.op, left, right)
    return e


def test_02_algebraic_laws_over_all_indices_of_200_equations():
    rng = random.Random(77)
    equations = []
    while len(equations) < 200:
        e = random_instance(rng)
        equations.append(e)
        for _ in range(8):  # add one rewritten variant for structural variety
            name = rng.choice(PRIM_NAMES)
            i = rng.randrange(node_count(e))
            try:
                equations.append(apply_primitive(name, e, i))
                break
            except PrimitiveError:
                continue
    equations = equations[:200]

    checks = {"swap": 0, "rotate": 0, "dist": 0, "simplify": 0}
    violations = []
    for e in equations:
        for i in range(node_count(e)):
            try:
                s = apply_primitive("swap", e, i)
            except PrimitiveError:
                pass
            else:
                checks["swap"] += 1
                if apply_primitive("swap", s, i) != e:
                    violations.append(("swap", render_prefix(e), i))
            try:
                r = apply_primitive("rrotate", e, i)
            except PrimitiveError:
                pass
            else:
                checks["rotate"] += 1
                if apply_primitive("lrotate", r, i) != e:
                    violations.append(("rotate", render_prefix(e), i))
            try:
                d = apply_primitive("dist", e, i)
            except PrimitiveError:
                pass
            else:
                checks["dist"] += 1
                back = apply_primitive("revdist", d, i)
                if _strip_unit_coefficient(back) != _strip_unit_coefficient(e):
                    violations.append(("dist", render_prefix(e), i))
            try:
                once = apply_primitive("simplify", e, i)
            except PrimitiveError:
                pass
            else:
                checks["simplify"] += 1
                if apply_primitive("simplify", once, i) != once:
                    violations.append(("simplify", render_prefix(e), i))
    report(
        "algebraic laws: swap/rotate inverses, dist round-trip, simplify idempotent",
        not violations and all(n > 0 for n in checks.values()),
        ", ".join(f"{k}:{n}" for k, n in sorted(checks.items()))
        + (f"; first violation {violations[0]}" if violations else ""),
    )


def test_03_metric_oracle_and_self_score():
    f_concise = solution_cost_f(concise_solution())
    c = c_score(concise_solution(), verbose_solution())
    rng = random.Random(31)
    self_scores_zero = True
    for _ in range(50):
        states = tuple(random_instance(rng) for _ in range(rng.randint(2, 6)))
        s = Solution("t/0", states)
        if c_score(s, s) != 0:
            self_scores_zero = False
    report(
        "metric oracle: concise trace costs 8, C-score vs 16-step trace is 2/3, self-score 0",
        f_concise == 8 and c > 0 and c == Fraction(2, 3) and self_scores_zero,
        f"f={f_concise}, C={c}",
    )


def _random_corpus(rng: random.Random) -> list:
    """2-5 small chain programs, most sharing a sampled tail motif, the way
    real solution corpora share common suffixes; sizes stay within the
    brute-force oracle's bounds."""
    prims = ["sub", "add", "div", "swap", "rrotate", "simplify", "mult"]
    tail = "$0"
    for _ in range(rng.randint(1, 2)):
        tail = f"({rng.choice(prims)} {tail} {rng.randint(0, 6)})"
    programs = []
    for i in range(rng.randint(2, 5)):
        body = tail if rng.random() < 0.7 else "$0"
        if rng.random() < 0.5:
            body = f"({rng.choice(prims)} {body} {rng.randint(0, 6)})"
        programs.append((f"t{i}", parse_program(f"(lambda {body})")))
    return programs


def test_04_compression_matches_brute_force_oracle_on_25_corpora():
    rng = random.Random(100)
    probe_inputs = [
        parse_prefix("(= (+ (* 3 x) 1) 5)"),
        parse_prefix("(= (* 2 x) 6)"),
        parse_prefix("(= (- x 4) 2)"),
    ]
    t0 = time.monotonic()
    mismatches = []
    positive = 0
    for trial in range(25):
        corpus = _random_corpus(rng)
        pattern, u, _ = best_pattern(corpus, max_pattern_nodes=7)
        _, oracle_u = exhaustive_oracle(corpus)
        if u != oracle_u:
            mismatches.append((trial, u, oracle_u))
            continue
        if u <= 0:
            continue
        positive += 1
        rewritten = rewrite_with_abstraction(pattern, corpus)
        before = sum(program_cost(p) for _, p in corpus)
        after = sum(program_cost(p) for _, p in rewritten)
        if after >= before:
            mismatches.append((trial, "cost did not decrease"))
        for (_, orig), (_, new) in zip(corpus, rewritten):
            for e in probe_inputs:
                try:
                    expected = ("ok", evaluate(orig, e)[0])
                except Exception:
                    expected = ("raises", None)
                try:
                    got = ("ok", evaluate(new, e)[0])
                except Exception:
                    got = ("raises", None)
                if expected != got:
                    mismatches.append((trial, "evaluation changed"))
    elapsed = time.monotonic() - t0
    report(
        "compression: round-1 utility equals brute-force argmax on 25 corpora,"
        " positive rewrites shrink cost and preserve behavior",
        not mismatches and positive >= 5 and elapsed < 120.0,
        f"{positive} corpora with positive utility, {elapsed:.1f}s"
        + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


def _three_grammars():
    uniform = Library.initial()
    fitted = fit_grammar(
        Library.initial(),
        [parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))")] * 4
        + [parse_program("(lambda (div (swap $0 1) 5))")] * 2,
    )
    with_abstraction = Library.initial()
    a = with_abstraction.add_abstraction(
        parse_program("(lambda (simplify (rrotate $0 1) 0))")
    )
    with_abstraction = fit_grammar(
        with_abstraction,
        [parse_program(f"(lambda ({a.name} (sub $0 3)))", lib=[a])] * 3,
    )
    return [uniform, fitted, with_abstraction]


def _chain_states(monkeypatch, lib, task, budget):
    """(state, log prior) of every node the chain search creates, in
    creation order."""
    created = []

    class RecordingNode(enumerator._ChainNode):
        __slots__ = ()

        def __init__(self, eq, logp, *rest):
            super().__init__(eq, logp, *rest)
            created.append((render_prefix(eq), logp))

    with monkeypatch.context() as m:
        m.setattr(enumerator, "_ChainNode", RecordingNode)
        solve_task_with_stats(task, lib, budget, k=1_000_000)
    return created


def test_05_enumeration_order_is_monotone_and_deterministic(monkeypatch):
    eq = parse_prefix("(= (+ (* 3 x) 1) 5)")
    task = Task("t/0", "t", eq, Fraction(4, 3))
    budget = SearchBudget(max_expansions=30_000, wall_timeout=600.0)
    ok = True
    detail = []
    for idx, lib in enumerate(_three_grammars()):
        runs = [_chain_states(monkeypatch, lib, task, budget) for _ in range(2)]
        logps = [logp for _, logp in runs[0]]
        monotone = all(a >= b for a, b in zip(logps, logps[1:]))
        identical = runs[0] == runs[1]
        complete = len(runs[0]) >= 10_000
        ok = ok and monotone and identical and complete
        detail.append(f"grammar {idx}: {len(runs[0])} states"
                      f"{'' if monotone else ' NOT MONOTONE'}"
                      f"{'' if identical else ' NONDETERMINISTIC'}")
    report(
        "enumeration: chain-search states created in non-increasing log-prior"
        " order, at least 10k per grammar x 3 grammars, identical across runs",
        ok,
        "; ".join(detail),
    )


def test_08_same_seed_training_runs_are_byte_identical(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert (
        main(
            [
                "gen",
                "--seed", "3",
                "--templates", "6",
                "--shapes", "x_plus_b,x_minus_b",
                "--out", str(corpus_dir),
            ]
        )
        == 0
    )
    seed_lib = tmp_path / "seed.json"
    lib = fit_grammar(
        Library.initial(),
        [parse_program("(lambda (simplify (rrotate (sub $0 3) 1) 0))")] * 3
        + [parse_program("(lambda (simplify (rrotate (add $0 3) 1) 0))")] * 3,
    )
    save_checkpoint(str(seed_lib), lib)

    for run in ("a", "b"):
        rc = main(
            [
                "train",
                "--train", str(corpus_dir / "train.jsonl"),
                "--test", str(corpus_dir / "test.jsonl"),
                "--library", str(seed_lib),
                "--seed", "9",
                "--iterations", "2",
                "--eval-every", "2",
                "--budget-expansions", "80000",
                "--timeout-secs", "300",
                "--patience", "8000",
                "--k-programs", "3",
                "--probes", "1",
                "--out", str(tmp_path / run),
            ]
        )
        assert rc == 0
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    differing = [
        n
        for n in names_a
        if (tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()
    ]
    report(
        "determinism: same-seed training rerun yields byte-identical checkpoints and reports",
        names_a == names_b and not differing and len(names_a) >= 5,
        f"{len(names_a)} artifacts compared"
        + (f"; differing: {differing}" if differing else ""),
    )


# --- scaled end-to-end run -------------------------------------------------


@pytest.fixture(scope="module")
def scale_run():
    train, test = generate_corpus(11, n_templates=30)
    config = RunConfig(
        seed=11,
        iterations=5,
        eval_every=3,
        budget=SearchBudget(max_expansions=1_000_000, wall_timeout=1800.0),
        patience=50_000,
        k_programs=6,
    )
    t0 = time.monotonic()
    result = run_training_loop(train, test, Library.initial(), config)
    return train, test, result, time.monotonic() - t0


@pytest.mark.slow
def test_06_corpus_covers_required_shapes(scale_run):
    train, test, _, _ = scale_run
    shapes = {template_shape(t.template_id) for t in train + test}
    report(
        "scaled run: 30 templates spanning at least 8 shapes including the"
        " two-coefficient collect and reciprocal shapes",
        len(train) + len(test) == 30
        and len(shapes) >= 8
        and {"collect_two_x", "a_over_x_plus_b"} <= shapes,
        f"{len(shapes)} shapes over {len(train)}+{len(test)} templates",
    )


@pytest.mark.slow
def test_06a_training_accuracy(scale_run):
    _, _, result, _ = scale_run
    rate = result.curve[-1]["train_rate"]
    report("scaled run: training accuracy >= 0.80", rate >= 0.80, f"{rate:.3f}")


@pytest.mark.slow
def test_06b_heldout_accuracy(scale_run):
    _, _, result, _ = scale_run
    rate = result.curve[-1]["test_rate"]
    report("scaled run: held-out accuracy >= 0.70", rate >= 0.70, f"{rate:.3f}")


def _abstraction_names(term):
    if type(term) is AbsRef:
        return {term.abstraction.name}
    if type(term) is Lambda:
        return _abstraction_names(term.body)
    if type(term) is Apply:
        return _abstraction_names(term.fn) | _abstraction_names(term.arg)
    return set()


@pytest.mark.slow
def test_06c_abstraction_reuse(scale_run):
    _, _, result, _ = scale_run
    counts = {}
    for bp in result.best.values():
        for name in _abstraction_names(bp.program):
            counts[name] = counts.get(name, 0) + 1
    most = max(counts.values(), default=0)
    report(
        "scaled run: at least one abstraction reused in >= 2 task solutions",
        most >= 2,
        f"max reuse {most} across {len(counts)} abstractions",
    )


@pytest.mark.slow
def test_06d_conciseness_does_not_regress(scale_run):
    # compared over the tasks already solved at iteration 1, so the measure
    # is not skewed by harder tasks entering the solved set later
    _, _, result, _ = scale_run
    first, last = result.curve[0]["dedup_f"], result.curve[-1]["dedup_f"]
    early_solved = sorted(first)
    mean_first = Fraction(sum(first[t] for t in early_solved), len(early_solved))
    mean_last = Fraction(sum(last[t] for t in early_solved), len(early_solved))
    report(
        "scaled run: mean de-duplicated f at iteration 5 <= iteration 1 on"
        " the iteration-1 solved set",
        mean_last <= mean_first and len(early_solved) > 0,
        f"{mean_first} -> {mean_last} over {len(early_solved)} tasks",
    )


@pytest.mark.slow
def test_06_runtime(scale_run):
    _, _, _, elapsed = scale_run
    report("scaled run: completes in under 30 minutes", elapsed < 1800.0, f"{elapsed:.0f}s")


@pytest.mark.slow
def test_07_every_solved_task_generalizes_to_20_reinstantiations(scale_run):
    _, _, result, _ = scale_run
    failures = []
    total = 0
    for task_id in sorted(result.best):
        task = result.tasks[task_id]
        program = result.best[task_id].program
        rng = random.Random(zlib.crc32(task_id.encode()) ^ 777)
        for j in range(20):
            probe = reinstantiate(task, rng, instance=j + 1)
            total += 1
            try:
                out, _ = evaluate(program, probe.input)
            except Exception:
                failures.append((task_id, render_prefix(probe.input), "raised"))
                continue
            if check_solved(out) != probe.goal:
                failures.append((task_id, render_prefix(probe.input), "wrong"))
    report(
        "template generalization: every solved task's program solves 20 fresh"
        " re-instantiations",
        not failures and total == 20 * len(result.best),
        f"{total} probes over {len(result.best)} tasks"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
