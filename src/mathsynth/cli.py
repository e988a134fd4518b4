"""Command-line front end: generate, train, solve, score, compare, inspect.

Every subcommand prints an aligned text table and, with --out, writes a
JSON twin of the same data.  All writes are atomic, so a failing run never
leaves a partial file behind.  Exit code 0 means every requested task was
processed without a module error; unsolved tasks are reported, not fatal.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .compression import CompressionError
from .corpus import (
    CorpusError,
    SHAPE_FAMILY,
    generate_corpus,
    load_checkpoint,
    load_corpus,
    load_solutions,
    save_solutions,
    save_tasks,
    write_json,
)
from .enumerator import SearchBudget, solve_task_with_stats
from .equations import EquationError
from .grammar import GrammarError, Library
from .metric import (
    MetricError,
    PROGRAM_TRACE,
    dedup_steps,
    extract_steps,
    mean_c_score,
    solution_cost_f,
)
from .primitives import PrimitiveError
from .programs import EvalError, ProgramError, render_program
from .training import RunConfig, TrainingError, run_training_loop

log = logging.getLogger("mathsynth")

_ERRORS = (
    CompressionError,
    CorpusError,
    EquationError,
    EvalError,
    GrammarError,
    MetricError,
    PrimitiveError,
    ProgramError,
    TrainingError,
    OSError,
    json.JSONDecodeError,
    ValueError,
)


def _table(headers: list, rows: list) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_expansions=args.budget_expansions,
        wall_timeout=args.timeout_secs,
    )


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget-expansions", type=int, default=200_000)
    p.add_argument("--timeout-secs", type=float, default=600.0)


def cmd_gen(args) -> int:
    shapes = args.shapes.split(",") if args.shapes else None
    train, test = generate_corpus(
        args.seed, args.templates, shapes, args.train_fraction
    )
    os.makedirs(args.out, exist_ok=True)
    save_tasks(os.path.join(args.out, "train.jsonl"), train)
    save_tasks(os.path.join(args.out, "test.jsonl"), test)
    print(
        _table(
            ["file", "tasks", "templates"],
            [
                ["train.jsonl", len(train), len({t.template_id for t in train})],
                ["test.jsonl", len(test), len({t.template_id for t in test})],
            ],
        )
    )
    log.info("wrote corpus to %s", args.out)
    return 0


def cmd_train(args) -> int:
    train = load_corpus(args.train)
    test = load_corpus(args.test) if args.test else []
    lib = load_checkpoint(args.library) if args.library else Library.initial()
    config = RunConfig(
        seed=args.seed,
        iterations=args.iterations,
        eval_every=args.eval_every,
        budget=_budget(args),
        patience=args.patience,
        k_programs=args.k_programs,
        rounds=args.rounds,
        max_arity=args.max_arity,
        probes=args.probes,
        jobs=args.jobs,
        out_dir=args.out,
    )
    result = run_training_loop(train, test, lib, config)

    rows = []
    for e in result.curve:
        rows.append(
            [
                e["iteration"],
                f'{e["train_solved"]}/{e["train_total"]}',
                f'{e["test_solved"]}/{e["test_total"]}' if "test_solved" in e else "-",
                e["library_size"],
                ",".join(e["new_abstractions"]) or "-",
                e["mean_dedup_f"] or "-",
            ]
        )
    print(_table(["iter", "train", "test", "lib", "new", "mean f"], rows))

    solutions, programs = {}, {}
    for task_id in sorted(result.best):
        prog = result.best[task_id].program
        task = result.tasks[task_id]
        solutions[task_id] = extract_steps(prog, task.input, task_id=task_id)
        programs[task_id] = render_program(prog, named=True)
    if args.out:
        save_solutions(
            os.path.join(args.out, "solutions.json"), solutions, programs
        )
        log.info("wrote checkpoints, curve and solutions to %s", args.out)
    return 0


def cmd_solve(args) -> int:
    tasks = load_corpus(args.tasks)
    lib = load_checkpoint(args.library) if args.library else Library.initial()
    budget = _budget(args)
    solutions, programs, rows = {}, {}, []
    for task in tasks:
        found, stats = solve_task_with_stats(task, lib, budget, k=1)
        if stats["stop"] == "timeout":
            log.warning(
                "search for task %s hit the wall timeout after %d expansions",
                task.id,
                stats["expansions"],
            )
        if found:
            prog = found[0][0]
            sol = extract_steps(prog, task.input, lib=lib, task_id=task.id)
            steps = dedup_steps(sol) if args.dedup else sol
            solutions[task.id] = steps
            programs[task.id] = render_program(prog, named=True)
            rows.append(
                [task.id, programs[task.id], solution_cost_f(steps), stats["expansions"]]
            )
        else:
            rows.append([task.id, "-", "-", stats["expansions"]])
    print(_table(["task", "program", "f", "expansions"], rows))
    print(f"solved {len(solutions)}/{len(tasks)}")
    if args.out:
        save_solutions(args.out, solutions, programs)
    return 0


def cmd_score(args) -> int:
    solutions = load_solutions(args.solutions)
    rows, data = [], {}
    for task_id in sorted(solutions):
        sol = solutions[task_id]
        raw = solution_cost_f(sol)
        ded = solution_cost_f(dedup_steps(sol))
        rows.append([task_id, len(sol.states), raw, ded])
        data[task_id] = {"steps": len(sol.states), "f_raw": raw, "f_dedup": ded}
    print(_table(["task", "steps", "f raw", "f dedup"], rows))
    if args.out:
        write_json(args.out, data)
    return 0


def _report_rows(report) -> list:
    return [
        ["solved (target)", report.n_target_solved],
        ["solved (baseline)", report.n_baseline_solved],
        ["intersection", report.n_intersection],
        ["undefined (f_B = 0)", ",".join(report.undefined_tasks) or "-"],
        ["mean C-score", "-" if report.mean is None else str(report.mean)],
    ]


def _report_json(report) -> dict:
    return {
        "n_target_solved": report.n_target_solved,
        "n_baseline_solved": report.n_baseline_solved,
        "n_intersection": report.n_intersection,
        "undefined_tasks": list(report.undefined_tasks),
        "c_scores": {t: str(c) for t, c in report.c_scores.items()},
        "mean_c_score": None if report.mean is None else str(report.mean),
    }


def cmd_compare(args) -> int:
    target = load_solutions(args.target, source=PROGRAM_TRACE)
    baseline = load_solutions(args.baseline)
    _, raw = mean_c_score(target, baseline)
    ded_t = {t: dedup_steps(s) for t, s in target.items()}
    ded_b = {t: dedup_steps(s) for t, s in baseline.items()}
    _, ded = mean_c_score(ded_t, ded_b)
    print("raw steps:")
    print(_table(["quantity", "value"], _report_rows(raw)))
    print("\nde-duplicated steps:")
    print(_table(["quantity", "value"], _report_rows(ded)))
    if args.out:
        write_json(args.out, {"raw": _report_json(raw), "dedup": _report_json(ded)})
    return 0


def cmd_library(args) -> int:
    lib = load_checkpoint(args.checkpoint)
    abstractions = lib.abstractions()
    if not abstractions:
        print("library has no abstractions (primitives only)")
        return 0
    rows = []
    for a in abstractions:
        rows.append(
            [
                a.name,
                a.arity,
                a.origin_iteration,
                render_program(a.body, named=True),
            ]
        )
    print(_table(["name", "arity", "iter", "body"], rows))
    print("\nexpansions:")
    for a in abstractions:
        print(f"  {a.name} = {render_program(a.body, named=False)}")
    if args.out:
        write_json(
            args.out,
            {
                a.name: {
                    "arity": a.arity,
                    "origin_iteration": a.origin_iteration,
                    "body": render_program(a.body, named=True),
                    "expansion": render_program(a.body, named=False),
                }
                for a in abstractions
            },
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathsynth",
        description="equation-solving program synthesis with library learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a train/test task corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--templates", type=int, default=30)
    p.add_argument(
        "--shapes", default=None, help=f"comma list from: {','.join(SHAPE_FAMILY)}"
    )
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="run the wake/sleep training loop")
    p.add_argument("--train", required=True, help="training task file")
    p.add_argument("--test", default=None, help="held-out task file")
    p.add_argument("--library", default=None, help="starting checkpoint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--eval-every", type=int, default=3)
    _add_budget_flags(p)
    p.add_argument("--patience", type=int, default=25_000)
    p.add_argument("--k-programs", type=int, default=5)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--max-arity", type=int, default=2)
    p.add_argument("--probes", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("solve", help="solve tasks with a fixed library")
    p.add_argument("--tasks", required=True)
    p.add_argument("--library", default=None)
    _add_budget_flags(p)
    p.add_argument("--dedup", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("score", help="conciseness cost f per solution")
    p.add_argument("--solutions", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("compare", help="mean C-score of target vs baseline")
    p.add_argument("--target", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("library", help="inspect a library checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_library)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("MATHSYNTH_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
