"""The three workloads: set-up, one round through the ``mathsynth`` command
line (called in-process), and the checks on what the round produced.

A round is one closed-loop run of the command.  Its operations are the task
searches it makes; capture hooks on a few coarse boundaries (a wake call, a
search called by ``solve``, compression) keep each search's task, library,
budget, programs and stats so they can be checked after the timed call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
from fractions import Fraction

import mathsynth.cli
import mathsynth.training
from mathsynth.corpus import load_corpus, save_tasks
from mathsynth.grammar import Library
from mathsynth.metric import dedup_steps, extract_steps, solution_cost_f

from calibration import speed_factor
from checks import abstraction_errors, fresh_instance_error, search_errors

DEMO_SHAPES = "x_plus_b,x_minus_b,b_plus_x"
DEMO_ITERATIONS = 3  # equal to the CLI's --eval-every, so one held-out evaluation
SOLVE_TEMPLATES = 30
SOLVE_BUDGET = 50_000  # expansions per task; sized for a round of about ten seconds
_FACTOR = "_bench_speed_factor"


def cli(argv) -> int:
    """``mathsynth <argv>`` in this process, its table output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mathsynth.cli.main(argv)


def _snapshot(lib: Library) -> Library:
    # training adds abstractions to the library object it searched with, so
    # keep the productions as they were when the search ran
    return Library(list(lib.productions), lib.var_log_weight, lib.iteration)


class Capture:
    """What the hooks saw during one round."""

    def __init__(self):
        self.ops = []  # one dict per search
        self.wakes = 0
        self.result = None
        self.compress = []  # (corpus programs, candidates scored) per call

    def install(self, patches, test_ids=frozenset(), mark=None):
        """``mark``, if given, is ``calibration.Meter.mark``: called at each
        search and wake boundary of this process.  Searches in pool workers
        measure their own speed and return it in their stats, and the wake
        stretch is closed with the median of those."""
        T, C = mathsynth.training, mathsynth.cli
        pid = os.getpid()

        def boundary():
            if mark is not None:
                mark()

        def wake(fn):
            def hook(tasks, lib, config):
                snapshot = _snapshot(lib)
                boundary()
                results = fn(tasks, lib, config)
                factors = [s.pop(_FACTOR) for _f, s in results.values() if _FACTOR in s]
                if mark is not None:
                    mark(statistics.median(factors) if factors else None)
                held_out = bool(tasks) and tasks[0].id in test_ids
                if not held_out:
                    self.wakes += 1
                for task in tasks:
                    found, stats = results[task.id]
                    self.ops.append(
                        {
                            "key": ("eval" if held_out else "wake", self.wakes, task.id),
                            "task": task,
                            "lib": snapshot,
                            "budget": config.budget,
                            "k": config.k_programs,
                            "found": found,
                            "stats": dict(stats),
                        }
                    )
                return results

            return hook

        def search(fn):
            def hook(task, lib, budget, k=5, patience=None):
                boundary()
                found, stats = fn(task, lib, budget, k, patience)
                self.ops.append(
                    {
                        "key": ("solve", 0, task.id),
                        "task": task,
                        "lib": _snapshot(lib),
                        "budget": budget,
                        "k": k,
                        "found": found,
                        "stats": dict(stats),
                    }
                )
                return found, stats

            return hook

        def marked(fn):
            def hook(*args, **kwargs):
                if os.getpid() == pid:
                    boundary()
                    return fn(*args, **kwargs)
                factor = speed_factor()
                found, stats = fn(*args, **kwargs)
                stats[_FACTOR] = factor
                return found, stats

            return hook

        def training(fn):
            def hook(*args, **kwargs):
                self.result = fn(*args, **kwargs)
                return self.result

            return hook

        def compress(fn):
            def hook(corpus, *args, **kwargs):
                out = fn(corpus, *args, **kwargs)
                self.compress.append((len(corpus), sum(r.candidates_scored for r in out[1])))
                return out

            return hook

        patches.wrap(T, "_wake", wake)
        if mark is not None:
            patches.wrap(T, "solve_task_with_stats", marked)
        patches.wrap(C, "solve_task_with_stats", search)
        patches.wrap(C, "run_training_loop", training)
        patches.wrap(T, "compress_detailed", compress)


class Workload:
    """``corpus_seed`` fixes the task corpus; ``seed`` varies the run's
    other inputs (see each workload)."""

    name = ""
    default_corpus_seed = 1

    def setup(self, corpus_seed: int, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def argv(self, ctx: dict, outdir: str) -> list:
        raise NotImplementedError

    def planned(self, ctx: dict) -> int:
        """Searches one round makes."""
        raise NotImplementedError

    def check(self, ctx: dict, cap: Capture, failed: dict, errors: list) -> tuple:
        """Workload-specific checks.  Adds failed operations to ``failed``
        (key -> reasons) and other faults to ``errors``; returns the number
        of tasks solved by a checked program and the mean de-duplicated f."""
        raise NotImplementedError

    def finish(self, ctx: dict, cap: Capture, rc) -> dict:
        """Check one round's outputs; count its operations and work.

        Searches the round did not reach, because the command stopped
        early, count as failed.
        """
        failed = {}
        for op in cap.ops:
            why = search_errors(op)
            if why:
                failed[op["key"]] = why
        errors = []
        solved, mean_f = self.check(ctx, cap, failed, errors)
        passed = sum(1 for op in cap.ops if op["key"] not in failed)
        attempted = self.planned(ctx)
        failures = [f"{key}: {why}" for key, whys in failed.items() for why in whys]
        if rc != 0:
            failures.append(f"command ended with {rc!r} after {len(cap.ops)} searches")
        return {
            "attempted": attempted,
            "failed": attempted - passed,
            "solved": solved,
            "mean_dedup_f": mean_f,
            "errors": errors,
            "failures": failures,
            "work": {
                "enumerator.searches": len(cap.ops),
                "enumerator.expansions": sum(op["stats"]["expansions"] for op in cap.ops),
                "enumerator.states": sum(op["stats"]["states"] for op in cap.ops),
                "enumerator.solutions": sum(op["stats"]["solutions"] for op in cap.ops),
                "compression.corpus_programs": sum(n for n, _ in cap.compress),
                "compression.candidates_scored": sum(c for _, c in cap.compress),
            },
        }


class TrainDemo(Workload):
    """The README demo: gen over three one-step shapes, then train.  The
    seed is the training seed, which draws the generalization probes."""

    default_corpus_seed = 1

    def __init__(self, name, jobs):
        self.name = name
        self.jobs = jobs

    def setup(self, corpus_seed, seed, workdir):
        corpus = os.path.join(workdir, "corpus")
        rc = cli(
            ["gen", "--seed", str(corpus_seed), "--templates", "6", "--shapes", DEMO_SHAPES,
             "--out", corpus]
        )
        if rc != 0:
            raise RuntimeError(f"mathsynth gen ended with {rc}")
        train = load_corpus(os.path.join(corpus, "train.jsonl"))
        test = load_corpus(os.path.join(corpus, "test.jsonl"))
        return {
            "seed": seed,
            "train_path": os.path.join(corpus, "train.jsonl"),
            "test_path": os.path.join(corpus, "test.jsonl"),
            "tasks": train + test,
            "train": train,
            "test_ids": frozenset(t.id for t in test),
        }

    def argv(self, ctx, outdir):
        return [
            "train", "--train", ctx["train_path"], "--test", ctx["test_path"],
            "--seed", str(ctx["seed"]), "--iterations", str(DEMO_ITERATIONS),
            "--budget-expansions", "300000", "--patience", "30000",
            "--k-programs", "4", "--jobs", str(self.jobs), "--out", outdir,
        ]

    def planned(self, ctx):
        return DEMO_ITERATIONS * len(ctx["train"]) + len(ctx["test_ids"])

    def check(self, ctx, cap, failed, errors):
        result = cap.result
        if result is None:
            return 0, 0.0
        errors.extend(abstraction_errors(result.library))
        solved = 0
        for task_id, best in sorted(result.best.items()):
            why = fresh_instance_error(best.program, result.tasks[task_id], ctx["seed"])
            if why:
                key = ("wake", best.found_iteration, task_id)
                failed.setdefault(key, []).append(f"best program: {why}")
            else:
                solved += 1
        held_out = result.evals[max(result.evals)] if result.evals else {}
        solved += sum(1 for task_id in held_out if ("eval", cap.wakes, task_id) not in failed)
        mean_f = result.curve[-1]["mean_dedup_f"] if result.curve else None
        return solved, float(Fraction(mean_f or 0))


class SolveInitial(Workload):
    """``mathsynth solve`` over the scaled run's corpus under the initial
    library: primitive actions only, and most searches use their budget.
    The seed orders the tasks in the file that ``solve`` reads."""

    name = "solve-initial"
    default_corpus_seed = 11

    def setup(self, corpus_seed, seed, workdir):
        corpus = os.path.join(workdir, "corpus")
        # --train-fraction 1 puts all templates in one file; the split does
        # not change the tasks generated
        rc = cli(
            ["gen", "--seed", str(corpus_seed), "--templates", str(SOLVE_TEMPLATES),
             "--train-fraction", "1", "--out", corpus]
        )
        if rc != 0:
            raise RuntimeError(f"mathsynth gen ended with {rc}")
        tasks = load_corpus(os.path.join(corpus, "train.jsonl"))
        random.Random(seed).shuffle(tasks)
        path = os.path.join(workdir, "tasks.jsonl")
        save_tasks(path, tasks)
        return {"seed": seed, "tasks_path": path, "tasks": tasks, "test_ids": frozenset()}

    def argv(self, ctx, outdir):
        return [
            "solve", "--tasks", ctx["tasks_path"], "--budget-expansions", str(SOLVE_BUDGET),
            "--out", os.path.join(outdir, "solved.json"),
        ]

    def planned(self, ctx):
        return len(ctx["tasks"])

    def check(self, ctx, cap, failed, errors):
        costs = []
        for op in cap.ops:
            if op["found"] and op["key"] not in failed:
                program = op["found"][0][0]
                sol = extract_steps(program, op["task"].input, lib=op["lib"])
                costs.append(solution_cost_f(dedup_steps(sol)))
        return len(costs), (sum(costs) / len(costs) if costs else 0.0)


WORKLOADS = {
    w.name: w
    for w in (
        TrainDemo("train-demo", jobs=1),
        SolveInitial(),
        TrainDemo("train-demo-jobs2", jobs=2),
    )
}
