"""Wake/sleep training: solve tasks, compress solutions, refit weights.

Each iteration solves every training task under the current library, keeps
per task the best generalizing program (checked on fresh re-instantiations
of the same template), compresses the accumulated solutions into new
abstractions, rewrites stored solutions to use them, and refits production
weights on the rewritten corpus.  Held-out tasks are evaluated on a fixed
cadence and never feed back into learning.

Determinism: solver order, probe RNGs (crc32 of task id xor seed),
compression tie-breaks, and fit are all deterministic, so reruns with one
seed produce byte-identical checkpoints and curves.
"""

from __future__ import annotations

import logging
import os
import random
import zlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .compression import compress_detailed
from .corpus import reinstantiate, save_checkpoint, write_json
from .enumerator import SearchBudget, Task, solve_task_with_stats
from .equations import EquationError, check_solved
from .grammar import Library, fit_grammar
from .metric import dedup_steps, extract_steps, solution_cost_f
from .primitives import PrimitiveError
from .programs import (
    AbsRef,
    Apply,
    EvalError,
    Lambda,
    VarRef,
    evaluate,
    map_leaves,
    render_program,
)


log = logging.getLogger(__name__)


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    iterations: int = 5
    eval_every: int = 3
    budget: SearchBudget = field(default_factory=SearchBudget)
    patience: Optional[int] = 25_000
    k_programs: int = 5
    rounds: int = 3
    max_arity: int = 2
    probes: int = 2
    jobs: int = 1
    out_dir: Optional[str] = None

    def __post_init__(self):
        if self.iterations < 0 or self.eval_every < 1 or self.rounds < 1:
            raise TrainingError("iterations >= 0, eval_every and rounds >= 1")
        if self.k_programs < 1 or self.max_arity < 0 or self.probes < 0:
            raise TrainingError("bad config numerics")
        if self.jobs < 1:
            raise TrainingError("jobs must be >= 1")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be >= 0, not {self.patience}")


@dataclass
class BestProgram:
    program: object
    found_iteration: int


FRONTIER_CAP = 8  # variants kept per task for compression support


def _eta_reduce(term):
    """(lambda (f $0)) and f are the same function; store the short form."""
    if (
        type(term) is Lambda
        and type(term.body) is Apply
        and type(term.body.fn) is AbsRef
        and term.body.arg == VarRef(0)
    ):
        return term.body.fn
    return term


def _dedup_frontier(progs: list) -> tuple:
    seen = set()
    out = []
    for p in progs:
        p = _eta_reduce(p)
        key = render_program(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
        if len(out) == FRONTIER_CAP:
            break
    return tuple(out)


@dataclass
class TrainingResult:
    library: Library
    best: dict  # task_id -> BestProgram
    curve: list
    evals: dict  # iteration -> {task_id: program render}
    tasks: dict  # task_id -> Task


def _remap_refs(term, lib: Library):
    """Swap AbsRef targets for the library's named twins (equal bodies)."""
    named = {a: a for a in lib.abstractions()}

    def remap(leaf):
        if type(leaf) is AbsRef:
            return AbsRef(named.get(leaf.abstraction, leaf.abstraction))
        return leaf

    return map_leaves(term, remap)


def _probe_rng(task_id: str, seed: int) -> random.Random:
    return random.Random(zlib.crc32(task_id.encode()) ^ seed)


def _passes_probes(program, task: Task, n_probes: int, seed: int) -> bool:
    """A candidate must solve fresh instantiations of its own template."""
    if n_probes == 0:
        return True
    rng = _probe_rng(task.id, seed)
    for i in range(n_probes):
        probe = reinstantiate(task, rng, instance=i + 1)
        try:
            result, _ = evaluate(program, probe.input)
        except (EvalError, PrimitiveError, EquationError):
            return False
        if check_solved(result) != probe.goal:
            return False
    return True


def _solve_one(args):
    task, lib, budget, k, patience = args
    found, stats = solve_task_with_stats(task, lib, budget, k=k, patience=patience)
    return task.id, found, stats


def _start_pool(workers: int):
    """A process pool of ``workers``.  Its module is imported here, not at
    load, since only a wake with two workers or more starts one."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _wake(tasks, lib, config: RunConfig):
    jobs = [(t, lib, config.budget, config.k_programs, config.patience) for t in tasks]
    # a pool costs more to start than it saves on a single task
    workers = min(config.jobs, len(jobs))
    if workers <= 1:
        results = [_solve_one(j) for j in jobs]
    else:
        futures = []
        try:
            with _start_pool(workers) as pool:
                for job in jobs:
                    futures.append(pool.submit(_solve_one, job))
                results = [future.result() for future in futures]
        except BrokenExecutor as err:
            # a broken pool fails every search it had not finished and
            # takes no task after it broke
            unfinished = [
                t.id
                for i, t in enumerate(tasks)
                if i >= len(futures) or futures[i].exception() is not None
            ]
            raise TrainingError(
                f"a wake worker died with tasks {', '.join(unfinished)} unfinished: {err}"
            ) from err
    for task_id, _found, stats in results:
        if stats["stop"] == "timeout":
            log.warning(
                "search for task %s hit the wall timeout after %d expansions",
                task_id,
                stats["expansions"],
            )
    return {task_id: (found, stats) for task_id, found, stats in results}


def _mean_dedup_f(best: dict, tasks: dict) -> tuple:
    """(mean as Fraction or None, per-task map)."""
    per_task = {}
    for task_id in sorted(best):
        sol = extract_steps(best[task_id].program, tasks[task_id].input, task_id=task_id)
        per_task[task_id] = solution_cost_f(dedup_steps(sol))
    if not per_task:
        return None, per_task
    return Fraction(sum(per_task.values()), len(per_task)), per_task


def run_training_loop(
    train_tasks: list,
    test_tasks: list,
    lib: Library,
    config: RunConfig,
) -> TrainingResult:
    tasks = {}
    for t in [*train_tasks, *test_tasks]:
        if tasks.setdefault(t.id, t) != t:
            raise TrainingError(f"task id {t.id!r} names two different tasks")
    best: dict = {}
    frontiers: dict = {}  # task_id -> tuple of candidate programs
    curve: list = []
    evals: dict = {}

    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        save_checkpoint(os.path.join(config.out_dir, "checkpoint-00.json"), lib)

    for it in range(1, config.iterations + 1):
        wake = _wake(train_tasks, lib, config)
        expansions = sum(stats["expansions"] for _, stats in wake.values())
        newly = 0
        for task in train_tasks:
            found, _stats = wake[task.id]
            if found:
                # old entries first: early raw solution chains are the
                # support for shared fragments and must survive the cap
                merged = list(frontiers.get(task.id, ())) + [t for t, _ in found]
                frontiers[task.id] = _dedup_frontier(merged)
            chosen = None
            for term, logp in found:
                if _passes_probes(term, task, config.probes, config.seed):
                    chosen = (term, logp)
                    break
            if chosen is None:
                continue
            term = _eta_reduce(chosen[0])
            if task.id not in best:
                best[task.id] = BestProgram(term, it)
                newly += 1
            elif lib.log_prior(term) > lib.log_prior(best[task.id].program):
                best[task.id] = BestProgram(term, it)

        # the compression corpus is the whole frontier: variant routes give
        # shared fragments support that single best programs would hide.
        # frontiers themselves stay in as-found form so that support is
        # not erased by rewriting; already-learned patterns are skipped
        corpus = []
        best_pos = {}
        for task_id in sorted(frontiers):
            for p in frontiers[task_id]:
                if task_id in best and p == best[task_id].program:
                    best_pos[task_id] = len(corpus)
                corpus.append((task_id, p))
        new_abstractions = []
        rounds_info = []
        if corpus:
            abstractions, rounds_info, rewritten = compress_detailed(
                corpus,
                rounds=config.rounds,
                max_arity=config.max_arity,
                known=set(lib.abstractions()),
            )
            for a in abstractions:
                body = _remap_refs(a.body, lib)
                named = lib.add_abstraction(body, origin_iteration=it)
                new_abstractions.append(named)
            for task_id, pos in best_pos.items():
                best[task_id] = replace(
                    best[task_id], program=_remap_refs(rewritten[pos][1], lib)
                )
            lib = fit_grammar(lib, [best[t].program for t in sorted(best)])
            lib.iteration = it

        mean_f, per_task_f = _mean_dedup_f(best, tasks)
        entry = {
            "iteration": it,
            "train_solved": len(best),
            "train_total": len(train_tasks),
            "train_rate": len(best) / len(train_tasks) if train_tasks else 0.0,
            "newly_solved": newly,
            "expansions": expansions,
            "new_abstractions": [a.name for a in new_abstractions],
            "library_size": len(lib.abstractions()),
            "mean_dedup_f": None if mean_f is None else str(mean_f),
            "dedup_f": per_task_f,
            "round_utilities": [r.eq3_utility for r in rounds_info],
        }

        if it % config.eval_every == 0 or it == config.iterations:
            solved_test = evaluate_tasks(test_tasks, lib, config)
            evals[it] = solved_test
            entry["test_solved"] = len(solved_test)
            entry["test_total"] = len(test_tasks)
            entry["test_rate"] = (
                len(solved_test) / len(test_tasks) if test_tasks else 0.0
            )
        curve.append(entry)

        if config.out_dir:
            save_checkpoint(
                os.path.join(config.out_dir, f"checkpoint-{it:02d}.json"), lib
            )

    if config.out_dir:
        save_checkpoint(os.path.join(config.out_dir, "library.json"), lib)
        write_json(os.path.join(config.out_dir, "curve.json"), curve)

    return TrainingResult(lib, best, curve, evals, tasks)


def evaluate_tasks(tasks: list, lib: Library, config: RunConfig) -> dict:
    """Solve without learning; returns task_id -> program render."""
    wake = _wake(tasks, lib, config)
    solved = {}
    for task in tasks:
        found, _ = wake[task.id]
        for term, _logp in found:
            if _passes_probes(term, task, config.probes, config.seed):
                solved[task.id] = render_program(term, named=True)
                break
    return solved
