"""Conciseness scoring for step-by-step solutions.

A solution is an ordered list of equation states.  Its cost f sums, over
consecutive state pairs, the larger of the two side-size changes, floored
at 1 so stalling steps still count.  The C-score of a target solution
against a baseline for the same task is (f_B - f_A) / f_B, kept exact as a
Fraction; positive means the target is more concise.  Means are taken only
over tasks both systems solved and where the score is defined (f_B > 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .equations import Equation, is_equation, node_count
from .programs import Term, evaluate

class MetricError(Exception):
    pass


@dataclass(frozen=True)
class Solution:
    task_id: str
    states: tuple

    def __post_init__(self):
        if len(self.states) < 1:
            raise MetricError("solution needs at least one state")


def _side_sizes(state: Equation) -> tuple[int, int]:
    if not is_equation(state):
        raise MetricError("state is not an equation")
    return node_count(state.left), node_count(state.right)


def solution_cost_f(s: Solution) -> int:
    sizes = [_side_sizes(st) for st in s.states]
    total = 0
    for (l0, r0), (l1, r1) in zip(sizes, sizes[1:]):
        total += max(abs(l0 - l1), abs(r0 - r1), 1)
    return total


def c_score(target: Solution, baseline: Solution) -> Fraction:
    if target.task_id != baseline.task_id:
        raise MetricError(
            f"task mismatch: {target.task_id!r} vs {baseline.task_id!r}"
        )
    f_b = solution_cost_f(baseline)
    if f_b == 0:
        raise MetricError("undefined C-score: baseline has cost 0")
    f_a = solution_cost_f(target)
    return Fraction(f_b - f_a, f_b)


@dataclass
class MetricReport:
    f_target: dict = field(default_factory=dict)
    f_baseline: dict = field(default_factory=dict)
    c_scores: dict = field(default_factory=dict)  # task_id -> Fraction
    mean: Optional[Fraction] = None
    n_target_solved: int = 0
    n_baseline_solved: int = 0
    n_intersection: int = 0
    undefined_tasks: tuple = ()


def mean_c_score(targets: dict, baselines: dict) -> tuple[Optional[Fraction], MetricReport]:
    """Average C-score over tasks solved by both systems.

    Tasks with a zero-cost baseline are excluded and listed in the report;
    an empty (or fully excluded) intersection leaves the mean undefined.
    """
    report = MetricReport(
        n_target_solved=len(targets),
        n_baseline_solved=len(baselines),
    )
    shared = sorted(set(targets) & set(baselines))
    report.n_intersection = len(shared)
    undefined = []
    scores = {}
    for task_id in shared:
        t, b = targets[task_id], baselines[task_id]
        report.f_target[task_id] = solution_cost_f(t)
        report.f_baseline[task_id] = solution_cost_f(b)
        if report.f_baseline[task_id] == 0:
            undefined.append(task_id)
            continue
        scores[task_id] = c_score(t, b)
    report.undefined_tasks = tuple(undefined)
    report.c_scores = scores
    if scores:
        report.mean = sum(scores.values(), Fraction(0)) / len(scores)
    return report.mean, report


def extract_steps(
    p: Term,
    input_equation: Equation,
    lib=None,
    task_id: str = "",
) -> Solution:
    """The states ``p`` passes through on ``input_equation``.  ``lib`` is
    accepted for callers that pass one; a program holds its abstractions."""
    _, states = evaluate(p, input_equation, trace=True)
    return Solution(task_id, tuple(states))


def dedup_steps(s: Solution) -> Solution:
    states = [s.states[0]]
    for st in s.states[1:]:
        if st != states[-1]:
            states.append(st)
    return Solution(s.task_id, tuple(states))
