"""A worked scoring example: one equation, two solution styles.

The verbose trace rewrites in tiny axiom-level moves (16 states, including
a stalling final repeat); the concise trace jumps straight through collect,
isolate, divide (4 states).  Tests pin the metric against these: raw f of
24 vs 8, and a C-score of 2/3 for concise against verbose.
"""

from mathsynth.equations import parse_equation_infix
from mathsynth.metric import Solution

SAMPLE_TASK_ID = "sample/collect-and-divide"

SAMPLE_EQUATION_PREFIX = "(= (+ (+ 1 (* 2 x)) (* 3 x)) 4)"

VERBOSE_STEPS = (
    "(1 + 2x) + 3x = 4",
    "1 + (2x + 3x) = 4",
    "(1 + (2x + 3x)) - 1 = 4 - 1",
    "((2x + 3x) + 1) - 1 = 4 - 1",
    "((2 + 3)x + 1) - 1 = 4 - 1",
    "(2 + 3)x + (1 - 1) = 4 - 1",
    "5x + (1 - 1) = 4 - 1",
    "5x + 0 = 4 - 1",
    "5x = 4 - 1",
    "x * 5 = 4 - 1",
    "x * 5 = 3",
    "(x * 5) / 5 = 3 / 5",
    "x * (5 / 5) = 3 / 5",
    "x * 1 = 3 / 5",
    "x = 3 / 5",
    "x = 3 / 5",
)

CONCISE_STEPS = (
    "(1 + 2x) + 3x = 4",
    "5x + 1 = 4",
    "5x = 3",
    "x = 3 / 5",
)


def verbose_solution() -> Solution:
    states = tuple(parse_equation_infix(s) for s in VERBOSE_STEPS)
    return Solution(SAMPLE_TASK_ID, states)


def concise_solution() -> Solution:
    states = tuple(parse_equation_infix(s) for s in CONCISE_STEPS)
    return Solution(SAMPLE_TASK_ID, states)
