"""Output checks that rest on properties of the method, not on saved output.

The exact evaluator and the solved-form test below are written here, apart
from ``mathsynth.equations``, so that a fault in the program's own
evaluator cannot hide a wrong answer.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mathsynth.corpus import reinstantiate
from mathsynth.equations import Const, Node, Var
from mathsynth.programs import ProgramError, evaluate, infer_type

LOG_PRIOR_TOLERANCE = 1e-9
FRESH_INSTANCES = 20

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,  # Fraction raises ZeroDivisionError on 0
}


def value_at(e, x: Fraction) -> Fraction:
    """Exact value of an '='-free expression tree at ``x``."""
    if type(e) is Const:
        return Fraction(e.value)
    if type(e) is Var:
        return x
    return _ARITH[e.op](value_at(e.left, x), value_at(e.right, x))


def satisfied(eq, x: Fraction) -> bool:
    """Both sides defined at ``x`` and equal."""
    if type(eq) is not Node or eq.op != "=":
        return False
    try:
        return value_at(eq.left, x) == value_at(eq.right, x)
    except (ZeroDivisionError, KeyError):
        return False


def solved_value(eq):
    """The value a solved-form equation shows, else None.  Solved form: one
    side is x, the other an integer or p/q with q >= 2 in lowest terms."""
    if type(eq) is not Node or eq.op != "=":
        return None
    if type(eq.left) is Var:
        other = eq.right
    elif type(eq.right) is Var:
        other = eq.left
    else:
        return None
    if type(other) is Const:
        return Fraction(other.value)
    if (
        type(other) is Node
        and other.op == "/"
        and type(other.left) is Const
        and type(other.right) is Const
        and other.right.value >= 2
        and math.gcd(other.left.value, other.right.value) == 1
    ):
        return Fraction(other.left.value, other.right.value)
    return None


def program_error(program, task):
    """None if ``program`` solves ``task``, else why not.

    The replay goes through ``programs.evaluate``; its final state must be
    in solved form, show the task's goal, and that value must satisfy the
    original equation and every intermediate state, since primitives
    preserve meaning.
    """
    try:
        _result, states = evaluate(program, task.input, trace=True)
    except Exception as ex:  # any escape is a failed operation, not a crash
        return f"replay raised {type(ex).__name__}: {ex}"
    x = solved_value(states[-1])
    if x is None:
        return "final state is not in solved form"
    if x != task.goal:
        return f"shows {x}, goal is {task.goal}"
    for i, state in enumerate(states):
        if not satisfied(state, x):
            return f"state {i} of {len(states)} is not satisfied by x = {x}"
    return None


def search_errors(op) -> list:
    """Checks on one search: its budget, k, prior order and every program."""
    errors = []
    stats, found = op["stats"], op["found"]
    if stats["expansions"] > op["budget"].max_expansions:
        errors.append(f"{stats['expansions']} expansions over the budget")
    if stats["solutions"] > op["k"] or stats["solutions"] != len(found):
        errors.append(f"solutions {stats['solutions']} for {len(found)} programs, k {op['k']}")
    logps = [logp for _program, logp in found]
    if any(a < b for a, b in zip(logps, logps[1:])):
        errors.append(f"log-priors increase: {logps}")
    for program, logp in found:
        prior = op["lib"].log_prior(program)
        if abs(prior - logp) > LOG_PRIOR_TOLERANCE:
            errors.append(f"returned log-prior {logp} but Library.log_prior gives {prior}")
        why = program_error(program, op["task"])
        if why:
            errors.append(why)
    return errors


def fresh_instance_error(program, task, seed: int):
    """A stored best program must solve fresh instantiations of its
    template, drawn from a seed the training loop never uses (it seeds
    its probes with integers; this seed is a string)."""
    rng = random.Random(f"fresh-instances/{seed}/{task.id}")
    for i in range(1, FRESH_INSTANCES + 1):
        probe = reinstantiate(task, rng, instance=1000 + i)
        why = program_error(program, probe)
        if why:
            return f"fresh instance {probe.input!r}: {why}"
    return None


def abstraction_errors(lib) -> list:
    errors = []
    for a in lib.abstractions():
        try:
            infer_type(a.body)
        except ProgramError as ex:
            errors.append(f"{a.name} does not type: {ex}")
    return errors


def corpus_errors(tasks) -> list:
    return [
        f"goal {t.goal} of {t.id} does not satisfy its equation"
        for t in tasks
        if not satisfied(t.input, t.goal)
    ]
