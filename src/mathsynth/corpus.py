"""Task generation and persistence.

Templates are equation skeletons with integer constant slots (capital
letters in a prefix skeleton).  One instantiation per template, slot values
drawn without replacement from 1..10, so no instantiation degenerates (the
x coefficient never cancels to zero).  Labels come from a small symbolic
solver that reduces each side to a ratio of linear polynomials and
cross-multiplies; it shares no code with the rewrite primitives, so it can
stand as an independent check on them.

File formats: tasks as JSON lines with sorted keys; solutions as a JSON
object mapping task id to a list of step strings (prefix or infix, detected
per line); checkpoints as the library's JSON form.  Writes are atomic
(temp file then rename) and byte-stable for a fixed seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import tempfile
from fractions import Fraction
from typing import Optional

from .equations import (
    Const,
    Equation,
    EquationError,
    Expr,
    Var,
    is_equation,
    parse_equation_infix,
    parse_prefix,
    render_infix,
    render_prefix,
)
from .enumerator import Task
from .grammar import Library
from .metric import INGESTED_BASELINE, Solution


class CorpusError(Exception):
    pass


# shape skeletons; capital letters are constant slots, filled with distinct
# values so coefficients never cancel
SHAPE_FAMILY = {
    "ax_plus_b": "(= (+ (* A x) B) C)",
    "ax_minus_b": "(= (- (* A x) B) C)",
    "b_plus_ax": "(= (+ B (* A x)) C)",
    "c_eq_ax_plus_b": "(= C (+ (* A x) B))",
    "ax_plus_bx": "(= (+ (* A x) (* B x)) C)",
    "a_eq_bx_minus_cx": "(= A (- (* B x) (* C x)))",
    "a_over_x_plus_b": "(= (+ (/ A x) B) C)",
    "a_times_x_plus_b": "(= (* A (+ x B)) C)",
    "collect_two_x": "(= (+ (+ A (* B x)) (* C x)) D)",
    "x_plus_b": "(= (+ x B) C)",
    "x_minus_b": "(= (- x B) C)",
    "b_plus_x": "(= (+ B x) C)",
    "ax": "(= (* A x) C)",
    "c_eq_ax": "(= C (* A x))",
}

SLOT_RANGE = range(1, 11)


def shape_slots(shape: str) -> tuple:
    skeleton = SHAPE_FAMILY[shape]
    return tuple(sorted(set(re.findall(r"[A-Z]", skeleton))))


def instantiate(shape: str, values: dict) -> Equation:
    skeleton = SHAPE_FAMILY[shape]
    text = re.sub(r"[A-Z]", lambda m: str(values[m.group(0)]), skeleton)
    return parse_prefix(text)


# --- goal oracle ---------------------------------------------------------------

# a side is reduced to (p0 + p1*x) / (q0 + q1*x); cross-multiplying the two
# sides gives a polynomial of degree <= 2 whose quadratic term must vanish


class GoalOracle:
    def solve(self, eq: Equation) -> Fraction:
        if not is_equation(eq):
            raise CorpusError("not an equation")
        ln, ld = self._reduce(eq.left)
        rn, rd = self._reduce(eq.right)
        diff = _poly_sub(_poly_mul(ln, rd), _poly_mul(rn, ld))
        c0, c1, c2 = diff
        if c2 != 0:
            raise CorpusError("not linear in x")
        if c1 == 0:
            raise CorpusError(
                "degenerate: no unique solution" if c0 == 0 else "no solution"
            )
        goal = -Fraction(c0, c1)
        for den in (ld, rd):
            if _poly_eval(den, goal) == 0:
                raise CorpusError("solution not in domain")
        return goal

    def _reduce(self, e: Expr) -> tuple:
        """(numerator, denominator) as degree-<=2 coefficient triples."""
        if type(e) is Const:
            return (Fraction(e.value), Fraction(0), Fraction(0)), _ONE
        if type(e) is Var:
            return (Fraction(0), Fraction(1), Fraction(0)), _ONE
        an, ad = self._reduce(e.left)
        bn, bd = self._reduce(e.right)
        if e.op == "+":
            return _poly_add(_poly_mul(an, bd), _poly_mul(bn, ad)), _poly_mul(ad, bd)
        if e.op == "-":
            return _poly_sub(_poly_mul(an, bd), _poly_mul(bn, ad)), _poly_mul(ad, bd)
        if e.op == "*":
            return _poly_mul(an, bn), _poly_mul(ad, bd)
        if e.op == "/":
            if bn == (Fraction(0), Fraction(0), Fraction(0)):
                raise CorpusError("division by zero expression")
            return _poly_mul(an, bd), _poly_mul(ad, bn)
        raise CorpusError(f"unexpected operator {e.op!r}")


_ONE = (Fraction(1), Fraction(0), Fraction(0))


def _poly_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _poly_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _poly_mul(a, b):
    c = [Fraction(0)] * 5
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            c[i + j] += ai * bj
    if c[3] != 0 or c[4] != 0:
        raise CorpusError("degree too high for the linear oracle")
    return (c[0], c[1], c[2])


def _poly_eval(p, v: Fraction) -> Fraction:
    return p[0] + p[1] * v + p[2] * v * v


# --- generation ----------------------------------------------------------------


def make_task(shape: str, index: int, rng: random.Random, instance: int = 0) -> Task:
    oracle = GoalOracle()
    for _ in range(100):
        slots = shape_slots(shape)
        values = dict(zip(slots, rng.sample(SLOT_RANGE, len(slots))))
        eq = instantiate(shape, values)
        try:
            goal = oracle.solve(eq)
        except CorpusError:
            continue  # degenerate draw; resample
        template_id = f"{shape}-{index:03d}"
        return Task(f"{template_id}/{instance}", template_id, eq, goal)
    raise CorpusError(f"could not instantiate shape {shape!r}")


def template_shape(template_id: str) -> str:
    shape = template_id.rsplit("-", 1)[0]
    if shape not in SHAPE_FAMILY:
        raise CorpusError(f"unknown shape in template id {template_id!r}")
    return shape


def reinstantiate(task: Task, rng: random.Random, instance: int) -> Task:
    """Fresh slot values for the same template; used for probes."""
    shape = template_shape(task.template_id)
    index = int(task.template_id.rsplit("-", 1)[1])
    return make_task(shape, index, rng, instance)


def generate_corpus(
    seed: int,
    n_templates: int = 30,
    shapes: Optional[list] = None,
    train_fraction: float = 0.7,
) -> tuple[list, list]:
    """Round-robin over shapes, one instantiation each, shuffled split."""
    if shapes is None:
        shapes = list(SHAPE_FAMILY)
    for s in shapes:
        if s not in SHAPE_FAMILY:
            raise CorpusError(f"unknown shape {s!r}")
    if not 0.0 <= train_fraction <= 1.0:
        raise CorpusError("train_fraction out of range")
    rng = random.Random(seed)
    tasks = [
        make_task(shapes[i % len(shapes)], i, rng) for i in range(n_templates)
    ]
    order = list(range(n_templates))
    rng.shuffle(order)
    n_train = round(n_templates * train_fraction)
    train = [tasks[i] for i in sorted(order[:n_train])]
    test = [tasks[i] for i in sorted(order[n_train:])]
    return train, test


# --- files ---------------------------------------------------------------------


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, data):
    """Atomically write ``data`` as indented JSON with sorted keys."""
    _atomic_write(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def save_tasks(path: str, tasks: list):
    lines = [
        json.dumps(
            {
                "equation": render_prefix(t.input),
                "goal": str(t.goal),
                "id": t.id,
                "template_id": t.template_id,
            },
            sort_keys=True,
        )
        for t in tasks
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def _load_json(text: str, where: str):
    """json.loads; JSON nested too deep for the decoder's recursion is a
    CorpusError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise CorpusError(f"{where}: JSON nests too deeply to decode") from None


# a goal may be written as a number or as a fraction string such as "3/5"
_TASK_FIELDS = {"equation": str, "goal": (str, int), "id": str, "template_id": str}


def load_corpus(path: str) -> list:
    oracle = GoalOracle()
    tasks = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = _load_json(line, f"{path}:{lineno}")
                if not isinstance(rec, dict):
                    raise CorpusError(f"{path}:{lineno}: bad task record: not a JSON object")
                for key, types in _TASK_FIELDS.items():
                    value = rec[key]
                    if not isinstance(value, types) or type(value) is bool:
                        raise CorpusError(
                            f"{path}:{lineno}: bad task record: field {key!r} "
                            f"has a value of type {type(value).__name__}"
                        )
                eq = parse_prefix(rec["equation"])
                goal = Fraction(rec["goal"])
                task = Task(rec["id"], rec["template_id"], eq, goal)
            except (KeyError, ValueError, ZeroDivisionError, EquationError) as ex:
                raise CorpusError(f"{path}:{lineno}: bad task record: {ex}") from ex
            solved = oracle.solve(eq)
            if solved != goal:
                raise CorpusError(
                    f"{path}:{lineno}: declared goal {goal} but oracle finds {solved}"
                )
            tasks.append(task)
    return tasks


def parse_step(text: str) -> Equation:
    s = text.strip()
    if s.startswith("(="):
        eq = parse_prefix(s)
    else:
        eq = parse_equation_infix(s)
    if not is_equation(eq):
        raise EquationError(f"step is not an equation: {text!r}")
    return eq


def load_solutions(path: str, source: str = INGESTED_BASELINE) -> dict:
    """task id -> Solution; accepts bare step lists or {program, steps}."""
    with open(path) as f:
        data = _load_json(f.read(), path)
    if not isinstance(data, dict):
        raise CorpusError(f"{path}: expected an object keyed by task id")
    out = {}
    for task_id, rec in data.items():
        steps = rec.get("steps") if isinstance(rec, dict) else rec
        if not isinstance(steps, list) or not all(isinstance(s, str) for s in steps):
            raise CorpusError(
                f"{path}: task {task_id!r}: expected a list of step strings,"
                " bare or under \"steps\""
            )
        try:
            states = tuple(parse_step(s) for s in steps)
        except EquationError as ex:
            raise CorpusError(f"{path}: task {task_id!r}: {ex}") from ex
        if not states:
            raise CorpusError(f"{path}: task {task_id!r}: empty step list")
        out[task_id] = Solution(task_id, states, source)
    return out


def save_solutions(path: str, solutions: dict, programs: Optional[dict] = None):
    data = {}
    for task_id in sorted(solutions):
        steps = [render_infix(s) for s in solutions[task_id].states]
        if programs and task_id in programs:
            data[task_id] = {"program": programs[task_id], "steps": steps}
        else:
            data[task_id] = steps
    write_json(path, data)


def save_checkpoint(path: str, lib: Library):
    write_json(path, lib.to_dict())


def load_checkpoint(path: str) -> Library:
    with open(path) as f:
        return Library.from_dict(_load_json(f.read(), path))
