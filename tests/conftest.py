"""Shared generators (random expression trees and equations), the
hand-written abstractions, and the small training run that several test
modules read."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from mathsynth.corpus import make_task
from mathsynth.enumerator import SearchBudget
from mathsynth.equations import Const, EquationError, Node, X, equation, eval_at
from mathsynth.grammar import Library, fit_grammar
from mathsynth.programs import AbsRef, Abstraction, Apply, Lambda, VarRef, parse_program
from mathsynth.training import RunConfig, run_training_loop

OPS = ("+", "-", "*", "/")


def exprs(max_depth=3, with_var=True, constants=st.integers(-9, 9)):
    leaf = st.builds(Const, constants)
    if with_var:
        leaf = st.one_of(leaf, st.just(X))
    return st.recursive(
        leaf,
        lambda sub: st.builds(Node, st.sampled_from(OPS), sub, sub),
        max_leaves=2 ** max_depth,
    )


def equations(max_depth=3, with_var=True):
    e = exprs(max_depth, with_var)
    return st.builds(equation, e, e)


SAMPLE_XS = tuple(Fraction(n, d) for n, d in
                  [(1, 1), (-2, 1), (1, 2), (5, 3), (-7, 4), (3, 1), (11, 5)])


def safe_sample_points(eq, n=5):
    """Rational x values where both sides evaluate without dividing by zero."""
    points = []
    for x in SAMPLE_XS:
        try:
            eval_at(eq.left, x)
            eval_at(eq.right, x)
        except EquationError:
            continue
        points.append(x)
        if len(points) == n:
            break
    return points


def truth_set(eq, points):
    return [eval_at(eq.left, x) == eval_at(eq.right, x) for x in points]


CHAIN = "(lambda (simplify (rrotate (sub $0 3) 1) 0))"

HAND_WRITTEN = [
    CHAIN,
    "(lambda (lambda (simplify (swap $1 $0) 0)))",
    "(lambda (lambda (lambda (simplify (rrotate (div $2 $1) 1) $0))))",
    f"(lambda (#{CHAIN} (swap $0 1)))",
    "(lambda (lambda (#(lambda (lambda (simplify (swap $1 $0) 0))) (sub $1 $0) 2)))",
    "(lambda ((lambda (swap $0 1)) $0))",
]
HAND_WRITTEN_ABSTRACTIONS = [Abstraction(parse_program(text)) for text in HAND_WRITTEN]


def doubling_nest(k):
    """A_k with A_0 = (lambda (swap $0 1)) and A_k = (lambda (A_{k-1}
    (A_{k-1} $0))): one call of A_k makes 2**(k+1) - 1 abstraction calls."""
    a = Abstraction(parse_program("(lambda (swap $0 1))"))
    for _ in range(k):
        a = Abstraction(Lambda(Apply(AbsRef(a), Apply(AbsRef(a), VarRef(0)))))
    return a


def seeded_setup():
    """Three templates of one shape plus two held-out ones, and a grammar
    already biased toward the isolate-and-collapse chain so search stays
    cheap; the loop's own learning is what is under test."""
    rng = random.Random(42)
    train = [make_task("x_plus_b", i, rng) for i in range(3)]
    test = [make_task("x_plus_b", i, rng) for i in (3, 4)]
    lib = fit_grammar(Library.initial(), [parse_program(CHAIN)] * 6)
    config = RunConfig(
        seed=5,
        iterations=2,
        eval_every=3,
        budget=SearchBudget(max_expansions=60_000, wall_timeout=120.0),
        patience=5_000,
        k_programs=3,
        probes=1,
    )
    return train, test, lib, config


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory):
    """The seeded training run, written to a directory: (result, out)."""
    train, test, lib, config = seeded_setup()
    out = tmp_path_factory.mktemp("run")
    config = RunConfig(**{**config.__dict__, "out_dir": str(out)})
    return run_training_loop(train, test, lib, config), out
