"""Per-layer tracing of mathsynth from outside the program.

Wrappers replace module attributes of ``mathsynth`` at the layer
boundaries, under the name through which the caller reaches each function
(``mathsynth.enumerator.apply_primitive`` is the one the chain search calls,
``mathsynth.training.compress_detailed`` the one the wake/sleep loop calls).
The program's source is not touched.

Two kinds of boundary:

* coarse ones (a search, compression, grammar fit, probe evaluation,
  held-out evaluation, checkpoint writes) record a span: name, start, end
  and the enclosing span, kept in memory and written out at the end;
* the ones crossed once per expansion (``apply_primitive``,
  ``apply_abstraction``, ``check_solved``) and the other hot calls record
  only a call count, summed time and exceptions by type, which keeps
  millions of spans out of memory.

With ``--jobs 2`` the searches run in forked pool workers, which inherit the
installed wrappers.  A search wrapper running outside the tracing process
attaches its span and per-expansion counters to the stats dict it returns;
the parent's ``_wake`` wrapper merges them and strips the key again, so the
training loop sees the stats the program produced.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import mathsynth.cli
import mathsynth.enumerator
import mathsynth.grammar
import mathsynth.metric
import mathsynth.primitives
import mathsynth.training
from mathsynth.equations import Const, X, replace_subtree, subtree_at
from mathsynth.primitives import EQUATION_PRIMITIVES, PrimitiveError

clock = time.perf_counter

# counters crossed once per expansion; a worker ships these back per search
PER_EXPANSION = (
    "primitives.apply_primitive",
    "programs.apply_abstraction",
    "equations.check_solved",
)
SEARCH_SPANS = ("mathsynth.training.solve_task_with_stats", "mathsynth.cli.solve_task_with_stats")
_SHIPPED = "_bench_trace"

# (metric, unit, better); BENCHMARK.json lists the same names in this order
PER_LAYER = [
    ("enumerator.searches", "count", "lower"),
    ("enumerator.expansions", "count", "lower"),
    ("enumerator.states", "count", "lower"),
    ("enumerator.solutions", "count", "higher"),
    ("enumerator.s", "s", "lower"),
    ("enumerator.self_s", "s", "lower"),
    ("enumerator.expansions_per_s", "1/s", "higher"),
    ("enumerator.states_per_expansion", "ratio", "higher"),
    ("enumerator.dup_ratio", "ratio", "lower"),
    ("primitives.calls", "count", "lower"),
    ("primitives.s", "s", "lower"),
    ("primitives.raise_ratio", "ratio", "lower"),
    *[(f"primitives.{name}.ns_per_op", "ns", "lower") for name in EQUATION_PRIMITIVES],
    ("programs.apply_abstraction.calls", "count", "lower"),
    ("programs.apply_abstraction.s", "s", "lower"),
    ("programs.apply_abstraction.raise_ratio", "ratio", "lower"),
    ("programs.evaluate.calls", "count", "lower"),
    ("programs.evaluate.s", "s", "lower"),
    ("equations.check_solved.calls", "count", "lower"),
    ("equations.check_solved.s", "s", "lower"),
    ("equations.replace_subtree.ns_per_op", "ns", "lower"),
    ("equations.subtree_at.ns_per_op", "ns", "lower"),
    ("grammar.fit_grammar.s", "s", "lower"),
    ("grammar.log_prior.calls", "count", "lower"),
    ("grammar.log_prior.s", "s", "lower"),
    ("compression.compress_detailed.s", "s", "lower"),
    ("compression.candidates_scored", "count", "lower"),
    ("compression.corpus_programs", "count", "lower"),
    ("metric.extract_steps.s", "s", "lower"),
    ("metric.mean_dedup_f", "nodes", "lower"),
    ("corpus.save_checkpoint.s", "s", "lower"),
    ("corpus.reinstantiate.calls", "count", "lower"),
    ("corpus.generate_corpus.s", "s", "lower"),
    ("training.wake.s", "s", "lower"),
    ("training.probe.s", "s", "lower"),
    ("training.sleep.s", "s", "lower"),
    ("training.eval.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.counters = {}  # name -> [calls, seconds, {exception type: count}]
        self.reset()

    def reset(self):
        for c in self.counters.values():
            c[:] = [0, 0.0, {}]
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []

    def counter(self, name):
        return self.counters.setdefault(name, [0, 0.0, {}])

    # -- wrapper factories -------------------------------------------------

    def counted(self, name):
        c = self.counter(name)  # reset() clears it in place

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception as ex:
                    raised = c[2]
                    raised[type(ex).__name__] = raised.get(type(ex).__name__, 0) + 1
                    raise
                finally:
                    c[0] += 1
                    c[1] += clock() - t0

            return wrapper

        return make

    def spanned(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def span(self, name):
        return _Span(self, name)

    def search(self, name):
        """Span around one search; from a worker, ship the span and the
        per-expansion counters back inside the returned stats."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if os.getpid() == self.pid:
                    with self.span(name):
                        return fn(*args, **kwargs)
                self.reset()
                t0 = clock()
                found, stats = fn(*args, **kwargs)
                shipped = {k: c for k, c in self.counters.items() if k in PER_EXPANSION}
                stats[_SHIPPED] = (name, t0, clock(), shipped)
                return found, stats

            return wrapper

        return make

    def wake(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name) as parent:
                    results = fn(*args, **kwargs)
                    for _found, stats in results.values():
                        shipped = stats.pop(_SHIPPED, None)
                        if shipped is not None:
                            self._merge(parent, *shipped)
                return results

            return wrapper

        return make

    def _merge(self, parent, name, t0, t1, counters):
        self.spans.append([name, t0, t1, parent])
        for key, (calls, secs, raised) in counters.items():
            c = self.counter(key)
            c[0] += calls
            c[1] += secs
            for kind, n in raised.items():
                c[2][kind] = c[2].get(kind, 0) + n

    # -- installation ------------------------------------------------------

    def install(self, patches: Patches):
        """Wrap every layer boundary; undone by ``patches.restore()``."""
        T, C = mathsynth.training, mathsynth.cli
        E = mathsynth.enumerator
        w = patches.wrap
        w(E, "apply_primitive", self.counted("primitives.apply_primitive"))
        w(E, "apply_abstraction", self.counted("programs.apply_abstraction"))
        w(E, "check_solved", self.counted("equations.check_solved"))
        w(T, "evaluate", self.counted("programs.evaluate"))
        w(mathsynth.metric, "evaluate", self.counted("programs.evaluate"))
        w(mathsynth.grammar.Library, "log_prior", self.counted("grammar.log_prior"))
        w(T, "reinstantiate", self.counted("corpus.reinstantiate"))
        w(T, "solve_task_with_stats", self.search("mathsynth.training.solve_task_with_stats"))
        w(C, "solve_task_with_stats", self.search("mathsynth.cli.solve_task_with_stats"))
        w(T, "_wake", self.wake("mathsynth.training._wake"))
        for owner, attr in (
            (T, "_passes_probes"),
            (T, "evaluate_tasks"),
            (T, "compress_detailed"),
            (T, "fit_grammar"),
            (T, "save_checkpoint"),
            (T, "extract_steps"),
            (C, "extract_steps"),
            (C, "run_training_loop"),
            (C, "generate_corpus"),
        ):
            w(owner, attr, self.spanned(f"{owner.__name__}.{attr}"))


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, clock(), None, t._stack[-1] if t._stack else -1])
        t._stack.append(self.index)
        return self.index

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.spans[self.index][2] = clock()
        return False


# --- per-layer metrics ----------------------------------------------------------


def span_seconds(spans, names, outside=None):
    """Summed duration of the spans named in ``names``, leaving out those
    enclosed by a span named ``outside``."""

    def enclosed(i):
        p = spans[i][3]
        while p != -1:
            if spans[p][0] == outside:
                return True
            p = spans[p][3]
        return False

    return sum(
        t1 - t0
        for i, (name, t0, t1, _parent) in enumerate(spans)
        if name in names and not (outside and enclosed(i))
    )


def _ratio(num, den):
    return num / den if den else 0.0


def round_layers(tracer: Tracer, work: dict, cli_root: int) -> dict:
    """Per-layer figures of one traced round.  ``work`` holds the exact work
    counts of the round; ``cli_root`` is the index of its ``cli.main`` span."""
    spans, counters = tracer.spans, tracer.counters
    zero = [0, 0.0, {}]
    prim = counters.get("primitives.apply_primitive", zero)
    absn = counters.get("programs.apply_abstraction", zero)
    chk = counters.get("equations.check_solved", zero)
    ev = counters.get("programs.evaluate", zero)
    lp = counters.get("grammar.log_prior", zero)
    reinst = counters.get("corpus.reinstantiate", zero)
    prim_raised = sum(prim[2].values())
    abs_raised = sum(absn[2].values())

    search_s = span_seconds(spans, SEARCH_SPANS)
    applied = (prim[0] - prim_raised) + (absn[0] - abs_raised)
    new_states = work["enumerator.states"] - work["enumerator.searches"]
    root = spans[cli_root]
    cli_s = root[2] - root[1]
    children = sum(t1 - t0 for _n, t0, t1, parent in spans if parent == cli_root)
    T = "mathsynth.training."
    out = {
        "enumerator.searches": work["enumerator.searches"],
        "enumerator.expansions": work["enumerator.expansions"],
        "enumerator.states": work["enumerator.states"],
        "enumerator.solutions": work["enumerator.solutions"],
        "enumerator.s": search_s,
        "enumerator.self_s": search_s - prim[1] - absn[1] - chk[1],
        "enumerator.expansions_per_s": _ratio(work["enumerator.expansions"], search_s),
        "enumerator.states_per_expansion": _ratio(
            work["enumerator.states"], work["enumerator.expansions"]
        ),
        "enumerator.dup_ratio": _ratio(applied - new_states, applied),
        "primitives.calls": prim[0],
        "primitives.s": prim[1],
        "primitives.raise_ratio": _ratio(prim_raised, prim[0]),
        "programs.apply_abstraction.calls": absn[0],
        "programs.apply_abstraction.s": absn[1],
        "programs.apply_abstraction.raise_ratio": _ratio(abs_raised, absn[0]),
        "programs.evaluate.calls": ev[0],
        "programs.evaluate.s": ev[1],
        "equations.check_solved.calls": chk[0],
        "equations.check_solved.s": chk[1],
        "grammar.fit_grammar.s": span_seconds(spans, (T + "fit_grammar",)),
        "grammar.log_prior.calls": lp[0],
        "grammar.log_prior.s": lp[1],
        "compression.compress_detailed.s": span_seconds(spans, (T + "compress_detailed",)),
        "compression.candidates_scored": work["compression.candidates_scored"],
        "compression.corpus_programs": work["compression.corpus_programs"],
        "metric.extract_steps.s": span_seconds(
            spans, (T + "extract_steps", "mathsynth.cli.extract_steps")
        ),
        "corpus.save_checkpoint.s": span_seconds(spans, (T + "save_checkpoint",)),
        "corpus.reinstantiate.calls": reinst[0],
        "training.wake.s": span_seconds(spans, (T + "_wake",), outside=T + "evaluate_tasks"),
        "training.probe.s": span_seconds(
            spans, (T + "_passes_probes",), outside=T + "evaluate_tasks"
        ),
        "training.sleep.s": span_seconds(spans, (T + "compress_detailed", T + "fit_grammar")),
        "training.eval.s": span_seconds(spans, (T + "evaluate_tasks",)),
        "cli.main.s": cli_s,
        "cli.self_s": cli_s - children,
    }
    return out


# --- timed loops for single operations -------------------------------------------


def operand_pairs(equations, seed: int) -> list:
    """(equation, index) pairs: each input and the states of a short random
    walk of primitive applications from it, at indices 0..10 as the chain
    search tries them, so pairs that raise are included."""
    rng = random.Random(f"ns_per_op/{seed}")
    names = sorted(EQUATION_PRIMITIVES)
    states = []
    for eq in equations:
        walk = [eq]
        for _ in range(40):  # up to three steps; most random steps raise
            if len(walk) == 4:
                break
            try:
                eq = EQUATION_PRIMITIVES[rng.choice(names)](eq, rng.randrange(eq.size))
            except PrimitiveError:
                continue
            walk.append(eq)
        states.extend(walk)
    return [(eq, i) for eq in states for i in range(11)]


def _ns_per_op(call, items, calls_per_rep=8000, reps=5) -> float:
    loops = max(1, calls_per_rep // len(items))
    times = []
    for _ in range(reps):
        t0 = clock()
        for _ in range(loops):
            for item in items:
                call(item)
        times.append((clock() - t0) / (loops * len(items)))
    return statistics.median(times) * 1e9


def op_timings(equations, seed: int) -> dict:
    """ns per call of each primitive and of the subtree helpers, measured on
    the unwrapped functions."""
    pairs = operand_pairs(equations, seed)
    apply_primitive = mathsynth.primitives.apply_primitive
    out = {}
    for name in EQUATION_PRIMITIVES:

        def call(pair, name=name):
            try:
                apply_primitive(name, pair[0], pair[1])
            except PrimitiveError:
                pass

        out[f"primitives.{name}.ns_per_op"] = _ns_per_op(call, pairs)
    valid = [(eq, i) for eq, i in pairs if 0 < i < eq.size]
    leaf = Const(1)
    out["equations.replace_subtree.ns_per_op"] = _ns_per_op(
        lambda p: replace_subtree(p[0], p[1], leaf if p[1] % 2 else X), valid
    )
    out["equations.subtree_at.ns_per_op"] = _ns_per_op(lambda p: subtree_at(p[0], p[1]), valid)
    return out
