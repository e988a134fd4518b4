#!/usr/bin/env python3
"""Benchmark of mathsynth: one workload, checked, with end-to-end or
per-layer metrics.

    python3 bench/run.py --workload train-demo --seed 1 --seconds 25 --trace 0

runs whole rounds of the workload, each one call of the ``mathsynth`` command
in this process, until ``--seconds`` have passed (at least one round), checks
every round's outputs, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
rounds alternate, and the metrics are the per-layer figures of the traced
rounds plus the tracing overhead.  Each run also writes a record with the
exact work counts of a round to ``.bench_results/`` for ``bench/compare.py``.

``--corpus-seed`` picks the task corpus (default 1 for the training
workloads, 11 for solve-initial); ``--seed`` varies the rest of the inputs:
the training seed, or the order in which ``solve`` meets the tasks.

    python3 bench/run.py --verify [--corpus-seed 1] [--seed 1]

trains the demo with ``--jobs 1`` and with ``--jobs 2`` and checks that the
two write byte-identical artifacts.

The program is imported from ``src/`` of the checkout this file lies in;
without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(ROOT, ".bench_results")
SETUP_PROBES = 9

if not os.path.isfile(os.path.join(SRC, "mathsynth", "__init__.py")):
    sys.exit(f"bench: no mathsynth sources in {SRC}")
sys.path[:0] = [SRC, BENCH]

import mathsynth  # noqa: E402
from calibration import Meter, speed_factor  # noqa: E402
from checks import corpus_errors  # noqa: E402
from tracing import PER_LAYER, Patches, Tracer, op_timings, round_layers, span_seconds  # noqa: E402
from workloads import WORKLOADS, Capture, cli  # noqa: E402

if os.path.dirname(os.path.abspath(mathsynth.__file__)) != os.path.join(SRC, "mathsynth"):
    sys.exit(f"bench: imported mathsynth from {mathsynth.__file__}, not from {SRC}")

clock = time.perf_counter


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(workload: str, corpus_seed: int, seed: int) -> float:
    """Median set-up time of fresh processes, from spawning the interpreter
    to the point where the workload's first timed call would start.

    One start-up is too short and too noisy to calibrate on its own, so the
    median raw time is scaled by the median speed factor measured before
    each probe: that follows the host's slow phases, not its jitter."""
    probe = os.path.join(BENCH, "setup_probe.py")
    times, factors = [], []
    for _ in range(SETUP_PROBES):
        workdir = tempfile.mkdtemp(dir=SCRATCH)
        try:
            factors.append(speed_factor())
            t0 = clock()
            proc = subprocess.Popen(
                [sys.executable, probe, workload, str(corpus_seed), str(seed), workdir],
                stdout=subprocess.PIPE,
                text=True,
            )
            line = proc.stdout.readline()
            elapsed = clock() - t0
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with {proc.returncode}")
            times.append(elapsed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return statistics.median(times) * statistics.median(factors)


def run_round(workload, ctx, workdir, tracer=None) -> dict:
    """One timed call of the command.  An untraced round recalibrates at
    every search and wake boundary; a traced one only at its start, so that
    no calibration time falls inside the spans."""
    outdir = tempfile.mkdtemp(dir=workdir)
    cap = Capture()
    patches = Patches()
    if tracer is not None:
        tracer.reset()
        tracer.install(patches)
    argv = workload.argv(ctx, outdir)
    meter = Meter()
    cap.install(patches, ctx["test_ids"], mark=meter.mark if tracer is None else None)
    try:
        if tracer is None:
            rc = cli(argv)
        else:
            with tracer.span("cli.main") as root:
                rc = cli(argv)
    except Exception as ex:  # a crash fails the round's remaining searches
        rc = f"{type(ex).__name__}: {ex}"
    meter.mark()  # closes the last stretch
    patches.restore()
    out = workload.finish(ctx, cap, rc)
    out.update(
        wall_s=meter.wall,
        cpu_s=meter.cpu,
        raw_wall_s=meter.raw_wall,
        raw_cpu_s=meter.raw_cpu,
        traced=tracer is not None,
    )
    if tracer is not None:
        out["layers"] = round_layers(tracer, out["work"], root)
        out["spans"] = tracer.spans
        out["counters"] = {name: list(c) for name, c in tracer.counters.items()}
    shutil.rmtree(outdir, ignore_errors=True)
    return out


def benchmark(args) -> tuple:
    workload = WORKLOADS[args.workload]
    seed = args.seed
    corpus_seed = args.corpus_seed
    if corpus_seed is None:
        corpus_seed = workload.default_corpus_seed
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        tracer = None
        setup_layers = {}
        if args.trace:
            tracer = Tracer()
            patches = Patches()
            tracer.install(patches)
            ctx = workload.setup(corpus_seed, seed, workdir)
            patches.restore()
            setup_layers["corpus.generate_corpus.s"] = span_seconds(
                tracer.spans, ("mathsynth.cli.generate_corpus",)
            )
        else:
            ctx = workload.setup(corpus_seed, seed, workdir)
        errors = corpus_errors(ctx["tasks"])

        rounds = []
        start = clock()
        while not rounds or clock() - start < args.seconds:
            rounds.append(run_round(workload, ctx, workdir))
            if tracer is not None:
                rounds.append(run_round(workload, ctx, workdir, tracer))
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]
    for i, r in enumerate(rounds):
        errors.extend(f"round {i}: {e}" for e in r["errors"])
        if (r["work"], r["solved"], r["failed"]) != (first["work"], first["solved"], first["failed"]):
            errors.append(f"round {i} differs from round 0: {r['work']} vs {first['work']}")
    failures = [f for r in rounds for f in r["failures"]]

    if tracer is None:
        metrics = {
            "setup_s": (setup_seconds(workload.name, corpus_seed, seed), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mb": (rss, "MB"),
            "solved": (first["solved"], "count"),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        layers = dict(setup_layers)
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            # counts repeat exactly; keep them whole
            layers[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        layers.update(op_timings([t.input for t in ctx["tasks"]], seed))
        layers["metric.mean_dedup_f"] = first["mean_dedup_f"]
        layers["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - statistics.median(r["wall_s"] for r in plain)
        metrics = {name: (layers[name], unit) for name, unit, _better in PER_LAYER}

    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "corpus_seed": corpus_seed,
        "seed": seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "work": first["work"],
        "solved": first["solved"],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "round_raw_wall_s": [r["raw_wall_s"] for r in rounds],
        "round_raw_cpu_s": [r["raw_cpu_s"] for r in rounds],
        "errors": errors,
        "failures": sorted(set(failures)),
        "result": result,
        "spans": [r["spans"] for r in rounds if r["traced"]],
        "counters": [r["counters"] for r in rounds if r["traced"]],
    }
    return result, record


def verify(corpus_seed: int, seed: int) -> bool:
    """Train the demo with one job and with two; compare every artifact."""
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        ctx = WORKLOADS["train-demo"].setup(corpus_seed, seed, workdir)
        outs = []
        for name in ("train-demo", "train-demo-jobs2"):
            out = os.path.join(workdir, name)
            rc = cli(WORKLOADS[name].argv(ctx, out))
            if rc != 0:
                print(f"{name}: command ended with {rc}")
                return False
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        if names != sorted(os.listdir(outs[1])):
            print(f"artifact files differ: {names} vs {sorted(os.listdir(outs[1]))}")
            return False
        _same, differ, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
        for name in differ + errors:
            print(f"differs: {name}")
        print(f"{len(names) - len(differ) - len(errors)} of {len(names)} artifacts byte-identical")
        return not (differ or errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="default 1 for the training workloads, 11 for solve-initial")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verify", action="store_true",
                    help="check that --jobs 2 training writes the same bytes as --jobs 1")
    args = ap.parse_args()
    if args.verify:
        return 0 if verify(1 if args.corpus_seed is None else args.corpus_seed, args.seed) else 1
    if args.workload is None:
        ap.error("--workload is required")

    result, record = benchmark(args)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS,
        f"{record['workload']}.corpus{record['corpus_seed']}.seed{record['seed']}"
        f".trace{args.trace}.json",
    )
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for line in record["errors"][:20] + record["failures"][:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(
        f"bench: {record['workload']} corpus {record['corpus_seed']} seed {record['seed']}: "
        f"{record['rounds']} rounds, "
        f"work per round {json.dumps(record['work'], sort_keys=True)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
