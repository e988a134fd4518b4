#!/usr/bin/env python3
"""Compare the exact work counts of two sets of benchmark runs.

    python3 bench/compare.py OLD_RESULTS NEW_RESULTS

Each argument is a ``.bench_results`` directory that ``bench/run.py`` wrote.
Runs are matched by workload, corpus seed and seed; for each pair the work of one round
(searches, expansions, states and solutions of the chain search, programs
and candidates scored by compression) must be identical.  A change that
only makes the program faster keeps every count; a change of what gets
searched, or a search wall timeout that fires, moves them.  Exits 1 on any
difference or when the two sets share no run.
"""

import json
import os
import sys


def load(directory: str) -> dict:
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                record = json.load(f)
            key = (record["workload"], record["corpus_seed"], record["seed"])
            work = runs.setdefault(key, record["work"])
            if work != record["work"]:
                sys.exit(f"{directory}: runs of {key} disagree: {work} vs {record['work']}")
    return runs


def _name(key) -> str:
    return f"{key[0]} corpus {key[1]} seed {key[2]}"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    old, new = load(sys.argv[1]), load(sys.argv[2])
    shared = sorted(set(old) & set(new))
    for key in sorted(set(old) ^ set(new)):
        print(f"only in one set: {_name(key)}")
    differences = 0
    for key in shared:
        for count in sorted(set(old[key]) | set(new[key])):
            a, b = old[key].get(count), new[key].get(count)
            if a != b:
                differences += 1
                print(f"{_name(key)}: {count} {a} -> {b}")
    print(f"{len(shared)} runs compared, {differences} work counts differ")
    return 0 if shared and not differences else 1


if __name__ == "__main__":
    sys.exit(main())
