"""One set-up of a workload in a fresh interpreter, for measuring set-up time.

    python3 bench/setup_probe.py <workload> <corpus seed> <seed> <empty directory>

Imports the program, makes the workload's inputs in the directory and prints
``ready``; the caller times it from spawning this process to that line.
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
print("ready", flush=True)
