"""Import the package and build one workload's inputs from a seed, then print
the system-wide monotonic clock and exit.

run.py starts this script several times and takes the time from each spawn
to the printed clock; the median of those times is the workload's setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import workloads

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
