"""One set-up sample: import coopverif, load the workload's config and build
every kernel of a round, then print the CLOCK_MONOTONIC time at which the
last kernel was built.  ``run.py`` starts this script as a fresh process
and subtracts the time it started it.

    python3 perfbench/setup_probe.py <workload> <base seed>
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import coopverif.cli  # noqa: E402
import coopverif.sim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
config = coopverif.cli.load_config(None, workload.overrides, int(sys.argv[2]))
kernels = [
    coopverif.sim.SimulationKernel(replace(config, seed=config.seed + i))
    for i in range(workload.runs)
]
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
