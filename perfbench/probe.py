"""Set-up probe: run in a fresh interpreter, prints as JSON the CPU seconds it
took to import bridgelab, parse every generated config and build every custom
potential of one workload directory, and the clock scale measured right after.

Usage: python3 perfbench/probe.py WORKDIR
"""
import time

START = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import env  # noqa: E402

env.prepare()
import bridgelab  # noqa: E402,F401
from perfbench import workloads  # noqa: E402

workloads.load_inputs(Path(sys.argv[1]))
ELAPSED = time.process_time() - START

import json  # noqa: E402

from perfbench import clock  # noqa: E402

print(json.dumps([ELAPSED, clock.scale(clock.sample(2 * clock.RUNS))]))
