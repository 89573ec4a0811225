"""Time one workload set-up in this fresh process and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SIZE

run.py starts this several times per run, so ``setup_s`` includes the
interpreter's first imports of numpy, PyYAML and trisym.
"""

import sys
import time

import workloads

sys.path.insert(0, str(workloads.SRC))
workload = workloads.WORKLOADS[sys.argv[1]](sys.argv[2])
t0 = time.perf_counter()
workload.setup()
print(time.perf_counter() - t0)
