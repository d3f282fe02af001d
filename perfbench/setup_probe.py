"""Set-up probe: a fresh interpreter imports freeconv and builds one workload's
inputs, then exits.  `run.py` times whole launches of this script.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports freeconv)

wl = workloads.WORKLOADS[sys.argv[1]]
wl.build_inputs(wl, int(sys.argv[2]))
