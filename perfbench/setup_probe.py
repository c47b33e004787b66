"""Time to import quadwrench and build one workload's scenario, in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the CPU seconds taken.  Started by run.py, which pins BLAS to one thread in
the environment it passes on.
"""

import sys
from pathlib import Path
from time import process_time

t0 = process_time()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import WORKLOADS  # noqa: E402  (imports quadwrench and numpy)

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(process_time() - t0)
