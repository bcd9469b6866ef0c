"""Time one cold set-up of a workload and print it in seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

The clock starts just before ``import ssacode`` and stops when the objects
the workload's timed loop reuses are built.  ``run.py`` starts this several
times, each in a fresh interpreter, and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

import workloads

w = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
import ssacode  # noqa: E402,F401  (the import is what is timed)
w.setup()
print(time.perf_counter() - t0)
