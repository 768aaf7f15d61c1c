"""Cold set-up of one workload, for the benchmark's ``setup_s``.

``python3 perfbench/setup_child.py <workload> <seed> <work_dir>`` starts
from a fresh interpreter, as every ``polyscat`` command does, so grid
caches start empty and import-time work is paid.  numpy and scipy are
imported first and not timed; the import of polyscat and the workload's
set-up are timed, and the seconds are printed.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

if __name__ == "__main__":
    name, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = perf_counter()
    import workloads

    workloads.WORKLOADS[name](name, seed, work_dir).setup()
    print(repr(perf_counter() - t0))
