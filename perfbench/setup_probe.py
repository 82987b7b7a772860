"""Print the set-up time of a fresh interpreter, in seconds.

    python3 perfbench/setup_probe.py heisenberg:1,quaternion:2,...

Set-up is ``import nilflow, nilflow.cli`` plus the dense structure constants
of each listed group.  numpy is imported before the clock starts: its
import is not the program's work, and on a shared host it swings by more
than the whole of nilflow's set-up.
"""
import sys
import time
from pathlib import Path

import numpy  # noqa: F401

_t0 = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import nilflow  # noqa: E402,F401
import nilflow.cli  # noqa: E402,F401
from nilflow.algebra import build_group  # noqa: E402

for item in sys.argv[1].split(","):
    family, n = item.split(":")
    build_group(family, int(n)).structure_dense

print(repr(time.perf_counter() - _t0))
