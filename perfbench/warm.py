"""Set-up probe: import hjbpod and warm its compiled kernels; print
``time.monotonic()`` at the start and the end, and the CPU seconds taken.

Run in a fresh interpreter, so the time covers every import the package
pulls in (numpy, scipy, numba when present) and, with numba, the load or
compilation of each kernel.  Interpreter start-up itself is not counted.
"""

import sys
import time
from pathlib import Path

t0, c0 = time.monotonic(), time.process_time()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import hjbpod.cli  # noqa: E402,F401
from hjbpod import _accel  # noqa: E402

_accel.sweep(
    np.zeros(2), np.zeros((2, 1, 1), np.int32), np.ones((2, 1, 1)), np.zeros((2, 1)), 0.5, 0.1
)
_accel.max_abs_diff(np.zeros(2), np.ones(2))
_accel.guess_structured(
    np.zeros((2, 1)), np.zeros((1, 1)), np.zeros(1), None, np.zeros(1), 1.0, 0.1, 1, 0.01, 1.0
)
print(t0, time.monotonic(), time.process_time() - c0)
