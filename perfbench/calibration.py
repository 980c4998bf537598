"""Host-speed calibration: a fixed kernel that shares the benchmark's CPU.

On a shared host the same single-threaded pass runs up to twice as slow,
in spells of seconds to minutes, and its CPU time slows with it: the other
tenants slow the core itself, they do not only take it away.  Kernels timed
before and after a pass do not track this.  So a second process, pinned to
the same CPU as the benchmark at a low priority (``NICE``, about a tenth of
the CPU), runs a fixed kernel the whole time: a pure-Python loop and small
numpy operations, the two kinds of work the pipeline does.  Because the two
processes take turns on the CPU every few milliseconds, the kernel's CPU
cost per iteration during an operation measures how fast the core ran for
that operation.  :meth:`Calibrator.ref_seconds` turns an operation's CPU
seconds into seconds at the reference speed ``REF_ITER_S``.

Run as a script, this file is the kernel process:

    python3 perfbench/calibration.py --cpu 0 --stop STOPFILE --out OUTFILE
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# CPU seconds of one kernel iteration at the reference speed: about its
# median, sharing the CPU with the pipeline, on the 2-vCPU Xeon VM the
# baseline was measured on.
REF_ITER_S = 2.5e-3
NICE = 10
# The kernel process ends by itself after this, should its parent not stop it.
MAX_SECONDS = 600.0
# Fewest kernel iterations an operation's window must hold.
MIN_SAMPLES = 8


def kernel_iteration(work: np.ndarray) -> None:
    """One unit of fixed work: a Python loop, then small numpy operations."""
    total, table = 0, {}
    for i in range(5_000):
        total += i * i % 7
        table[i & 1023] = total
    a = work.copy()
    for _ in range(150):
        a = np.minimum(a * 0.999 + 0.001, 1.0)
        a.sum()


def _kernel_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="calibration kernel process")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--stop", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    os.nice(NICE)
    parent = os.getppid()
    work = np.random.default_rng(0).random(2000)
    deadline = time.monotonic() + MAX_SECONDS
    ends, costs = [], []
    while not args.stop.exists() and os.getppid() == parent and time.monotonic() < deadline:
        c0 = time.process_time()
        kernel_iteration(work)
        costs.append(time.process_time() - c0)
        ends.append(time.monotonic())
    args.out.write_text(json.dumps({"end": ends, "cost": costs}))
    return 0


class Calibrator:
    """Runs the kernel process on ``cpu`` from ``start`` to ``stop``.

    The benchmark process must itself be pinned to ``cpu``.  Operation
    windows are ``time.monotonic()`` readings, which both processes share.
    """

    def __init__(self, cpu: int, workdir: Path):
        self.cpu = cpu
        self._stop = workdir / f"calibration-{os.getpid()}.stop"
        self._out = workdir / f"calibration-{os.getpid()}.json"
        self._proc: subprocess.Popen | None = None
        self._end = np.empty(0)
        self._cost = np.empty(0)

    def start(self) -> None:
        self._out.parent.mkdir(parents=True, exist_ok=True)
        self._stop.unlink(missing_ok=True)
        self._out.unlink(missing_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--cpu", str(self.cpu), "--stop", str(self._stop),
             "--out", str(self._out)]
        )

    def stop(self) -> None:
        """Stop the kernel process, wait for it, and load its samples."""
        if self._proc is None:
            return
        self._stop.touch()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc = None
        self._stop.unlink(missing_ok=True)
        if self._out.exists():
            data = json.loads(self._out.read_text())
            self._out.unlink()
            self._end, self._cost = np.array(data["end"]), np.array(data["cost"])

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    @property
    def samples(self) -> int:
        return self._end.size

    def speed(self, start: float, end: float) -> float:
        """Core speed over ``[start, end]`` relative to the reference (<1 is slower).

        Uses the iterations that ended in the window, widened evenly about
        its middle until it holds MIN_SAMPLES of them; NaN without samples.
        """
        if self._end.size < MIN_SAMPLES:
            return float("nan")
        lo, hi = np.searchsorted(self._end, [start, end])
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(lo - 1, 0), min(hi + 1, self._end.size)
        return REF_ITER_S * (hi - lo) / float(self._cost[lo:hi].sum())

    def ref_seconds(self, cpu_s: float, start: float, end: float) -> float:
        """``cpu_s`` CPU seconds spent over ``[start, end]``, at the reference speed."""
        return cpu_s * self.speed(start, end)


if __name__ == "__main__":
    sys.exit(_kernel_main())
