"""Fixed probes of how fast the host runs right now.

A shared host speeds up and slows down by a quarter or more over minutes,
as its other tenants come and go, and a slow spell moves a run's
wall-clock rates as much as a real regression would.  Each probe is a
fixed piece of work of the same kind as one workload's hot loop.  It never
calls the package under test, so a change to the package cannot move it.
Timed next to the work it corrects, it lets a run's rate be scaled to one
reference speed: the speed at which the probe takes its reference time.

Probes run in a helper process of their own (``Prober``), so their arrays
never count towards the peak memory of the process being measured.

Usage as the helper: python3 perfbench/hostspeed.py PROBE_NAME
Each line read from standard input runs the probe once and writes the
slowdown as one line to standard output; end of input ends the helper.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def _small_calls() -> None:
    # Interpreter work and numpy calls on QCIF-sized arrays, where per-call
    # overhead sets the cost (detect-qcif-y4m).
    total = 0
    for i in range(50_000):
        total += i * i % 7
    frame = (np.arange(144 * 176, dtype=np.int32) % 251).reshape(144, 176)
    buffer = np.empty_like(frame)
    for _ in range(170):
        np.multiply(frame, 5, out=buffer)
        np.subtract(buffer, frame[::-1], out=buffer)
        np.abs(buffer, out=buffer)
        buffer.max()


def _grid_compares() -> None:
    # Shifted compare-and-count over a CIF direction grid (seba-cif).
    grid = (np.arange(288 * 352, dtype=np.int64) % 61 - 1).reshape(288, 352)
    for shift in range(1, 33):
        a, b = grid[:, shift:], grid[:, :-shift]
        both = (a >= 0) & (b >= 0)
        np.count_nonzero(both & (a == b))


def _large_arrays() -> None:
    # 3x3 integer taps over an edge-padded 1080p plane (detect-hd).
    plane = (np.arange(1080 * 1920, dtype=np.int32) % 251).reshape(1080, 1920)
    padded = np.pad(plane, 1, mode="edge")
    out = np.zeros_like(plane)
    for r, c, coeff in ((0, 0, 5), (0, 1, 5), (1, 2, -3), (2, 1, -3)):
        out += coeff * padded[r:r + 1080, c:c + 1920]
    np.abs(out).max()


# probe name -> (work, its duration in seconds at the reference speed)
PROBES = {
    "small-calls": (_small_calls, 0.010),
    "grid-compares": (_grid_compares, 0.010),
    "large-arrays": (_large_arrays, 0.035),
}


def slowdown(name: str, count: int = 5) -> float:
    """The host's current slowness against the reference, from ``count`` probes.

    Above 1 when the host runs slower than the reference speed.
    """
    work, reference_s = PROBES[name]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return sorted(times)[count // 2] / reference_s


class Prober:
    """A helper process that runs one probe each time it is asked."""

    def __init__(self, name: str) -> None:
        if name not in PROBES:
            raise KeyError(f"no probe named {name!r}")
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), name],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def slowdown(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)

    def __enter__(self) -> "Prober":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve(name: str) -> None:
    for _ in sys.stdin:
        print(repr(slowdown(name)), flush=True)


if __name__ == "__main__":
    _serve(sys.argv[1])
