"""Machine-speed probe: a fixed numpy kernel, timed between benchmark passes.

On a shared host the speed of a core drifts by up to 1.7x within minutes
while the process is never descheduled (CPU time equals wall time, steal
time is zero): other tenants share the physical cores, caches and memory
bandwidth.  Raw pass times then spread more between runs than any change
worth measuring.  The benchmark therefore times this kernel before and after
every pass and reports each pass at the reference speed,

    pass_wall * REF_S / mean(kernel time before, kernel time after).

The kernel gives about equal time to what the workloads do: a particle loop
of small-array trig calls (Monte Carlo), batched FFTs (the circulant solves
of the Fokker-Planck reference) and a memory-bound stencil (the FD
lattice).  It runs in a child process, so its memory never counts towards
the workload's peak RSS, and it is part of the benchmark, which a change to
mfrl cannot alter.

    python3 perfbench/speed.py     # one kernel run per line read; prints its seconds
"""

from __future__ import annotations

import subprocess
import sys
import time

#: seconds the kernel takes at the reference speed: about its median on a
#: 2-core Xeon (AVX-512) VM with numpy 2.4
REF_S = 0.4

TWO_PI = 6.283185307179586


def kernel_seconds() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    x = rng.uniform(0.0, TWO_PI, (2000, 16))
    for _ in range(40):
        s, c = np.sin(x), np.cos(x)
        x += 0.01 * (s.mean(axis=1, keepdims=True) * c - c.mean(axis=1, keepdims=True) * s)
        x += 0.1 * rng.standard_normal(x.shape)
        x %= TWO_PI
    y = rng.standard_normal((256, 1024))
    for _ in range(30):
        y = np.fft.irfft(np.fft.rfft(y, axis=1) * 0.5, n=1024, axis=1)
    v = rng.standard_normal(2_000_000)
    for _ in range(3):
        v = 0.5 * v + 0.25 * (np.roll(v, 1) + np.roll(v, -1))
    return time.perf_counter() - t0


class SpeedProbe:
    """A child process that runs the kernel on request."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-B", __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Each pass at the reference speed; probes[i] and probes[i + 1] bracket walls[i]."""
    return [w * 2.0 * REF_S / (probes[i] + probes[i + 1]) for i, w in enumerate(walls)]


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(kernel_seconds()), flush=True)
