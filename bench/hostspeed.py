"""Host speed sampled while a timed call runs, to rescale its wall time.

On a shared host the CPU a process gets switches between a fast and a slow
state every few tens of milliseconds, and the share of slow time drifts
with the neighbours' load over minutes; that drift, not the program, sets
most of the spread of raw wall times between runs.  While a `Probe` is
active, a SIGALRM handler times a fixed kernel every PERIOD_S of wall time:
a numpy FFT (no nudgeflow code, and not scipy's FFT plan cache that
nudgeflow uses) and a short interpreter loop, the two kinds of work a
runner call is made of.  The kernel slows down when the call around it
does, so

    wall * mean(REFERENCE_KERNEL_S / sample over the call's samples)

is the call's wall time on a host where the kernel takes
REFERENCE_KERNEL_S.  The probe itself costs 1 to 2% of the wall time, on every
commit alike.

    python3 bench/hostspeed.py OUT.json -m MODULE ARG...

runs `python3 -m MODULE ARG...` in this process under a probe and writes
the samples to OUT.json, so a fresh process's start-to-exit time can be
rescaled the same way.
"""

from __future__ import annotations

import json
import runpy
import signal
import statistics
import sys
import time

import numpy as np

PERIOD_S = 0.01
# The kernel's median time inside runner calls on the 2-vCPU x86-64 host
# the benchmark was written on; it only sets the scale of rescaled times.
REFERENCE_KERNEL_S = 1.2e-4

_KERNEL_INPUT = np.random.default_rng(0).standard_normal((2, 32, 32)) + 0j


def _kernel() -> None:
    np.fft.fft2(_KERNEL_INPUT)
    total = 0
    for i in range(300):
        total += i


class Probe:
    """Kernel times (seconds), one per PERIOD_S of wall time while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> Probe:
        _kernel()  # plan and page in the kernel before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def rescale(wall: float, window: list[float]) -> float:
    """wall on the reference host, from the kernel samples taken during it."""
    if not window:
        raise ValueError("no host speed sample during the call")
    return wall * statistics.fmean(REFERENCE_KERNEL_S / s for s in window)


def main(argv: list[str]) -> int:
    out_path, flag, module, *args = argv
    if flag != "-m":
        raise SystemExit("usage: hostspeed.py OUT.json -m MODULE ARG...")
    sys.argv = [module, *args]
    code = 0
    with Probe() as probe:
        try:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(probe.samples, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
