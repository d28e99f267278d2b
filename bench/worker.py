"""Timed runner calls of one workload in a fresh process (started by run.py).

Both modes make one untimed warm-up call first.
Untraced (--trace 0): repeats the workload's runner call for --seconds and
reports the median wall time rescaled to a reference host speed
(hostspeed.py), the share of calls that passed the gate and this
process's peak resident memory up to the end of the warm-up call.
Traced (--trace 1): alternates untraced and traced calls for --seconds,
derives the per-layer metrics from the traced calls' spans, reports the
tracing overhead and probes the advective kernel at several grid sizes.
Prints one JSON line.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import hostspeed
import workloads as wl

PROBE_SIZES = (32, 64, 128)
PROBE_BATCH_S = 0.05
PROBE_BATCHES = 5


def provenance(workload: wl.Workload, seed: int, cfg_seed: int, nudgeflow) -> dict:
    import numpy
    import scipy

    from nudgeflow.config import load_config

    return {
        "workload": workload.name,
        "seed": seed,
        "config_seed": cfg_seed,
        "nudgeflow": nudgeflow.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in wl.THREAD_ENV},
        "grid_n": load_config(workload.config_path).grid_n,
        "packed_unknowns": wl.unknowns_by_role(workload),
    }


def probe_advect(seed: int) -> dict[str, float]:
    """us per advect_raw call at each probe size, on raw seeded arrays.

    FFT points, bytes and flops are computed from the six n x n complex
    FFTs a call makes (4 inverse, 2 forward), not measured.
    """
    import numpy as np

    from nudgeflow.fields import TorusGrid
    from nudgeflow.operators import advect_raw

    rng = np.random.default_rng([seed, 7])
    out: dict[str, float] = {}
    for n in PROBE_SIZES:
        grid = TorusGrid(2.0 * math.pi, n)
        u_phys = rng.standard_normal((2, n, n))
        v = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        v *= grid.dealias_mask
        t0 = time.perf_counter()
        advect_raw(grid, u_phys, v)
        reps = max(1, int(PROBE_BATCH_S / max(time.perf_counter() - t0, 1e-6)))
        per_call = []
        for _ in range(PROBE_BATCHES):
            t0 = time.perf_counter()
            for _ in range(reps):
                advect_raw(grid, u_phys, v)
            per_call.append((time.perf_counter() - t0) / reps)
        points = 6 * n * n
        key = f"operators.advect_raw.probe_n{n}"
        out[f"{key}.us_per_call"] = 1e6 * statistics.median(per_call)
        out[f"{key}.fft_points_computed"] = points
        out[f"{key}.fft_bytes_computed"] = points * 16 * 2
        out[f"{key}.fft_flops_computed"] = 5 * points * math.log2(n * n)
    return out


class Calls:
    """Gate bookkeeping over the runner calls of one run."""

    def __init__(self, expected: dict[str, float]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, report) -> None:
        self.attempted += 1
        if report is None:
            self.failed += 1
            return
        problems = wl.gate(report, self.expected)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed_call(workload, seed, out_dir, calls: Calls, tracer=None) -> float:
    """Wall seconds of one runner call; a call that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        report = wl.run_call(workload, seed, out_dir, tracer)
    except Exception as exc:
        report = None
        calls.problems.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    calls.check(report)
    return wall


def main(argv: list[str] | None = None) -> int:
    args = wl.parse_run_args(argv)

    nudgeflow = wl.import_nudgeflow()
    workload = wl.WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(wl.OUT_DIR, label)
    seed, expected = wl.recorded(workload, args.seed)
    calls = Calls(expected)
    metrics: dict[str, float] = {}

    # The first call finishes lazy imports and fills the runners' caches;
    # it is gated but not timed.  Later calls grow the heap through those
    # caches, so the peak memory is taken after a fixed number of calls: one.
    timed_call(workload, seed, out_dir, calls)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    if args.trace == 0:
        walls, windows = [], []
        with hostspeed.Probe() as probe:
            while not walls or time.perf_counter() - start < args.seconds:
                first = len(probe.samples)
                walls.append(timed_call(workload, seed, out_dir, calls))
                windows.append(probe.samples[first:])
        rescaled = [hostspeed.rescale(w, s) for w, s in zip(walls, windows)]
        metrics["wall_s"] = statistics.median(rescaled)
        metrics["passed_share"] = (calls.attempted - calls.failed) / calls.attempted
        samples = {
            "wall_s": rescaled,
            "raw_wall_s": walls,
            "host_median_kernel_s": statistics.median(probe.samples),
        }
    else:
        from tracer import Tracer, instrument, layer_metrics

        tracer = Tracer()
        plain, traced = [], []
        while not traced or time.perf_counter() - start < args.seconds:
            plain.append(timed_call(workload, seed, out_dir, calls))
            restore = instrument(tracer)
            try:
                traced.append(timed_call(workload, seed, out_dir, calls, tracer))
            finally:
                restore()
        metrics.update(layer_metrics(tracer, len(traced)))
        metrics["trace.untraced_wall_s"] = statistics.median(plain)
        metrics["trace.traced_wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (
            metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        )
        metrics.update(probe_advect(seed))
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "spans.json"))
        samples = {"untraced_wall_s": plain, "traced_wall_s": traced}

    result = {
        "provenance": provenance(workload, args.seed, seed, nudgeflow),
        "attempted": calls.attempted,
        "failed": calls.failed,
        "problems": calls.problems[:20],
        "samples": samples,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
