"""nudgeflow benchmark: time to a certified verdict on two runner workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process it starts imports
nudgeflow from the checkout's src/ with BLAS/OpenMP pinned to one thread.

--seed N runs with cfg.seed N when bench/reference.json records N, and
otherwise with a recorded seed (workloads.recorded), so every call is
checked against recorded report values.

--trace 0 times `nudgeflow constants` in SETUP_RUNS fresh processes
(setup_s, the median), then runs the workload's runner repeatedly for S
seconds in one fresh worker process after an untimed warm-up call
(wall_s, passed_share; peak_rss_mb after the warm-up call).  wall_s and
setup_s are rescaled to a reference host speed (hostspeed.py).
--trace 1 runs the traced worker instead and reports the per-layer
metrics.  The last line of stdout is the result JSON; the line before it
carries provenance, samples and the gate's findings, which are also
written to bench/out/BENCH_<workload>-seed<N>-trace<T>.json.

Exits 2 without a result when the checkout has no nudgeflow sources or
a process it started fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads as wl

SETUP_RUNS = 7
# Whole-run deadline; the worker gets what the set-up runs leave of it.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def setup_seconds(
    workload: wl.Workload, seed: int, out_dir: str, deadline: float
) -> list[tuple[float, list[float]]]:
    """Start-to-exit wall time of fresh `nudgeflow constants` processes, each
    with the host speed samples taken inside it."""
    os.makedirs(out_dir, exist_ok=True)
    speed_path = os.path.join(out_dir, "setup_speed.json")
    cmd = [
        sys.executable, os.path.join(wl.BENCH_DIR, "hostspeed.py"), speed_path,
        "-m", "nudgeflow.cli", "--config", workload.config_path,
        "--seed", str(seed), "--out", os.path.join(out_dir, "constants"),
        "--quiet", "constants",
    ]
    runs = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=wl.ROOT, env=wl.child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"constants exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        with open(speed_path, encoding="utf-8") as fh:
            runs.append((wall, json.load(fh)))
    return runs


def main(argv: list[str] | None = None) -> int:
    args = wl.parse_run_args(argv, __doc__.splitlines()[0])
    if not os.path.isfile(os.path.join(wl.SRC, "nudgeflow", "__init__.py")):
        return fail(f"no nudgeflow sources under {wl.SRC}")

    deadline = time.monotonic() + DEADLINE_S
    workload = wl.WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(wl.OUT_DIR, label)
    try:
        seed, _ = wl.recorded(workload, args.seed)
        setup = [] if args.trace else setup_seconds(workload, seed, out_dir, deadline)
        proc = subprocess.run(
            [sys.executable, os.path.join(wl.BENCH_DIR, "worker.py"),
             "--workload", workload.name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=wl.ROOT, env=wl.child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (OSError, KeyError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0:
        return fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        detail = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return fail(f"worker printed no result: {proc.stdout[-2000:]}")

    metrics = detail["metrics"]
    if setup:
        rescaled = [hostspeed.rescale(wall, window) for wall, window in setup]
        metrics["setup_s"] = statistics.median(rescaled)
        detail["samples"]["setup_s"] = rescaled
        detail["samples"]["raw_setup_s"] = [wall for wall, _ in setup]
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return fail(f"worker did not report {missing}")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    with open(os.path.join(wl.OUT_DIR, f"BENCH_{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(detail, result=result), fh, indent=1)
    print(json.dumps({k: v for k, v in detail.items() if k != "metrics"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
