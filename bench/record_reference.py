"""Record the expected report values of every workload for a range of seeds.

    python3 bench/record_reference.py

Runs each workload's runner once per seed 0 .. RECORDED_SEEDS - 1 and the
config default seed with this checkout's nudgeflow, and writes
bench/reference.json, which the gate compares every benchmark call with,
only if every report is all-PASS.
Re-recording belongs in a change to the benchmark itself (for example
after a change that deliberately alters what a report computes), never
in a change that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

import workloads as wl


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    os.environ.update(wl.THREAD_ENV)
    nudgeflow = wl.import_nudgeflow()
    import numpy
    import scipy

    from nudgeflow.config import default_config

    seeds = [default_config().seed] + list(range(wl.RECORDED_SEEDS))
    recorded = {}
    failed = []
    with tempfile.TemporaryDirectory(dir=wl.BENCH_DIR) as out_dir:
        for name, workload in sorted(wl.WORKLOADS.items()):
            values = {}
            for seed in seeds:
                report = wl.run_call(workload, seed, out_dir)
                problems = wl.gate(report, None)
                print(f"{name} seed {seed}: {report.status} {problems or ''}", flush=True)
                if problems:
                    failed.append((name, seed, problems))
                else:
                    values[str(seed)] = dict(report.values)
            recorded[name] = values
    for name, seed, problems in failed:
        print(f"not all-PASS: {name} seed {seed}: {problems}", file=sys.stderr)
    if failed:
        return 1
    doc = {
        "recorded_with": {
            "nudgeflow": nudgeflow.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "workloads": recorded,
    }
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
