"""Every draw of the CLI fuzz space, each run once.

`test_experiments.test_cli_exits_0_1_or_2_on_adversarial_configs` samples
100 draws per run: one command of `_FUZZ_COMMANDS` on `_FUZZ_BASE` with one
to three keys set to values of `_FUZZ_VALUES`.  This script runs all
58,434 of them in-process under `error::RuntimeWarning`, as the test suite
does, split over WORKERS = 2 processes (BLAS pinned to one thread each).
From the root of a checkout:

    PYTHONPATH=src python tests/fuzz_all.py [--out out/fuzz_all.json]

It writes a JSON summary: the count of each exit code per command and per
key, every failing draw (an exception out of `cli.main`, or an exit code
other than 0, 1 or 2) with its traceback, and the slowest draws.  It exits
1 if any draw failed.  pytest does not collect this file.
"""

import argparse
import contextlib
import io
import itertools
import json
import multiprocessing
import os
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict

from test_experiments import _FUZZ_COMMANDS, _FUZZ_VALUES, _fuzz_exit

WORKERS = 2
SLOWEST = 20


def draws() -> list[tuple[str, dict]]:
    """Every (command, changes) of one to three keys, in a fixed order."""
    keys = sorted(_FUZZ_VALUES)
    return [
        (command, dict(zip(combo, values)))
        for size in (1, 2, 3)
        for combo in itertools.combinations(keys, size)
        for values in itertools.product(*(_FUZZ_VALUES[k] for k in combo))
        for command in _FUZZ_COMMANDS
    ]


def _run_share(worker: int) -> list[tuple[int, object, float]]:
    """(index, exit code or traceback, seconds) of every draw whose index is
    `worker` modulo WORKERS."""
    warnings.simplefilter("error", RuntimeWarning)
    results = []
    for i, (command, changes) in enumerate(draws()):
        if i % WORKERS != worker:
            continue
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                outcome = _fuzz_exit(command, changes)
        except Exception:  # a program error: the draw fails, the run goes on
            outcome = traceback.format_exc()
        results.append((i, outcome, time.perf_counter() - t0))
    return results


def summarize(results: list[tuple[int, object, float]], wall_s: float) -> dict:
    """The JSON summary of every worker's results, sorted by draw index."""
    everything = draws()
    per_command: dict[str, Counter] = defaultdict(Counter)
    per_key: dict[str, Counter] = defaultdict(Counter)
    failing = []
    for i, outcome, _ in results:
        command, changes = everything[i]
        code = str(outcome) if outcome in (0, 1, 2) else "fail"
        per_command[command][code] += 1
        for key in changes:
            per_key[key][code] += 1
        if code == "fail":
            failing.append({"command": command, "changes": changes, "outcome": str(outcome)})
    slowest = sorted(results, key=lambda r: -r[2])[:SLOWEST]
    return {
        "draws": len(results),
        "failures": len(failing),
        "wall_s": round(wall_s, 1),
        "exit_codes_per_command": {c: dict(sorted(n.items())) for c, n in per_command.items()},
        "exit_codes_per_key": {k: dict(sorted(n.items())) for k, n in sorted(per_key.items())},
        "failing_draws": failing,
        "slowest_draws": [
            {"command": everything[i][0], "changes": everything[i][1], "s": round(s, 3)}
            for i, _, s in slowest
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join("out", "fuzz_all.json"))
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    # each worker imports numpy afresh, with BLAS on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        results = [r for share in pool.map(_run_share, range(WORKERS)) for r in share]
    summary = summarize(sorted(results), time.perf_counter() - t0)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"{summary['draws']} draws, {summary['failures']} failures, "
          f"{summary['wall_s']} s; summary in {args.out}")
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
