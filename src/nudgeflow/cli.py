"""Command line entry points for the experiment harness.

Exit status:

  0  every enabled check of the invoked subcommand passed (skipped checks
     do not fail a run);
  1  a check failed.  This includes the `solver` check a runner adds when
     a linear, Newton or reference solve stalls or turns non-finite; the
     report (with the solver message and residual trace), the series
     recorded up to the failure and a snapshot of the last accepted state
     are written all the same;
  2  bad input: an unreadable config file, or a ConfigError from the
     parser or the runners' front door (`experiments._setup` and each
     runner's own checks), raised before anything is integrated except
     for the twin's v0 != u(0) and the soak's B_V(M1) of truth-based v0.

Any other exception is a program error, and propagates.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, ExperimentConfig, default_config, load_config
from .experiments import (
    FAIL,
    ExperimentReport,
    _Run,
    _setup,
    run_contraction_test,
    run_n_sweep,
    run_stability_soak,
    run_tau_sweep,
    run_twin_experiment,
)
from .schemes import FULLY_IMPLICIT, SEMI_IMPLICIT

_SCHEME_ALIAS = {"semi": SEMI_IMPLICIT, "full": FULLY_IMPLICIT}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nudgeflow",
        description="Discrete nudging-based downscaling experiments for "
        "the 2D incompressible flow equations.",
    )
    parser.add_argument("--config", help="experiment config file (defaults used if omitted)")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--scheme", choices=sorted(_SCHEME_ALIAS),
        help="override the time scheme (semi | full)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress console output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "run the built-in operator self tests"),
        ("twin", "nudged run against a truth solution per the config"),
        ("tau-sweep", "time-step convergence against an ETDRK4 reference flow"),
        ("n-sweep", "cutoff sweep with the postprocessing correction"),
        ("soak", "long-run stability bound verification"),
        ("contraction", "difference-of-solutions envelope verification"),
        ("constants", "print the a-priori constants and condition checks"),
    ):
        sub.add_parser(name, help=help_text)
    return parser


def _load_cfg(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.scheme is not None:
        cfg = replace(cfg, scheme=_SCHEME_ALIAS[args.scheme])
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _constants_report(cfg: ExperimentConfig) -> ExperimentReport:
    setup = _setup(cfg)
    with _Run("constants", setup, None) as run:
        if setup.consts is None:
            run.report.notes.append("zero forcing: a-priori constants are undefined")
    return run.report


_RUNNERS = {
    "twin": run_twin_experiment,
    "tau-sweep": run_tau_sweep,
    "n-sweep": run_n_sweep,
    "soak": run_stability_soak,
    "contraction": run_contraction_test,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            from .oracles import run_self_check  # only `check` loads the oracles
            cfg = _load_cfg(args)
            report = run_self_check(cfg.seed, out_dir=cfg.out_dir)
        elif args.command == "constants":
            report = _constants_report(_load_cfg(args))
        else:
            report = _RUNNERS[args.command](_load_cfg(args))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(report.describe())
        for check in report.conditions or ():
            print(check.describe())
    return 1 if any(c.status == FAIL for c in report.checks) else 0


if __name__ == "__main__":
    sys.exit(main())
