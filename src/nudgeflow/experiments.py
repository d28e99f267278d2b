"""Experiment harness: twin runs, sweeps, soaks, and report output (the
self check, `nudgeflow check`, runs the structural oracles of `oracles`).

Every runner takes an ExperimentConfig, draws all randomness from a single
seeded generator in a fixed order (truth first, then initial data, then
perturbations), writes CSV series / text reports with full-precision
deterministic formatting, and returns an ExperimentReport whose checks
decide the process exit code.

The runners share one pipeline.  `_setup` builds the grid, forcing,
parameters and a-priori constants, and is the front door: with each
runner's own checks before it, it rejects every bad value the config alone
decides with a ConfigError naming its keys, before anything is
integrated.  `_start` integrates the truth and returns it with the
initial data v0 = build_ic, which every branch builds in the low-mode
space.  The truth, like every reference and every stored march, is a
`storage.Trajectory`, packed frames read through a time stencil: a steady
state's one frame, the Taylor-Green vortex's t = 0 frame weighted by its
decay, or the frames `nse_integrate` stored; the runners hand it to the
solver whatever beta is, and the solver observes it under the params'
interpolant only when beta > 0.  The run
itself happens inside a `_Run` block, which owns the report, the output
directory and the output tables (`_Run.table`).  Runners record, then
judge: `_Run._march` stores every iterate of the march from v0 and,
after it, builds the table of row 0 and every accepted step from the
stored frames (packed norms, errors, envelopes); every check is computed
from the recorded columns, so each verdict can be recomputed from the
CSVs.  A soak violation snapshots the stored frame of its first
violating step.  On leaving the block `_Run` writes the tables in the
order they were registered, then the report.  A stalled or non-finite
solve (SolverError) inside the block ends the run with a failed `solver`
check carrying the message and residual trace; the rows of the accepted
steps, a snapshot of the last accepted state and the report are still
written.  Any other exception propagates and writes no table or report.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .analysis import (
    BoundConstants,
    ConditionCheck,
    FitError,
    bound_constants,
    check_conditions,
    contraction_envelope,
    convergence_order,
    decay_rate_fit,
    gronwall_envelope,  # noqa: F401  (a layer entry point that tracing patches)
    stability_bound_h2,
    stability_bound_v2,
    tail_sup,
)
from .config import ConfigError, ExperimentConfig
from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _band_packing,
    norm_DA,  # noqa: F401  (a layer entry point that tracing patches)
    norm_H,
    norm_V,
    project_low,
    random_field,
)
from .interpolants import InterpolantSpec, estimate_c0
from .krylov import SolverError
from .operators import (
    _taylor_green_decay,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    phi1,
    taylor_green,
)
from .schemes import (
    SEMI_IMPLICIT,
    PhysicsParams,
    _galerkin,
    _steps_for,
    advance,
    nse_integrate,
    reference_galerkin_integrate,
)
from .storage import Trajectory, atomic_write_text, save_snapshot, series_to_csv

__all__ = [
    "PASS", "FAIL", "SKIP", "SERIES_HEADER", "CheckResult", "ExperimentReport",
    "SeriesRecorder", "build_forcing", "build_truth", "build_ic",
    "run_twin_experiment", "run_contraction_test", "run_stability_soak",
    "run_tau_sweep", "run_n_sweep", "render_report",
    "write_report",
]

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"

# Fixed schema of every per-step series file.  err/envelope columns are 0
# where the run has no reference (the columns always exist).
SERIES_HEADER = (
    "step", "time", "norm_H", "norm_V", "norm_DA",
    "err_H", "err_V", "envelope_H", "envelope_V",
)

# Relative slack applied to hard bound checks: the inequalities are proved
# in exact arithmetic, the iterates carry solver residuals of ~1e-10.
BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    def describe(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.name}: {self.status}{tail}"


@dataclass
class ExperimentReport:
    name: str
    scheme: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    constants: BoundConstants | None = None
    conditions: tuple[ConditionCheck, ...] | None = None
    series_files: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    def add_check(self, name: str, status: str, detail: str = "") -> None:
        self.checks.append(CheckResult(name, status, detail))

    def describe(self) -> str:
        lines = [f"{self.name}: {self.status}"]
        lines.extend("  " + c.describe() for c in self.checks)
        return "\n".join(lines)


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def render_report(report: ExperimentReport) -> str:
    """Each section of the report under its [title], in order; a section
    that is None (constants and conditions a run lacks, empty values,
    series and notes) is left out."""
    constants, conditions = report.constants, report.conditions
    sections = {
        "run": [
            f"experiment = {report.name}", f"scheme = {report.scheme}",
            f"seed = {report.seed}", f"status = {report.status}",
        ],
        "constants": constants and [f"{k} = {_fmt(v)}" for k, v in asdict(constants).items()],
        "conditions": conditions and [check.describe() for check in conditions],
        "checks": [
            f"{c.name} = {c.status}" + (f" ({c.detail})" if c.detail else "")
            for c in report.checks
        ],
        "values": [f"{k} = {_fmt(v)}" for k, v in report.values.items()] or None,
        "series": [f"file_{i} = {name}" for i, name in enumerate(report.series_files)] or None,
        "notes": [f"note_{i} = {note}" for i, note in enumerate(report.notes)] or None,
    }
    lines = []
    for title, entries in sections.items():
        if entries is not None:
            lines += ["", f"[{title}]", *entries]
    return "\n".join(lines[1:] + [""])


def write_report(report: ExperimentReport, out_dir: str) -> str:
    path = os.path.join(out_dir, f"{report.name}_report.txt")
    atomic_write_text(path, render_report(report))
    return path


class SeriesRecorder:
    """The rows of one table under its header."""

    def __init__(self, header: tuple[str, ...] = SERIES_HEADER) -> None:
        self.header = header
        self.rows: list[tuple] = []

    def column(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([row[i] for row in self.rows], dtype=float)

    def write(self, out_dir: str, filename: str) -> str:
        path = os.path.join(out_dir, filename)
        atomic_write_text(path, series_to_csv(self.header, self.rows))
        return path


# ---------------------------------------------------------------------------
# builders


def _random_band_forcing(
    grid: TorusGrid, amplitude: float, decay: float, seed: int
) -> SpectralField:
    """Solenoidal forcing with power-law spectrum |f_j| ~ |j|^(-decay).

    The algebraic tail makes truncation errors decay algebraically in the
    cutoff, which is the regime the postprocessing rate sweep probes.
    Scaled so norm_H matches a shear forcing of the same amplitude.
    """
    rng = np.random.default_rng([int(seed), 240])
    shape = (2, grid.n, grid.n)
    band = _band_packing(grid)
    a = band._pack_grid(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f = SpectralField(grid, a * band.shell.astype(float) ** (-0.5 * decay))
    target = amplitude * grid.L / math.sqrt(2.0)
    nh = norm_H(f)
    if nh == 0.0:
        raise ValueError("degenerate random forcing")
    return f * (target / nh)


def build_forcing(cfg: ExperimentConfig, grid: TorusGrid) -> SpectralField:
    if cfg.forcing == "none":
        return SpectralField.zero(grid)
    if cfg.forcing == "kolmogorov":
        return kolmogorov_forcing(grid, cfg.forcing_kappa, cfg.forcing_amplitude)
    if cfg.forcing == "random_band":
        return _random_band_forcing(
            grid, cfg.forcing_amplitude, cfg.forcing_decay, cfg.seed
        )
    raise ConfigError(f"unknown forcing kind {cfg.forcing!r}")


@dataclass
class _Setup:
    cfg: ExperimentConfig
    grid: TorusGrid
    forcing: SpectralField
    params: PhysicsParams
    consts: BoundConstants | None
    conditions: tuple[ConditionCheck, ...] | None
    rng: np.random.Generator
    horizon: float | None  # the truth spans [0, horizon]
    spinup_steps: int  # of an nse_integrate truth


def _config_value(keys: str, build: Callable, *args, **kwargs):
    """build(*args, **kwargs); a ValueError or ArithmeticError is a ConfigError on keys."""
    try:
        return build(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _steps(span: float, span_key: str, step: float, step_key: str) -> int:
    """span / step, a whole number, or a ConfigError naming both keys."""
    try:
        return _steps_for(span, step)
    except ValueError:
        msg = f"{span_key} = {span} is not a whole number of {step_key} = {step}"
        raise ConfigError(msg) from None


# the forcing that each analytic truth solves the equations with
_TRUTH_FORCING = {"analytic:kolmogorov": "kolmogorov", "analytic:taylor_green": "none"}


def _truth_spinup_steps(
    cfg: ExperimentConfig, grid: TorusGrid, t: float, key: str
) -> int:
    """Checks the config's truth on [0, t], t the value of the config
    expression `key`; the spin-up steps of an nse_integrate truth."""
    forcing = _TRUTH_FORCING.get(cfg.truth)
    if forcing is not None:
        if cfg.forcing != forcing:
            raise ConfigError(f"truth = {cfg.truth} needs forcing = {forcing}")
        if cfg.truth == "analytic:taylor_green":
            _config_value(
                "forcing_kappa", _taylor_green_decay, grid, cfg.forcing_kappa, 0.0, cfg.nu
            )
        return 0
    if cfg.truth != "nse_integrate":
        raise ConfigError(f"unknown truth kind {cfg.truth!r}")
    tau_t, step_key = cfg.tau / cfg.truth_dt_factor, "truth steps tau / truth_dt_factor"
    _steps(t, key, tau_t, step_key)
    if cfg.truth_spinup == 0.0:
        return 0
    return _steps(cfg.truth_spinup, "truth_spinup", tau_t, step_key)


def _setup(
    cfg: ExperimentConfig, *, horizon: tuple[float, str] | None = None
) -> _Setup:
    """The config's grid, forcing, params and constants (module docstring).

    A runner that integrates a truth over [0, t] passes horizon = (t, the
    config expression of t), which checks that truth too.
    """
    grid = _config_value("L, grid_n", TorusGrid, cfg.L, cfg.grid_n)
    forcing = _config_value("forcing_kappa", build_forcing, cfg, grid)
    spec = None
    if cfg.interpolant != "none":
        spec = _config_value("h", InterpolantSpec, cfg.interpolant, cfg.h)
    params = _config_value(
        "nu, beta, interpolant, lambda_cut",
        lambda: PhysicsParams(
            cfg.nu, grid, forcing, cfg.beta, spec, GalerkinCutoff(cfg.lambda_cut)
        ),
    )
    if params.beta > 0.0 and spec.kind == "volume_average":
        _config_value("h, grid_n", spec.blocks, grid)
    elif params.beta > 0.0:
        _config_value(
            "h (Fourier truncation observes |k|^2 <= 1/h^2)",
            lambda: spec.cutoff().shell_limit(grid),
        )
    spinup_steps = 0 if horizon is None else _truth_spinup_steps(cfg, grid, *horizon)
    consts = None
    conditions = None
    # |f| may underflow or the constants overflow: bound_constants names either
    if np.any(forcing.coeffs):
        consts = _config_value("nu, forcing_amplitude", bound_constants, params)
    if consts is not None and params.beta > 0.0:
        c0_value = None
        if spec.kind == "volume_average":
            c0_value = estimate_c0(spec, grid)
        conditions = check_conditions(params, consts, c0_value=c0_value)
    return _Setup(
        cfg, grid, forcing, params, consts, conditions,
        np.random.default_rng(cfg.seed),
        None if horizon is None else horizon[0], spinup_steps,
    )


# ---------------------------------------------------------------------------
# truth sources


def _steady(u: SpectralField) -> Trajectory:
    """A time-independent u, whose amplitudes are its one frame."""
    return Trajectory(_band_packing(u.grid), [u.coeffs], lambda t: (0, None))


def _m1_scale(setup: _Setup) -> float:
    return setup.consts.M1 if setup.consts is not None else 1.0


def build_truth(setup: _Setup) -> Trajectory:
    """Truth on [0, setup.horizon] per config (checked by `_setup`).

    Consumes the setup rng (before any initial data).
    """
    cfg = setup.cfg
    if cfg.truth == "analytic:kolmogorov":
        u_star = kolmogorov_steady_state(
            setup.grid, cfg.forcing_kappa, cfg.forcing_amplitude, cfg.nu
        )
        return _steady(u_star)
    if cfg.truth == "analytic:taylor_green":
        # the t = 0 frame times the vortex's decay, as `taylor_green` scales it
        grid, kappa, nu = setup.grid, cfg.forcing_kappa, cfg.nu
        return Trajectory(
            _band_packing(grid), [taylor_green(grid, kappa, 0.0, nu).coeffs],
            lambda t: (0, [_taylor_green_decay(grid, kappa, t, nu)]),
        )

    tau_t = cfg.tau / cfg.truth_dt_factor
    p_free = PhysicsParams(
        nu=cfg.nu, grid=setup.grid, forcing=setup.forcing, beta=0.0,
        interpolant=None, cutoff=setup.grid.band_cutoff(),
    )
    u_init = random_field(setup.grid, setup.rng, norm_v=_m1_scale(setup))
    if setup.spinup_steps:
        u_init, _ = advance(u_init, p_free, None, tau_t, setup.spinup_steps)
    return nse_integrate(
        u_init, p_free, setup.horizon, tau_t, store_every=cfg.truth_store_every
    )


def build_ic(setup: _Setup, truth: Trajectory) -> SpectralField:
    cfg = setup.cfg
    cutoff = setup.params.cutoff
    scale = _m1_scale(setup)
    if cfg.ic == "zero":
        return SpectralField.zero(setup.grid)
    if cfg.ic == "random_bv":
        return random_field(
            setup.grid, setup.rng, norm_v=cfg.ic_amplitude * scale, cutoff=cutoff
        )
    if cfg.ic == "truth_low":
        return project_low(truth.at(0.0), cutoff)
    if cfg.ic == "perturbed_truth":
        bump = random_field(
            setup.grid, setup.rng, norm_v=cfg.ic_amplitude * scale, cutoff=cutoff
        )
        return project_low(truth.at(0.0), cutoff) + bump
    raise ConfigError(f"unknown initial condition kind {cfg.ic!r}")


def _start(setup: _Setup) -> tuple[Trajectory, SpectralField]:
    """Truth on [0, setup.horizon] and v0 (build_ic is low-supported)."""
    truth = build_truth(setup)
    return truth, build_ic(setup, truth)


# Residuals of a failed solve's history quoted in the `solver` check.
_TRACE_TAIL = 8


def _series_rows(
    traj: Trajectory, reference: Trajectory, envelopes: tuple | None
) -> list[tuple]:
    """SERIES_HEADER rows of a march stored at every step: each frame's
    step, time, packed norms, errors against `reference` and envelope
    entries (0 without envelopes)."""
    n = len(traj.frames)
    env_h, env_v = envelopes or (np.zeros(n),) * 2
    norms = [traj.packing.norms(x) for x in traj.frames]
    errors = reference.errors(traj.packing, traj.times, traj.frames)[:, :2]
    table = np.column_stack(
        (np.arange(n), traj.times, norms, errors, env_h[:n], env_v[:n])
    )
    return [tuple(row) for row in table.tolist()]


class _Run:
    """One runner's report, output tables and solver failures.

    `run.table` registers an output table; the module docstring says what
    leaving the block writes.  A SolverError is not re-raised: a stalled or
    non-finite solve is an outcome of the run, not bad input.  Its last
    accepted state goes to the snapshot <name>_solver_state.nnsf, which the
    `solver` check names.
    """

    def __init__(self, name: str, setup: _Setup, out_dir: str | None) -> None:
        cfg = setup.cfg
        self.report = ExperimentReport(
            name, cfg.scheme, cfg.seed,
            constants=setup.consts, conditions=setup.conditions,
        )
        self.out = out_dir if out_dir is not None else cfg.out_dir
        self._setup = setup
        self._tables: list[tuple[str, SeriesRecorder]] = []

    def table(
        self, filename: str, header: tuple[str, ...] = SERIES_HEADER
    ) -> SeriesRecorder:
        rec = SeriesRecorder(header)
        self._tables.append((filename, rec))
        return rec

    def _march(
        self, filename: str, truth: Trajectory, v0: SpectralField, tau: float,
        n_steps: int, reference: Trajectory, envelopes: tuple | None = None,
    ) -> tuple[SeriesRecorder, Trajectory]:
        """The table `filename` of the march from v0, and its trajectory,
        stored at every step.

        After the march, row k holds step k's time, the packed norms of
        v^k, its errors against `reference` and the entries k of the
        (H, V) envelope arrays, 0 without them.  A SolverError fills the
        rows of the accepted steps, from the trajectory it carries, and
        propagates.
        """
        rec = self.table(filename)
        try:
            _, traj = advance(
                v0, self._setup.params, truth, tau, n_steps,
                scheme=self._setup.cfg.scheme, store_every=1,
            )
        except SolverError as exc:
            rec.rows = _series_rows(exc.trajectory, reference, envelopes)
            raise
        rec.rows = _series_rows(traj, reference, envelopes)
        return rec, traj

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and not isinstance(exc, SolverError):
            return False
        if exc is not None:
            self._solver_failed(exc)
        for filename, rec in self._tables:
            self.report.series_files.append(rec.write(self.out, filename))
        write_report(self.report, self.out)
        return True

    def _solver_failed(self, exc: SolverError) -> None:
        detail = str(exc)
        if exc.result is not None:
            tail = exc.result.history[-_TRACE_TAIL:]
            detail += (
                f"; residual trace (last {len(tail)} of "
                f"{len(exc.result.history)}): "
                + " ".join("%.3e" % r for r in tail)
            )
        if exc.field is not None:
            name = f"{self.report.name}_solver_state.nnsf"
            save_snapshot(os.path.join(self.out, name), exc.field, exc.cutoff)
            detail += f"; last accepted state (step {exc.step}) in {name}"
        self.report.add_check("solver", FAIL, detail)


# ---------------------------------------------------------------------------
# twin experiment


def run_twin_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """Nudged downscaling run against a truth solution.

    twin_expect = decay requires the H error to fall by min_decay_orders
    before flooring with a positive fitted rate; no_decay (the beta = 0
    control) requires the error never to fall two orders below its start.
    """
    n_steps = _steps(cfg.t_end, "t_end", cfg.tau, "steps tau")
    setup = _setup(cfg, horizon=(cfg.t_end, "t_end"))
    params, tau = setup.params, cfg.tau
    with _Run("twin", setup, out_dir) as run:
        report = run.report
        truth, v0 = _start(setup)
        gal = _galerkin(params)
        e0_h, e0_v, _ = truth.errors(gal, [0.0], [gal._pack_field(v0)])[0]
        if e0_h == 0.0:
            raise ConfigError("twin experiment requires v0 != u(0)")

        # The geometric factor is proved for discrete-vs-discrete differences;
        # against a steady truth (itself a discrete solution) it is rigorous,
        # otherwise the envelope columns are advisory.
        env_h = np.sqrt(contraction_envelope(e0_h**2, params, tau, n_steps))
        env_v = np.sqrt(contraction_envelope(e0_v**2, params, tau, n_steps))

        rec, _ = run._march(
            "twin_series.csv", truth, v0, tau, n_steps, truth, (env_h, env_v)
        )
        times, errs_h, norms_v = (rec.column(c) for c in ("time", "err_H", "norm_V"))

        if cfg.twin_expect == "decay":
            try:
                fit = decay_rate_fit(times, errs_h)
                orders = math.log10(errs_h[0] / fit.floor) if fit.floor > 0 else math.inf
                report.values["decay_rate"] = fit.rate
                report.values["decay_floor"] = fit.floor
                report.values["decay_orders"] = orders
                ok_orders = orders >= cfg.min_decay_orders
                report.add_check(
                    "decay_orders", PASS if ok_orders else FAIL,
                    f"{orders:.2f} orders, floor {fit.floor:.3e}, "
                    f"required {cfg.min_decay_orders:g}",
                )
                report.add_check(
                    "decay_rate", PASS if fit.rate > 0 else FAIL,
                    f"fitted rate {fit.rate:.4g} over {fit.n_used} samples",
                )
            except FitError as exc:
                report.add_check("decay_orders", FAIL, f"no decaying fit: {exc}")
        else:
            ratio = float(np.min(errs_h)) / errs_h[0]
            report.values["min_error_ratio"] = ratio
            report.add_check(
                "no_decay", PASS if ratio >= 1e-2 else FAIL,
                f"min/initial error ratio {ratio:.3e} (must stay >= 1e-2)",
            )

        if setup.conditions is not None:
            ok = all(check.passed for check in setup.conditions)
            report.add_check(
                "conditions", PASS if ok else FAIL,
                "admissibility inequalities for the nudging gain and resolution",
            )
        elif params.beta > 0.0:
            report.add_check(
                "conditions", SKIP, "zero forcing (the constants need |f| > 0)"
            )
        else:
            report.add_check("conditions", SKIP, "no nudging (beta = 0 control)")

        if (
            setup.consts is not None
            and params.beta > 0.0
            and norms_v[0] <= setup.consts.M1 * (1.0 + BOUND_RTOL)
        ):
            bound = 6.0 * setup.consts.M1
            sup_v = float(np.max(norms_v))
            report.values["sup_norm_V"] = sup_v
            report.add_check(
                "stability", PASS if sup_v <= bound * (1.0 + BOUND_RTOL) else FAIL,
                f"sup ||v|| = {sup_v:.4g} vs 6 M1 = {bound:.4g}",
            )
        else:
            report.add_check("stability", SKIP, "v0 outside B_V(M1) or no constants")

        report.values["err0_H"] = e0_h
        report.values["err_final_H"] = float(errs_h[-1])
    return report


def _max_ratio(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max lhs / rhs over the entries where rhs > 0, or 0 if there are none."""
    pos = rhs > 0.0
    return float(np.max(lhs[pos] / rhs[pos], initial=0.0))


# ---------------------------------------------------------------------------
# contraction test


def run_contraction_test(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """Two runs from perturbed initial data observing the same truth.

    The second solution, from the perturbed initial data, is marched first
    and stored at every step; it is then the truth of the first's errors,
    and `_Run._march` records the first solution's norms and the
    difference of the two at every step.  The checks are then judged from
    the recorded columns: the squared difference must stay below the
    geometric envelope at steps 1..n, in H for the semi-implicit scheme
    (hypothesis tau * beta <= 1, otherwise the check is skipped), in V for
    the fully implicit scheme at any step size; unperturbed runs must
    record a difference of exactly 0.
    """
    n_steps = cfg.contraction_steps
    setup = _setup(cfg, horizon=(n_steps * cfg.tau, "contraction_steps * tau"))
    params, tau = setup.params, cfg.tau
    with _Run("contraction", setup, out_dir) as run:
        report = run.report
        truth, v0 = _start(setup)
        bump = random_field(
            setup.grid, setup.rng,
            norm_v=cfg.perturbation * _m1_scale(setup), cutoff=params.cutoff,
        )
        _, reference = advance(
            v0 + bump, params, truth, tau, n_steps, scheme=cfg.scheme, store_every=1
        )
        gal = _galerkin(params)
        eps0_h, eps0_v, _ = reference.errors(gal, [0.0], [gal._pack_field(v0)])[0]
        env_h2 = contraction_envelope(eps0_h**2, params, tau, n_steps)
        env_v2 = contraction_envelope(eps0_v**2, params, tau, n_steps)

        rec, _ = run._march(
            "contraction_series.csv", truth, v0, tau, n_steps, reference,
            (np.sqrt(env_h2), np.sqrt(env_v2)),
        )
        eps_h, eps_v = rec.column("err_H"), rec.column("err_V")
        max_ratio_h = _max_ratio(eps_h[1:] ** 2, env_h2[1:])
        max_ratio_v = _max_ratio(eps_v[1:] ** 2, env_v2[1:])

        report.values["eps0_H"] = eps0_h
        report.values["eps0_V"] = eps0_v
        report.values["max_ratio_H"] = max_ratio_h
        report.values["max_ratio_V"] = max_ratio_v
        report.values["eps_final_H"] = float(eps_h[-1])

        tol = 1.0 + BOUND_RTOL
        if cfg.perturbation == 0.0:
            identical = not (np.any(eps_h) or np.any(eps_v))
            report.add_check(
                "identical_runs", PASS if identical else FAIL,
                "difference of two unperturbed runs must vanish identically",
            )
        elif cfg.scheme == SEMI_IMPLICIT:
            if tau * params.beta <= 1.0 + 1e-12:
                report.add_check(
                    "contraction_H", PASS if max_ratio_h <= tol else FAIL,
                    f"max |eps|^2 / envelope = {max_ratio_h:.6g} over {n_steps} steps",
                )
            else:
                report.add_check(
                    "contraction_H", SKIP,
                    f"tau*beta = {tau * params.beta:.4g} > 1: outside the "
                    "semi-implicit contraction hypothesis",
                )
        else:
            report.add_check(
                "contraction_V", PASS if max_ratio_v <= tol else FAIL,
                f"max ||eps||^2 / envelope = {max_ratio_v:.6g} over {n_steps} steps",
            )
    return report


# ---------------------------------------------------------------------------
# stability soak


def run_stability_soak(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """Long integrations checking every a-priori bound at every step.

    Preconditions: nonzero forcing, beta > 0, the admissibility conditions
    pass, and the initial data lies in B_V(M1).  Each tau's march records
    every step; the bounds are then judged from the recorded norms against
    the in-memory envelopes, so one report covers all bounds.  A violated
    bound fails its check and dumps the stored iterate of its first
    violating step as a snapshot.
    """
    taus = cfg.tau_list if cfg.tau_list else (cfg.tau,)
    n_steps = cfg.soak_steps
    if cfg.ic == "random_bv" and abs(cfg.ic_amplitude) > 1.0 + BOUND_RTOL:
        raise ConfigError(
            f"ic_amplitude = {cfg.ic_amplitude}: soak initial data must lie in "
            "B_V(M1), and ic = random_bv draws ||v0|| = |ic_amplitude| M1"
        )
    span = "soak_steps * max(tau_list)" if cfg.tau_list else "soak_steps * tau"
    setup = _setup(cfg, horizon=(n_steps * max(taus), span))
    if setup.consts is None or setup.params.beta <= 0.0:
        raise ConfigError("stability soak requires a nonzero forcing and beta > 0")
    if not all(check.passed for check in setup.conditions):
        raise ConfigError(
            "stability soak requires the admissibility conditions on beta, h and "
            "nu to pass:\n" + "\n".join(check.describe() for check in setup.conditions)
        )
    params, consts = setup.params, setup.consts
    with _Run("soak", setup, out_dir) as run:
        report = run.report
        truth, v0 = _start(setup)
        gal = _galerkin(params)
        norms0 = gal.norms(gal._pack_field(v0))
        if norms0[1] > consts.M1 * (1.0 + BOUND_RTOL):
            raise ConfigError(
                f"ic = {cfg.ic}: soak initial data must lie in B_V(M1): "
                f"||v0|| = {norms0[1]:.4g} > M1 = {consts.M1:.4g}"
            )

        m1, lam1 = consts.M1, params.grid.lambda1
        beta, nu = params.beta, params.nu

        for tau in taus:
            label = f"tau={tau:g}"
            h2_env = stability_bound_h2(params, consts, norms0[0] ** 2, tau, n_steps)
            v2_env = stability_bound_v2(params, consts, norms0[1] ** 2, tau, n_steps)
            safe = "".join(ch if ch.isalnum() else "_" for ch in label)
            rec, traj = run._march(
                f"soak_series_{safe}.csv", truth, v0, tau, n_steps, truth,
                (np.sqrt(h2_env), np.sqrt(v2_env)),
            )
            # (lhs, rhs) of each bound at steps 1..n; prev is the step before
            h, v = rec.column("norm_H"), rec.column("norm_V")
            h_new, v_new, h_prev, v_prev = h[1:], v[1:], h[:-1], v[:-1]
            bounds = {
                "sup_V": (v_new, np.full(n_steps, 6.0 * m1)),
                "sup_H": (h_new, np.full(n_steps, 6.0 * m1 / math.sqrt(lam1))),
                "envelope_H2": (h_new**2, h2_env[1:]),
                "envelope_V2": (v_new**2, v2_env[1:]),
                "stepwise_enstrophy": (v_new**2, 4.0 * v_prev**2 + 40.0 * m1**2),
            }
            if cfg.scheme == SEMI_IMPLICIT:
                gain = 6.0 * tau * (
                    consts.f_norm**2 / beta + beta * consts.M0**2 + nu * m1**2
                )
                bounds["stepwise_energy"] = (
                    (1.0 + tau * (0.5 * beta + nu * lam1)) * h_new**2,
                    h_prev**2 + gain,
                )
            for name, (lhs, rhs) in bounds.items():
                check_name = f"{label}:{name}"
                ratio = _max_ratio(lhs, rhs)
                over = np.flatnonzero(lhs > rhs * (1.0 + BOUND_RTOL))
                if over.size:
                    k = int(over[0]) + 1
                    snap = os.path.join(
                        run.out, f"soak_violation_{label}_{name}_step{k}.nnsf"
                    )
                    save_snapshot(snap, traj.at(k * tau))
                    detail = f"step {k}: {lhs[k - 1]:.9g} > {rhs[k - 1]:.9g}"
                    report.add_check(check_name, FAIL, f"{detail}, iterate in {snap}")
                else:
                    report.add_check(check_name, PASS, f"max ratio {ratio:.6g}")
                report.values[f"{check_name}:max_ratio"] = ratio
            del traj  # its frames go before the next tau's march
    return report


# ---------------------------------------------------------------------------
# tau sweep


def _reference_step(
    tau_list: tuple[float, ...], ref_factor: int, t_end: float
) -> float:
    """dt_ref = min(tau)/m for the smallest m in 1..2 ref_factor such that
    every tau is a whole multiple of dt_ref and t_end one of 2 dt_ref.

    The second lets the checking run at 2 dt_ref end exactly at t_end.
    Every list whose steps are multiples of min(tau)/ref_factor passes at
    m = 2 ref_factor, since t_end is a whole number of min(tau), so the
    search stops there.
    """
    tau_min = min(tau_list)
    for m in range(1, 2 * ref_factor + 1):
        dt = tau_min / m
        ratios = [tau / dt for tau in tau_list] + [t_end / (2.0 * dt)]
        if all(abs(r - round(r)) <= 1e-9 * r for r in ratios):
            return dt
    raise ConfigError(
        f"tau_list {tau_list} with t_end = {t_end} has no reference step "
        f"dt_ref = min(tau)/m with m <= 2 ref_factor = {2 * ref_factor}: "
        "some tau is not a whole multiple of dt_ref, or t_end not one of 2 dt_ref"
    )


def run_tau_sweep(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """First-order-in-tau verification against the continuous Galerkin flow.

    All runs (coarse and reference) observe the same truth and share the
    initial data, so the truth discretization bias cancels
    and the measured gap isolates the time-stepping error.  The flow is
    approximated by one ETDRK4 trajectory at dt_ref = min(tau)/m, m >= 1
    the smallest value making every tau a whole multiple of dt_ref and t_end
    one of 2 dt_ref (`_reference_step`), with every step stored so coarse
    times hit stored states exactly.  A second ETDRK4 run at 2 dt_ref bounds
    the reference's own error: the `reference` check passes iff their
    largest H gap, ref_gap_H, is at most sup_err_H(min tau) / ref_factor.
    """
    if len(cfg.tau_list) < 3:
        raise ConfigError("tau sweep needs at least 3 step sizes")
    if cfg.ref_factor < 1:
        raise ConfigError(f"ref_factor must be >= 1, got {cfg.ref_factor}")
    steps = {
        tau: _steps(cfg.t_end, "t_end", tau, f"steps tau_list[{i}]")
        for i, tau in enumerate(cfg.tau_list)
    }
    dt_ref = _reference_step(cfg.tau_list, cfg.ref_factor, cfg.t_end)
    setup = _setup(cfg, horizon=(cfg.t_end, "t_end"))
    params = setup.params
    with _Run("tau_sweep", setup, out_dir) as run:
        report = run.report
        truth, v0 = _start(setup)
        reference = reference_galerkin_integrate(v0, params, truth, cfg.t_end, dt_ref)
        ref_2dt = reference_galerkin_integrate(v0, params, truth, cfg.t_end, 2.0 * dt_ref)
        gal = _galerkin(params)
        ref_gap_h = max(
            gal.norms(a - b)[0] for a, b in zip(reference.frames[::2], ref_2dt.frames)
        )
        del ref_2dt  # only the gap is kept

        sups_h: list[tuple[float, float]] = []
        sups_v: list[tuple[float, float]] = []
        for i, tau in enumerate(sorted(cfg.tau_list, reverse=True)):
            rec, _ = run._march(
                f"tau_sweep_series_{i}.csv", truth, v0, tau, steps[tau], reference
            )
            times = rec.column("time")
            sup_h = tail_sup(times, rec.column("err_H"), cfg.burn_in)
            sup_v = tail_sup(times, rec.column("err_V"), cfg.burn_in)
            sups_h.append((tau, sup_h))
            sups_v.append((tau, sup_v))
            report.values[f"sup_err_H:tau={tau:g}"] = sup_h
            report.values[f"sup_err_V:tau={tau:g}"] = sup_v

        summary = run.table("tau_sweep_summary.csv", ("tau", "sup_err_H", "sup_err_V"))
        summary.rows = [(t, h, v) for (t, h), (_, v) in zip(sups_h, sups_v)]

        report.values["ref_gap_H"] = ref_gap_h
        budget = sups_h[-1][1] / cfg.ref_factor  # the runs end at min(tau)
        n_ref = len(reference.frames) - 1  # even: t_end is a multiple of 2 dt_ref
        report.add_check(
            "reference", PASS if ref_gap_h <= budget else FAIL,
            f"ETDRK4 gap dt_ref vs 2 dt_ref {ref_gap_h:.3e}, must be <= "
            f"sup_err_H(min tau) / ref_factor = {budget:.3e} "
            f"(dt_ref {dt_ref:g}: {n_ref} + {n_ref // 2} ETDRK4 steps)",
        )
        for label, sups, lo, hi in (
            ("order_H", sups_h, 0.8, 1.2),
            ("order_V", sups_v, 0.7, 1.2),
        ):
            try:
                fit = convergence_order(sups)
                report.values[f"{label}:slope"] = fit.slope
                ok = lo <= fit.slope <= hi
                report.add_check(
                    label, PASS if ok else FAIL,
                    f"slope {fit.slope:.4f}, admissible [{lo}, {hi}], "
                    f"max log residual {fit.max_log_residual:.3f}",
                )
            except FitError as exc:
                report.add_check(label, FAIL, f"order fit failed: {exc}")
    return report


# ---------------------------------------------------------------------------
# cutoff sweep with postprocessing


def run_n_sweep(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """Final-time truncation error across Galerkin cutoffs, with and
    without the postprocessing correction.

    Checks: the corrected error never exceeds the plain error; the
    corrected error normalized by L_N decays algebraically in lambda_{N+1}
    with slope near -5/4; halving tau at the finest cutoff moves the
    corrected error by less than 50% (time discretization subdominant).
    """
    if len(cfg.lambda_cut_list) < 3:
        raise ConfigError("cutoff sweep needs at least 3 cutoffs")
    n_coarse = _steps(cfg.t_end, "t_end", cfg.tau, "steps tau")
    setup = _setup(cfg, horizon=(cfg.t_end, "t_end"))
    # a cutoff inside the band has a next eigenvalue, so lambda_next holds
    params_at = {
        lam: _config_value(
            f"lambda_cut_list entry {lam}",
            lambda: replace(setup.params, cutoff=GalerkinCutoff(lam)),
        )
        for lam in cfg.lambda_cut_list
    }
    with _Run("n_sweep", setup, out_dir) as run:
        report = run.report
        truth, v0 = _start(setup)
        u_end = truth.at(cfg.t_end)

        def final_errors(
            lambda_cut: float, tau: float, n_steps: int
        ) -> tuple[float, float, float, float]:
            params = params_at[lambda_cut]
            v_n, _ = advance(v0, params, truth, tau, n_steps, scheme=cfg.scheme)
            plain = v_n - u_end
            corrected = v_n + phi1(v_n, setup.forcing, cfg.nu, params.cutoff) - u_end
            return norm_H(plain), norm_H(corrected), norm_V(plain), norm_V(corrected)

        summary = run.table(
            "n_sweep_summary.csv",
            ("lambda_cut", "lambda_next", "L_N", "err_plain_H", "err_pp_H",
             "err_plain_V", "err_pp_V"),
        )
        pairs: list[tuple[float, float]] = []
        for lam in sorted(cfg.lambda_cut_list):
            cutoff = params_at[lam].cutoff
            lam_next = cutoff.lambda_next(setup.grid)
            lam_low = cutoff.lambda_low(setup.grid)
            l_n = math.sqrt(1.0 + math.log(lam_low / setup.grid.lambda1))
            ep_h, ec_h, ep_v, ec_v = final_errors(lam, cfg.tau, n_coarse)
            summary.rows.append((lam, lam_next, l_n, ep_h, ec_h, ep_v, ec_v))
            pairs.append((lam_next, ec_h / l_n))
            report.add_check(
                f"pp_improves:lambda_cut={lam:g}",
                PASS if ec_h <= ep_h * (1.0 + BOUND_RTOL) else FAIL,
                f"corrected {ec_h:.6g} vs plain {ep_h:.6g} (ratio "
                f"{ec_h / ep_h if ep_h > 0 else math.inf:.4g})",
            )
            report.values[f"err_plain_H:lambda_cut={lam:g}"] = ep_h
            report.values[f"err_pp_H:lambda_cut={lam:g}"] = ec_h

        try:
            fit = convergence_order(pairs)
            report.values["pp_order:slope"] = fit.slope
            ok = -1.6 <= fit.slope <= -0.9
            report.add_check(
                "pp_order", PASS if ok else FAIL,
                f"slope {fit.slope:.4f} of err_pp/L_N vs lambda_next, "
                f"admissible [-1.6, -0.9]",
            )
        except FitError as exc:
            report.add_check("pp_order", FAIL, f"order fit failed: {exc}")

        lam_max = max(cfg.lambda_cut_list)
        ec_coarse = next(r[4] for r in summary.rows if r[0] == lam_max)
        # half the step, twice the steps: halving is exact in binary
        ec_fine = final_errors(lam_max, cfg.tau / 2, 2 * n_coarse)[1]
        rel_change = abs(ec_coarse - ec_fine) / max(ec_coarse, 1e-300)
        report.values["tau_floor_rel_change"] = rel_change
        report.add_check(
            "tau_floor_subdominant", PASS if rel_change <= 0.5 else FAIL,
            f"corrected error moved {rel_change:.2%} when tau halved "
            f"({ec_coarse:.6g} -> {ec_fine:.6g})",
        )
    return report
