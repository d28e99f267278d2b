"""Experiment harness: twin runs, sweeps, soaks, and report output.

Every runner takes an ExperimentConfig, draws all randomness from a single
seeded generator in a fixed order (truth first, then initial data, then
perturbations), writes CSV series / text reports with full-precision
deterministic formatting, and returns an ExperimentReport whose checks
decide the process exit code.  A stalled or non-finite solve ends the run
with a failed `solver` check carrying the message and residual trace; the
report, the series recorded up to the failure and a snapshot of the last
accepted state are still written.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .analysis import (
    DEFAULT_CONSTANTS,
    BoundConstants,
    ConditionReport,
    ErrorSeries,
    FitError,
    bound_constants,
    check_conditions,
    contraction_envelope,
    convergence_order,
    decay_rate_fit,
    gronwall_envelope,
    stability_bound_h2,
    stability_bound_v2,
)
from .config import ConfigError, ExperimentConfig
from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _conj_flip,
    inner_product,
    norm_DA,
    norm_H,
    norm_V,
    project_high,
    project_low,
    random_field,
)
from .interpolants import InterpolantSpec, estimate_c0
from .krylov import SolverError
from .operators import (
    bilinear_B,
    bilinear_B_direct,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    leray_project_raw,
    phi1,
    taylor_green,
)
from .schemes import (
    FULLY_IMPLICIT,
    SEMI_IMPLICIT,
    ObservationStream,
    PhysicsParams,
    SchemeState,
    _Galerkin,
    _galerkin,
    _steps_for,
    advance,
    fully_implicit_step,
    nse_integrate,
    reference_galerkin_integrate,
    semi_implicit_step,
)
from .storage import Trajectory, atomic_write_text, save_snapshot, series_to_csv

__all__ = [
    "PASS", "FAIL", "SKIP", "SERIES_HEADER", "CheckResult", "ExperimentReport",
    "SeriesRecorder", "TruthSource", "build_grid", "build_forcing",
    "build_interpolant", "build_params", "build_truth", "build_ic",
    "run_twin_experiment", "run_contraction_test", "run_stability_soak",
    "run_tau_sweep", "run_n_sweep", "run_self_check", "render_report",
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
    conditions: ConditionReport | None = None
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
    lines = ["[run]"]
    lines.append(f"experiment = {report.name}")
    lines.append(f"scheme = {report.scheme}")
    lines.append(f"seed = {report.seed}")
    lines.append(f"status = {report.status}")
    if report.constants is not None:
        lines.append("")
        lines.append("[constants]")
        for key, value in report.constants.as_dict().items():
            lines.append(f"{key} = {_fmt(value)}")
    if report.conditions is not None:
        lines.append("")
        lines.append("[conditions]")
        for check in report.conditions.checks:
            verdict = PASS if check.passed else FAIL
            rel = "<" if check.strict else "<="
            note = f", {check.note}" if check.note else ""
            lines.append(
                f"{check.name} = {verdict} "
                f"(lhs={_fmt(check.lhs)} {rel} rhs={_fmt(check.rhs)}{note})"
            )
    lines.append("")
    lines.append("[checks]")
    for c in report.checks:
        detail = f" ({c.detail})" if c.detail else ""
        lines.append(f"{c.name} = {c.status}{detail}")
    if report.values:
        lines.append("")
        lines.append("[values]")
        for key, value in report.values.items():
            lines.append(f"{key} = {_fmt(value)}")
    if report.series_files:
        lines.append("")
        lines.append("[series]")
        for i, name in enumerate(report.series_files):
            lines.append(f"file_{i} = {name}")
    if report.notes:
        lines.append("")
        lines.append("[notes]")
        for i, note in enumerate(report.notes):
            lines.append(f"note_{i} = {note}")
    lines.append("")
    return "\n".join(lines)


def write_report(report: ExperimentReport, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.name}_report.txt")
    atomic_write_text(path, render_report(report))
    return path


# Residuals of a failed solve's history quoted in the `solver` check.
_TRACE_TAIL = 8


def _integrate(report: ExperimentReport, out: str, fn, *args, **kwargs):
    """Call one integration; a SolverError becomes a failed `solver` check.

    Returns fn's result, or None after a solver failure.  The runner then
    writes its report and the series recorded so far and returns: a stalled
    or non-finite solve is an outcome of the run, not bad input.  The last
    accepted state goes to <report name>_solver_state.nnsf in out, a
    snapshot that load_snapshot reads, and the check names the file.
    """
    try:
        return fn(*args, **kwargs)
    except SolverError as exc:
        detail = str(exc)
        if exc.result is not None:
            tail = exc.result.history[-_TRACE_TAIL:]
            detail += (
                f"; residual trace (last {len(tail)} of "
                f"{len(exc.result.history)}): "
                + " ".join("%.3e" % r for r in tail)
            )
        if exc.state is not None:
            name = f"{report.name}_solver_state.nnsf"
            save_snapshot(os.path.join(out, name), exc.state.v, exc.cutoff)
            detail += f"; last accepted state (step {exc.state.k}) in {name}"
        report.add_check("solver", FAIL, detail)
        return None


def _stop(report: ExperimentReport, out: str) -> ExperimentReport:
    """Write the report of a run that a solver failure ended."""
    write_report(report, out)
    return report


class SeriesRecorder:
    """Accumulates per-step rows in the fixed series schema."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(
        self,
        step: int,
        time: float,
        norms: tuple[float, float, float],
        err_h: float = 0.0,
        err_v: float = 0.0,
        env_h: float = 0.0,
        env_v: float = 0.0,
    ) -> None:
        """One row; norms are the state's (norm_H, norm_V, norm_DA)."""
        nh, nv, nda = norms
        self.rows.append(
            (int(step), float(time), float(nh), float(nv), float(nda),
             float(err_h), float(err_v), float(env_h), float(env_v))
        )

    def column(self, name: str) -> np.ndarray:
        i = SERIES_HEADER.index(name)
        return np.array([row[i] for row in self.rows], dtype=float)

    def write(self, out_dir: str, filename: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        atomic_write_text(path, series_to_csv(SERIES_HEADER, self.rows))
        return path


# ---------------------------------------------------------------------------
# builders


def build_grid(cfg: ExperimentConfig) -> TorusGrid:
    return TorusGrid(L=cfg.L, n=cfg.grid_n)


def _random_band_forcing(
    grid: TorusGrid, amplitude: float, decay: float, seed: int
) -> SpectralField:
    """Solenoidal forcing with power-law spectrum |f_j| ~ |j|^(-decay).

    The algebraic tail makes truncation errors decay algebraically in the
    cutoff, which is the regime the postprocessing rate sweep probes.
    Scaled so norm_H matches a shear forcing of the same amplitude.
    """
    rng = np.random.default_rng([int(seed), 240])
    n = grid.n
    c = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    shell = grid.shell.astype(float)
    scale = np.where(grid.shell > 0, np.maximum(shell, 1.0) ** (-0.5 * decay), 0.0)
    c *= scale * grid.dealias_mask
    c = 0.5 * (c + _conj_flip(grid, c))
    c = leray_project_raw(c, grid)
    f = SpectralField.from_coeffs(grid, c, copy=False)
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


def build_interpolant(cfg: ExperimentConfig) -> InterpolantSpec | None:
    if cfg.interpolant == "none":
        return None
    return InterpolantSpec(cfg.interpolant, cfg.h)


def build_params(
    cfg: ExperimentConfig,
    grid: TorusGrid,
    forcing: SpectralField,
    spec: InterpolantSpec | None,
    *,
    beta: float | None = None,
    lambda_cut: float | None = None,
) -> PhysicsParams:
    return PhysicsParams(
        nu=cfg.nu,
        grid=grid,
        forcing=forcing,
        beta=cfg.beta if beta is None else beta,
        interpolant=spec,
        cutoff=GalerkinCutoff(cfg.lambda_cut if lambda_cut is None else lambda_cut),
    )


@dataclass
class _Setup:
    cfg: ExperimentConfig
    grid: TorusGrid
    forcing: SpectralField
    spec: InterpolantSpec | None
    params: PhysicsParams
    consts: BoundConstants | None
    conditions: ConditionReport | None
    rng: np.random.Generator


def _setup(cfg: ExperimentConfig, *, tau: float | None = None) -> _Setup:
    grid = build_grid(cfg)
    forcing = build_forcing(cfg, grid)
    spec = build_interpolant(cfg)
    params = build_params(cfg, grid, forcing, spec)
    abs_consts = replace(DEFAULT_CONSTANTS, c=cfg.condition_c, alpha=cfg.alpha)
    consts = None
    conditions = None
    if norm_H(forcing) > 0.0:
        consts = bound_constants(params, abs_consts)
        if params.beta > 0.0 and spec is not None:
            c0_value = None
            if spec.kind == "volume_average":
                c0_value = estimate_c0(spec, grid)
            conditions = check_conditions(
                params, consts, tau=tau if tau is not None else cfg.tau,
                c0_value=c0_value,
            )
    return _Setup(
        cfg, grid, forcing, spec, params, consts, conditions,
        np.random.default_rng(cfg.seed),
    )


# ---------------------------------------------------------------------------
# truth sources


# (packed vector, time) -> [err_H, err_V, err_DA] of v(t) - u(t)
ErrorNorms = Callable[[np.ndarray, float], list[float]]


class TruthSource:
    """Resolved solution u(t) plus the coarse observations taken from it."""

    steady = False

    def field_at(self, t: float) -> SpectralField:
        raise NotImplementedError

    def observations(self, spec: InterpolantSpec) -> ObservationStream:
        raise NotImplementedError

    def error_norms(self, gal: _Galerkin) -> ErrorNorms:
        """Norms of v - u(t) for v packed in gal, by Parseval."""
        raise NotImplementedError


def _tail_sq(u: SpectralField, gal: _Galerkin) -> np.ndarray:
    """Squared H, V and DA norms of u's modes outside gal's cutoff."""
    q = project_high(u, gal.p.cutoff)
    return np.array([norm_H(q), norm_V(q), norm_DA(q)]) ** 2


class SteadyTruth(TruthSource):
    steady = True

    def __init__(self, u_star: SpectralField) -> None:
        self.u_star = u_star

    def field_at(self, t: float) -> SpectralField:
        return self.u_star

    def observations(self, spec: InterpolantSpec) -> ObservationStream:
        return ObservationStream.steady(self.u_star, spec)

    def error_norms(self, gal: _Galerkin) -> ErrorNorms:
        # |v - u|^2 = |v - P_N u|^2 + |(I - P_N) u|^2, with u packed once
        u, tail = gal._pack_field(self.u_star), _tail_sq(self.u_star, gal)
        return lambda x, t: gal.norms(x - u, tail)


class AnalyticTruth(TruthSource):
    def __init__(self, fn) -> None:
        self._fn = fn

    def field_at(self, t: float) -> SpectralField:
        return self._fn(t)

    def observations(self, spec: InterpolantSpec) -> ObservationStream:
        return ObservationStream.from_truth_fn(self._fn, spec)

    def error_norms(self, gal: _Galerkin) -> ErrorNorms:
        def errors(x: np.ndarray, t: float) -> list[float]:
            u = self._fn(t)
            return gal.norms(x - gal._pack_field(u), _tail_sq(u, gal))

        return errors


class StoredTruth(TruthSource):
    """A packed trajectory whose packing holds every mode of the solution."""

    def __init__(self, traj: Trajectory) -> None:
        self.traj = traj

    def field_at(self, t: float) -> SpectralField:
        return self.traj.at(t)

    def observations(self, spec: InterpolantSpec) -> ObservationStream:
        return ObservationStream.from_trajectory(self.traj, spec)

    def error_norms(self, gal: _Galerkin) -> ErrorNorms:
        # v embedded into the truth's own packing; no cancelling expansion
        traj, own = self.traj, self.traj.packing
        at = own._index_of(gal.modes)

        def errors(x: np.ndarray, t: float) -> list[float]:
            d = -traj.frame_at(t)
            d[at] += x
            return own.norms(d)

        return errors


def _m1_scale(setup: _Setup) -> float:
    return setup.consts.M1 if setup.consts is not None else 1.0


def build_truth(setup: _Setup, t_end: float) -> TruthSource:
    """Truth per config.  Consumes the setup rng (before any initial data)."""
    cfg = setup.cfg
    if cfg.truth == "analytic:kolmogorov":
        if cfg.forcing != "kolmogorov":
            raise ConfigError("analytic:kolmogorov truth requires kolmogorov forcing")
        u_star = kolmogorov_steady_state(
            setup.grid, cfg.forcing_kappa, cfg.forcing_amplitude, cfg.nu
        )
        return SteadyTruth(u_star)
    if cfg.truth == "analytic:taylor_green":
        if cfg.forcing != "none":
            raise ConfigError("analytic:taylor_green truth requires forcing = none")
        grid, kappa, nu = setup.grid, cfg.forcing_kappa, cfg.nu
        return AnalyticTruth(lambda t: taylor_green(grid, kappa, t, nu))
    if cfg.truth != "nse_integrate":
        raise ConfigError(f"unknown truth kind {cfg.truth!r}")

    tau_t = cfg.tau / cfg.truth_dt_factor
    p_free = PhysicsParams(
        nu=cfg.nu, grid=setup.grid, forcing=setup.forcing, beta=0.0,
        interpolant=None, cutoff=setup.grid.band_cutoff(),
    )
    u_init = random_field(setup.grid, setup.rng, norm_v=_m1_scale(setup))
    spin_steps = int(round(cfg.truth_spinup / tau_t))
    if spin_steps > 0:
        state, _ = advance(u_init, p_free, None, tau_t, spin_steps)
        u_init = state.v
    traj = nse_integrate(
        u_init, p_free, t_end, tau_t, store_every=cfg.truth_store_every
    )
    return StoredTruth(traj)


def build_ic(setup: _Setup, truth: TruthSource) -> SpectralField:
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
        return project_low(truth.field_at(0.0), cutoff)
    if cfg.ic == "perturbed_truth":
        bump = random_field(
            setup.grid, setup.rng, norm_v=cfg.ic_amplitude * scale, cutoff=cutoff
        )
        return project_low(truth.field_at(0.0), cutoff) + bump
    raise ConfigError(f"unknown initial condition kind {cfg.ic!r}")


def _out_dir(cfg: ExperimentConfig, out_dir: str | None) -> str:
    return out_dir if out_dir is not None else cfg.out_dir


def _scheme_step(scheme: str):
    return semi_implicit_step if scheme == SEMI_IMPLICIT else fully_implicit_step


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
    setup = _setup(cfg)
    report = ExperimentReport("twin", cfg.scheme, cfg.seed,
                              constants=setup.consts, conditions=setup.conditions)
    out = _out_dir(cfg, out_dir)
    params, tau = setup.params, cfg.tau
    n_steps = _steps_for(cfg.t_end, tau)

    truth = _integrate(report, out, build_truth, setup, cfg.t_end)
    if truth is None:
        return _stop(report, out)
    obs = truth.observations(setup.spec) if params.beta > 0.0 else None
    v0 = project_low(build_ic(setup, truth), params.cutoff)
    gal = _galerkin(params)
    x0 = gal._pack_field(v0)
    errors = truth.error_norms(gal)
    e0_h, e0_v, _ = errors(x0, 0.0)
    if e0_h == 0.0:
        raise ConfigError("twin experiment requires v0 != u(0)")

    # The geometric factor is proved for discrete-vs-discrete differences;
    # against a steady truth (itself a discrete solution) it is rigorous,
    # otherwise the envelope columns are advisory.
    env_h = np.sqrt(contraction_envelope(e0_h**2, params, tau, n_steps))
    env_v = np.sqrt(contraction_envelope(e0_v**2, params, tau, n_steps))

    rec = SeriesRecorder()
    norms0 = gal.norms(x0)
    rec.add(0, 0.0, norms0, e0_h, e0_v, env_h[0], env_v[0])
    sup_v = norms0[1]

    def on_step(prev: SchemeState, new: SchemeState) -> None:
        nonlocal sup_v
        norms = gal.norms(new.x)
        eh, ev, _ = errors(new.x, new.t)
        sup_v = max(sup_v, norms[1])
        rec.add(new.k, new.t, norms, eh, ev, env_h[new.k], env_v[new.k])

    finished = _integrate(
        report, out, advance, v0, params, obs, tau, n_steps, scheme=cfg.scheme,
        on_step=on_step,
    )
    report.series_files.append(rec.write(out, "twin_series.csv"))
    if finished is None:
        return _stop(report, out)
    times, errs_h = rec.column("time"), rec.column("err_H")
    series = ErrorSeries(times, errs_h, "H", not truth.steady)

    if cfg.twin_expect == "decay":
        try:
            fit = decay_rate_fit(series)
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
        ok = setup.conditions.passed("beta_lower_bound", "interpolant_resolution")
        report.add_check(
            "conditions", PASS if ok else FAIL,
            "admissibility inequalities for the nudging gain and resolution",
        )
    else:
        report.add_check("conditions", SKIP, "no nudging (beta = 0 control)")

    if (
        setup.consts is not None
        and params.beta > 0.0
        and norms0[1] <= setup.consts.M1 * (1.0 + BOUND_RTOL)
    ):
        bound = 6.0 * setup.consts.M1
        report.values["sup_norm_V"] = sup_v
        report.add_check(
            "stability", PASS if sup_v <= bound * (1.0 + BOUND_RTOL) else FAIL,
            f"sup ||v|| = {sup_v:.4g} vs 6 M1 = {bound:.4g}",
        )
    else:
        report.add_check("stability", SKIP, "v0 outside B_V(M1) or no constants")

    report.values["err0_H"] = e0_h
    report.values["err_final_H"] = float(errs_h[-1])
    write_report(report, out)
    return report


# ---------------------------------------------------------------------------
# contraction test


def run_contraction_test(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """Two runs from perturbed initial data under shared observations.

    The squared difference must stay below the geometric envelope at every
    step: in H for the semi-implicit scheme (hypothesis tau * beta <= 1,
    otherwise the check is skipped), in V for the fully implicit scheme
    at any step size.
    """
    setup = _setup(cfg)
    report = ExperimentReport("contraction", cfg.scheme, cfg.seed,
                              constants=setup.consts, conditions=setup.conditions)
    out = _out_dir(cfg, out_dir)
    params, tau = setup.params, cfg.tau
    n_steps = cfg.contraction_steps
    t_end = n_steps * tau

    truth = _integrate(report, out, build_truth, setup, t_end)
    if truth is None:
        return _stop(report, out)
    obs = truth.observations(setup.spec) if params.beta > 0.0 else None
    v0 = project_low(build_ic(setup, truth), params.cutoff)
    bump = random_field(
        setup.grid, setup.rng,
        norm_v=cfg.perturbation * _m1_scale(setup), cutoff=params.cutoff,
    )
    gal = _galerkin(params)
    a = SchemeState(0, tau, v0, x=gal._pack_field(v0), packing=gal)
    b_v0 = project_low(v0 + bump, params.cutoff)
    b = SchemeState(0, tau, b_v0, x=gal._pack_field(b_v0), packing=gal)

    eps0_h, eps0_v, _ = gal.norms(a.x - b.x)
    env_h2 = contraction_envelope(eps0_h**2, params, tau, n_steps)
    env_v2 = contraction_envelope(eps0_v**2, params, tau, n_steps)

    rec = SeriesRecorder()
    rec.add(0, 0.0, gal.norms(a.x), eps0_h, eps0_v,
            math.sqrt(env_h2[0]), math.sqrt(env_v2[0]))
    step_fn = _scheme_step(cfg.scheme)
    max_ratio_h = 0.0
    max_ratio_v = 0.0
    exact_zero = eps0_h == 0.0 and eps0_v == 0.0

    def march() -> bool:
        nonlocal a, b, max_ratio_h, max_ratio_v, exact_zero
        for k in range(1, n_steps + 1):
            a = step_fn(a, params, obs)
            b = step_fn(b, params, obs)
            eh, ev, _ = gal.norms(a.x - b.x)
            if env_h2[k] > 0.0:
                max_ratio_h = max(max_ratio_h, eh * eh / env_h2[k])
            if env_v2[k] > 0.0:
                max_ratio_v = max(max_ratio_v, ev * ev / env_v2[k])
            exact_zero = exact_zero and eh == 0.0 and ev == 0.0
            rec.add(k, a.t, gal.norms(a.x), eh, ev,
                    math.sqrt(env_h2[k]), math.sqrt(env_v2[k]))
        return True

    finished = _integrate(report, out, march)
    report.series_files.append(rec.write(out, "contraction_series.csv"))
    if finished is None:
        return _stop(report, out)

    report.values["eps0_H"] = eps0_h
    report.values["eps0_V"] = eps0_v
    report.values["max_ratio_H"] = max_ratio_h
    report.values["max_ratio_V"] = max_ratio_v
    report.values["eps_final_H"] = float(rec.column("err_H")[-1])

    tol = 1.0 + BOUND_RTOL
    if cfg.perturbation == 0.0:
        report.add_check(
            "identical_runs", PASS if exact_zero else FAIL,
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

    write_report(report, out)
    return report


# ---------------------------------------------------------------------------
# stability soak


_SOAK_BOUNDS = (
    "sup_V", "sup_H", "envelope_H2", "envelope_V2",
    "stepwise_enstrophy", "stepwise_energy",
)


def run_stability_soak(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """Long integrations checking every a-priori bound at every step.

    Preconditions: nonzero forcing, beta > 0, the admissibility conditions
    pass, and the initial data lies in B_V(M1).  On a violation the
    offending iterate is dumped as a snapshot and the check fails; the run
    continues so one report covers all bounds.
    """
    taus = cfg.tau_list if cfg.tau_list else (cfg.tau,)
    setup = _setup(cfg, tau=max(taus))
    if setup.consts is None or setup.params.beta <= 0.0:
        raise ValueError("stability soak requires nonzero forcing and beta > 0")
    if setup.conditions is None or not setup.conditions.passed(
        "beta_lower_bound", "interpolant_resolution"
    ):
        raise ValueError(
            "stability soak preconditions: admissibility conditions must pass:\n"
            + setup.conditions.describe()
        )
    report = ExperimentReport("soak", cfg.scheme, cfg.seed,
                              constants=setup.consts, conditions=setup.conditions)
    out = _out_dir(cfg, out_dir)
    params, consts = setup.params, setup.consts
    n_steps = cfg.soak_steps

    truth = _integrate(report, out, build_truth, setup, n_steps * max(taus))
    if truth is None:
        return _stop(report, out)
    obs = truth.observations(setup.spec)
    v0 = project_low(build_ic(setup, truth), params.cutoff)
    gal = _galerkin(params)
    x0 = gal._pack_field(v0)
    norms0 = gal.norms(x0)
    if norms0[1] > consts.M1 * (1.0 + BOUND_RTOL):
        raise ValueError(
            f"soak initial data must lie in B_V(M1): ||v0|| = {norms0[1]:.4g} "
            f"> M1 = {consts.M1:.4g}"
        )
    errors = truth.error_norms(gal)
    e0_h, e0_v, _ = errors(x0, 0.0)

    m1 = consts.M1
    lam1 = params.grid.lambda1
    v_cap = 6.0 * m1
    h_cap = 6.0 * m1 / math.sqrt(lam1)
    f2 = consts.f_norm**2
    beta, nu = params.beta, params.nu

    for tau in taus:
        label = f"tau={tau:g}"
        h2_env = stability_bound_h2(params, consts, norms0[0] ** 2, tau, n_steps)
        v2_env = stability_bound_v2(params, consts, norms0[1] ** 2, tau, n_steps)
        energy_lhs_factor = 1.0 + tau * (0.5 * beta + nu * lam1)
        energy_gain = 6.0 * tau * (f2 / beta + beta * consts.M0**2 + nu * m1**2)
        first_violation: dict[str, str] = {}
        max_ratio: dict[str, float] = {name: 0.0 for name in _SOAK_BOUNDS}
        rec = SeriesRecorder()
        rec.add(0, 0.0, norms0, e0_h, e0_v, math.sqrt(h2_env[0]), math.sqrt(v2_env[0]))
        last = norms0  # norms of the previous iterate

        def track(name: str, lhs: float, rhs: float, state: SchemeState) -> None:
            if rhs > 0.0:
                max_ratio[name] = max(max_ratio[name], lhs / rhs)
            if lhs > rhs * (1.0 + BOUND_RTOL) and name not in first_violation:
                snap = os.path.join(
                    out, f"soak_violation_{label}_{name}_step{state.k}.nnsf"
                )
                os.makedirs(out, exist_ok=True)
                save_snapshot(snap, state.v)
                first_violation[name] = (
                    f"step {state.k}: {lhs:.9g} > {rhs:.9g}, iterate in {snap}"
                )

        def on_step(prev: SchemeState, new: SchemeState) -> None:
            nonlocal last
            h_prev, v_prev, _ = last
            norms = last = gal.norms(new.x)
            h_new, v_new, _ = norms
            track("sup_V", v_new, v_cap, new)
            track("sup_H", h_new, h_cap, new)
            track("envelope_H2", h_new**2, float(h2_env[new.k]), new)
            track("envelope_V2", v_new**2, float(v2_env[new.k]), new)
            track("stepwise_enstrophy", v_new**2,
                  4.0 * v_prev**2 + 40.0 * m1**2, new)
            if cfg.scheme == SEMI_IMPLICIT:
                track("stepwise_energy", energy_lhs_factor * h_new**2,
                      h_prev**2 + energy_gain, new)
            eh, ev, _ = errors(new.x, new.t)
            rec.add(new.k, new.t, norms, eh, ev,
                    math.sqrt(h2_env[new.k]), math.sqrt(v2_env[new.k]))

        finished = _integrate(
            report, out, advance, v0, params, obs, tau, n_steps, scheme=cfg.scheme,
            on_step=on_step,
        )
        safe = "".join(ch if ch.isalnum() else "_" for ch in label)
        report.series_files.append(rec.write(out, f"soak_series_{safe}.csv"))
        if finished is None:
            return _stop(report, out)
        for name in _SOAK_BOUNDS:
            if name == "stepwise_energy" and cfg.scheme != SEMI_IMPLICIT:
                continue
            check_name = f"{label}:{name}"
            if name in first_violation:
                report.add_check(check_name, FAIL, first_violation[name])
            else:
                report.add_check(
                    check_name, PASS, f"max ratio {max_ratio[name]:.6g}"
                )
            report.values[f"{check_name}:max_ratio"] = max_ratio[name]

    write_report(report, out)
    return report


# ---------------------------------------------------------------------------
# tau sweep


def _reference_step(tau_list: tuple[float, ...], ref_factor: int) -> float:
    """dt_ref = min(tau)/(2m) for the smallest m making every tau a multiple.

    Every list whose steps are multiples of min(tau)/ref_factor needs
    m <= ref_factor, so the search stops there.
    """
    tau_min = min(tau_list)
    for m in range(1, ref_factor + 1):
        dt = tau_min / (2 * m)
        ratios = [tau / dt for tau in tau_list]
        if all(abs(r - round(r)) <= 1e-9 * r for r in ratios):
            return dt
    raise ConfigError(
        f"tau_list {tau_list} has no common reference step min(tau)/(2m) "
        f"with m <= ref_factor = {ref_factor}: some tau is not an integer "
        "multiple of it"
    )


def run_tau_sweep(
    cfg: ExperimentConfig, out_dir: str | None = None
) -> ExperimentReport:
    """First-order-in-tau verification against the continuous Galerkin flow.

    All runs (coarse and reference) share the truth, the observation
    stream, and the initial data, so the truth discretization bias cancels
    and the measured gap isolates the time-stepping error.  The flow is
    approximated by one ETDRK4 trajectory at dt_ref = min(tau)/(2m), m >= 1
    the smallest value making every tau an integer multiple of dt_ref, with
    every step stored so coarse times hit stored states exactly.  A second
    ETDRK4 run at 2 dt_ref bounds the reference's own error: the `reference`
    check passes iff their largest H gap, ref_gap_H, is at most
    sup_err_H(min tau) / ref_factor.
    """
    if len(cfg.tau_list) < 3:
        raise ConfigError("tau sweep needs at least 3 step sizes")
    if cfg.ref_factor < 1:
        raise ConfigError(f"ref_factor must be >= 1, got {cfg.ref_factor}")
    setup = _setup(cfg, tau=max(cfg.tau_list))
    report = ExperimentReport("tau_sweep", cfg.scheme, cfg.seed,
                              constants=setup.consts, conditions=setup.conditions)
    out = _out_dir(cfg, out_dir)
    params = setup.params
    for tau in cfg.tau_list:
        _steps_for(cfg.t_end, tau)
    dt_ref = _reference_step(cfg.tau_list, cfg.ref_factor)

    truth = _integrate(report, out, build_truth, setup, cfg.t_end)
    if truth is None:
        return _stop(report, out)
    obs = truth.observations(setup.spec) if params.beta > 0.0 else None
    v0 = project_low(build_ic(setup, truth), params.cutoff)

    ref = _integrate(
        report, out, reference_galerkin_integrate, v0, params, obs, cfg.t_end, dt_ref
    )
    ref_2dt = ref and _integrate(
        report, out, reference_galerkin_integrate,
        v0, params, obs, cfg.t_end, 2.0 * dt_ref,
    )
    if ref_2dt is None:
        return _stop(report, out)
    gal = _galerkin(params)
    ref_gap_h = max(
        gal.norms(a - b)[0] for a, b in zip(ref.frames[::2], ref_2dt.frames)
    )
    del ref_2dt  # only the gap is kept
    x0 = gal._pack_field(v0)
    errors = StoredTruth(ref).error_norms(gal)

    sups_h: list[tuple[float, float]] = []
    sups_v: list[tuple[float, float]] = []
    for i, tau in enumerate(sorted(cfg.tau_list, reverse=True)):
        n_steps = _steps_for(cfg.t_end, tau)
        rec = SeriesRecorder()
        rec.add(0, 0.0, gal.norms(x0), 0.0, 0.0)

        def on_step(prev: SchemeState, new: SchemeState) -> None:
            eh, ev, _ = errors(new.x, new.t)
            rec.add(new.k, new.t, gal.norms(new.x), eh, ev)

        finished = _integrate(
            report, out, advance, v0, params, obs, tau, n_steps, scheme=cfg.scheme,
            on_step=on_step,
        )
        report.series_files.append(rec.write(out, f"tau_sweep_series_{i}.csv"))
        if finished is None:
            return _stop(report, out)
        times = rec.column("time")
        eh = ErrorSeries(times, rec.column("err_H"), "H", False)
        ev = ErrorSeries(times, rec.column("err_V"), "V", False)
        sup_h = eh.tail_sup(cfg.burn_in)
        sup_v = ev.tail_sup(cfg.burn_in)
        sups_h.append((tau, sup_h))
        sups_v.append((tau, sup_v))
        report.values[f"sup_err_H:tau={tau:g}"] = sup_h
        report.values[f"sup_err_V:tau={tau:g}"] = sup_v

    summary = series_to_csv(
        ("tau", "sup_err_H", "sup_err_V"),
        [(t, h, v) for (t, h), (_, v) in zip(sups_h, sups_v)],
    )
    os.makedirs(out, exist_ok=True)
    summary_path = os.path.join(out, "tau_sweep_summary.csv")
    atomic_write_text(summary_path, summary)
    report.series_files.append(summary_path)

    if ref.interpolated_queries:
        report.notes.append(
            f"reference interpolated {ref.interpolated_queries} queries"
        )
    report.values["ref_gap_H"] = ref_gap_h
    budget = sups_h[-1][1] / cfg.ref_factor  # the runs end at min(tau)
    report.add_check(
        "reference", PASS if ref_gap_h <= budget else FAIL,
        f"ETDRK4 gap dt_ref vs 2 dt_ref {ref_gap_h:.3e}, must be <= "
        f"sup_err_H(min tau) / ref_factor = {budget:.3e} (dt_ref {dt_ref:g})",
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

    write_report(report, out)
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
    setup = _setup(cfg)
    report = ExperimentReport("n_sweep", cfg.scheme, cfg.seed,
                              constants=setup.consts, conditions=setup.conditions)
    out = _out_dir(cfg, out_dir)
    cfg_tau = cfg.tau
    n_steps = _steps_for(cfg.t_end, cfg_tau)

    truth = _integrate(report, out, build_truth, setup, cfg.t_end)
    if truth is None:
        return _stop(report, out)
    obs = (
        truth.observations(setup.spec)
        if setup.params.beta > 0.0 else None
    )
    v0 = build_ic(setup, truth)
    u_end = truth.field_at(cfg.t_end)

    def final_errors(
        lambda_cut: float, tau: float
    ) -> tuple[float, float, float, float] | None:
        params = build_params(
            cfg, setup.grid, setup.forcing, setup.spec, lambda_cut=lambda_cut
        )
        ran = _integrate(
            report, out, advance, v0, params, obs, tau, _steps_for(cfg.t_end, tau),
            scheme=cfg.scheme,
        )
        if ran is None:
            return None
        state = ran[0]
        plain = state.v - u_end
        corrected = state.v + phi1(state.v, setup.forcing, cfg.nu, params.cutoff) - u_end
        return norm_H(plain), norm_H(corrected), norm_V(plain), norm_V(corrected)

    rows = []

    def write_summary() -> None:
        os.makedirs(out, exist_ok=True)
        summary_path = os.path.join(out, "n_sweep_summary.csv")
        atomic_write_text(
            summary_path,
            series_to_csv(
                ("lambda_cut", "lambda_next", "L_N", "err_plain_H", "err_pp_H",
                 "err_plain_V", "err_pp_V"),
                rows,
            ),
        )
        report.series_files.append(summary_path)

    pairs: list[tuple[float, float]] = []
    for lam in sorted(cfg.lambda_cut_list):
        cutoff = GalerkinCutoff(lam)
        lam_next = cutoff.lambda_next(setup.grid)
        lam_low = cutoff.lambda_low(setup.grid)
        l_n = math.sqrt(1.0 + math.log(lam_low / setup.grid.lambda1))
        errs = final_errors(lam, cfg_tau)
        if errs is None:
            write_summary()
            return _stop(report, out)
        ep_h, ec_h, ep_v, ec_v = errs
        rows.append((lam, lam_next, l_n, ep_h, ec_h, ep_v, ec_v))
        pairs.append((lam_next, ec_h / l_n))
        report.add_check(
            f"pp_improves:lambda_cut={lam:g}",
            PASS if ec_h <= ep_h * (1.0 + BOUND_RTOL) else FAIL,
            f"corrected {ec_h:.6g} vs plain {ep_h:.6g} (ratio "
            f"{ec_h / ep_h if ep_h > 0 else math.inf:.4f})",
        )
        report.values[f"err_plain_H:lambda_cut={lam:g}"] = ep_h
        report.values[f"err_pp_H:lambda_cut={lam:g}"] = ec_h
    write_summary()

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
    ec_coarse = next(r[4] for r in rows if r[0] == lam_max)
    fine = final_errors(lam_max, cfg_tau / cfg.tau_floor_factor)
    if fine is None:
        return _stop(report, out)
    ec_fine = fine[1]
    rel_change = abs(ec_coarse - ec_fine) / max(ec_coarse, 1e-300)
    report.values["tau_floor_rel_change"] = rel_change
    report.add_check(
        "tau_floor_subdominant", PASS if rel_change <= 0.5 else FAIL,
        f"corrected error moved {rel_change:.2%} when tau halved "
        f"({ec_coarse:.6g} -> {ec_fine:.6g})",
    )

    write_report(report, out)
    return report


# ---------------------------------------------------------------------------
# built-in self check (CLI `check`)


def run_self_check(seed: int = 0, out_dir: str | None = None) -> ExperimentReport:
    """Fast structural verifications on small grids."""
    report = ExperimentReport("check", SEMI_IMPLICIT, seed)
    rng = np.random.default_rng(seed)

    worst = 0.0
    for n in (8, 12):
        grid = TorusGrid(2.0 * math.pi, n)
        for _ in range(5):
            u = random_field(grid, rng, norm_h=1.0)
            v = random_field(grid, rng, norm_h=1.0)
            fast = bilinear_B(u, v)
            slow = bilinear_B_direct(u, v)
            denom = max(norm_H(slow), 1e-300)
            worst = max(worst, norm_H(fast - slow) / denom)
    report.values["bilinear_oracle_rel"] = worst
    report.add_check(
        "bilinear_oracle", PASS if worst <= 1e-12 else FAIL,
        f"max relative gap transform vs direct convolution {worst:.3e}",
    )

    grid = TorusGrid(2.0 * math.pi, 16)
    worst_orth = 0.0
    for _ in range(10):
        u = random_field(grid, rng, norm_h=1.0)
        v = random_field(grid, rng, norm_h=1.0)
        w = random_field(grid, rng, norm_h=1.0)
        buv = bilinear_B(u, v)
        buw = bilinear_B(u, w)
        scale = max(norm_H(buv) * norm_H(v), 1e-300)
        worst_orth = max(worst_orth, abs(inner_product(buv, v)) / scale)
        scale = max(norm_H(buv) * norm_H(w) + norm_H(buw) * norm_H(v), 1e-300)
        worst_orth = max(
            worst_orth,
            abs(inner_product(buv, w) + inner_product(buw, v)) / scale,
        )
    report.values["bilinear_orthogonality_rel"] = worst_orth
    report.add_check(
        "bilinear_orthogonality", PASS if worst_orth <= 1e-11 else FAIL,
        f"max relative defect of (B(u,v),v)=0 and antisymmetry {worst_orth:.3e}",
    )

    f = random_field(grid, rng, norm_h=1.0)
    poincare = norm_V(f) ** 2 - grid.lambda1 * norm_H(f) ** 2
    cutoff = GalerkinCutoff(9.0)
    low = project_low(f, cutoff)
    high = project_high(f, cutoff)
    idem = norm_H(project_low(low, cutoff) - low)
    orth = abs(inner_product(low, high))
    ok = poincare >= -1e-12 and idem <= 1e-12 and orth <= 1e-12
    report.add_check(
        "poincare_projection", PASS if ok else FAIL,
        f"poincare slack {poincare:.3e}, idempotence {idem:.3e}, "
        f"orthogonality {orth:.3e}",
    )

    # steady shear flow is a fixed point of both schemes
    grid32 = TorusGrid(2.0 * math.pi, 32)
    nu, kappa, amp = 0.1, 1, 0.01
    forcing = kolmogorov_forcing(grid32, kappa, amp)
    u_star = kolmogorov_steady_state(grid32, kappa, amp, nu)
    spec = InterpolantSpec("fourier_truncation", 0.1)
    params = PhysicsParams(
        nu=nu, grid=grid32, forcing=forcing, beta=5.0, interpolant=spec,
        cutoff=GalerkinCutoff(40.0),
    )
    obs = ObservationStream.steady(u_star, spec)
    drift = 0.0
    for step_fn in (semi_implicit_step, fully_implicit_step):
        state = SchemeState(0, 0.01, project_low(u_star, params.cutoff))
        state = step_fn(state, params, obs)
        drift = max(drift, norm_H(state.v - u_star))
    report.values["fixed_point_drift"] = drift
    report.add_check(
        "steady_fixed_point", PASS if drift <= 1e-9 else FAIL,
        f"one-step drift from the steady state {drift:.3e}",
    )

    # decaying vortex follows the exact per-mode recursion
    p_free = PhysicsParams(
        nu=nu, grid=grid32, forcing=SpectralField.zero(grid32), beta=0.0,
        interpolant=None, cutoff=grid32.band_cutoff(),
    )
    tau = 1e-3
    # the physical-space transform leaves ~1e-17 energy outside the ball
    v = project_low(taylor_green(grid32, 1, 0.0, nu), p_free.cutoff)
    kp2 = 2.0 * (2.0 * math.pi / grid32.L) ** 2
    state = SchemeState(0, tau, v)
    worst_tg = 0.0
    for k in range(20):
        state = semi_implicit_step(state, p_free, None)
        exact = v * (1.0 / (1.0 + nu * kp2 * tau) ** (k + 1))
        worst_tg = max(worst_tg, norm_H(state.v - exact) / norm_H(exact))
    report.values["vortex_recursion_rel"] = worst_tg
    report.add_check(
        "vortex_recursion", PASS if worst_tg <= 1e-10 else FAIL,
        f"max relative gap to the exact per-mode recursion {worst_tg:.3e}",
    )

    # recursive envelope dominates any admissible sequence
    ok_gronwall = True
    for _ in range(200):
        m = int(rng.integers(2, 60))
        gamma = float(rng.uniform(-0.5, 1.5))
        a0 = float(rng.uniform(0.0, 4.0))
        b = rng.uniform(0.0, 1.0, size=m)
        env = gronwall_envelope(a0, gamma, b, m)
        a = a0
        seq = [a]
        for bk in b:
            # any sequence with (1+gamma) a_{k+1} <= a_k + b_k, tightest case
            a = (a + bk) / (1.0 + gamma)
            seq.append(a)
        if np.any(np.array(seq) > env * (1.0 + 1e-12) + 1e-12):
            ok_gronwall = False
            break
    report.add_check(
        "gronwall_domination", PASS if ok_gronwall else FAIL,
        "recursive envelope dominates saturating sequences (200 draws)",
    )

    if out_dir is not None:
        write_report(report, out_dir)
    return report
