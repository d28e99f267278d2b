"""Implicit Euler time steppers for the nudged spectral Galerkin system,
plus an ETDRK4 reference for its continuous-in-time flow.

Both schemes advance

    (v^{k+1} - v^k)/tau + nu A v^{k+1} + P_N B(v*, v^{k+1})
        = P_N f - beta P_N P_sigma I_h (v^{k+1} - u(t_{k+1}))

with v* = v^k (semi-implicit) or v* = v^{k+1} (fully implicit, solved by
a Picard outer loop that freezes the first bilinear argument).  Every
linear solve is a matrix-free restarted-GMRES iteration on the coercive
operator w/tau + nu A w + P_N B(v*, w) + beta P_N P_sigma I_h w with a
diagonal right preconditioner, run in the low-mode space only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.fft as _fft

from .fields import (
    FieldInvariantError,
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _conj_flip,
    norm_H,
    project_low,
    raw_from_physical,
    to_physical,
)
from .interpolants import InterpolantSpec, apply_ih, _block_average
from .krylov import SolveResult, SolverError, gmres
from .operators import advect_raw, leray_project_raw
from .storage import Trajectory

__all__ = [
    "PhysicsParams",
    "SchemeState",
    "ObservationStream",
    "SolverError",
    "SEMI_IMPLICIT",
    "FULLY_IMPLICIT",
    "SCHEMES",
    "semi_implicit_step",
    "fully_implicit_step",
    "solve_coercive_linear",
    "advance",
    "reference_galerkin_integrate",
    "nse_integrate",
]

SEMI_IMPLICIT = "semi_implicit"
FULLY_IMPLICIT = "fully_implicit"
SCHEMES = (SEMI_IMPLICIT, FULLY_IMPLICIT)

STEP_RESIDUAL_RTOL = 1e-10
PICARD_MAX_OUTER = 100


@dataclass(frozen=True)
class PhysicsParams:
    """Problem data: viscosity, grid, forcing, nudging gain, observations, cutoff.

    condition_constant is the dimensionless c in the admissibility lower
    bound for beta; it only affects condition *checks*, never dynamics.
    """

    nu: float
    grid: TorusGrid
    forcing: SpectralField
    beta: float
    interpolant: InterpolantSpec | None
    cutoff: GalerkinCutoff
    condition_constant: float = 1.0

    def __post_init__(self) -> None:
        if not (self.nu > 0.0):
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.beta < 0.0:
            raise ValueError(f"nudging gain must be nonnegative, got {self.beta}")
        if self.forcing.grid != self.grid:
            raise ValueError("forcing grid differs from params grid")
        if self.beta > 0.0 and self.interpolant is None:
            raise ValueError("beta > 0 requires an interpolant")
        if not self.cutoff.within_band(self.grid):
            raise ValueError(
                "Galerkin cutoff exceeds the dealiased band of the grid; the "
                "bilinear term would not be computed exactly"
            )


@dataclass(frozen=True)
class SchemeState:
    """Iterate v^k at time t_k = k * tau, supported in the low-mode space."""

    k: int
    tau: float
    v: SpectralField

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise ValueError(f"time step must be positive, got {self.tau}")
        if self.k < 0:
            raise ValueError(f"step index must be nonnegative, got {self.k}")

    @property
    def t(self) -> float:
        return self.k * self.tau


class ObservationStream:
    """Provider of coarse observations t -> I_h(u(t))."""

    def __init__(self, provider: Callable[[float], SpectralField]):
        self._provider = provider

    def __call__(self, t: float) -> SpectralField:
        return self._provider(t)

    @classmethod
    def from_truth_fn(
        cls, truth: Callable[[float], SpectralField], spec: InterpolantSpec
    ) -> "ObservationStream":
        return cls(lambda t: apply_ih(spec, truth(t)))

    @classmethod
    def from_trajectory(
        cls, traj: Trajectory, spec: InterpolantSpec
    ) -> "ObservationStream":
        return cls(lambda t: apply_ih(spec, traj.at(t)))

    @classmethod
    def steady(cls, u_star: SpectralField, spec: InterpolantSpec) -> "ObservationStream":
        observed = apply_ih(spec, u_star)
        return cls(lambda t: observed)


class _Galerkin:
    """Scheme-independent pieces of the nudged Galerkin system for one params.

    Vectors are packed to hold only the low-mode coefficients; the packed
    2-norm is norm_H / L, so relative tolerances transfer unchanged.
    obs_diag is the diagonal part of beta P_N P_sigma I_h: exact for
    Fourier truncation (beta on the observed modes), beta on every mode
    for volume averages.
    """

    def __init__(self, p: PhysicsParams):
        self.p = p
        grid = p.grid
        self.grid = grid
        self.mask = p.cutoff.mask_low(grid)
        self.f_low = project_low(p.forcing, p.cutoff)
        self.obs_diag = np.zeros((grid.n, grid.n))
        self._ih_mask = None
        self._blocks = None
        if p.beta > 0.0:
            if p.interpolant.kind == "fourier_truncation":
                self._ih_mask = p.interpolant.cutoff().mask_low(grid) & self.mask
                self.obs_diag = np.where(self._ih_mask, p.beta, 0.0)
            else:
                self._blocks = p.interpolant.blocks(grid)
                self.obs_diag = np.full((grid.n, grid.n), p.beta)

    # -- packing ------------------------------------------------------------

    def _pack(self, arr: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(arr[:, self.mask]).reshape(-1)

    def _pack_diag(self, diag: np.ndarray) -> np.ndarray:
        """A per-mode (n, n) diagonal, packed like a velocity vector."""
        return self._pack(np.broadcast_to(diag, (2, self.grid.n, self.grid.n)))

    def _unpack(self, vec: np.ndarray) -> np.ndarray:
        full = np.zeros((2, self.grid.n, self.grid.n), dtype=np.complex128)
        full[:, self.mask] = vec.reshape(2, -1)
        return full

    # -- operator pieces ----------------------------------------------------

    def _obs_term(self, full: np.ndarray) -> np.ndarray:
        """beta * P_N P_sigma I_h w on a full coefficient array."""
        p = self.p
        if p.beta == 0.0:
            return np.zeros_like(full)
        if self._ih_mask is not None:
            return np.where(self._ih_mask, p.beta * full, 0.0)
        n = self.grid.n
        phys = _fft.ifft2(full).real * (n * n)
        averaged = _block_average(phys, self._blocks)
        c = _fft.fft2(averaged) / (n * n)
        c[:, 0, 0] = 0.0
        c = leray_project_raw(c, self.grid)
        return np.where(self.mask, p.beta * c, 0.0)

    def _observed(self, obs_field: SpectralField | None) -> np.ndarray:
        """Packed beta P_N (P_sigma I_h u), the data the nudging term feeds in."""
        if obs_field is None:
            raise ValueError("beta > 0 requires an observation stream")
        return self.p.beta * self._pack(obs_field.coeffs)

    def _cleanup(self, vec: np.ndarray) -> SpectralField:
        """Exactly restore Hermitian symmetry and solenoidality of an iterate."""
        full = self._unpack(vec)
        full = 0.5 * (full + _conj_flip(self.grid, full))
        full = leray_project_raw(full, self.grid)
        full = np.where(self.mask, full, 0.0)
        try:
            return SpectralField.from_coeffs(self.grid, full, copy=False)
        except FieldInvariantError:
            _require_finite(vec, "iterate")
            raise


def _require_finite(vec: np.ndarray, what: str) -> None:
    # A blow-up is a solver failure, not bad input: report it before GMRES,
    # solve_triangular or field validation turns it into a ValueError.
    if not np.all(np.isfinite(vec)):
        raise SolverError(f"non-finite {what}")


class _Stepper(_Galerkin):
    """Precomputed machinery for one (params, tau, scheme) combination."""

    def __init__(self, p: PhysicsParams, tau: float, scheme: str):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
        super().__init__(p)
        self.tau = float(tau)
        self.scheme = scheme
        # Diagonal right preconditioner: the non-advective part of the operator.
        diag = 1.0 / self.tau + p.nu * self.grid.k_squared + self.obs_diag
        self._inv_diag = self._pack_diag(diag) ** -1.0

    def _apply_linear(self, vec: np.ndarray, u_phys: np.ndarray) -> np.ndarray:
        """Packed action of w/tau + nu A w + P_N B(u, w) + beta P_N P_sigma I_h w."""
        full = self._unpack(vec)
        out = full / self.tau + self.p.nu * self.grid.k_squared * full
        adv = advect_raw(self.grid, u_phys, full)
        out += np.where(self.mask, adv, 0.0)
        out += self._obs_term(full)
        return self._pack(out)

    def _rhs(self, v: SpectralField, obs_field: SpectralField | None) -> np.ndarray:
        b = self._pack(v.coeffs / self.tau + self.f_low.coeffs)
        if self.p.beta > 0.0:
            b = b + self._observed(obs_field)
        return b

    def _solve(
        self, u_phys: np.ndarray, b: np.ndarray, x0: np.ndarray | None
    ) -> SolveResult:
        result = gmres(
            lambda w: self._apply_linear(w, u_phys),
            b,
            x0=x0,
            rel_tol=0.25 * STEP_RESIDUAL_RTOL,
            max_iter=2000,
            restart=50,
            apply_precond=lambda w: self._inv_diag * w,
        )
        if not result.converged:
            raise SolverError(
                f"linear solve stalled at relative residual {result.residual:.3e} "
                f"after {result.iterations} iterations",
                result,
            )
        return result

    # -- steps ----------------------------------------------------------------

    def step(self, state: SchemeState, obs: ObservationStream | None) -> SchemeState:
        p = self.p
        t_next = (state.k + 1) * self.tau
        obs_field = obs(t_next) if (obs is not None and p.beta > 0.0) else None
        b = self._rhs(state.v, obs_field)
        bnorm = float(np.linalg.norm(b))
        if not np.isfinite(bnorm):
            # the state, the forcing or the observation is not finite
            raise SolverError("non-finite step right-hand side")
        x0 = self._pack(state.v.coeffs)
        if self.scheme == SEMI_IMPLICIT:
            u_phys = to_physical(state.v)
            result = self._solve(u_phys, b, x0)
            v_new = self._cleanup(result.x)
            resid = self._residual(v_new, u_phys, b, bnorm)
            if resid > STEP_RESIDUAL_RTOL:
                raise SolverError(
                    f"post-solve residual {resid:.3e} exceeds {STEP_RESIDUAL_RTOL:.0e}",
                    result,
                )
            return SchemeState(state.k + 1, self.tau, v_new)
        # Fully implicit: Picard with frozen first bilinear argument.
        x = x0
        u_phys = to_physical(state.v)
        trace: list[float] = []
        for _ in range(PICARD_MAX_OUTER):
            result = self._solve(u_phys, b, x)
            w_new = self._cleanup(result.x)
            x = self._pack(w_new.coeffs)
            u_phys = to_physical(w_new)
            resid = self._residual(w_new, u_phys, b, bnorm)
            trace.append(resid)
            if resid <= STEP_RESIDUAL_RTOL:
                return SchemeState(state.k + 1, self.tau, w_new)
        raise SolverError(
            "Picard iteration did not reach the nonlinear residual tolerance "
            f"{STEP_RESIDUAL_RTOL:.0e} in {PICARD_MAX_OUTER} iterations; "
            f"trace={['%.3e' % r for r in trace[-8:]]} (consider a smaller tau)"
        )

    def _residual(
        self,
        v_new: SpectralField,
        u_phys: np.ndarray,
        b: np.ndarray,
        bnorm: float,
    ) -> float:
        """Relative residual of the step equation for the cleaned-up iterate."""
        r = self._apply_linear(self._pack(v_new.coeffs), u_phys) - b
        return float(np.linalg.norm(r)) / bnorm if bnorm > 0 else 0.0


@lru_cache(maxsize=64)
def _stepper(p: PhysicsParams, tau: float, scheme: str) -> _Stepper:
    return _Stepper(p, tau, scheme)


def _require_low_supported(state: SchemeState, p: PhysicsParams) -> None:
    v = state.v
    outside = np.where(p.cutoff.mask_low(p.grid), 0.0, np.abs(v.coeffs))
    if outside.size and float(outside.max()) > 0.0:
        raise ValueError("state iterate has energy outside the Galerkin cutoff")


def semi_implicit_step(
    state: SchemeState, p: PhysicsParams, obs: ObservationStream | None
) -> SchemeState:
    """One semi-implicit Euler step (bilinear term frozen at v^k)."""
    _require_low_supported(state, p)
    return _stepper(p, state.tau, SEMI_IMPLICIT).step(state, obs)


def fully_implicit_step(
    state: SchemeState, p: PhysicsParams, obs: ObservationStream | None
) -> SchemeState:
    """One fully implicit Euler step (Picard outer iteration)."""
    _require_low_supported(state, p)
    return _stepper(p, state.tau, FULLY_IMPLICIT).step(state, obs)


_STEP_FNS = {SEMI_IMPLICIT: semi_implicit_step, FULLY_IMPLICIT: fully_implicit_step}


def solve_coercive_linear(
    apply_operator: Callable[[SpectralField], SpectralField],
    rhs: SpectralField,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> SpectralField:
    """Solve L x = rhs for a coercive field-level operator, matrix-free.

    The returned x satisfies norm_H(L x - rhs) <= tol * norm_H(rhs).
    """
    grid = rhs.grid

    def apply_vec(vec: np.ndarray) -> np.ndarray:
        f = SpectralField._trusted(grid, vec.reshape(2, grid.n, grid.n).copy())
        return apply_operator(f).coeffs.reshape(-1)

    result = gmres(
        apply_vec,
        rhs.coeffs.reshape(-1).copy(),
        rel_tol=tol,
        max_iter=max_iter,
        restart=50,
    )
    if not result.converged:
        raise SolverError(
            f"solve_coercive_linear stalled at relative residual "
            f"{result.residual:.3e} after {result.iterations} iterations",
            result,
        )
    c = result.x.reshape(2, grid.n, grid.n)
    c = 0.5 * (c + _conj_flip(grid, c))
    c[:, 0, 0] = 0.0
    return SpectralField.from_coeffs(grid, c, copy=False)


def advance(
    v0: SpectralField,
    p: PhysicsParams,
    obs: ObservationStream | None,
    tau: float,
    n_steps: int,
    *,
    scheme: str = SEMI_IMPLICIT,
    on_step: Callable[[SchemeState, SchemeState], None] | None = None,
    store_every: int | None = None,
) -> tuple[SchemeState, Trajectory | None]:
    """March n_steps from v^0 = P_N v0, optionally recording a trajectory.

    on_step(prev, new) fires after every accepted step; store_every = m
    records v^0 and every m-th iterate (plus the final one) into the
    returned trajectory.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    stepper = _stepper(p, float(tau), scheme)
    state = SchemeState(0, float(tau), project_low(v0, p.cutoff))
    traj: Trajectory | None = None
    if store_every is not None:
        if store_every < 1:
            raise ValueError(f"store_every must be >= 1, got {store_every}")
        traj = Trajectory(p.grid)
        traj.append(0, 0.0, state.v)
    for _ in range(n_steps):
        new = stepper.step(state, obs)
        if on_step is not None:
            on_step(state, new)
        if traj is not None and (new.k % store_every == 0 or new.k == n_steps):
            traj.append(new.k, new.t, new.v)
        state = new
    return state, traj


def _steps_for(t_end: float, tau: float) -> int:
    n = int(round(t_end / tau))
    if n < 1 or abs(n * tau - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"t_end={t_end} is not an integer multiple of tau={tau}")
    return n


# Contour points of the Kassam-Trefethen mean for the ETDRK4 weights.
_CONTOUR_POINTS = 32


def _etdrk4_weights(hl: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """Cox-Matthews ETDRK4 weights for the diagonal h*L (Kassam & Trefethen 2005).

    Each phi-function is the mean of its values on a unit circle around
    h*L: upper-half points and the real part, since L is real.  The closed
    forms cancel catastrophically when |h L| is small.
    """
    r = np.exp(1j * np.pi * (np.arange(1, _CONTOUR_POINTS + 1) - 0.5) / _CONTOUR_POINTS)
    z = hl[:, None] + r[None, :]
    ez = np.exp(z)
    z3 = z**3

    def mean(values: np.ndarray) -> np.ndarray:
        return h * np.mean(values, axis=1).real

    q = mean((np.exp(z / 2.0) - 1.0) / z)
    f1 = mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3)
    f2 = mean((2.0 + z + ez * (z - 2.0)) / z3)
    f3 = mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3)
    return np.exp(hl), np.exp(hl / 2.0), q, f1, f2, f3


def reference_galerkin_integrate(
    v0: SpectralField,
    p: PhysicsParams,
    obs: ObservationStream | None,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Fourth-order surrogate for the continuous-in-time nudged Galerkin flow.

    Integrates dv/dt = L v + N(v, t) with ETDRK4 (Cox & Matthews 2002),
    storing every step from v(0) = P_N v0.  The diagonal part
    L = -(nu A + obs_diag) is integrated exactly; the explicit part is
    N(v, t) = P_N f - P_N B(v, v) + beta P_N P_sigma I_h u(t), plus, for
    volume averages, the off-diagonal remainder -beta (P_N P_sigma I_h - I) v.
    Observations are read once per distinct stage time.  The flow does not
    depend on a time-stepping scheme, so one trajectory serves both.
    Raises SolverError if an iterate becomes non-finite.
    """
    n_steps = _steps_for(t_end, dt)
    if p.beta > 0.0 and obs is None:
        raise ValueError("beta > 0 requires an observation stream")
    gal = _Galerkin(p)
    grid, h = p.grid, float(dt)
    e, e2, q, f1, f2, f3 = _etdrk4_weights(
        -h * gal._pack_diag(p.nu * grid.k_squared + gal.obs_diag), h
    )
    forcing = gal._pack(gal.f_low.coeffs)

    def observed(t: float) -> np.ndarray | float:
        return gal._observed(obs(t)) if p.beta > 0.0 else 0.0

    def explicit(x: np.ndarray, data: np.ndarray | float) -> np.ndarray:
        full = gal._unpack(x)
        u_phys = to_physical(SpectralField._trusted(grid, full))
        out = forcing - gal._pack(advect_raw(grid, u_phys, full)) + data
        if gal._blocks is not None:
            out += gal._pack(p.beta * full - gal._obs_term(full))
        return out

    v = project_low(v0, p.cutoff)
    x = gal._pack(v.coeffs)
    _require_finite(x, "initial state")
    traj = Trajectory(grid)
    traj.append(0, 0.0, v)
    data0 = observed(0.0)
    for k in range(n_steps):
        data_half = observed((k + 0.5) * h)
        data1 = observed((k + 1) * h)
        nx = explicit(x, data0)
        a = e2 * x + q * nx
        na = explicit(a, data_half)
        b = e2 * x + q * na
        nb = explicit(b, data_half)
        c = e2 * a + q * (2.0 * nb - nx)
        nc = explicit(c, data1)
        v = gal._cleanup(e * x + f1 * nx + 2.0 * f2 * (na + nb) + f3 * nc)
        x = gal._pack(v.coeffs)
        traj.append(k + 1, (k + 1) * h, v)
        data0 = data1
    return traj


def nse_integrate(
    u0: SpectralField,
    p: PhysicsParams,
    t_end: float,
    tau_fine: float,
    *,
    store_every: int = 1,
) -> Trajectory:
    """Integrate the unnudged equation at the grid's full dealiased band.

    Truth generator for twin experiments: requires beta = 0 and the
    cutoff equal to the full band so no resolved mode is discarded.
    """
    if p.beta != 0.0:
        raise ValueError(f"truth integration requires beta = 0, got {p.beta}")
    if p.cutoff.shell_limit(p.grid) != p.grid.band_limit**2:
        raise ValueError(
            "truth integration requires the cutoff at the full dealiased band; "
            f"use grid.band_cutoff() (shell {p.grid.band_limit**2}), got shell "
            f"{p.cutoff.shell_limit(p.grid)}"
        )
    n = _steps_for(t_end, tau_fine)
    _, traj = advance(u0, p, None, tau_fine, n, store_every=store_every)
    assert traj is not None
    return traj
