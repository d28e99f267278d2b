"""Implicit Euler time steppers for the nudged spectral Galerkin system,
plus an ETDRK4 reference for its continuous-in-time flow.

Both schemes advance

    (v^{k+1} - v^k)/tau + nu A v^{k+1} + P_N B(v*, v^{k+1})
        = P_N f - beta P_N P_sigma I_h (v^{k+1} - u(t_{k+1}))

with v* = v^k (semi-implicit) or v* = v^{k+1} (fully implicit, solved by
a Picard outer loop that freezes the first bilinear argument).  Every
linear solve is a matrix-free restarted-GMRES iteration on the coercive
operator w/tau + nu A w + P_N B(v*, w) + beta P_N P_sigma I_h w with a
diagonal right preconditioner.  The unknowns are one solenoidal amplitude
per half-plane low mode, so every iterate is real and divergence-free by
construction and is accepted as GMRES returns it.

The operator is applied on the cutoff's own product grid: the smallest
even FFT-friendly n_s >= 3K + 1, K the largest |j|_inf of a low mode, on
which the 2/3 rule makes P_N B(v, w) exact (Orszag 1971).  Volume
averages of grid samples are separable, so P_N P_sigma I_h acts on the
low modes as Leray(T C T^T) with a small precomputed matrix T; its
diagonal is exact and is what the preconditioner and the ETDRK4 linear
part use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.fft as _fft

from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    project_low,
    to_physical,  # noqa: F401  (a layer entry point that tracing patches)
)
from .interpolants import InterpolantSpec, _cell_average_matrix, apply_ih
from .krylov import SolverError, gmres
from .operators import advect_raw
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
    """Problem data: viscosity, grid, forcing, nudging gain, observations, cutoff."""

    nu: float
    grid: TorusGrid
    forcing: SpectralField
    beta: float
    interpolant: InterpolantSpec | None
    cutoff: GalerkinCutoff

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


def _product_size(k: int, n: int) -> int:
    """Smallest even FFT-friendly length >= 3k + 1, at most n."""
    size = _fft.next_fast_len(3 * k + 1)
    while size % 2:
        size = _fft.next_fast_len(size + 1)
    return min(size, n)


class _Galerkin:
    """Scheme-independent pieces of the nudged Galerkin system for one params.

    A packed vector holds one complex amplitude a_k per low mode k with
    j2 > 0, or j2 = 0 < j1 (in the order of `modes`): uhat(k) = a_k e_k,
    e_k = (-j2, j1) / |j|, and uhat(-k) = conj(uhat(k)), the
    stream-function Galerkin form of Canuto et al., Spectral Methods
    (2006).  GMRES works in the real space Re <a, b>, whose norm is
    norm_H / (sqrt(2) L), so relative tolerances transfer unchanged.
    Diagonals (k_squared, obs_diag, Stokes, preconditioner, ETDRK4
    weights) hold one real entry per mode.

    Operators run on sgrid = TorusGrid(L, n_s), n_s the product size
    capped at grid.n.  A packed vector enters it as the half spectrum
    j2 >= 0 of its velocity (the j2 = 0 column holds k and -k) and leaves
    it as the dot product with e_k at the packed modes, which is
    P_N P_sigma.  Fields enter and leave on params.grid.

    obs_diag is the exact diagonal of beta P_N P_sigma I_h: beta on the
    observed modes for Fourier truncation, beta T_{j1 j1} T_{j2 j2} for
    volume averages, T the cell-average matrix of the params grid's
    samples at sgrid's wavenumbers.  When L/h >= 2K + 1, T is diagonal on
    |j| <= K and _cell_avg is None; otherwise it holds the matrices that
    apply T C T^T to a half spectrum.
    """

    def __init__(self, p: PhysicsParams):
        self.p = p
        self.grid = grid = p.grid
        k = math.isqrt(p.cutoff.shell_limit(grid))
        self.sgrid = sgrid = TorusGrid(grid.L, _product_size(k, grid.n))
        n, n_s, h, j = grid.n, sgrid.n, sgrid.n // 2 + 1, sgrid._j
        half_plane = (j[None, :] > 0) | ((j[None, :] == 0) & (j[:, None] > 0))
        rows, cols = np.nonzero(p.cutoff.mask_low(sgrid) & half_plane)
        j1, j2 = j[rows], j[cols]
        self.modes = (j1, j2)
        shell = j1 * j1 + j2 * j2
        self.k_squared = sgrid.lambda1 * shell
        self._e = np.stack((-j2, j1)) / np.sqrt(shell)
        # the mirrors -k of the modes on the j2 = 0 axis also lie in j2 >= 0
        self._axis = np.flatnonzero(j2 == 0)
        self._half_shape = (2, n_s, h)
        self._half_at = np.concatenate((rows * h + cols, -j1[self._axis] % n_s * h))
        self._e_half = np.concatenate((self._e, self._e[:, self._axis]), axis=1)
        self._grid_at = np.concatenate((j1 % n * n + j2 % n, -j1 % n * n + -j2 % n))
        self.f_low = self._pack_field(p.forcing)
        self.obs_diag = np.zeros_like(self.k_squared)
        self._cell_avg = None
        if p.beta > 0.0:
            if p.interpolant.kind == "fourier_truncation":
                observed = p.interpolant.cutoff().shell_limit(sgrid)
                self.obs_diag = p.beta * (shell <= observed)
            else:
                t = _cell_average_matrix(p.interpolant, grid, j)
                t_diag = t.diagonal().real
                self.obs_diag = p.beta * t_diag[rows] * t_diag[cols]
                if p.interpolant.blocks(grid) < 2 * k + 1:
                    # T C T^T over C's columns j2 >= 0, then over its columns
                    # j2 < 0, the mirror conj(C(-j1, -j2)) (j2 = 0 counted once)
                    flip = sgrid._conj_index
                    minus = t[:h, flip[:h]].T
                    minus[0] = 0.0
                    self._cell_avg = (t, t[:, flip], t[:h, :h].T, minus)

    # -- packing ------------------------------------------------------------

    def _dot_e(self, coeffs: np.ndarray, at: np.ndarray) -> np.ndarray:
        """e_k . c(k) over the packed modes, at flat positions `at` of c."""
        c = coeffs.reshape(2, -1)[:, at[: self.k_squared.size]]
        return self._e[0] * c[0] + self._e[1] * c[1]

    def _pack_field(self, f: SpectralField) -> np.ndarray:
        """Packed amplitudes of a field on the params grid."""
        return self._dot_e(f.coeffs, self._grid_at)

    def _field(self, vec: np.ndarray) -> SpectralField:
        """The params-grid field of a packed vector."""
        n = self.grid.n
        coeffs = np.zeros((2, n, n), dtype=np.complex128)
        both = np.concatenate((vec, vec.conj()))
        coeffs.reshape(2, -1)[:, self._grid_at] = both * np.tile(self._e, 2)
        return SpectralField._trusted(self.grid, coeffs)

    def _half(self, vec: np.ndarray) -> np.ndarray:
        """Product-grid half spectrum j2 >= 0 of a packed velocity."""
        half = np.zeros(self._half_shape, dtype=np.complex128)
        amps = np.concatenate((vec, vec[self._axis].conj()))
        half.reshape(2, -1)[:, self._half_at] = amps * self._e_half
        return half

    def _project(self, half: np.ndarray) -> np.ndarray:
        """P_N P_sigma of a product-grid half spectrum, packed."""
        return self._dot_e(half, self._half_at)

    def _physical(self, vec: np.ndarray) -> np.ndarray:
        """Product-grid samples of a packed velocity."""
        n = self.sgrid.n
        return _fft.irfft2(self._half(vec), s=(n, n), norm="forward")

    # -- operator pieces ----------------------------------------------------

    def _obs_term(self, vec: np.ndarray) -> np.ndarray:
        """beta * P_N P_sigma I_h w on a packed vector."""
        if self._cell_avg is None:
            return self.obs_diag * vec
        t, t_flip, plus, minus = self._cell_avg
        half = self._half(vec)
        averaged = t @ half @ plus + t_flip @ half.conj() @ minus
        return self.p.beta * self._project(averaged)

    def _observed(self, obs_field: SpectralField | None) -> np.ndarray:
        """Packed beta P_N (P_sigma I_h u), the data the nudging term feeds in."""
        if obs_field is None:
            raise ValueError("beta > 0 requires an observation stream")
        return self.p.beta * self._pack_field(obs_field)

    def _explicit(self, vec: np.ndarray, data: np.ndarray | float) -> np.ndarray:
        """Packed ETDRK4 explicit part of the Galerkin field at v.

        P_N f - P_N B(v, v) + data + (obs_diag v - beta P_N P_sigma I_h v),
        data the packed observation term beta P_N I_h u(t) (or 0.0).
        """
        adv = advect_raw(self.sgrid, self._physical(vec), self._half(vec))
        out = self.f_low - self._project(adv) + data
        if self._cell_avg is not None:
            out += self.obs_diag * vec - self._obs_term(vec)
        return out


def _require_finite(vec: np.ndarray, what: str) -> None:
    # A blow-up is a solver failure, not bad input: raise SolverError, never
    # the ValueError that GMRES or solve_triangular would raise on it.
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
        self._stokes_diag = 1.0 / self.tau + p.nu * self.k_squared
        # Diagonal right preconditioner: the non-advective part of the operator.
        self._inv_diag = 1.0 / (self._stokes_diag + self.obs_diag)

    def _apply_linear(self, vec: np.ndarray, u_phys: np.ndarray) -> np.ndarray:
        """Packed action of w/tau + nu A w + P_N B(u, w) + beta P_N P_sigma I_h w."""
        adv = self._project(advect_raw(self.sgrid, u_phys, self._half(vec)))
        return self._stokes_diag * vec + adv + self._obs_term(vec)

    def _solve(self, u_phys: np.ndarray, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """The GMRES iterate, whose true relative residual is <= the step tolerance."""
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
        _require_finite(result.x, "iterate")
        return result.x

    # -- steps ----------------------------------------------------------------

    def step(self, state: SchemeState, obs: ObservationStream | None) -> SchemeState:
        """The next iterate; a SolverError carries state as the last accepted."""
        try:
            return self._step(state, obs)
        except SolverError as exc:
            exc.state, exc.cutoff = state, self.p.cutoff
            raise

    def _step(self, state: SchemeState, obs: ObservationStream | None) -> SchemeState:
        x = self._pack_field(state.v)
        b = x / self.tau + self.f_low
        if self.p.beta > 0.0:
            t_next = (state.k + 1) * self.tau
            b += self._observed(obs(t_next) if obs is not None else None)
        bnorm = float(np.linalg.norm(b))
        if not np.isfinite(bnorm):
            # the state, the forcing or the observation is not finite
            raise SolverError("non-finite step right-hand side")
        u_phys = self._physical(x)
        if self.scheme == SEMI_IMPLICIT:
            # the step residual is GMRES's final true residual of this iterate
            x = self._solve(u_phys, b, x)
            return SchemeState(state.k + 1, self.tau, self._field(x))
        # Fully implicit: Picard with frozen first bilinear argument.
        trace: list[float] = []
        for _ in range(PICARD_MAX_OUTER):
            x = self._solve(u_phys, b, x)
            u_phys = self._physical(x)
            r = self._apply_linear(x, u_phys) - b
            trace.append(float(np.linalg.norm(r)) / bnorm if bnorm > 0 else 0.0)
            if trace[-1] <= STEP_RESIDUAL_RTOL:
                return SchemeState(state.k + 1, self.tau, self._field(x))
        raise SolverError(
            "Picard iteration did not reach the nonlinear residual tolerance "
            f"{STEP_RESIDUAL_RTOL:.0e} in {PICARD_MAX_OUTER} iterations; "
            f"trace={['%.3e' % r for r in trace[-8:]]} (consider a smaller tau)"
        )


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
    N(v, t) = P_N f - P_N B(v, v) + beta P_N I_h u(t), plus, for volume
    averages, the off-diagonal remainder obs_diag v - beta P_N P_sigma I_h v
    (zero when L/h >= 2K + 1).  Observations are read once per distinct
    stage time.  The flow does not depend on a time-stepping scheme, so one
    trajectory serves both.  Raises SolverError if an iterate becomes
    non-finite.
    """
    n_steps = _steps_for(t_end, dt)
    if p.beta > 0.0 and obs is None:
        raise ValueError("beta > 0 requires an observation stream")
    gal = _Galerkin(p)
    h = float(dt)
    e, e2, q, f1, f2, f3 = _etdrk4_weights(
        -h * (p.nu * gal.k_squared + gal.obs_diag), h
    )

    def observed(t: float) -> np.ndarray | float:
        return gal._observed(obs(t)) if p.beta > 0.0 else 0.0

    v = project_low(v0, p.cutoff)
    x = gal._pack_field(v)
    _require_finite(x, "initial state")
    traj = Trajectory(p.grid)
    traj.append(0, 0.0, v)
    data0 = observed(0.0)
    for k in range(n_steps):
        data_half = observed((k + 0.5) * h)
        data1 = observed((k + 1) * h)
        nx = gal._explicit(x, data0)
        a = e2 * x + q * nx
        na = gal._explicit(a, data_half)
        b = e2 * x + q * na
        nb = gal._explicit(b, data_half)
        c = e2 * a + q * (2.0 * nb - nx)
        nc = gal._explicit(c, data1)
        x = e * x + f1 * nx + 2.0 * f2 * (na + nb) + f3 * nc
        if not np.all(np.isfinite(x)):
            last = SchemeState(k, h, traj.fields[-1])
            raise SolverError("non-finite iterate", state=last, cutoff=p.cutoff)
        traj.append(k + 1, (k + 1) * h, gal._field(x))
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
