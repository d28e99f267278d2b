"""Implicit Euler time steppers for the nudged spectral Galerkin system,
plus an ETDRK4 stepper, the reference for its continuous-in-time flow.

Both schemes advance

    (v^{k+1} - v^k)/tau + nu A v^{k+1} + P_N B(v*, v^{k+1})
        = P_N f - beta P_N P_sigma I_h (v^{k+1} - u(t_{k+1}))

with v* = v^k (semi-implicit) or v* = v^{k+1} (fully implicit, solved by
Newton's method).  Every linear solve is a matrix-free restarted-GMRES
iteration with a diagonal right preconditioner, on the coercive operator
w/tau + nu A w + P_N B(v*, w) + beta P_N P_sigma I_h w (semi-implicit) or
on the Newton Jacobian.  The unknowns are one solenoidal amplitude per
half-plane low mode, so every iterate and every GMRES correction is real
and divergence-free by construction and is used as it is.

The initial guess changes only the work, not the step beyond its
tolerance: `advance` starts each step's solve from a damped cubic
extrapolation of the earlier iterates (`_Predictor`).  With w_k =
1/(1 + tau d_k) per mode, d_k = nu |k|^2 + obs_diag_k, it keeps the damped
backward differences D_1 = v^k - v^(k-1) and D_m = D_(m-1) - w D_(m-1)'
(m = 2, 3; ' marks the previous step's) and guesses
v^k + w (D_1 + D_2 + D_3), leaving out every term from the first D_m whose
norm exceeds that of D_(m-1).  Where tau d_k << 1 it is cubic
extrapolation; a mode that only decays under its stiff diagonal has
D_2 = D_3 = 0 and is guessed exactly, where plain extrapolation would
overshoot; and a steady state's roundoff, whose differences grow with m,
is extrapolated by D_1 alone.  The first step starts from v^k.

Every solve is a correction from zero.  A step checks the residual
r = b - G(v) of its guess, G the map the step inverts, and accepts the
guess within the tolerance; otherwise it solves G' d = r by GMRES from
d = 0, r the right-hand side, to |r - G' d| <= tol |b| / 4 (an inner
tolerance relative to b, Eisenstat & Walker, SIAM J. Sci. Comput. 17,
1996), and moves to v + d.  The semi-implicit scheme freezes its first
bilinear argument at v^k, so G is linear, G' = G, and it checks its
guess against tol / 4, the tolerance of its solve: its one solve is its
last check.  The fully implicit step solves F(v) = b, F(v) = v/tau +
nu A v + P_N B(v, v) + beta P_N P_sigma I_h v, by Newton's method from
the guess, checking each iterate against tol.  B is bilinear, so G' =
J(v), J(v) d = d/tau + nu A d + P_N [B(v, d) + B(d, v)] + beta P_N
P_sigma I_h d, is exact (Knoll & Keyes, J. Comput. Phys. 193, 2004), and
the next residual is the solve's remainder minus P_N B(d, d), so from a
close guess one solve meets the tolerance.  GMRES builds its final
residual from the operator products it has already applied (`krylov`),
so in both schemes a solve costs one application per iteration, a step
one more per residual check, and a step whose guess meets the tolerance
a single application and no solve.
An iterate's samples and gradients come from one inverse FFT
(`_Packing._sample`), shared by its residual check and every Jacobian
application of its solve; a Jacobian application synthesizes its
direction the same way, so each application is one inverse and one
forward real FFT, as is each ETDRK4 evaluation.

The operator is applied on the cutoff's own product grid: the smallest
even FFT-friendly n_s >= 3K + 1, K the largest |j|_inf of a low mode, on
which the 2/3 rule makes P_N B(v, w) exact (Orszag 1971).
P_N P_sigma I_h is one closed-form, real-linear map from any packing on
the grid to the low modes (`_Galerkin._observation_map`).  On the low
modes themselves its diagonal is exact and is what the preconditioner
and the ETDRK4 linear part use; when L/h < 2K + 1 the map couples them
and the beta-term applies it whole.

`advance` holds the one loop over time steps: every runner and check,
the contraction runner's two solutions and the ETDRK4 reference included,
marches through it.  The packed vector is the march's only state: a step
maps x_k to x_(k+1), the stored trajectory is the one way iterates leave
the march, and `advance` builds a field once, for v^n.  The solver's packing
is a `fields._Packing` of the cutoff's low modes, and a field holds the
same amplitudes on the whole dealiased band, so moving between them is
an index map.  Norms of packed vectors are Parseval sums with
per-mode weights 2 L^2 {1, |k|^2, |k|^4} (`_Packing.norms`).
The solver reads its observations from the truth itself: a TruthSource
holds u(t) as packed frames and a time stencil, u(t) = combine(frames,
*stencil(t)) (`storage.combine`), and returns P_N P_sigma I_h u(t) packed
(`TruthSource.observe`), under the one interpolant the params name, and
only when beta > 0.  The frames are observed once per packing, in one
product, and the observed frames are combined with the same stencil,
which equals observing u(t) because both maps are linear.  A steady truth
is one frame, an analytic one its frames with closed-form weights, and a
stored trajectory is its frames with its Lagrange stencil.  Errors embed
each estimate of a march in the truth's packing and take packed norms
(`TruthSource.errors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _Packing,
    to_physical,  # noqa: F401  (a layer entry point that tracing patches)
)
from .interpolants import (
    InterpolantSpec,
    _average_symbol,
    apply_ih,  # noqa: F401  (a layer entry point that tracing patches)
)
from .krylov import SolverError, gmres
from .operators import advect_raw
from .storage import Trajectory, combine

__all__ = [
    "PhysicsParams",
    "TruthSource",
    "SolverError",
    "SEMI_IMPLICIT",
    "FULLY_IMPLICIT",
    "SCHEMES",
    "advance",
    "reference_galerkin_integrate",
    "nse_integrate",
]

SEMI_IMPLICIT = "semi_implicit"
FULLY_IMPLICIT = "fully_implicit"
SCHEMES = (SEMI_IMPLICIT, FULLY_IMPLICIT)
ETDRK4 = "etdrk4"

STEP_RESIDUAL_RTOL = 1e-10
NEWTON_MAX_OUTER = 100


@dataclass(frozen=True, eq=False)
class PhysicsParams:
    """Problem data: viscosity, grid, forcing, nudging gain, observations, cutoff.

    Two params are equal, and hash alike, when their values are: the
    forcing compares by its coefficients, so caches keyed on params hit
    across runs that rebuild the same problem.
    """

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

    @cached_property
    def _key(self) -> tuple:
        return (
            self.nu, self.grid, self.forcing.coeffs.tobytes(), self.beta,
            self.interpolant, self.cutoff,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhysicsParams):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def _map(pair: tuple[np.ndarray, np.ndarray], a: np.ndarray) -> np.ndarray:
    """M a + C conj(a) for the pair (M, C), on a packed vector or each row of a."""
    m, c = pair
    return a @ m.T + a.conj() @ c.T


class TruthSource:
    """Resolved solution u(t) = combine(frames, *stencil(t)), packed on
    `packing`, which holds every mode of u.

    frames are packed vectors; stencil(t) returns the index of u(t)'s first
    frame and the weights of it and the frames after it (None: u(t) is
    that frame).  A steady truth is one frame with stencil (0, None), a
    trajectory that `advance` stored is its frames with `traj.stencil`.
    """

    def __init__(
        self,
        packing: _Packing,
        frames: list[np.ndarray],
        stencil: Callable[[float], tuple[int, list[float] | None]],
    ) -> None:
        self.packing, self.frames, self.stencil = packing, frames, stencil
        self._observed: dict[tuple, np.ndarray] = {}

    def packed(self, t: float) -> np.ndarray:
        return combine(self.frames, *self.stencil(t))

    def field_at(self, t: float) -> SpectralField:
        return self.packing._field(self.packed(t))

    def observe(self, gal: _Galerkin, t: float) -> np.ndarray:
        """P_N P_sigma I_h u(t) packed in gal, I_h = gal.p.interpolant.

        The frames are observed once per packing and interpolant that
        observe the truth, in one product, and combined with the stencil.
        """
        key = (gal.grid, gal.p.cutoff, gal.p.interpolant)
        if key not in self._observed:
            if gal.grid != self.packing.grid:
                raise ValueError("observed truth grid differs from params grid")
            pair = gal._observation_map(self.packing.modes)
            self._observed[key] = _map(pair, np.array(self.frames))
        return combine(self._observed[key], *self.stencil(t))

    def errors(
        self, packing: _Packing, times: Iterable[float], rows: Iterable[np.ndarray]
    ) -> np.ndarray:
        """[err_H, err_V, err_DA] of v - u(t) for each vector v packed in
        `packing` and its time t, one row each, v embedded in the truth's
        packing.  Each difference is built and measured on its own, which
        holds one truth-packed vector at a time."""
        own = self.packing
        at = own._index_of(packing.modes)
        out = []
        for t, x in zip(times, rows):
            d = -self.packed(t)
            d[at] += x
            out.append(own.norms(d))
        return np.array(out)


def _product_size(k: int, n: int) -> int:
    """Smallest even FFT-friendly length >= 3k + 1, at most n."""
    import scipy.fft as _fft
    size = _fft.next_fast_len(3 * k + 1)
    while size % 2:
        size = _fft.next_fast_len(size + 1)
    return min(size, n)


class _Galerkin(_Packing):
    """Scheme-independent pieces of the nudged Galerkin system for one params.

    It packs the low modes of params.cutoff.  GMRES works in the real
    space Re <a, b>, whose norm is norm_H / (sqrt(2) L), so relative
    tolerances transfer unchanged.  Diagonals (k_squared, obs_diag, and
    the steppers' Stokes, preconditioner and ETDRK4 weights) hold one
    real entry per mode.

    Operators run on its sgrid = TorusGrid(L, n_s), n_s the product size
    capped at grid.n, through the packing's half spectrum (`_Packing`).

    obs_diag is beta times the real diagonal of `_observation_map` onto
    these modes.  That map is diagonal when L/h >= 2K + 1 (and for Fourier
    truncation); otherwise _obs_pair holds beta times it, else None.
    """

    def __init__(self, p: PhysicsParams):
        k = math.isqrt(p.cutoff.shell_limit(p.grid))
        sgrid = TorusGrid(p.grid.L, _product_size(k, p.grid.n))
        super().__init__(p.grid, p.cutoff.mask_low(p.grid), sgrid)
        self.p = p
        self.f_low = self._pack_field(p.forcing)
        self.obs_diag = np.zeros_like(self.k_squared)
        self._obs_pair = None
        if p.beta > 0.0:
            m, c = self._observation_map(self.modes)
            self.obs_diag = p.beta * m.diagonal().real
            spec = p.interpolant
            if spec.kind == "volume_average" and spec.blocks(self.grid) < 2 * k + 1:
                self._obs_pair = (p.beta * m, p.beta * c)

    def _observation_map(
        self, modes: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pair (M, C) with P_N P_sigma I_h v = M a + C conj(a) packed here,
        for v packed as a on the half-plane modes (j1, j2) of the params grid.

        I_h is params.interpolant, and e_k . e_j = (k . j) / |k| |j|.
        Fourier truncation keeps e_k . e_j where j = k is observed.  For a
        volume average, D the product of both axes' `_average_symbol`,
        M = conj(D(k)) D(j) e_k . e_j where j = k mod L/h on both axes, and
        C = conj(D(k) D(j)) e_k . e_j where -j = k (the mirror of j).
        """
        spec, n = self.p.interpolant, self.grid.n
        k1, k2 = (k[:, None] for k in self.modes)
        j1, j2 = modes
        shell = k1 * k1 + k2 * k2
        dot = (k1 * j1 + k2 * j2) / np.sqrt(shell * (j1 * j1 + j2 * j2))
        if spec.kind == "fourier_truncation":
            observed = shell <= spec.cutoff().shell_limit(self.grid)
            same = (k1 == j1) & (k2 == j2) & observed
            return np.where(same, dot, 0.0), np.zeros_like(dot)
        m = spec.blocks(self.grid)
        d = _average_symbol(self.grid._j, n, n // m)  # D(j) of one axis at j % n
        d_k, d_j = d[k1 % n] * d[k2 % n], d[j1 % n] * d[j2 % n]
        same = ((k1 - j1) % m == 0) & ((k2 - j2) % m == 0)
        mirror = ((k1 + j1) % m == 0) & ((k2 + j2) % m == 0)
        return (
            np.where(same, d_k.conj() * d_j * dot, 0.0),
            np.where(mirror, (d_k * d_j).conj() * dot, 0.0),
        )

    # -- operator pieces ----------------------------------------------------

    def _obs_term(self, vec: np.ndarray) -> np.ndarray:
        """beta * P_N P_sigma I_h w on a packed vector."""
        if self._obs_pair is None:
            return self.obs_diag * vec
        return _map(self._obs_pair, vec)

    def _observed(self, truth: TruthSource | None, t: float) -> np.ndarray | float:
        """Packed beta P_N P_sigma I_h u(t), the nudging data (0.0 if beta = 0)."""
        if self.p.beta == 0.0:
            return 0.0
        if truth is None:
            raise ValueError("beta > 0 requires a truth to observe")
        return self.p.beta * truth.observe(self, t)


def _require_finite(vec: np.ndarray, what: str) -> None:
    # A blow-up is a solver failure, not bad input: raise SolverError.
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
        # 1/(1 + tau d_k), the per-mode weight of the predictor
        self._predictor_weight = self._inv_diag / self.tau

    def predictor(self) -> "_Predictor":
        return _Predictor(self._predictor_weight)

    def _apply_linear(
        self, vec: np.ndarray, u_phys: np.ndarray, grads: np.ndarray | None = None
    ) -> np.ndarray:
        """Packed action of w/tau + nu A w + P_N B(u, w) + beta P_N P_sigma I_h w.

        grads, if given, replace the samples of grad w, and the advective
        term is P_N sum_a u_phys[a] grads[:, a] (`operators.advect_raw`):
        with both samples from `_sample(w)` that is F(w), and `_jacobian`
        stacks two pairs.
        """
        if grads is None:
            adv = advect_raw(self.sgrid, u_phys, self._half(vec))
        else:
            adv = advect_raw(self.sgrid, u_phys, None, grads)
        return self._stokes_diag * vec + self._project(adv) + self._obs_term(vec)

    def _jacobian(
        self, vec: np.ndarray, samples: tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """J(x) d = d/tau + nu A d + P_N [B(x, d) + B(d, x)] + beta P_N P_sigma I_h d
        for d = vec, samples = `_sample` of x.

        F is quadratic in x, so this is its exact Jacobian; the
        advective pair is one synthesis of d and one analysis.
        """
        u, grads = samples
        d_u, d_grads = self._sample(vec)
        return self._apply_linear(
            vec, np.concatenate((u, d_u)), np.concatenate((d_grads, grads), axis=1)
        )

    def _solve(
        self, apply_op: Callable[[np.ndarray], np.ndarray], r: np.ndarray, rel_tol: float
    ) -> np.ndarray:
        """The correction d with apply_op(d) = r to relative residual rel_tol,
        by GMRES from d = 0."""
        result = gmres(
            apply_op, r, rel_tol=rel_tol, apply_precond=lambda w: self._inv_diag * w
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

    def step(
        self,
        x: np.ndarray,
        k: int,
        truth: TruthSource | None,
        guess: np.ndarray | None = None,
    ) -> np.ndarray:
        """x_(k+1) after the iterate x = x_k, packed in this stepper.

        guess, a packed vector, starts the solve (x_k if None); the
        iterate does not depend on it beyond the step tolerance.  Both
        schemes check the guess's residual r = b - G(guess) first and
        accept it within the tolerance; otherwise they solve for a
        correction from zero with r as the right-hand side (module
        docstring).  The semi-implicit operator is frozen at x_k and
        linear, so its one solve is its last check; the fully implicit
        step is Newton's method, each iterate sampled once, for its
        residual check and the Jacobian of its solve.
        """
        b = x / self.tau + self.f_low + self._observed(truth, (k + 1) * self.tau)
        bnorm = float(np.linalg.norm(b))
        if not np.isfinite(bnorm):
            # the state, the forcing or the observation is not finite
            raise SolverError("non-finite step right-hand side")
        if bnorm == 0.0:
            return np.zeros_like(b)  # both operators map 0 to 0
        if guess is None:
            guess = x
        if self.scheme == SEMI_IMPLICIT:
            u_phys = self._physical(self._half(x))
            op = lambda w: self._apply_linear(w, u_phys)
            r = b - op(guess)
            rnorm = float(np.linalg.norm(r))
            if rnorm / bnorm <= 0.25 * STEP_RESIDUAL_RTOL:
                return guess
            return guess + self._solve(op, r, 0.25 * STEP_RESIDUAL_RTOL * bnorm / rnorm)
        trace: list[float] = []
        x = guess
        while True:
            samples = self._sample(x)
            r = b - self._apply_linear(x, *samples)
            rnorm = float(np.linalg.norm(r))
            trace.append(rnorm / bnorm)
            if trace[-1] <= STEP_RESIDUAL_RTOL:
                return x
            if len(trace) > NEWTON_MAX_OUTER:  # every allowed solve has run
                raise SolverError(
                    "Newton iteration did not reach the nonlinear residual "
                    f"tolerance {STEP_RESIDUAL_RTOL:.0e} in {NEWTON_MAX_OUTER} "
                    f"iterations; trace={['%.3e' % r for r in trace[-8:]]} "
                    "(consider a smaller tau)"
                )
            x = x + self._solve(
                lambda d: self._jacobian(d, samples),
                r,
                0.25 * STEP_RESIDUAL_RTOL * bnorm / rnorm,
            )


class _Predictor:
    """Initial guesses for the solves of one march (module docstring).

    Called with each iterate x_k in turn, it returns the guess for x_(k+1):
    x_k itself first, then x_k + w (D_1 + D_2 + D_3) over the damped
    backward differences that x_k and the iterates before it provide.
    """

    def __init__(self, weight: np.ndarray) -> None:
        self.w = weight
        self._x: np.ndarray | None = None
        self._diffs: list[np.ndarray] = []  # D_1, D_2 of the previous iterate

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._x is None:
            self._x = x
            return x
        diffs = [x - self._x]
        for prev in self._diffs:
            diffs.append(diffs[-1] - self.w * prev)
        self._x, self._diffs = x, diffs[:2]
        # the truncation compares sizes only, so squared norms serve
        step, size = diffs[0], np.vdot(diffs[0], diffs[0]).real
        for d in diffs[1:]:
            d_size = np.vdot(d, d).real
            if d_size > size:
                break
            step, size = step + d, d_size
        return x + self.w * step


@lru_cache(maxsize=64)
def _galerkin(p: PhysicsParams) -> _Galerkin:
    return _Galerkin(p)


@lru_cache(maxsize=64)
def _stepper(p: PhysicsParams, tau: float, scheme: str) -> _Stepper | _Etdrk4:
    return _Etdrk4(p, tau) if scheme == ETDRK4 else _Stepper(p, tau, scheme)


def advance(
    v0: SpectralField,
    p: PhysicsParams,
    truth: TruthSource | None,
    tau: float,
    n_steps: int,
    *,
    scheme: str = SEMI_IMPLICIT,
    store_every: int | None = None,
) -> tuple[SpectralField, Trajectory | None]:
    """March n_steps from v^0 = P_N v0: the field v^n and, optionally, a
    recorded trajectory.

    Packing v0 reads only its low modes, which is P_N.  When beta > 0
    each step observes the truth at its new time under p.interpolant
    (`TruthSource.observe`), an ETDRK4 step also at its start and
    midpoint; with beta = 0 the truth is not read and may be None.  Each
    Euler solve starts from the damped cubic extrapolation of the iterates
    so far, truncated where their damped differences stop shrinking (v^0
    for the first step; see the module docstring).  store_every = m
    records the packed v^0 and every m-th iterate (plus the final one)
    into the returned trajectory, the one way iterates leave the march.
    A SolverError carries the last accepted iterate's index and field as
    exc.step and exc.field, the cutoff, and the trajectory stored so far
    as exc.trajectory.
    """
    if not tau > 0.0:
        raise ValueError(f"time step must be positive, got {tau}")
    stepper = _stepper(p, float(tau), scheme)
    x = stepper._pack_field(v0)
    traj: Trajectory | None = None
    if store_every is not None:
        if store_every < 1:
            raise ValueError(f"store_every must be >= 1, got {store_every}")
        traj = Trajectory(stepper)
        traj.append(0.0, x)
    predict = stepper.predictor()
    for k in range(1, n_steps + 1):
        try:
            x = stepper.step(x, k - 1, truth, predict(x))
        except SolverError as exc:
            exc.step, exc.field, exc.cutoff = k - 1, stepper._field(x), p.cutoff
            exc.trajectory = traj
            raise
        if traj is not None and (k % store_every == 0 or k == n_steps):
            traj.append(k * stepper.tau, x)
    return stepper._field(x), traj


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


class _Etdrk4(_Galerkin):
    """ETDRK4 steps of size tau for one params (`reference_galerkin_integrate`).

    Each step observes the truth at its three stage times t_k, t_k + tau/2
    and t_(k+1).
    """

    def __init__(self, p: PhysicsParams, tau: float):
        super().__init__(p)
        self.tau = float(tau)
        hl = -self.tau * (p.nu * self.k_squared + self.obs_diag)
        self._weights = _etdrk4_weights(hl, self.tau)

    def predictor(self) -> Callable[[np.ndarray], None]:
        """No guesses: the step solves nothing."""
        return lambda x: None

    def _explicit(self, vec: np.ndarray, data: np.ndarray | float) -> np.ndarray:
        """Packed explicit part N(v, t) of the Galerkin field at v.

        P_N f - P_N B(v, v) + data + (obs_diag v - beta P_N P_sigma I_h v),
        data the packed observation term beta P_N I_h u(t) (or 0.0).
        """
        u, grads = self._sample(vec)
        adv = advect_raw(self.sgrid, u, None, grads)
        out = self.f_low - self._project(adv) + data
        if self._obs_pair is not None:
            out += self.obs_diag * vec - self._obs_term(vec)
        return out

    def step(
        self, x: np.ndarray, k: int, truth: TruthSource | None, guess: None = None
    ) -> np.ndarray:
        """x_(k+1) after the iterate x = x_k, packed in this stepper."""
        h = self.tau
        e, e2, q, f1, f2, f3 = self._weights
        data0 = self._observed(truth, k * h)
        data_half = self._observed(truth, (k + 0.5) * h)
        data1 = self._observed(truth, (k + 1) * h)
        nx = self._explicit(x, data0)
        a = e2 * x + q * nx
        na = self._explicit(a, data_half)
        b = e2 * x + q * na
        nb = self._explicit(b, data_half)
        c = e2 * a + q * (2.0 * nb - nx)
        nc = self._explicit(c, data1)
        x = e * x + f1 * nx + 2.0 * f2 * (na + nb) + f3 * nc
        _require_finite(x, "iterate")
        return x


def reference_galerkin_integrate(
    v0: SpectralField,
    p: PhysicsParams,
    truth: TruthSource | None,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Fourth-order surrogate for the continuous-in-time nudged Galerkin flow.

    `advance` marches dv/dt = L v + N(v, t) with ETDRK4 (Cox & Matthews
    2002), storing every step from v(0) = P_N v0.  The diagonal part
    L = -(nu A + obs_diag) is integrated exactly; the explicit part is
    N(v, t) = P_N f - P_N B(v, v) + beta P_N I_h u(t), plus, for volume
    averages, the off-diagonal remainder obs_diag v - beta P_N P_sigma I_h v
    (zero when L/h >= 2K + 1).  I_h is p.interpolant, and each step
    observes the truth at its three stage times (none when beta = 0).  The
    flow does not depend on a time-stepping scheme, so one trajectory
    serves both.  Raises SolverError if an iterate becomes non-finite.
    """
    n_steps = _steps_for(t_end, dt)
    return advance(v0, p, truth, dt, n_steps, scheme=ETDRK4, store_every=1)[1]


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
    return advance(u0, p, None, tau_fine, n, store_every=store_every)[1]
