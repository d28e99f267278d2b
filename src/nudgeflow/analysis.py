"""Explicit a-priori constants, admissibility checks, envelopes, and fits.

The constants G, M0, M1, Lambda, R1, M2, R2, L_N, C0, C1 are computed by
their defining formulas; the theory does not pin down the absolute
constants those formulas carry, and nudgeflow fixes both at 1: c (in
the nudging-gain floor, C0 and C1) and c4 (in R1).

Checks come in two tiers: hard assertions for constant-free inequalities
(Gronwall envelopes, contraction factors, the explicit stability bounds)
and advisory condition checks for constant-bearing hypotheses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .fields import norm_H, project_high
from .schemes import PhysicsParams
from .storage import STEP_TOL

__all__ = [
    "BoundConstants",
    "bound_constants",
    "ConditionCheck",
    "check_conditions",
    "gronwall_envelope",
    "contraction_envelope",
    "stability_bound_h2",
    "stability_bound_v2",
    "FitError",
    "DecayFit",
    "decay_rate_fit",
    "tail_sup",
    "OrderFit",
    "convergence_order",
]


class FitError(ValueError):
    """A rate or order fit has no admissible segment to work with."""


@dataclass(frozen=True)
class BoundConstants:
    """Derived a-priori constants of the nudged system.

    G        Grashof number |f| / (nu^2 lambda1).
    M0, M1   uniform H and V bounds on the reference solution.
    Lambda   1 + log(M1 / (nu lambda1^(1/2))).
    R1       uniform V bound on du/dt (carries c4 = 1).
    M2, R2   uniform |A .| bounds on the nudged Galerkin flow and its rate.
    L_N      [1 + log(lambda_N / lambda1)]^(1/2) for the active cutoff.
    C0, C1   high-mode residual constants feeding the postprocessing theory.
    """

    G: float
    M0: float
    M1: float
    Lambda: float
    R1: float
    M2: float
    R2: float
    L_N: float
    C0: float
    C1: float
    f_norm: float


def _power(base: float, exponent: float) -> float:
    """base ** exponent, inf where the float result overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def bound_constants(p: PhysicsParams) -> BoundConstants:
    """Evaluate the defining formulas of every a-priori constant.

    Requires a nonzero forcing and, in floating point, |f| > 0 (the
    Grashof number and Lambda degenerate otherwise) and nu^2 lambda1 > 0,
    Lambda >= 0 so its square root exists in M2 and R2, and every constant
    finite: a ValueError names the first one that overflows.
    """
    if not np.any(p.forcing.coeffs):
        raise ValueError("bound constants require a nonzero forcing")
    fnorm = norm_H(p.forcing)
    if fnorm == 0.0:
        raise ValueError("|f| of the nonzero forcing underflows to 0")
    nu = p.nu
    lam1 = p.grid.lambda1
    if nu * nu * lam1 == 0.0:
        raise ValueError(
            f"nu^2 lambda1 underflows to 0 (nu = {nu:g}): the Grashof number "
            "is not representable"
        )
    G = fnorm / (nu * nu * lam1)
    M0 = 2.0 * nu * G
    M1 = nu * math.sqrt(lam1) * G
    # a Grashof number that underflows to 0 has Lambda = -inf
    Lambda = 1.0 + math.log(M1 / (nu * math.sqrt(lam1))) if M1 > 0.0 else -math.inf
    if Lambda < 0.0:
        raise ValueError(
            f"Grashof number {G:.3e} gives Lambda = {Lambda:.3e} < 0; the "
            "bound formulas require G >= 1/e"
        )
    R1 = _power(M1, 3) * Lambda / nu
    bracket = M1 * math.sqrt(Lambda) / math.sqrt(nu) + math.sqrt(p.beta)
    M2 = (M1 / math.sqrt(nu)) * bracket
    R2 = (_power(M1, 3) * Lambda / _power(nu, 1.5)) * bracket
    lam_N = p.cutoff.lambda_low(p.grid)
    L_N = math.sqrt(1.0 + math.log(lam_N / lam1))
    qn = norm_H(project_high(p.forcing, p.cutoff))
    C0 = (qn + M1 * M1) / nu
    C1 = (qn + M1 * M1) / nu + M0 * M1 * M1 / (nu * nu)
    out = BoundConstants(
        G=G, M0=M0, M1=M1, Lambda=Lambda, R1=R1, M2=M2, R2=R2,
        L_N=L_N, C0=C0, C1=C1, f_norm=fnorm,
    )
    for name, value in asdict(out).items():
        if not math.isfinite(value):
            raise ValueError(
                f"a-priori constant {name} = {value} is not finite: the forcing "
                "and viscosity are outside the range the bound formulas can evaluate"
            )
    return out


@dataclass(frozen=True)
class ConditionCheck:
    """One admissibility inequality, lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs

    def describe(self) -> str:
        """The report's line: name = pass|fail (lhs=... <= rhs=..., note)."""
        note = f", {self.note}" if self.note else ""
        return (
            f"{self.name} = {'pass' if self.passed else 'fail'} "
            f"(lhs={self.lhs:.12g} <= rhs={self.rhs:.12g}{note})"
        )


def check_conditions(
    p: PhysicsParams, consts: BoundConstants, c0: float
) -> tuple[ConditionCheck, ...]:
    """Evaluate the admissibility inequalities of a nudged run (beta > 0)
    whose interpolant has constant c0 (`interpolants.estimate_c0`).

    The checks are advisory; experiments decide which
    checks gate what.  A left-hand side that overflows reads inf, a failed
    check.
    """
    nu, beta, h = p.nu, p.beta, p.interpolant.h
    return (
        ConditionCheck("beta_lower_bound", _power(consts.M1, 2) * consts.Lambda / nu, beta),
        ConditionCheck("interpolant_resolution", c0 * beta * h * h, nu, note=f"c0={c0:g}"),
    )


# ---------------------------------------------------------------------------
# Gronwall envelopes and stability bounds


def gronwall_envelope(
    a0: float, gamma: float, b: float | Sequence[float], m: int
) -> np.ndarray:
    """Upper envelope for (1+gamma) a_{k+1} <= a_k + b_k, as a_0 .. a_m.

    Computed by iterating E_{k+1} = (E_k + b_k) / (1+gamma) exactly, which
    equals a0/(1+gamma)^m + sum_k b_k/(1+gamma)^(m-k) without the
    cancellation of the closed form.
    """
    if not (1.0 + gamma > 0.0):
        raise ValueError(f"need 1 + gamma > 0, got gamma = {gamma}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    bs = np.broadcast_to(np.asarray(b, dtype=float), (m,)) if m else np.zeros(0)
    env = np.empty(m + 1)
    env[0] = a0
    for k in range(m):
        env[k + 1] = (env[k] + bs[k]) / (1.0 + gamma)
    return env


def contraction_envelope(
    e0_sq: float, p: PhysicsParams, tau: float, steps: int
) -> np.ndarray:
    """Geometric difference envelope e0^2 / (1 + tau (beta + nu lambda1)/4)^n,
    n = 0 .. steps.

    The same factor bounds the squared H-norm difference for the
    semi-implicit scheme (when tau beta <= 1) and the squared V-norm
    difference for the fully implicit scheme (any tau).
    """
    n = np.arange(steps + 1)
    factor = 1.0 + 0.25 * tau * (p.beta + p.nu * p.grid.lambda1)
    with np.errstate(over="ignore"):
        return e0_sq / factor ** n


def stability_bound_h2(
    p: PhysicsParams, consts: BoundConstants, v0_h2: float, tau: float, steps: int
) -> np.ndarray:
    """Explicit bound on |v^n|^2, n = 0 .. steps, for both schemes (requires
    beta > 0)."""
    if p.beta <= 0.0:
        raise ValueError("the explicit H bound requires beta > 0")
    n = np.arange(steps + 1)
    nu, beta = p.nu, p.beta
    lam1 = p.grid.lambda1
    f2 = consts.f_norm**2
    # overflow to inf is fine: the transient term then vanishes exactly
    with np.errstate(over="ignore"):
        decay = (1.0 + 0.5 * tau * (beta + 2.0 * nu * lam1)) ** n
    tail = (
        12.0 * f2 / (beta * (beta + 2.0 * nu * lam1))
        + 12.0 * beta * consts.M0**2 / (beta + 2.0 * nu * lam1)
        + 12.0 * nu * consts.M1**2 / (beta + 2.0 * nu * lam1)
    )
    return v0_h2 / decay + tail


def stability_bound_v2(
    p: PhysicsParams, consts: BoundConstants, v0_v2: float, tau: float, steps: int
) -> np.ndarray:
    """Explicit bound on ||v^n||^2, n = 0 .. steps, for both schemes."""
    n = np.arange(steps + 1)
    nu, beta = p.nu, p.beta
    lam1 = p.grid.lambda1
    with np.errstate(over="ignore"):
        decay = (1.0 + 0.25 * tau * (beta + nu * lam1)) ** n
    tail = (
        24.0 * consts.f_norm**2 / (nu * (beta + nu * lam1))
        + 32.0 * beta * consts.M1**2 / (beta + nu * lam1)
    )
    return v0_v2 / decay + tail


# ---------------------------------------------------------------------------
# measured series and fits


def tail_sup(times: np.ndarray, values: np.ndarray, t_from: float) -> float:
    """sup of values over times >= t_from (uniform-in-time claims), times a
    march's steps: a time within STEP_TOL steps below t_from counts."""
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    sel = times >= t_from - STEP_TOL * dt
    if not np.any(sel):
        raise ValueError(f"no samples at or after t = {t_from}")
    return float(np.max(values[sel]))


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit e(t) ~ e(0) exp(-rate t) above a detected floor."""

    rate: float
    floor: float
    n_used: int


def decay_rate_fit(
    times: np.ndarray, values: np.ndarray, min_samples: int = 10
) -> DecayFit:
    """Log-linear fit of the pre-floor decay segment of values(times).

    The floor is the median of the last 10% of samples; the fit uses the
    initial segment of samples strictly above 3x that floor and requires
    at least min_samples of them.  A series whose first sample is not
    above 3x the floor has not reached a floor (it decays by less than 3x
    over the run, or rises), and its whole positive part is fitted.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < min_samples:
        raise FitError(f"need at least {min_samples} samples, got {len(t)}")
    tail = max(1, len(v) // 10)
    floor = float(np.median(v[-tail:]))
    cut = 3.0 * floor
    above = v > cut
    # fit only the contiguous pre-floor prefix, or everything if no floor
    stop = len(v) if above.all() or not above[0] else int(np.argmin(above))
    tt, vv = t[:stop], v[:stop]
    keep = vv > 0
    tt, vv = tt[keep], vv[keep]
    if len(tt) < min_samples:
        raise FitError(
            f"only {len(tt)} positive samples to fit (floor {floor:.3e}); "
            f"need {min_samples}"
        )
    slope = np.polyfit(tt, np.log(vv), 1)[0]
    if slope >= 0.0:
        raise FitError(f"series is not decaying (fitted slope {slope:+.3e})")
    return DecayFit(rate=float(-slope), floor=floor, n_used=int(len(tt)))


@dataclass(frozen=True)
class OrderFit:
    """Least-squares slope in log-log coordinates with residual diagnostics."""

    slope: float
    intercept: float
    max_log_residual: float
    n_used: int
    dropped: int


def convergence_order(pairs: Iterable[tuple[float, float]]) -> OrderFit:
    """Fit error ~ C x^slope from (abscissa, error) pairs.

    Nonpositive errors are filtered with a warning; at least 3 surviving
    points spanning a factor >= 4 in the abscissa are required.
    """
    pts = [(float(x), float(e)) for x, e in pairs]
    kept = [(x, e) for x, e in pts if e > 0.0 and x > 0.0]
    dropped = len(pts) - len(kept)
    if dropped:
        warnings.warn(
            f"convergence_order dropped {dropped} nonpositive points", stacklevel=2
        )
    if len(kept) < 3:
        raise FitError(f"need >= 3 positive points, got {len(kept)}")
    xs = np.array([x for x, _ in kept])
    es = np.array([e for _, e in kept])
    span = float(xs.max() / xs.min())
    if span < 4.0:
        raise FitError(f"abscissa span {span:.2f}x is below the required 4x")
    lx, le = np.log(xs), np.log(es)
    slope, intercept = np.polyfit(lx, le, 1)
    resid = le - (slope * lx + intercept)
    return OrderFit(
        slope=float(slope),
        intercept=float(intercept),
        max_log_residual=float(np.max(np.abs(resid))),
        n_used=len(kept),
        dropped=dropped,
    )
