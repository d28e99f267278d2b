"""Explicit a-priori constants, admissibility checks, envelopes, and fits.

The constants G, M0, M1, Lambda, R1, M2, R2, L_N, C0, C1 are computed by
their defining formulas; the absolute constants those formulas carry
(c, c4, c_alpha, c_minus1, ...) are not pinned down by the theory, so
they default to 1 and are configurable.  Every report downstream prints
the values used.

Checks come in two tiers: hard assertions for constant-free inequalities
(Gronwall envelopes, contraction factors, the explicit stability bounds)
and advisory condition checks for constant-bearing hypotheses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .fields import norm_H, project_high
from .schemes import PhysicsParams

__all__ = [
    "AbsoluteConstants",
    "BoundConstants",
    "bound_constants",
    "ConditionCheck",
    "ConditionReport",
    "check_conditions",
    "gronwall_envelope",
    "contraction_envelope",
    "stability_bound_h2",
    "stability_bound_v2",
    "ErrorSeries",
    "FitError",
    "DecayFit",
    "decay_rate_fit",
    "OrderFit",
    "convergence_order",
]


class FitError(ValueError):
    """A rate or order fit has no admissible segment to work with."""


@dataclass(frozen=True)
class AbsoluteConstants:
    """Absolute constants the theory leaves unspecified; all default to 1.

    alpha is the exponent in the fractional bilinear estimate feeding the
    postprocessing gain condition; it must lie in (1/2, 1).
    """

    c: float = 1.0
    c4: float = 1.0
    c_alpha: float = 1.0
    c_minus1: float = 1.0
    alpha: float = 0.75

    def __post_init__(self) -> None:
        if not (0.5 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (1/2, 1), got {self.alpha}")


DEFAULT_CONSTANTS = AbsoluteConstants()


@dataclass(frozen=True)
class BoundConstants:
    """Derived a-priori constants of the nudged system.

    G        Grashof number |f| / (nu^2 lambda1).
    M0, M1   uniform H and V bounds on the reference solution.
    Lambda   1 + log(M1 / (nu lambda1^(1/2))).
    R1       uniform V bound on du/dt (carries c4).
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
    constants: AbsoluteConstants = field(default=DEFAULT_CONSTANTS, repr=False)

    def as_dict(self) -> dict[str, float]:
        return {
            "G": self.G,
            "M0": self.M0,
            "M1": self.M1,
            "Lambda": self.Lambda,
            "R1": self.R1,
            "M2": self.M2,
            "R2": self.R2,
            "L_N": self.L_N,
            "C0": self.C0,
            "C1": self.C1,
            "f_norm": self.f_norm,
        }


def bound_constants(
    p: PhysicsParams, consts: AbsoluteConstants = DEFAULT_CONSTANTS
) -> BoundConstants:
    """Evaluate the defining formulas of every a-priori constant.

    Requires |f| > 0 (the Grashof number and Lambda degenerate otherwise)
    and Lambda >= 0 so its square root exists in M2 and R2.
    """
    fnorm = norm_H(p.forcing)
    if fnorm <= 0.0:
        raise ValueError("bound constants require a nonzero forcing")
    nu = p.nu
    lam1 = p.grid.lambda1
    G = fnorm / (nu * nu * lam1)
    M0 = 2.0 * nu * G
    M1 = nu * math.sqrt(lam1) * G
    Lambda = 1.0 + math.log(M1 / (nu * math.sqrt(lam1)))
    if Lambda < 0.0:
        raise ValueError(
            f"Grashof number {G:.3e} gives Lambda = {Lambda:.3e} < 0; the "
            "bound formulas require G >= 1/e"
        )
    R1 = consts.c4 * M1**3 * Lambda / nu
    bracket = M1 * math.sqrt(Lambda) / math.sqrt(nu) + math.sqrt(p.beta)
    M2 = (M1 / math.sqrt(nu)) * bracket
    R2 = (M1**3 * Lambda / nu**1.5) * bracket
    lam_N = p.cutoff.lambda_low(p.grid)
    L_N = math.sqrt(1.0 + math.log(lam_N / lam1))
    qn = norm_H(project_high(p.forcing, p.cutoff))
    C0 = consts.c * (qn + M1 * M1) / nu
    C1 = consts.c * ((qn + M1 * M1) / nu + M0 * M1 * M1 / (nu * nu))
    return BoundConstants(
        G=G, M0=M0, M1=M1, Lambda=Lambda, R1=R1, M2=M2, R2=R2,
        L_N=L_N, C0=C0, C1=C1, f_norm=fnorm, constants=consts,
    )


@dataclass(frozen=True)
class ConditionCheck:
    """One admissibility inequality, stored as lhs <= rhs (or < when strict)."""

    name: str
    lhs: float
    rhs: float
    strict: bool = False
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.lhs < self.rhs if self.strict else self.lhs <= self.rhs

    def describe(self) -> str:
        rel = "<" if self.strict else "<="
        status = "pass" if self.passed else "FAIL"
        out = f"{self.name}: {self.lhs:.6g} {rel} {self.rhs:.6g} [{status}]"
        if self.note:
            out += f" ({self.note})"
        return out


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple[ConditionCheck, ...]

    def get(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def passed(self, *names: str) -> bool:
        return all(self.get(n).passed for n in names)

    def describe(self) -> str:
        return "\n".join(c.describe() for c in self.checks)


def check_conditions(
    p: PhysicsParams,
    consts: BoundConstants,
    *,
    tau: float | None = None,
    c0_value: float | None = None,
    cminus1_value: float | None = None,
) -> ConditionReport:
    """Evaluate the admissibility inequalities for the given parameters.

    c0_value defaults to the analytic bound 1 for fourier_truncation and
    must be supplied (empirically estimated) for volume averages.  The
    report is advisory; experiments decide which checks gate what.
    """
    ab = consts.constants
    nu, beta = p.nu, p.beta
    lam1 = p.grid.lambda1
    omega = p.grid.L * p.grid.L
    checks: list[ConditionCheck] = []
    beta_floor = ab.c * consts.M1**2 * consts.Lambda / nu
    checks.append(
        ConditionCheck(
            "beta_lower_bound",
            beta_floor,
            beta,
            note=f"c={ab.c:g}",
        )
    )
    if p.interpolant is not None:
        if c0_value is None:
            if p.interpolant.kind == "fourier_truncation":
                c0_value = 1.0
            else:
                raise ValueError(
                    "volume_average interpolants need an explicit c0_value "
                    "(use interpolants.estimate_c0)"
                )
        h = p.interpolant.h
        checks.append(
            ConditionCheck(
                "interpolant_resolution",
                c0_value * beta * h * h,
                nu,
                note=f"c0={c0_value:g}",
            )
        )
        cm1 = cminus1_value if cminus1_value is not None else ab.c_minus1
        checks.append(
            ConditionCheck(
                "ppgm_interpolant_resolution",
                max(c0_value, 4.0 * cm1) * beta * h * h,
                nu,
                strict=True,
                note=f"c0={c0_value:g}, c_minus1={cm1:g}",
            )
        )
    alpha = ab.alpha
    ppgm_alt = (
        ab.c
        * ab.c_alpha
        * (1.0 + 1.0 / (1.0 - alpha))
        * omega ** (alpha - 0.5)
        * consts.M1
        / nu**alpha
    ) ** (1.0 / (1.0 - alpha))
    checks.append(
        ConditionCheck(
            "ppgm_beta_lower_bound",
            max(beta_floor, ppgm_alt),
            beta,
            note=f"alpha={alpha:g}, c_alpha={ab.c_alpha:g}",
        )
    )
    if tau is not None:
        checks.append(
            ConditionCheck("tau_beta", tau * beta, 1.0, note="semi-implicit contraction hypothesis")
        )
    return ConditionReport(tuple(checks))


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
    e0_sq: float, p: PhysicsParams, tau: float, steps: np.ndarray | int
) -> np.ndarray:
    """Geometric difference envelope e0^2 / (1 + tau (beta + nu lambda1)/4)^n.

    The same factor bounds the squared H-norm difference for the
    semi-implicit scheme (when tau beta <= 1) and the squared V-norm
    difference for the fully implicit scheme (any tau).
    """
    n = np.arange(steps + 1) if isinstance(steps, int) else np.asarray(steps)
    factor = 1.0 + 0.25 * tau * (p.beta + p.nu * p.grid.lambda1)
    with np.errstate(over="ignore"):
        return e0_sq / factor ** n


def stability_bound_h2(
    p: PhysicsParams, consts: BoundConstants, v0_h2: float, tau: float,
    steps: np.ndarray | int,
) -> np.ndarray:
    """Explicit bound on |v^n|^2 for both schemes (requires beta > 0)."""
    if p.beta <= 0.0:
        raise ValueError("the explicit H bound requires beta > 0")
    n = np.arange(steps + 1) if isinstance(steps, int) else np.asarray(steps)
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
    p: PhysicsParams, consts: BoundConstants, v0_v2: float, tau: float,
    steps: np.ndarray | int,
) -> np.ndarray:
    """Explicit bound on ||v^n||^2 for both schemes."""
    n = np.arange(steps + 1) if isinstance(steps, int) else np.asarray(steps)
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


@dataclass(frozen=True)
class ErrorSeries:
    """Per-time error between two trajectories in one norm."""

    times: np.ndarray
    values: np.ndarray
    norm: str
    interpolated: bool

    def __len__(self) -> int:
        return len(self.times)

    def tail_sup(self, t_from: float) -> float:
        """sup of the error over times >= t_from (uniform-in-time claims)."""
        sel = self.times >= t_from - 1e-12 * max(1.0, abs(t_from))
        if not np.any(sel):
            raise ValueError(f"no samples at or after t = {t_from}")
        return float(np.max(self.values[sel]))

    def after(self, t_from: float) -> "ErrorSeries":
        sel = self.times >= t_from - 1e-12 * max(1.0, abs(t_from))
        return ErrorSeries(self.times[sel], self.values[sel], self.norm, self.interpolated)


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit e(t) ~ e(0) exp(-rate t) above a detected floor."""

    rate: float
    floor: float
    n_used: int
    amplitude: float


def decay_rate_fit(series: ErrorSeries, min_samples: int = 10) -> DecayFit:
    """Log-linear fit of the pre-floor decay segment.

    The floor is the median of the last 10% of samples; the fit uses the
    initial segment of samples strictly above 3x that floor and requires
    at least min_samples of them.
    """
    t = np.asarray(series.times, dtype=float)
    v = np.asarray(series.values, dtype=float)
    if len(t) < min_samples:
        raise FitError(f"need at least {min_samples} samples, got {len(t)}")
    tail = max(1, len(v) // 10)
    floor = float(np.median(v[-tail:]))
    cut = 3.0 * floor
    above = v > cut
    # fit only the contiguous pre-floor prefix
    stop = int(np.argmin(above)) if not bool(above.all()) else len(v)
    if stop == 0 or not above[0]:
        raise FitError("series has no samples above the detected floor")
    tt, vv = t[:stop], v[:stop]
    keep = vv > 0
    tt, vv = tt[keep], vv[keep]
    if len(tt) < min_samples:
        raise FitError(
            f"only {len(tt)} samples above floor {floor:.3e}; need {min_samples}"
        )
    slope, intercept = np.polyfit(tt, np.log(vv), 1)
    if slope >= 0.0:
        raise FitError(f"series is not decaying (fitted slope {slope:+.3e})")
    return DecayFit(
        rate=float(-slope),
        floor=floor,
        n_used=int(len(tt)),
        amplitude=float(np.exp(intercept)),
    )


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
