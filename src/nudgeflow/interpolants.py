"""Coarse observation operators I_h and their approximation diagnostics.

Two interpolant families are supported: truncation to Fourier modes with
|k|^2 <= 1/h^2, and local volume averages over an h x h uniform
partition composed with the Leray projection.  The module also estimates
the approximation-of-identity constant c0 in

    |f - I_h f| <= c0^(1/2) h ||f||

empirically, along with the companion constants used by the
postprocessing error theory, and evaluates the stabilizing inequalities
that the nudging analysis rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    inner_product,
    norm_H,
    norm_V,
    project_low,
    random_field,
    raw_from_physical,
    to_physical,
)
from .operators import apply_stokes, leray_project_raw

__all__ = [
    "InterpolantSpec",
    "apply_ih",
    "estimate_c0",
    "estimate_cminus1",
    "StabilizingReport",
    "stabilizing_inequality_check",
]

KINDS = ("fourier_truncation", "volume_average")


@dataclass(frozen=True)
class InterpolantSpec:
    """Observation operator: kind in {fourier_truncation, volume_average}, width h."""

    kind: str
    h: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown interpolant kind {self.kind!r}, expected {KINDS}")
        if not (self.h > 0.0):
            raise ValueError(f"interpolant width h must be positive, got {self.h}")

    def cutoff(self) -> GalerkinCutoff:
        """Induced spectral cutoff |k|^2 <= 1/h^2 (fourier_truncation only)."""
        if self.kind != "fourier_truncation":
            raise ValueError("cutoff() only defined for fourier_truncation")
        return GalerkinCutoff(1.0 / (self.h * self.h))

    def blocks(self, grid: TorusGrid) -> int:
        """Number of h-cells per side for volume_average; validates divisibility."""
        m = grid.L / self.h
        m_int = int(round(m))
        if m_int < 1 or abs(m - m_int) > 1e-9 * m_int:
            raise ValueError(
                f"L/h = {m} must be a positive integer for volume averages"
            )
        if grid.n % m_int != 0:
            raise ValueError(
                f"grid n={grid.n} not divisible into {m_int} blocks per side"
            )
        return m_int


def _block_average(samples: np.ndarray, m: int) -> np.ndarray:
    """Replace each of the m x m cells by its mean, preserving array shape."""
    c, n, _ = samples.shape
    b = n // m
    cells = samples.reshape(c, m, b, m, b).mean(axis=(2, 4))
    return np.repeat(np.repeat(cells, b, axis=1), b, axis=2)


def _cell_average_matrix(
    spec: InterpolantSpec,
    grid: TorusGrid,
    rows: np.ndarray,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Spectral matrix T of the one-dimensional cell average on grid samples.

    T[a, b] is coefficient rows[a] of the piecewise-constant function that
    replaces every h-cell of the grid samples of exp(2 pi i cols[b] x / L)
    by their mean (cols defaults to rows).  The two-dimensional block
    average is separable, so on a coefficient array C over cols it acts as
    T C T^T, and rows picks the output coefficients.  Modes couple only
    when their indices agree mod L/h, so T is diagonal on any set of
    |j| < L/(2h).
    """
    cols = rows if cols is None else cols
    m = spec.blocks(grid)
    n = grid.n
    x = np.arange(n)
    waves = np.exp(2j * np.pi * np.outer(x, cols) / n)
    cells = waves.reshape(m, n // m, -1).mean(axis=1)
    if cols is not rows:
        waves = np.exp(2j * np.pi * np.outer(x, rows) / n)
    return waves.conj().T @ np.repeat(cells, n // m, axis=0) / n


def apply_ih(spec: InterpolantSpec, f: SpectralField) -> SpectralField:
    """Observation operator composed with the solenoidal projection.

    fourier_truncation: spectral projection onto |k|^2 <= 1/h^2 (already
    divergence-free).  volume_average: blockwise mean in physical space,
    then mean removal and Leray projection, since the assimilation
    schemes only ever use P_sigma I_h.
    """
    if spec.kind == "fourier_truncation":
        return project_low(f, spec.cutoff())
    m = spec.blocks(f.grid)
    averaged = _block_average(to_physical(f), m)
    c = raw_from_physical(averaged, f.grid)
    return SpectralField.from_coeffs(
        f.grid, leray_project_raw(c, f.grid), copy=False
    )


def _trial_fields(
    spec: InterpolantSpec, grid: TorusGrid, trials: int, rng: np.random.Generator
):
    """Random band-limited probes, including high-mode-heavy ones that
    stress the interpolant near its resolution limit."""
    decays = (1.0, 0.5, 0.25, 0.1)
    for i in range(trials):
        yield random_field(grid, rng, decay=decays[i % len(decays)])
    # Fields concentrated just above the induced cutoff expose the worst
    # ratio for projections; include a few deterministic-seeded ones.
    if spec.kind == "fourier_truncation":
        lam = 1.0 / (spec.h * spec.h)
        shells = np.unique(grid.shell)
        above = shells[(shells * grid.lambda1) > lam]
        if above.size:
            target = float(above[0])
            for _ in range(max(4, trials // 8)):
                c = rng.standard_normal((2, grid.n, grid.n)) + 1j * rng.standard_normal(
                    (2, grid.n, grid.n)
                )
                mask = (grid.shell.astype(float) == target) & grid.dealias_mask
                c = np.where(mask, c, 0.0)
                trial = _symmetrize_solenoidal(grid, c)
                if trial is not None:
                    yield trial


def _symmetrize_solenoidal(grid: TorusGrid, c: np.ndarray) -> SpectralField | None:
    from .fields import _conj_flip  # local import avoids public-name pollution

    c = 0.5 * (c + _conj_flip(grid, c))
    c = leray_project_raw(c, grid)
    f = SpectralField.from_coeffs(grid, c, copy=False)
    return f if norm_V(f) > 0.0 else None


def estimate_c0(
    spec: InterpolantSpec,
    grid: TorusGrid,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical c0 = max over probes of |f - I_h f|^2 / (h^2 ||f||^2)."""
    if trials < 10:
        raise ValueError(f"need at least 10 trials, got {trials}")
    rng = rng if rng is not None else np.random.default_rng(0)
    worst = 0.0
    for f in _trial_fields(spec, grid, trials, rng):
        nv = norm_V(f)
        if nv == 0.0:
            continue
        err = norm_H(f - apply_ih(spec, f))
        worst = max(worst, err * err / (spec.h * spec.h * nv * nv))
    return worst


def estimate_cminus1(
    spec: InterpolantSpec,
    grid: TorusGrid,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical constant in the weaker bound |A^(-1/2)(f - I_h f)| <= c^(1/2) h |f|."""
    if trials < 10:
        raise ValueError(f"need at least 10 trials, got {trials}")
    rng = rng if rng is not None else np.random.default_rng(1)
    worst = 0.0
    for f in _trial_fields(spec, grid, trials, rng):
        nh = norm_H(f)
        if nh == 0.0:
            continue
        d = f - apply_ih(spec, f)
        k2 = np.where(grid.shell == 0, 1.0, grid.k_squared)
        w = (np.abs(d.coeffs[0]) ** 2 + np.abs(d.coeffs[1]) ** 2) / k2
        hm1 = grid.L * float(np.sqrt(np.sum(w)))
        worst = max(worst, hm1 * hm1 / (spec.h * spec.h * nh * nh))
    return worst


@dataclass(frozen=True)
class StabilizingEntry:
    """One tested field: both sides of an inequality and the resulting slack."""

    label: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-12 * max(1.0, abs(self.rhs))


@dataclass(frozen=True)
class StabilizingReport:
    """Evaluation of the two stabilizing inequalities over probe fields.

    h_form entries test  -2 beta (P_sigma I_h phi, phi) <= nu ||phi||^2 - beta |phi|^2,
    a_form entries test  -2 beta (P_sigma I_h phi, A phi) <= nu |A phi|^2 - beta ||phi||^2.
    """

    h_form: tuple[StabilizingEntry, ...]
    a_form: tuple[StabilizingEntry, ...]

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.h_form + self.a_form)

    @property
    def violations(self) -> list[StabilizingEntry]:
        return [e for e in self.h_form + self.a_form if not e.holds]


def stabilizing_inequality_check(
    spec: InterpolantSpec,
    beta: float,
    nu: float,
    f: SpectralField,
    extra_probes: int = 32,
    rng: np.random.Generator | None = None,
) -> StabilizingReport:
    """Evaluate both stabilizing inequalities on f and on random probes.

    Violations are recorded in the report, never raised; callers decide
    whether a violation is an error for their experiment.
    """
    rng = rng if rng is not None else np.random.default_rng(2)
    probes: list[tuple[str, SpectralField]] = [("input", f)]
    for i, g in enumerate(_trial_fields(spec, f.grid, extra_probes, rng)):
        probes.append((f"probe_{i}", g))
    h_entries = []
    a_entries = []
    for label, phi in probes:
        nh = norm_H(phi)
        nv = norm_V(phi)
        if nh == 0.0:
            h_entries.append(StabilizingEntry(label, 0.0, 0.0))
            a_entries.append(StabilizingEntry(label, 0.0, 0.0))
            continue
        ih = apply_ih(spec, phi)
        aphi = apply_stokes(phi)
        nda = norm_H(aphi)
        h_entries.append(
            StabilizingEntry(
                label,
                -2.0 * beta * inner_product(ih, phi),
                nu * nv * nv - beta * nh * nh,
            )
        )
        a_entries.append(
            StabilizingEntry(
                label,
                -2.0 * beta * inner_product(ih, aphi),
                nu * nda * nda - beta * nv * nv,
            )
        )
    return StabilizingReport(h_form=tuple(h_entries), a_form=tuple(a_entries))
