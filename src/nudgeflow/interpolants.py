"""Coarse observation operators I_h and the empirical c0 of volume averages.

Two interpolant families are supported: truncation to Fourier modes with
|k|^2 <= 1/h^2, and local volume averages over an h x h uniform
partition composed with the Leray projection.

A volume average replaces each of the m = L/h cells per side by the mean
of its b = n/m grid samples.  It is applied in spectral space through its
separable symbol: with D(j) the mean of exp(2 pi i j s / n) over s < b,
coefficient k of the averaged samples is conj(D(k)) times the sum of
D(j) c(j) over the grid indices j = k mod m.  In two dimensions that is
conj(D x D) * tile(fold(D x D * c)), the fold summing the m x m index
classes, so no transform is needed.

The module also estimates the approximation-of-identity constant c0 in

    |f - I_h f| <= c0^(1/2) h ||f||

of a volume average empirically; Fourier truncation has c0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    norm_H,
    norm_V,
    project_low,
    random_field,
)
from .operators import leray_project_raw

__all__ = [
    "InterpolantSpec",
    "apply_ih",
    "estimate_c0",
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


def _average_symbol(j: np.ndarray, n: int, b: int) -> np.ndarray:
    """D(j), the mean of exp(2 pi i j s / n) over the b samples s < b of a cell."""
    return np.exp(2j * np.pi * np.outer(j, np.arange(b)) / n).mean(axis=1)


def _cell_average_matrix(
    spec: InterpolantSpec,
    grid: TorusGrid,
    rows: np.ndarray,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Spectral matrix T of the one-dimensional cell average on grid samples.

    T[a, b] is coefficient rows[a] of the piecewise-constant function that
    replaces every h-cell of the grid samples of exp(2 pi i cols[b] x / L)
    by their mean (cols defaults to rows): conj(D(rows[a])) D(cols[b]) when
    the indices agree mod L/h, else 0.  The two-dimensional block average
    is separable, so on a coefficient array C over cols it acts as
    T C T^T, and rows picks the output coefficients.  T is diagonal on any
    set of |j| < L/(2h).
    """
    cols = rows if cols is None else cols
    m = spec.blocks(grid)
    d_rows, d_cols = (_average_symbol(j, grid.n, grid.n // m) for j in (rows, cols))
    same_class = rows[:, None] % m == cols[None, :] % m
    return np.where(same_class, np.outer(d_rows.conj(), d_cols), 0.0)


def apply_ih(spec: InterpolantSpec, f: SpectralField) -> SpectralField:
    """Observation operator composed with the solenoidal projection.

    fourier_truncation: spectral projection onto |k|^2 <= 1/h^2 (already
    divergence-free).  volume_average: blockwise mean of the grid samples,
    applied through its symbol and fold, then mean removal and Leray
    projection, since the assimilation schemes only ever use P_sigma I_h.
    """
    if spec.kind == "fourier_truncation":
        return project_low(f, spec.cutoff())
    grid = f.grid
    m = spec.blocks(grid)
    b = grid.n // m
    d = _average_symbol(grid._j, grid.n, b)
    dd = d[:, None] * d[None, :]
    folded = (dd * f.coeffs).reshape(2, b, m, b, m).sum(axis=(1, 3))
    c = dd.conj() * np.tile(folded, (1, b, b))
    # a fresh Hermitian, solenoidal, mean-free array: nothing to re-validate
    return SpectralField._trusted(grid, leray_project_raw(c, grid))


def estimate_c0(
    spec: InterpolantSpec,
    grid: TorusGrid,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical c0 of a volume average: the worst ratio
    |f - I_h f|^2 / (h^2 ||f||^2) over random band-limited probes, some of
    them high-mode-heavy to stress the average near its resolution limit.

    Fourier truncation needs no estimate: its c0 is exactly 1.
    """
    if spec.kind != "volume_average":
        raise ValueError(f"estimate_c0 serves volume averages; {spec.kind} has c0 = 1")
    if trials < 10:
        raise ValueError(f"need at least 10 trials, got {trials}")
    rng = rng if rng is not None else np.random.default_rng(0)
    decays = (1.0, 0.5, 0.25, 0.1)
    worst = 0.0
    for i in range(trials):
        f = random_field(grid, rng, decay=decays[i % len(decays)])
        nv = norm_V(f)
        if nv == 0.0:
            continue
        err = norm_H(f - apply_ih(spec, f))
        worst = max(worst, err * err / (spec.h * spec.h * nv * nv))
    return worst
