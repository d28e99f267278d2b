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
classes, so no transform is needed.  The solver applies the same symbol
to packed amplitudes: `schemes._Galerkin._observation_map` builds
P_N P_sigma I_h from it in closed form, and `apply_ih`, which returns
P_sigma I_h f as a (2, n, n) coefficient array, is its full-grid oracle.

The module also estimates the approximation-of-identity constant c0 in

    |f - I_h f| <= c0^(1/2) h ||f||

of a volume average empirically; Fourier truncation has c0 = 1.  The
estimate is the worst ratio over random probes, the same probes
`random_field` draws from the same generator stream.  Probes live on the
(2B+1)^2 dealiased band, so the estimate is evaluated there: the fold
only reads band coefficients, and off the band, where a probe is zero,
the error is a quadratic form of the fold per index class, assembled
once per call.  A maximum over probes is a lower bound on the exact
supremum 1/pi^2 = 0.1013 over the band: it reads 0.0647 on the twin
bench grid (n = 48, 16 x 16 cells), and ROADMAP "Fix first" tracks
replacing it by the exact constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _band_packing,
    leray_project_raw,
    project_low,
)

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


def apply_ih(spec: InterpolantSpec, f: SpectralField) -> np.ndarray:
    """Observation operator composed with the solenoidal projection, P_sigma I_h f.

    Returned as a (2, n, n) coefficient array, not a field: a piecewise
    constant average is not band-limited.  fourier_truncation: spectral
    projection onto |k|^2 <= 1/h^2 (already divergence-free).
    volume_average: blockwise mean of the grid samples, applied through
    its symbol and fold, then Leray projection (which also removes the
    mean), since the assimilation schemes only ever use P_sigma I_h.
    """
    band = _band_packing(f.grid)
    if spec.kind == "fourier_truncation":
        return band._unpack_grid(project_low(f, spec.cutoff()).coeffs)
    grid = f.grid
    m = spec.blocks(grid)
    b = grid.n // m
    d = _average_symbol(grid._j, grid.n, b)
    dd = d[:, None] * d[None, :]
    folded = (dd * band._unpack_grid(f.coeffs)).reshape(2, b, m, b, m).sum(axis=(1, 3))
    return leray_project_raw(dd.conj() * np.tile(folded, (1, b, b)), grid)


# probes drawn and evaluated together: the normal buffer holds
# 4 x 4 n^2 floats (0.3 MB at n = 48)
_PROBE_BATCH = 4


def _off_band_gram(grid: TorusGrid, m: int) -> np.ndarray:
    """M_r = sum |D(k1) D(k2)|^2 P(k) per index class r, shape (2, 2, m, m).

    The sum runs over the modes k = r mod m outside the dealiased band
    that `apply_ih` keeps: not the mean (it lies in the band) and not
    the Nyquist index n/2, which it zeroes.  A fold F_r of a band-limited
    probe puts |P conj(D x D) F_r|^2 = F_r^H M_r F_r of error there.
    """
    w = np.abs(_average_symbol(grid._j, grid.n, grid.n // m)) ** 2
    w[grid.n // 2] = 0.0
    w = np.where(grid.dealias_mask, 0.0, np.outer(w, w))
    j = (grid.j1, grid.j2)
    shell = np.maximum(grid.shell, 1)
    p = np.array([[(a == b) - j[a] * j[b] / shell for b in (0, 1)] for a in (0, 1)])
    b = grid.n // m
    return (w * p).reshape(2, 2, b, m, b, m).sum(axis=(2, 4))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re sum conj(x) y per probe (first axis) of contiguous complex arrays."""
    x, y = (np.reshape(a, (len(a), -1)).view(float) for a in (x, y))
    return np.einsum("pk,pk->p", x, y)


def estimate_c0(
    spec: InterpolantSpec,
    grid: TorusGrid,
    trials: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical c0 of a volume average: the worst ratio
    |f - I_h f|^2 / (h^2 ||f||^2) over random band-limited probes, some of
    them high-mode-heavy to stress the average near its resolution limit.

    Probe i is the field `random_field(grid, rng, decay=(1, 0.5, 0.25,
    0.1)[i % 4])` would return, drawn from the same generator stream, and
    I_h f is `apply_ih`.  Both are evaluated on the dealiased band only:
    with S[r, a] = [j_a = r mod m] D(j_a) over the band indices j_a, the
    fold is F_r = S c S^T; on the band the error is c - P conj(D x D) F_r,
    and off the band, where c = 0, its square is F_r^H M_r F_r
    (`_off_band_gram`).  The norm is ||f||^2 = L^2 lambda1 sum |j|^2 |c|^2,
    and the common L^2 cancels in the ratio.

    The maximum over probes is a lower bound on the exact supremum
    1/pi^2 = 0.1013: it reads 0.0647 on the twin bench grid.

    Fourier truncation needs no estimate: its c0 is exactly 1.
    """
    if spec.kind != "volume_average":
        raise ValueError(f"estimate_c0 serves volume averages; {spec.kind} has c0 = 1")
    if trials < 10:
        raise ValueError(f"need at least 10 trials, got {trials}")
    rng = rng if rng is not None else np.random.default_rng(0)
    n, m = grid.n, spec.blocks(grid)
    top = grid.band_limit
    band = np.arange(-top, top + 1)
    at = band % n
    cls = band % m
    j1, j2 = band[:, None], band[None, :]
    shell = j1 * j1 + j2 * j2
    shell1 = np.maximum(shell, 1)
    decays = np.array([1.0, 0.5, 0.25, 0.1])
    weights = np.exp(-decays[:, None, None] * np.sqrt(shell.astype(float)))
    weights[:, top, top] = 0.0
    d = _average_symbol(band, n, n // m)
    fold = np.where(cls == np.arange(m)[:, None], d, 0.0)
    unfold = np.outer(d, d).conj()
    unfold[top, top] = 0.0
    gram = _off_band_gram(grid, m)
    buf = np.empty((_PROBE_BATCH, 2, 2, n, n))

    def leray(v: np.ndarray) -> None:
        # exact Leray projection in index form, in place
        div = (j1 * v[:, 0] + j2 * v[:, 1]) / shell1
        v[:, 0] -= j1 * div
        v[:, 1] -= j2 * div

    worst = 0.0
    for start in range(0, trials, _PROBE_BATCH):
        draws = buf[: min(_PROBE_BATCH, trials - start)]
        # the normals of len(draws) successive random_field calls
        rng.standard_normal(out=draws)
        g = draws[..., at[:, None], at[None, :]]
        # real weights scale real and imaginary parts alike, exactly
        g *= weights[np.arange(start, start + len(g)) % len(decays), None, None]
        c = g[:, 0] + 1j * g[:, 1]
        # on the band ordered -top..top the conjugate partner is the reversal
        c = 0.5 * (c + c[..., ::-1, ::-1].conj())
        leray(c)
        folded = fold @ c @ fold.T
        ih = unfold * folded[..., cls[:, None], cls[None, :]]
        leray(ih)
        e = c - ih
        err = _dot(e, e) + _dot(folded, (gram * folded[:, None]).sum(axis=2))
        norm = _dot(c, shell * c)
        ratio = np.divide(err, norm, out=np.zeros_like(err), where=norm > 0.0)
        worst = max(worst, float(np.max(ratio)))
    return worst / (spec.h * spec.h * grid.lambda1)
