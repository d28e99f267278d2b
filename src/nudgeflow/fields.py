"""Divergence-free, mean-zero velocity fields on the 2D periodic torus.

A field u on Omega = (0, L)^2 is stored by its Fourier coefficients
u(x) = sum_k uhat(k) exp(i k.x) with k = (2 pi / L) (j1, j2), on an
n x n grid of integer indices in standard FFT order.  Three structural
invariants are enforced at construction:

  * zero mean: uhat(0) = 0,
  * incompressibility: k . uhat(k) = 0 for every k,
  * Hermitian symmetry: uhat(-k) = conj(uhat(k)), so u is real.

The inner product is normalized so that it equals the physical-space
integral: (f, g) = L^2 sum_k fhat(k) . conj(ghat(k)).  With that
convention norm_H is the L^2 norm, norm_V the H^1 seminorm (gradient
norm) and norm_DA the norm of the Stokes operator applied to the field,
so the Poincare chain lambda1^(1/2) |f| <= ||f|| holds per mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _fft

INVARIANT_TOL = 1e-12
# Relative slack when comparing |k|^2 against a cutoff, so that shells
# sitting exactly at the threshold are classified deterministically.
_SHELL_SLACK = 1e-9


class GridMismatchError(ValueError):
    """Two fields on different grids were combined."""


class FieldInvariantError(ValueError):
    """A coefficient array violates the structural field invariants."""


@dataclass(frozen=True)
class TorusGrid:
    """Periodic square domain (0, L)^2 sampled on n x n points."""

    L: float
    n: int

    def __post_init__(self) -> None:
        if not (self.L > 0.0):
            raise ValueError(f"domain side L must be positive, got {self.L}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size n must be even and >= 4, got {self.n}")

    @property
    def lambda1(self) -> float:
        """First Stokes eigenvalue (2 pi / L)^2."""
        return (2.0 * np.pi / self.L) ** 2

    @cached_property
    def _j(self) -> np.ndarray:
        return np.fft.fftfreq(self.n, 1.0 / self.n).astype(np.int64)

    @cached_property
    def j1(self) -> np.ndarray:
        """Integer wavenumber index along the first axis, shape (n, 1)."""
        return self._j[:, None]

    @cached_property
    def j2(self) -> np.ndarray:
        """Integer wavenumber index along the second axis, shape (1, n)."""
        return self._j[None, :]

    @cached_property
    def shell(self) -> np.ndarray:
        """Integer eigenvalue shell j1^2 + j2^2, shape (n, n)."""
        return self.j1 * self.j1 + self.j2 * self.j2

    @cached_property
    def k1(self) -> np.ndarray:
        return (2.0 * np.pi / self.L) * self.j1.astype(float)

    @cached_property
    def k2(self) -> np.ndarray:
        return (2.0 * np.pi / self.L) * self.j2.astype(float)

    @cached_property
    def _ik_half(self) -> np.ndarray:
        """Derivative multipliers (i k1, i k2) on the half spectrum j2 >= 0,
        shape (2, n, n // 2 + 1)."""
        h = self.n // 2 + 1
        return np.stack(np.broadcast_arrays(1j * self.k1, 1j * self.k2[:, :h]))

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 for every mode, shape (n, n); zero at the mean mode."""
        return self.lambda1 * self.shell.astype(float)

    @property
    def band_limit(self) -> int:
        """Largest |j|_inf kept by the 2/3 dealiasing rule.

        Chosen so n >= 3 * band_limit + 1: products of two retained modes
        then alias only onto discarded modes, making the masked
        pseudo-spectral product exact on the band.
        """
        return (self.n - 1) // 3

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        b = self.band_limit
        return (np.abs(self.j1) <= b) & (np.abs(self.j2) <= b)

    @cached_property
    def _conj_index(self) -> np.ndarray:
        return (-np.arange(self.n)) % self.n

    def band_cutoff(self) -> "GalerkinCutoff":
        """Largest eigenvalue ball inscribed in the dealiased band."""
        return GalerkinCutoff(self.lambda1 * float(self.band_limit**2))

    def x(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical sample coordinates (x1, x2) as broadcastable arrays."""
        s = np.arange(self.n) * (self.L / self.n)
        return s[:, None], s[None, :]


@dataclass(frozen=True)
class GalerkinCutoff:
    """Eigenvalue-ball Galerkin truncation: mode k kept iff 0 < |k|^2 <= lambda_cut."""

    lambda_cut: float

    def __post_init__(self) -> None:
        if not (self.lambda_cut > 0.0):
            raise ValueError(f"lambda_cut must be positive, got {self.lambda_cut}")

    def shell_limit(self, grid: TorusGrid) -> int:
        """Largest integer shell m with m * lambda1 <= lambda_cut."""
        if self.lambda_cut < grid.lambda1 * (1.0 - _SHELL_SLACK):
            raise ValueError(
                f"lambda_cut={self.lambda_cut} below first eigenvalue {grid.lambda1}"
            )
        return int(np.floor(self.lambda_cut / grid.lambda1 * (1.0 + _SHELL_SLACK)))

    def mask_low(self, grid: TorusGrid) -> np.ndarray:
        m = self.shell_limit(grid)
        return (grid.shell >= 1) & (grid.shell <= m)

    def lambda_next(self, grid: TorusGrid) -> float:
        """Smallest representable eigenvalue strictly greater than lambda_cut."""
        m = self.shell_limit(grid)
        shells = np.unique(grid.shell)
        above = shells[shells > m]
        if above.size == 0:
            raise ValueError(
                f"lambda_cut={self.lambda_cut} leaves no representable mode above it"
            )
        return grid.lambda1 * float(above[0])

    def lambda_low(self, grid: TorusGrid) -> float:
        """Largest realizable eigenvalue <= lambda_cut (lambda_N)."""
        m = self.shell_limit(grid)
        shells = np.unique(grid.shell)
        below = shells[(shells >= 1) & (shells <= m)]
        if below.size == 0:
            raise ValueError("no representable eigenvalue at or below lambda_cut")
        return grid.lambda1 * float(below[-1])

    def mode_count(self, grid: TorusGrid) -> int:
        return int(np.count_nonzero(self.mask_low(grid)))

    def within_band(self, grid: TorusGrid) -> bool:
        """True if the eigenvalue ball sits inside the dealiased band."""
        return self.shell_limit(grid) <= grid.band_limit**2


def _conj_flip(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """conj(uhat(-k)) with correct wrapping at the Nyquist rows.

    np.take keeps the result C-contiguous, so sums with it can be handed
    to from_coeffs(copy=False) at every grid size.
    """
    idx = grid._conj_index
    return np.conj(np.take(np.take(coeffs, idx, axis=-2), idx, axis=-1))


def _validate(grid: TorusGrid, coeffs: np.ndarray) -> None:
    herm = 0.5 * np.max(np.abs(coeffs - _conj_flip(grid, coeffs)))
    # a NaN or inf coefficient makes its symmetry defect NaN or inf
    if not np.isfinite(herm):
        raise FieldInvariantError("coefficients must be finite")
    if herm > INVARIANT_TOL:
        raise FieldInvariantError(
            f"Hermitian symmetry violated: deviation {herm:.3e} > {INVARIANT_TOL:.0e}"
        )
    # |k . uhat| / |k| is independent of L in index form, so test on integers.
    jnorm = np.sqrt(np.maximum(grid.shell.astype(float), 1.0))
    div = np.abs(grid.j1 * coeffs[0] + grid.j2 * coeffs[1]) / jnorm
    worst = float(np.max(div))
    if worst > INVARIANT_TOL:
        raise FieldInvariantError(
            f"divergence-free invariant violated: |k.uhat|/|k| = {worst:.3e}"
        )


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable spectral velocity field; construct via from_coeffs or helpers."""

    grid: TorusGrid
    coeffs: np.ndarray  # (2, n, n) complex128, read-only

    @classmethod
    def from_coeffs(
        cls, grid: TorusGrid, coeffs: np.ndarray, *, copy: bool = True
    ) -> "SpectralField":
        c = np.array(coeffs, dtype=np.complex128, copy=copy, order="C")
        if c.shape != (2, grid.n, grid.n):
            raise FieldInvariantError(
                f"coefficients must have shape (2, {grid.n}, {grid.n}), got {c.shape}"
            )
        mean_mag = float(np.max(np.abs(c[:, 0, 0])))
        if not mean_mag <= INVARIANT_TOL:
            raise FieldInvariantError(
                f"mean mode must be zero, got magnitude {mean_mag:.3e}"
            )
        c[:, 0, 0] = 0.0
        _validate(grid, c)
        c.flags.writeable = False
        return cls(grid, c)

    @classmethod
    def _trusted(cls, grid: TorusGrid, coeffs: np.ndarray) -> "SpectralField":
        # Internal fast path: invariants hold by linear-algebraic construction.
        coeffs.flags.writeable = False
        return cls(grid, coeffs)

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralField":
        return cls._trusted(grid, np.zeros((2, grid.n, grid.n), dtype=np.complex128))

    # -- arithmetic (exact invariant-preserving linear operations) ----------

    def _require_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(
                f"grids differ: {self.grid} vs {other.grid}"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_grid(other)
        return SpectralField._trusted(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_grid(other)
        return SpectralField._trusted(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField._trusted(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField._trusted(self.grid, -self.coeffs)


# ---------------------------------------------------------------------------
# inner product and norms


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """H inner product (f, g) = integral of f.g, via Parseval."""
    f._require_same_grid(g)
    s = np.vdot(g.coeffs, f.coeffs)  # sum conj(g) * f
    return float(f.grid.L**2 * s.real)


def norm_H(f: SpectralField) -> float:
    """L^2 norm |f|."""
    return float(f.grid.L * np.linalg.norm(f.coeffs))


def norm_V(f: SpectralField) -> float:
    """H^1 seminorm ||f|| = |A^(1/2) f|."""
    w = f.grid.k_squared * (np.abs(f.coeffs[0]) ** 2 + np.abs(f.coeffs[1]) ** 2)
    return float(f.grid.L * np.sqrt(np.sum(w)))


def norm_DA(f: SpectralField) -> float:
    """|A f|, the H norm of the Stokes operator applied to f."""
    w = f.grid.k_squared**2 * (np.abs(f.coeffs[0]) ** 2 + np.abs(f.coeffs[1]) ** 2)
    return float(f.grid.L * np.sqrt(np.sum(w)))


_NORMS = {"H": norm_H, "V": norm_V, "DA": norm_DA}


def norm(f: SpectralField, which: str) -> float:
    try:
        return _NORMS[which](f)
    except KeyError:
        raise ValueError(f"unknown norm {which!r}, expected one of {sorted(_NORMS)}")


# ---------------------------------------------------------------------------
# projections


def project_low(f: SpectralField, cutoff: GalerkinCutoff) -> SpectralField:
    """Galerkin projection P_N: zero all modes with |k|^2 > lambda_cut."""
    mask = cutoff.mask_low(f.grid)
    return SpectralField._trusted(f.grid, np.where(mask, f.coeffs, 0.0))


def project_high(f: SpectralField, cutoff: GalerkinCutoff) -> SpectralField:
    """Complementary projection Q_N = I - P_N (mean mode stays zero)."""
    mask = cutoff.mask_low(f.grid)
    return SpectralField._trusted(f.grid, np.where(mask, 0.0, f.coeffs))


def is_low_supported(f: SpectralField, cutoff: GalerkinCutoff, tol: float = 0.0) -> bool:
    mask = cutoff.mask_low(f.grid)
    outside = np.abs(np.where(mask, 0.0, f.coeffs))
    return float(outside.max()) <= tol


# ---------------------------------------------------------------------------
# transforms


def to_physical(f: SpectralField) -> np.ndarray:
    """Real velocity samples of shape (2, n, n); u(x) = sum uhat e^(ik.x)."""
    n = f.grid.n
    return np.ascontiguousarray(_fft.ifft2(f.coeffs).real * n * n)


def from_physical(samples: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Inverse of to_physical; removes the mean, does NOT Leray-project.

    Non-solenoidal samples therefore fail field validation; project the raw
    spectrum with leray_project when that is intended.
    """
    s = np.asarray(samples)
    if np.iscomplexobj(s):
        if np.max(np.abs(s.imag)) > INVARIANT_TOL:
            raise FieldInvariantError("physical samples must be real-valued")
        s = s.real
    if s.shape != (2, grid.n, grid.n):
        raise FieldInvariantError(
            f"samples must have shape (2, {grid.n}, {grid.n}), got {s.shape}"
        )
    c = _fft.fft2(s) / (grid.n * grid.n)
    c[:, 0, 0] = 0.0
    return SpectralField.from_coeffs(grid, c, copy=False)


def raw_from_physical(samples: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Spectral coefficients of arbitrary real samples, mean removed, no validation."""
    c = _fft.fft2(np.asarray(samples, dtype=float)) / (grid.n * grid.n)
    c[..., 0, 0] = 0.0
    return c


# ---------------------------------------------------------------------------
# random fields (test oracles and initial conditions)


def random_field(
    grid: TorusGrid,
    rng: np.random.Generator,
    *,
    decay: float = 0.5,
    norm_v: float | None = None,
    norm_h: float | None = None,
    cutoff: GalerkinCutoff | None = None,
) -> SpectralField:
    """Random smooth divergence-free field, spectrum ~ exp(-decay |j|).

    Supported inside the dealiased band (or the given cutoff), so it is safe
    as input to the bilinear term.  Scaled to the requested norm_V or norm_H
    if given.
    """
    n = grid.n
    shape = (2, n, n)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= np.exp(-decay * np.sqrt(grid.shell.astype(float)))
    mask = cutoff.mask_low(grid) if cutoff is not None else grid.dealias_mask
    c = np.where(mask, c, 0.0)
    c[:, 0, 0] = 0.0
    c = 0.5 * (c + _conj_flip(grid, c))
    # exact Leray projection in index space
    j1, j2 = grid.j1, grid.j2
    shell = np.maximum(grid.shell, 1)
    d = (j1 * c[0] + j2 * c[1]) / shell
    c[0] -= j1 * d
    c[1] -= j2 * d
    f = SpectralField.from_coeffs(grid, c, copy=False)
    if norm_v is not None:
        nv = norm_V(f)
        if nv == 0.0:
            raise ValueError("degenerate random field, cannot scale")
        f = f * (norm_v / nv)
    elif norm_h is not None:
        nh = norm_H(f)
        if nh == 0.0:
            raise ValueError("degenerate random field, cannot scale")
        f = f * (norm_h / nh)
    return f
