"""Navier-Stokes building blocks on divergence-free spectral fields.

Provides the Stokes operator A (multiplication by |k|^2), its inverse,
the Leray projection, the advective bilinear term B(u, v) = P_sigma
((u . grad) v) evaluated pseudo-spectrally with a dealiased product plus
a brute-force convolution oracle, the postprocessing manifold map
phi1(p) = (nu A)^(-1) Q_N [f - B(p, p)], and two exact-solution
constructors (steady Kolmogorov shear, decaying Taylor-Green vortex)
used as integration oracles.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

from .fields import (
    FieldInvariantError,
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    is_low_supported,
    project_high,
    to_physical,
)

__all__ = [
    "apply_stokes",
    "inverse_stokes",
    "leray_project",
    "leray_project_raw",
    "bilinear_B",
    "bilinear_B_direct",
    "advect_raw",
    "phi1",
    "kolmogorov_forcing",
    "kolmogorov_steady_state",
    "taylor_green",
]


def apply_stokes(f: SpectralField) -> SpectralField:
    """Stokes operator A f: coefficients scaled by |k|^2."""
    return SpectralField._trusted(f.grid, f.coeffs * f.grid.k_squared)


def inverse_stokes(f: SpectralField) -> SpectralField:
    """A^(-1) f on mean-zero fields; the k = 0 mode stays zero."""
    k2 = np.where(f.grid.shell == 0, 1.0, f.grid.k_squared)
    return SpectralField._trusted(f.grid, f.coeffs / k2)


def leray_project_raw(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """In-place-free Leray projection of a raw coefficient array.

    uhat(k) <- uhat(k) - k (k . uhat(k)) / |k|^2, in integer index form
    (the 2 pi / L factors cancel).  Also pins the mean mode to zero.
    """
    c = np.array(coeffs, dtype=np.complex128)
    j1, j2 = grid.j1, grid.j2
    shell = np.maximum(grid.shell, 1)
    d = (j1 * c[0] + j2 * c[1]) / shell
    c[0] -= j1 * d
    c[1] -= j2 * d
    c[:, 0, 0] = 0.0
    if grid.n % 2 == 0:
        # the even-n Nyquist slot has no conjugate partner with flipped
        # sign, so the projector cannot stay Hermitian there; drop it
        # (it lies far outside the dealias band in any case)
        c[:, grid.n // 2, :] = 0.0
        c[:, :, grid.n // 2] = 0.0
    return c


def leray_project(raw: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Leray-Helmholtz projection of a Hermitian-symmetric coefficient array."""
    raw = np.asarray(raw, dtype=np.complex128)
    if raw.shape != (2, grid.n, grid.n):
        raise FieldInvariantError(
            f"expected coefficients of shape (2, {grid.n}, {grid.n}), got {raw.shape}"
        )
    return SpectralField.from_coeffs(grid, leray_project_raw(raw, grid), copy=False)


def _require_band(f: SpectralField) -> None:
    outside = f.coeffs[:, ~f.grid.dealias_mask]
    if outside.size and np.any(outside != 0):
        raise ValueError(
            "field has energy outside the dealiasing-safe band "
            f"|j|_inf <= {f.grid.band_limit}; use a grid >= 3/2 of the support"
        )


def advect_raw(grid: TorusGrid, u_phys: np.ndarray, v_coeffs: np.ndarray) -> np.ndarray:
    """Raw half spectrum j2 >= 0 of (u . grad) v, shape (2, n, n // 2 + 1).

    u_phys are physical samples of the advecting field; only the half
    j2 >= 0 of v_coeffs, the Hermitian spectrum of the advected (real)
    field, is read, so a full (2, n, n) or a half (2, n, n // 2 + 1) array
    both do.  Both fields must be band-limited; the result is exact
    (alias-free) on the retained band, but neither masked nor
    Leray-projected.  The four gradient syntheses and the two analyses are
    real FFTs.
    """
    n = grid.n
    # d/dx1 and d/dx2 of each component: spectra (2, 2, n, h), [component, axis]
    grads = _fft.irfft2(
        v_coeffs[:, None, :, : n // 2 + 1] * grid._ik_half, s=(n, n), norm="forward"
    )
    return _fft.rfft2((grads * u_phys).sum(axis=1), norm="forward")


def bilinear_B(u: SpectralField, v: SpectralField) -> SpectralField:
    """B(u, v) = P_sigma((u . grad) v), pseudo-spectral with 2/3-rule dealiasing."""
    u._require_same_grid(v)
    _require_band(u)
    _require_band(v)
    grid = u.grid
    n = grid.n
    h = n // 2 + 1
    half = advect_raw(grid, to_physical(u), v.coeffs)
    c = np.empty((2, n, n), dtype=np.complex128)
    c[..., :h] = half
    # uhat(j1, -j2) = conj(uhat(-j1, j2)) for the columns j2 = n/2 + 1 .. n - 1
    c[..., h:] = np.conj(half[:, grid._conj_index, h - 2 : 0 : -1])
    c *= grid.dealias_mask
    return SpectralField.from_coeffs(grid, leray_project_raw(c, grid), copy=False)


def bilinear_B_direct(u: SpectralField, v: SpectralField) -> SpectralField:
    """Brute-force oracle for bilinear_B via the explicit convolution sum.

    Accumulates uhat_B(k) = sum_{p+q=k} i (uhat(p) . q) vhat(q) mode by
    mode (no FFT, no aliasing), then applies the same dealiasing mask and
    Leray projection as bilinear_B so outputs are directly comparable.
    Intended for small grids.
    """
    u._require_same_grid(v)
    _require_band(u)
    _require_band(v)
    grid = u.grid
    n = grid.n
    scale = 2.0 * np.pi / grid.L
    j1 = grid.j1.astype(np.int64)
    j2 = grid.j2.astype(np.int64)
    out = np.zeros((2, n, n), dtype=np.complex128)
    rows, cols = np.nonzero(np.abs(u.coeffs[0]) + np.abs(u.coeffs[1]))
    half = n // 2
    for a, b in zip(rows, cols):
        p1 = int(j1[a, 0])
        p2 = int(j2[0, b])
        up = u.coeffs[:, a, b]
        # i (uhat(p) . q) vhat(q) for all q at once; q in physical units
        dot = 1j * scale * (up[0] * j1 + up[1] * j2)
        contrib = dot[None, :, :] * v.coeffs
        t1 = p1 + j1  # target integer frequencies, shape (n, 1)
        t2 = p2 + j2  # shape (1, n)
        valid = (
            (t1 >= -half) & (t1 <= half - 1) & (t2 >= -half) & (t2 <= half - 1)
        )
        tr = np.broadcast_to(t1 % n, (n, n))[valid]
        tc = np.broadcast_to(t2 % n, (n, n))[valid]
        out[0][tr, tc] += contrib[0][valid]
        out[1][tr, tc] += contrib[1][valid]
    out *= grid.dealias_mask
    out = leray_project_raw(out, grid)
    return SpectralField.from_coeffs(grid, out, copy=False)


def phi1(
    p: SpectralField, f: SpectralField, nu: float, cutoff: GalerkinCutoff
) -> SpectralField:
    """Postprocessing map phi1(p) = (nu A)^(-1) Q_N [f - B(p, p)].

    p must be supported in the low-mode space of the cutoff; the result
    lives entirely in its complement.
    """
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    if not is_low_supported(p, cutoff):
        raise ValueError("phi1 argument must satisfy project_low(p, cutoff) = p")
    residual = project_high(f - bilinear_B(p, p), cutoff)
    return inverse_stokes(residual) * (1.0 / nu)


def kolmogorov_forcing(grid: TorusGrid, kappa: int, amplitude: float) -> SpectralField:
    """Unidirectional shear forcing f(x, y) = (amplitude sin(2 pi kappa y / L), 0)."""
    kappa = int(kappa)
    if kappa == 0:
        raise ValueError("kappa = 0 would violate the mean-zero invariant")
    if abs(kappa) > grid.band_limit:
        raise ValueError(
            f"kappa={kappa} outside the dealiased band |j| <= {grid.band_limit}"
        )
    c = np.zeros((2, grid.n, grid.n), dtype=np.complex128)
    # sin(a y) = (e^(iay) - e^(-iay)) / (2i)
    c[0, 0, kappa % grid.n] = -0.5j * amplitude
    c[0, 0, (-kappa) % grid.n] = 0.5j * amplitude
    return SpectralField.from_coeffs(grid, c, copy=False)


def kolmogorov_steady_state(
    grid: TorusGrid, kappa: int, amplitude: float, nu: float
) -> SpectralField:
    """Exact steady solution u* = f / (nu (2 pi kappa / L)^2) of the forced flow.

    B(u*, u*) vanishes identically for the shear profile, so nu A u* = f.
    """
    kp = 2.0 * np.pi * kappa / grid.L
    return kolmogorov_forcing(grid, kappa, amplitude) * (1.0 / (nu * kp * kp))


def taylor_green(grid: TorusGrid, kappa: int, t: float, nu: float) -> SpectralField:
    """Decaying Taylor-Green vortex, an exact unforced solution.

    u(x, y, t) = e^(-2 nu kp^2 t) (sin(kp x) cos(kp y), -cos(kp x) sin(kp y))
    with kp = 2 pi kappa / L; the self-advection term is a pure gradient,
    so the field solves the unforced equation exactly.
    """
    kappa = int(kappa)
    if kappa <= 0 or kappa > grid.band_limit:
        raise ValueError(
            f"kappa must lie in [1, {grid.band_limit}] for grid n={grid.n}"
        )
    kp = 2.0 * np.pi * kappa / grid.L
    amp = float(np.exp(-2.0 * nu * kp * kp * t))
    # Exact four-mode coefficients (no transform: the field must be
    # supported exactly on |j| = kappa for downstream band checks).
    c = np.zeros((2, grid.n, grid.n), dtype=np.complex128)
    q = 0.25j * amp
    for s1 in (1, -1):
        for s2 in (1, -1):
            c[0, (s1 * kappa) % grid.n, (s2 * kappa) % grid.n] = -q * s1
            c[1, (s1 * kappa) % grid.n, (s2 * kappa) % grid.n] = q * s2
    return SpectralField.from_coeffs(grid, c, copy=False)
