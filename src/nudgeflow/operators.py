"""Navier-Stokes building blocks on divergence-free spectral fields.

Provides the Stokes operator A (multiplication by |k|^2), its inverse,
the advective bilinear term B(u, v) = P_sigma ((u . grad) v) evaluated
pseudo-spectrally in divergence form, P_sigma div(u (x) v) for solenoidal
u, from velocity samples and their products alone (the solver's product
path: `fields._Packing._sample`, `advect_raw`, `fields._Packing._project`),
the postprocessing manifold map phi1(p) = (nu A)^(-1) Q_N [f - B(p, p)], and
two exact-solution constructors (steady Kolmogorov shear, decaying
Taylor-Green vortex) used as integration oracles, which write their few
amplitudes directly.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _band_packing,
    is_low_supported,
    project_high,
)

__all__ = [
    "apply_stokes",
    "inverse_stokes",
    "bilinear_B",
    "advect_raw",
    "phi1",
    "kolmogorov_forcing",
    "kolmogorov_steady_state",
    "taylor_green",
]


def apply_stokes(f: SpectralField) -> SpectralField:
    """Stokes operator A f: amplitudes scaled by |k|^2."""
    return SpectralField(f.grid, f.coeffs * _band_packing(f.grid).k_squared)


def inverse_stokes(f: SpectralField) -> SpectralField:
    """A^(-1) f: amplitudes divided by |k|^2 (no band mode has k = 0)."""
    return SpectralField(f.grid, f.coeffs / _band_packing(f.grid).k_squared)


def advect_raw(
    grid: TorusGrid,
    u_phys: np.ndarray,
    v: np.ndarray | None = None,
    symmetric: bool = False,
) -> np.ndarray:
    """The product-grid samples (m, n, n) of the products of a tensor T
    whose divergence is an advective term, from the samples (2, n, n) of a
    solenoidal advecting field u, so (u . grad) v = div(u (x) v)
    (Basdevant, J. Comput. Phys. 50, 1983), and of the advected field v
    (None for v = u).  The products are

    - T = u (x) v: (u1 v1 - u2 v2, u1 v2, u2 v1), m = 3;
    - T = u (x) u (v None): (u1^2 - u2^2, u1 u2), m = 2;
    - T = u (x) v + v (x) u (symmetric, v solenoidal too):
      (2 (u1 v1 - u2 v2), u1 v2 + u2 v1), m = 2,

    and `fields._Packing._project` reads P_sigma div T from them.  For
    fields of |j|_inf <= K and n >= 3K + 1 their spectra are exact
    (alias-free) at |j|_inf <= K (Orszag, J. Atmos. Sci. 28, 1971).
    """
    n = grid.n
    if v is None:
        v = u_phys
    prod = (u_phys[:, None] * v).reshape(4, n, n)  # u_a v_b at 2a + b
    prod[0] -= prod[3]
    if symmetric:
        prod[0] *= 2.0
        prod[1] += prod[2]
    return prod[: 2 if symmetric or v is u_phys else 3]


def bilinear_B(u: SpectralField, v: SpectralField) -> SpectralField:
    """B(u, v) = P_sigma((u . grad) v), pseudo-spectral with 2/3-rule dealiasing."""
    u._require_same_grid(v)
    p = _band_packing(u.grid)
    u_phys, v_phys = p._sample(np.stack((u.coeffs, v.coeffs)))
    return SpectralField(u.grid, p._project(advect_raw(u.grid, u_phys, v_phys)))


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


def _modes_field(grid: TorusGrid, j1: list, j2: list, amplitudes: list) -> SpectralField:
    """The field with the given amplitudes at the half-plane modes (j1, j2)."""
    band = _band_packing(grid)
    c = np.zeros(band.size, dtype=np.complex128)
    c[band._index_of((np.array(j1), np.array(j2)))] = amplitudes
    return SpectralField(grid, c)


def kolmogorov_forcing(grid: TorusGrid, kappa: int, amplitude: float) -> SpectralField:
    """Unidirectional shear forcing f(x, y) = (amplitude sin(2 pi kappa y / L), 0)."""
    kappa = int(kappa)
    if kappa == 0:
        raise ValueError("kappa = 0 would violate the mean-zero invariant")
    if abs(kappa) > grid.band_limit:
        raise ValueError(
            f"kappa={kappa} outside the dealiased band |j| <= {grid.band_limit}"
        )
    # sin(a y) = (e^(iay) - e^(-iay)) / (2i): uhat(0, kappa) = (-i amplitude / 2, 0),
    # and e_k = (-1, 0) at the half-plane mode (0, |kappa|)
    return _modes_field(grid, [0], [abs(kappa)], [0.5j * amplitude * np.sign(kappa)])


def kolmogorov_steady_state(
    grid: TorusGrid, kappa: int, amplitude: float, nu: float
) -> SpectralField:
    """Exact steady solution u* = f / (nu (2 pi kappa / L)^2) of the forced flow.

    B(u*, u*) vanishes identically for the shear profile, so nu A u* = f.
    """
    kp = 2.0 * np.pi * kappa / grid.L
    return kolmogorov_forcing(grid, kappa, amplitude) * (1.0 / (nu * kp * kp))


def _taylor_green_decay(grid: TorusGrid, kappa: int, t: float, nu: float) -> float:
    """The vortex's amplitude e^(-2 nu kp^2 t) at time t (`taylor_green`)."""
    kappa = int(kappa)
    if kappa <= 0 or kappa > grid.band_limit:
        raise ValueError(
            f"kappa must lie in [1, {grid.band_limit}] for grid n={grid.n}"
        )
    kp = 2.0 * np.pi * kappa / grid.L
    return float(np.exp(-2.0 * nu * kp * kp * t))


def taylor_green(grid: TorusGrid, kappa: int, t: float, nu: float) -> SpectralField:
    """Decaying Taylor-Green vortex, an exact unforced solution.

    u(x, y, t) = e^(-2 nu kp^2 t) (sin(kp x) cos(kp y), -cos(kp x) sin(kp y))
    with kp = 2 pi kappa / L; the self-advection term is a pure gradient,
    so the field solves the unforced equation exactly.
    """
    amp = _taylor_green_decay(grid, kappa, t, nu)
    kappa = int(kappa)
    # uhat(s1 kappa, kappa) = (-s1, 1) i amp / 4 = s1 a e_k, e_k = (-1, s1) / sqrt(2)
    a = np.sqrt(2.0) * 0.25j * amp
    return _modes_field(grid, [kappa, -kappa], [kappa, kappa], [a, -a])
