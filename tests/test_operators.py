"""Stokes/Leray operators, the advective term, and exact solutions."""

import numpy as np
import pytest

from nudgeflow import oracles
from nudgeflow.fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _band_packing,
    leray_project_raw,
    norm_H,
    project_high,
    project_low,
    random_field,
)
from nudgeflow.operators import (
    apply_stokes,
    bilinear_B,
    inverse_stokes,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    phi1,
    taylor_green,
)

TWO_PI = 2.0 * np.pi


def test_stokes_is_diagonal_multiplier(rng, grid16):
    f = random_field(grid16, rng)
    af = apply_stokes(f)
    expected = f.coeffs * _band_packing(grid16).k_squared
    assert np.array_equal(af.coeffs, expected)


def test_stokes_inverse_pair(rng, grid16):
    f = random_field(grid16, rng)
    g = inverse_stokes(apply_stokes(f))
    assert norm_H(f - g) <= 1e-14 * norm_H(f)


def test_leray_kills_gradients(grid16):
    # a pure gradient field i k qhat projects to zero
    n = grid16.n
    q = np.zeros((n, n), dtype=complex)
    q[1, 2] = 0.3 - 0.7j
    q[(-1) % n, (-2) % n] = np.conj(q[1, 2])
    c = np.stack((1j * grid16.j1 * q, 1j * grid16.j2 * q))  # L = 2 pi: k = j
    assert np.max(np.abs(leray_project_raw(c, grid16))) <= 1e-14


def test_leray_fixes_solenoidal_fields(rng, grid16):
    c = _band_packing(grid16)._unpack_grid(random_field(grid16, rng).coeffs)
    assert np.max(np.abs(leray_project_raw(c, grid16) - c)) <= 1e-14 * np.max(np.abs(c))


def test_leray_accepts_full_spectrum_real_samples(rng, grid16):
    # spectra of real samples carry Nyquist energy on even grids, where
    # the projector has no symmetric answer; those slots must come back
    # zero instead of breaking conjugate symmetry
    n = grid16.n
    raw = np.fft.fft2(rng.standard_normal((2, n, n)), axes=(1, 2)) / (n * n)
    c = leray_project_raw(raw, grid16)
    assert np.all(c[:, n // 2, :] == 0.0)
    assert np.all(c[:, :, n // 2] == 0.0)
    assert not c[:, 0, 0].any()
    scale = np.max(np.abs(c))
    mirror = np.conj(np.roll(c[:, ::-1, ::-1], 1, axis=(1, 2)))
    assert np.max(np.abs(c - mirror)) <= 1e-15 * scale
    assert np.max(np.abs(grid16.j1 * c[0] + grid16.j2 * c[1])) <= 1e-14 * scale
    assert np.max(np.abs(leray_project_raw(c, grid16) - c)) <= 1e-14 * scale
    # projected and discarded parts stay orthogonal
    resid = raw - c
    resid[:, 0, 0] = 0.0
    ip = np.sum(c * np.conj(resid)).real
    assert abs(ip) <= 1e-14 * np.sum(np.abs(c) ** 2)


def test_bilinear_hand_convolution_oracle(grid16):
    # u = (sin x2, 0), v = (0, sin x1): (u.grad)v = (0, sin x2 cos x1),
    # whose solenoidal part has coefficients +-i/8 on the four modes
    # (+-1, +-1).  Worked out by hand from the convolution sum.
    n = grid16.n
    band = _band_packing(grid16)
    u = kolmogorov_forcing(grid16, 1, 1.0)
    c = np.zeros((2, n, n), dtype=complex)
    c[1, 1, 0] = -0.5j
    c[1, (-1) % n, 0] = 0.5j
    v = SpectralField(grid16, band._pack_grid(c))
    assert np.array_equal(band._unpack_grid(v.coeffs), c)
    b = bilinear_B(u, v)
    expected = np.zeros((2, n, n), dtype=complex)
    m = (-1) % n
    expected[:, 1, 1] = (0.125j, -0.125j)
    expected[:, m, 1] = (-0.125j, -0.125j)
    expected[:, 1, m] = (0.125j, 0.125j)
    expected[:, m, m] = (-0.125j, 0.125j)
    assert np.max(np.abs(band._unpack_grid(b.coeffs) - expected)) <= 1e-14
    assert norm_H(b) == pytest.approx(2.221441469079183, rel=1e-13)


@pytest.mark.parametrize("n", [8, 12])
def test_bilinear_matches_direct_convolution(n, rng):
    assert oracles.bilinear_gap(rng, (n,), 5) <= 1e-12
    # B is quadratic: amplitudes of 1e6 give 1e12 times the direct product
    grid = TorusGrid(TWO_PI, n)
    for _ in range(5):
        u, v = random_field(grid, rng, norm_v=1.0), random_field(grid, rng, norm_v=1.0)
        slow = oracles.bilinear_B_direct(u, v) * 1e12
        assert norm_H(bilinear_B(u * 1e6, v * 1e6) - slow) <= 1e-12 * norm_H(slow)


def test_bilinear_orthogonality_identities(rng, grid32):
    # the antisymmetry defect is over |B(u,v)||w| + |B(u,w)||v|, where the
    # two terms stay within a factor 2 of each other: 1e-13 of that sum is
    # below 1e-12 |B(u,v)||w|
    assert oracles.orthogonality_defect(rng, grid32, 8) <= 1e-13


def test_taylor_green_self_advection_is_gradient(grid32):
    tg = taylor_green(grid32, 1, 0.0, nu=1.0)
    b = bilinear_B(tg, tg)
    assert norm_H(b) <= 1e-13 * norm_H(tg) ** 2


def test_taylor_green_decay_rate(grid32):
    early = taylor_green(grid32, 1, 0.0, nu=0.1)
    late = taylor_green(grid32, 1, 1.0, nu=0.1)
    # kp = 1 so the amplitude decays like exp(-2 nu t)
    assert norm_H(late) == pytest.approx(np.exp(-0.2) * norm_H(early), rel=1e-12)
    with pytest.raises(ValueError):
        taylor_green(grid32, 0, 0.0, nu=0.1)
    with pytest.raises(ValueError):
        taylor_green(grid32, grid32.band_limit + 1, 0.0, nu=0.1)


def test_kolmogorov_forcing_norm_and_support(grid32):
    f = kolmogorov_forcing(grid32, 2, 0.4)
    # |f| = amplitude L / sqrt(2) for a single sine profile
    assert norm_H(f) == pytest.approx(0.4 * TWO_PI / np.sqrt(2.0), rel=1e-13)
    assert np.count_nonzero(f.coeffs) == 1  # one amplitude
    nz = np.nonzero(_band_packing(grid32)._unpack_grid(f.coeffs))
    assert list(nz[0]) == [0, 0]  # one conjugate pair, first component only
    with pytest.raises(ValueError):
        kolmogorov_forcing(grid32, 0, 1.0)
    with pytest.raises(ValueError):
        kolmogorov_forcing(grid32, grid32.band_limit + 1, 1.0)


def test_kolmogorov_steady_state_balances_forcing(grid32):
    nu = 0.3
    f = kolmogorov_forcing(grid32, 2, 0.4)
    u = kolmogorov_steady_state(grid32, 2, 0.4, nu)
    residual = apply_stokes(u) * nu - f
    assert norm_H(residual) <= 1e-14 * norm_H(f)
    assert norm_H(bilinear_B(u, u)) <= 1e-14 * norm_H(u) ** 2


def test_phi1_solves_high_mode_balance(rng, grid32):
    nu = 0.2
    co = GalerkinCutoff(9.0)
    f = random_field(grid32, rng, norm_h=0.5)
    p = random_field(grid32, rng, norm_v=1.0, cutoff=co)
    ph = phi1(p, f, nu, co)
    # phi1 lives in the complement and satisfies nu A phi = Q_N (f - B(p, p))
    assert norm_H(project_low(ph, co)) <= 1e-14
    target = project_high(f - bilinear_B(p, p), co)
    residual = apply_stokes(ph) * nu - target
    assert norm_H(residual) <= 1e-13 * max(norm_H(target), 1e-30)


def test_phi1_requires_low_supported_argument(rng, grid32):
    co = GalerkinCutoff(9.0)
    f = random_field(grid32, rng)
    with pytest.raises(ValueError, match="project_low"):
        phi1(f, f, 0.2, co)
    p = project_low(f, co)
    with pytest.raises(ValueError, match="positive"):
        phi1(p, f, 0.0, co)


def test_phi1_vanishes_when_residual_is_low(grid32):
    # single-shear p: B(p, p) = 0 and f supported low => nothing above cutoff
    co = GalerkinCutoff(9.0)
    p = kolmogorov_steady_state(grid32, 1, 0.5, 1.0)
    f = kolmogorov_forcing(grid32, 1, 0.5)
    ph = phi1(p, f, 1.0, co)
    assert norm_H(ph) <= 1e-15


@pytest.mark.parametrize("n", [8, 16, 24])
def test_exact_solutions_match_their_grid_coefficients(n):
    # the shear and the vortex write their amplitudes directly; packing the
    # (2, n, n) coefficients of their closed forms gives the same field
    grid = TorusGrid(3.0, n)
    band = _band_packing(grid)
    for kappa in range(1, grid.band_limit + 1):
        for sign in (1, -1):
            c = np.zeros((2, n, n), dtype=complex)
            # 0.7 sin(2 pi kappa y / L) = 0.7 (e^(iay) - e^(-iay)) / (2i)
            c[0, 0, sign * kappa % n] = -0.35j
            c[0, 0, -sign * kappa % n] = 0.35j
            got = kolmogorov_forcing(grid, sign * kappa, 0.7).coeffs
            assert np.max(np.abs(got - band._pack_grid(c))) <= 1e-16
        amp = np.exp(-2.0 * 0.1 * (2.0 * np.pi * kappa / grid.L) ** 2 * 0.3)
        c = np.zeros((2, n, n), dtype=complex)
        for s1 in (1, -1):
            for s2 in (1, -1):
                c[:, s1 * kappa % n, s2 * kappa % n] = (-0.25j * amp * s1, 0.25j * amp * s2)
        got = taylor_green(grid, kappa, 0.3, 0.1).coeffs
        assert np.max(np.abs(got - band._pack_grid(c))) <= 1e-16
