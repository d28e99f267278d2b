"""Stokes/Leray operators, the advective term, and exact solutions."""

import numpy as np
import pytest

from nudgeflow.fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _validate,
    inner_product,
    leray_project_raw,
    norm_H,
    norm_V,
    project_high,
    project_low,
    random_field,
)
from nudgeflow.operators import (
    apply_stokes,
    bilinear_B,
    bilinear_B_direct,
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
    expected = f.coeffs * grid16.k_squared
    assert np.allclose(af.coeffs, expected, rtol=0, atol=0)


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
    c = np.stack((1j * grid16.k1 * q, 1j * grid16.k2 * q))
    f = SpectralField.from_coeffs(grid16, leray_project_raw(c, grid16))
    assert norm_H(f) <= 1e-14


def test_leray_fixes_solenoidal_fields(rng, grid16):
    f = random_field(grid16, rng)
    g = SpectralField.from_coeffs(grid16, leray_project_raw(f.coeffs, grid16))
    assert norm_H(f - g) <= 1e-14 * norm_H(f)


def test_leray_accepts_full_spectrum_real_samples(rng, grid16):
    # spectra of real samples carry Nyquist energy on even grids, where
    # the projector has no symmetric answer; those slots must come back
    # zero instead of breaking conjugate symmetry
    n = grid16.n
    raw = np.fft.fft2(rng.standard_normal((2, n, n)), axes=(1, 2)) / (n * n)
    f = SpectralField.from_coeffs(grid16, leray_project_raw(raw, grid16))
    assert np.all(f.coeffs[:, n // 2, :] == 0.0)
    assert np.all(f.coeffs[:, :, n // 2] == 0.0)
    g = SpectralField.from_coeffs(grid16, leray_project_raw(f.coeffs, grid16))
    assert norm_H(f - g) <= 1e-14 * norm_H(f)
    # projected and discarded parts stay orthogonal
    resid = raw - f.coeffs
    resid[:, 0, 0] = 0.0
    ip = grid16.L**2 * np.sum(f.coeffs * np.conj(resid)).real
    assert abs(ip) <= 1e-14 * norm_H(f) ** 2


def test_bilinear_hand_convolution_oracle(grid16):
    # u = (sin x2, 0), v = (0, sin x1): (u.grad)v = (0, sin x2 cos x1),
    # whose solenoidal part has coefficients +-i/8 on the four modes
    # (+-1, +-1).  Worked out by hand from the convolution sum.
    n = grid16.n
    u = kolmogorov_forcing(grid16, 1, 1.0)
    c = np.zeros((2, n, n), dtype=complex)
    c[1, 1, 0] = -0.5j
    c[1, (-1) % n, 0] = 0.5j
    v = SpectralField.from_coeffs(grid16, c)
    b = bilinear_B(u, v)
    expected = np.zeros((2, n, n), dtype=complex)
    m = (-1) % n
    expected[:, 1, 1] = (0.125j, -0.125j)
    expected[:, m, 1] = (-0.125j, -0.125j)
    expected[:, 1, m] = (0.125j, 0.125j)
    expected[:, m, m] = (-0.125j, 0.125j)
    assert np.max(np.abs(b.coeffs - expected)) <= 1e-14
    assert norm_H(b) == pytest.approx(2.221441469079183, rel=1e-13)


@pytest.mark.parametrize("n", [8, 12])
def test_bilinear_matches_direct_convolution(n, rng):
    grid = TorusGrid(TWO_PI, n)
    for _ in range(5):
        u = random_field(grid, rng, norm_v=1.0)
        v = random_field(grid, rng, norm_v=1.0)
        fast = bilinear_B(u, v)
        slow = bilinear_B_direct(u, v)
        assert norm_H(fast - slow) <= 1e-12 * max(norm_H(slow), 1e-30)
        # its roundoff defects scale with the fields, and so does the
        # validation tolerance: a fixed 1e-12 rejected this product
        big = bilinear_B(u * 1e6, v * 1e6)
        _validate(grid, big.coeffs)
        assert norm_H(big - slow * 1e12) <= 1e-12 * max(norm_H(slow * 1e12), 1e-30)


def test_bilinear_rejects_out_of_band_input():
    grid = TorusGrid(TWO_PI, 16)
    c = np.zeros((2, 16, 16), dtype=complex)
    j = grid.band_limit + 1  # representable but alias-unsafe
    c[0, 0, j] = -0.5j
    c[0, 0, (-j) % 16] = 0.5j
    f = SpectralField.from_coeffs(grid, c)
    with pytest.raises(ValueError, match="band"):
        bilinear_B(f, f)


def test_bilinear_orthogonality_identities(rng, grid32):
    for _ in range(8):
        u = random_field(grid32, rng, norm_v=1.0)
        v = random_field(grid32, rng, norm_v=1.0)
        w = random_field(grid32, rng, norm_v=1.0)
        buv = bilinear_B(u, v)
        buw = bilinear_B(u, w)
        scale = max(norm_H(buv) * norm_H(v), 1e-30)
        assert abs(inner_product(buv, v)) <= 1e-12 * scale
        anti = inner_product(buv, w) + inner_product(buw, v)
        assert abs(anti) <= 1e-12 * max(norm_H(buv) * norm_H(w), 1e-30)


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
    nz = np.nonzero(f.coeffs)
    assert len(nz[0]) == 2  # one conjugate pair, first component only
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


def test_bilinear_output_stays_in_dealias_band(rng, grid16):
    u = random_field(grid16, rng)
    v = random_field(grid16, rng)
    b = bilinear_B(u, v)
    assert np.all(b.coeffs[:, ~grid16.dealias_mask] == 0.0)
    assert norm_V(b) > 0.0
