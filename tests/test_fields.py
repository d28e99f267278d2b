"""Field container, norms, projections, and transform round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgeflow.experiments import _random_band_forcing
from nudgeflow.fields import (
    FieldInvariantError,
    GalerkinCutoff,
    GridMismatchError,
    SpectralField,
    TorusGrid,
    inner_product,
    is_low_supported,
    leray_project_raw,
    norm_DA,
    norm_H,
    norm_V,
    _band_packing,
    _Packing,
    project_high,
    project_low,
    random_field,
    to_physical,
)
from nudgeflow.operators import (
    bilinear_B,
    kolmogorov_forcing,
    taylor_green,
)
from nudgeflow.oracles import bilinear_B_direct

TWO_PI = 2.0 * np.pi


def single_mode(grid, amplitude=3.0):
    """(amplitude sin(x2), 0): one conjugate mode pair at j = (0, +-1)."""
    return kolmogorov_forcing(grid, 1, amplitude)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(TWO_PI, 7)
    with pytest.raises(ValueError):
        TorusGrid(TWO_PI, 2)
    with pytest.raises(ValueError):
        TorusGrid(-1.0, 16)
    for L in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            TorusGrid(L, 16)
    # the weights as `_Packing` builds them overflow: 2 L^2 of |v|, and
    # 2 (L lambda1)^2 shell^2 of |A v| at the band's corner shell 2 K^2
    # (7.8e166 at L = 1e-80, which is accepted)
    for L in (1e-152, 1e155):
        with pytest.raises(ValueError, match="Parseval weights"):
            TorusGrid(L, 16)
    assert TorusGrid(1e-80, 16).L == 1e-80


@pytest.mark.parametrize("n,expected", [(8, 2), (12, 3), (16, 5), (48, 15), (64, 21)])
def test_band_limit_satisfies_dealiasing_margin(n, expected):
    g = TorusGrid(TWO_PI, n)
    assert g.band_limit == expected
    assert 3 * g.band_limit + 1 <= n


def test_lambda1():
    assert TorusGrid(TWO_PI, 16).lambda1 == pytest.approx(1.0, rel=1e-15)
    assert TorusGrid(np.pi, 16).lambda1 == pytest.approx(4.0, rel=1e-15)


def test_parseval_single_sine_mode(grid16):
    # (f, f) = integral of |f|^2 = amplitude^2 L^2 / 2, worked by hand
    f = single_mode(grid16, amplitude=3.0)
    assert inner_product(f, f) == pytest.approx(177.65287921960845, rel=1e-13)
    assert norm_H(f) == pytest.approx(np.sqrt(177.65287921960845), rel=1e-13)
    # the mode sits on shell 1, so the gradient norm equals the L2 norm
    assert norm_V(f) == pytest.approx(norm_H(f), rel=1e-13)
    assert norm_DA(f) == pytest.approx(norm_H(f), rel=1e-13)


def test_norms_scale_with_shell(grid16):
    f = kolmogorov_forcing(grid16, 2, 1.0)  # (sin(2 x2), 0)
    # shell 4 mode: ||f||^2 = 4 |f|^2 and |Af|^2 = 16 |f|^2
    assert norm_V(f) ** 2 == pytest.approx(4.0 * norm_H(f) ** 2, rel=1e-13)
    assert norm_DA(f) ** 2 == pytest.approx(16.0 * norm_H(f) ** 2, rel=1e-13)


def test_norms_past_the_square_overflow_scale_with_the_field(rng, grid16):
    # amplitudes past about 1e154 overflow a plain sum of squares, and a
    # field whose norm is below about 1e-146 underflows it, although the
    # norms are finite and positive: they scale with the field, to
    # roundoff (to the digits a subnormal keeps), and without a warning;
    # an infinite vector reads infinite norms and a zero one zeros
    f = random_field(grid16, rng, norm_h=1.0)
    band = _band_packing(grid16)
    for scale, rel in ((1e200, 1e-14), (1e-200, 1e-14), (1e-320, 1e-2)):
        scaled = f * scale
        for norm in (norm_H, norm_V, norm_DA):
            assert norm(scaled) == pytest.approx(scale * norm(f), rel=rel, abs=0.0)
        expected = [scale * x for x in band.norms(f.coeffs)]
        assert band.norms(scaled.coeffs) == pytest.approx(expected, rel=rel, abs=0.0)
    assert band.norms(np.full(band.size, np.inf, dtype=complex)) == [np.inf] * 3
    assert band.norms(np.zeros(band.size, dtype=complex)) == [0.0] * 3


def test_norms_of_one_amplitude_vector_scale_with_the_side(rng, grid16):
    # the same amplitudes on a side L: |v| scales by L, ||v|| by 1 and
    # |A v| by 1/L, also where L^2 |k|^4 is a product of extreme floats
    c = random_field(grid16, rng, norm_h=1.0).coeffs
    f, big = (SpectralField(TorusGrid(L, 16), c) for L in (1.0, 1e150))
    assert norm_H(big) == pytest.approx(1e150 * norm_H(f), rel=1e-13, abs=0.0)
    assert norm_V(big) == pytest.approx(norm_V(f), rel=1e-13, abs=0.0)
    assert norm_DA(big) == pytest.approx(1e-150 * norm_DA(f), rel=1e-13, abs=0.0)


def test_each_norm_sums_directly_below_its_own_overflow(rng):
    # at L = 1e-75 the |A v| weights reach 1e157: amplitudes near 1e100
    # overflow its sum, which is rescaled, while |v| and ||v|| keep the
    # plain Parseval sum
    grid = TorusGrid(1e-75, 16)
    f = random_field(grid, rng, norm_h=1.0)
    big = f * (1e100 / np.abs(f.coeffs).max())
    band, c = _band_packing(grid), big.coeffs
    for row, norm in enumerate((norm_H, norm_V)):
        assert norm(big) == float(np.sqrt(band._norm_weights[row] @ (c.real**2 + c.imag**2)))
    assert norm_DA(big) == pytest.approx(norm_DA(f) * norm_H(big) / norm_H(f), rel=1e-14)
    # a norm of 1e-180 has a plain sum of squares near 5e-211, but the |v|
    # weight 2e-150 takes its weighted sum below the floats: rescaled too
    assert norm_H(f * 1e-180) == pytest.approx(1e-180, rel=1e-14, abs=0.0)


def test_poincare_inequality_random(rng, grid32):
    lam1 = grid32.lambda1
    for _ in range(10):
        f = random_field(grid32, rng)
        assert norm_V(f) ** 2 >= lam1 * norm_H(f) ** 2 * (1.0 - 1e-12)


def test_cutoff_shell_classification(grid16):
    co = GalerkinCutoff(6.0)
    # shells 3, 6, 7 are not sums of two squares; 5 is the largest <= 6
    assert co.shell_limit(grid16) == 6
    assert co.lambda_low(grid16) == pytest.approx(5.0)
    assert co.lambda_next(grid16) == pytest.approx(8.0)
    assert co.within_band(grid16)
    assert GalerkinCutoff(2.0).mode_count(grid16) == 8
    with pytest.raises(ValueError):
        GalerkinCutoff(0.0)
    for lam in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            GalerkinCutoff(lam)
    with pytest.raises(ValueError):
        GalerkinCutoff(0.5).shell_limit(grid16)


def test_cutoff_boundary_shell_is_kept(grid16):
    # a cutoff sitting exactly on a representable eigenvalue keeps it
    co = GalerkinCutoff(4.0)
    assert co.shell_limit(grid16) == 4
    assert co.lambda_low(grid16) == pytest.approx(4.0)
    assert co.lambda_next(grid16) == pytest.approx(5.0)


def _unique_shell_eigenvalues(cutoff, grid):
    """(lambda_low, lambda_next) read off the sorted distinct shells."""
    m = cutoff.shell_limit(grid)
    shells = np.unique(grid.shell)
    below = shells[(shells >= 1) & (shells <= m)]
    above = shells[shells > m]
    return grid.lambda1 * float(below[-1]), grid.lambda1 * float(above[0])


@pytest.mark.parametrize("L, n", [(TWO_PI, 4), (TWO_PI, 16), (1.0, 10), (3.7, 24)])
def test_cutoff_eigenvalues_match_unique_oracle(L, n):
    grid = TorusGrid(L, n)
    top = int(grid.shell.max())
    for shell in range(1, top):
        for cut in (shell, shell + 0.5):
            co = GalerkinCutoff(grid.lambda1 * cut)
            got = (co.lambda_low(grid), co.lambda_next(grid))
            assert got == _unique_shell_eigenvalues(co, grid)
    co = GalerkinCutoff(grid.lambda1 * top)
    assert co.lambda_low(grid) == grid.lambda1 * top
    with pytest.raises(ValueError, match="no representable mode above"):
        co.lambda_next(grid)


def test_projections_decompose_exactly(rng, grid32):
    co = GalerkinCutoff(9.0)
    f = random_field(grid32, rng)
    low = project_low(f, co)
    high = project_high(f, co)
    assert np.array_equal((low + high).coeffs, f.coeffs)
    assert np.array_equal(project_low(low, co).coeffs, low.coeffs)
    assert np.array_equal(project_high(high, co).coeffs, high.coeffs)
    # disjoint spectral supports: orthogonality is exact, not approximate
    assert inner_product(low, high) == 0.0
    assert is_low_supported(low, co)
    assert not is_low_supported(f, co)
    # Pythagoras
    assert norm_H(f) ** 2 == pytest.approx(
        norm_H(low) ** 2 + norm_H(high) ** 2, rel=1e-13
    )


def test_transform_round_trip(rng, grid32):
    f = random_field(grid32, rng, norm_v=2.5)
    samples = to_physical(f)
    assert samples.shape == (2, grid32.n, grid32.n)
    assert np.isrealobj(samples)
    band = _band_packing(grid32)
    g = SpectralField(grid32, band._pack_grid(np.fft.fft2(samples) / grid32.n**2))
    assert norm_H(f - g) <= 1e-12 * norm_H(f)


def test_from_coeffs_rejects_wrong_shapes(grid16):
    n, size = grid16.n, _band_packing(grid16).size
    for shape in ((2, n, n), (size + 1,), (1, size)):
        with pytest.raises(FieldInvariantError, match="shape"):
            SpectralField.from_coeffs(grid16, np.zeros(shape, dtype=complex))
    c = np.arange(size, dtype=float)
    f = SpectralField.from_coeffs(grid16, c)
    assert f.coeffs.dtype == np.complex128 and np.array_equal(f.coeffs, c)
    c[0] = -1.0  # the field holds a copy
    assert f.coeffs[0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_from_coeffs_rejects_non_finite_coefficients(bad, grid16):
    c = np.zeros(_band_packing(grid16).size, dtype=complex)
    c[1] = bad
    with pytest.raises(FieldInvariantError, match="finite"):
        SpectralField.from_coeffs(grid16, c)


def test_grid_mismatch_raises(rng, grid16, grid32):
    f = random_field(grid16, rng)
    g = random_field(grid32, rng)
    with pytest.raises(GridMismatchError):
        _ = f + g


def test_field_arithmetic(rng, grid16):
    f = random_field(grid16, rng)
    g = random_field(grid16, rng)
    assert norm_H((f + g) - g - f) <= 1e-14 * norm_H(f)
    assert norm_H(2.0 * f) == pytest.approx(2.0 * norm_H(f), rel=1e-14)
    assert norm_H(-f) == norm_H(f)
    assert norm_H(SpectralField.zero(grid16)) == 0.0


def test_random_field_respects_requests(rng, grid32):
    co = GalerkinCutoff(10.0)
    f = random_field(grid32, rng, norm_v=1.5, cutoff=co)
    assert norm_V(f) == pytest.approx(1.5, rel=1e-12)
    assert is_low_supported(f, co)
    g = random_field(grid32, rng, norm_h=0.25)
    assert norm_H(g) == pytest.approx(0.25, rel=1e-12)


def _mirror(c):
    """conj(c(-k)) of a (2, n, n) coefficient array."""
    return np.conj(np.roll(c[:, ::-1, ::-1], 1, axis=(1, 2)))


@pytest.mark.parametrize("n", [4, 16, 30])
def test_every_amplitude_vector_is_a_real_solenoidal_field(n):
    # the representation holds the invariants by construction: any complex
    # amplitudes unpack to a Hermitian, mean-free, solenoidal array on the
    # band, which the mirror gather packs back to the same amplitudes
    grid = TorusGrid(3.0, n)
    band = _band_packing(grid)
    rng = np.random.default_rng(n)
    a = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
    c = band._unpack_grid(a)
    assert np.array_equal(c, _mirror(c))
    assert not c[:, 0, 0].any()
    assert not c[:, ~grid.dealias_mask].any()
    assert np.max(np.abs(grid.j1 * c[0] + grid.j2 * c[1])) <= 1e-14 * np.max(np.abs(c))
    assert np.max(np.abs(band._pack_grid(c) - a)) <= 1e-15 * np.max(np.abs(a))
    # one amplitude per pair of conjugate modes, excluding the mean
    assert band.size == ((2 * grid.band_limit + 1) ** 2 - 1) // 2
    # the samples are real and their energy is the amplitudes' Parseval sum
    f = SpectralField(grid, a)
    samples = to_physical(f)
    assert np.isrealobj(samples) and samples.shape == (2, n, n)
    energy = np.sum(samples**2) * (grid.L / n) ** 2
    assert energy == pytest.approx(norm_H(f) ** 2, rel=1e-13)


@pytest.mark.parametrize("n", [8, 16])
def test_mirror_gather_is_the_leray_projection_of_the_real_part(n, rng):
    grid = TorusGrid(TWO_PI, n)
    band = _band_packing(grid)
    c = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    expected = leray_project_raw(0.5 * (c + _mirror(c)), grid) * grid.dealias_mask
    got = band._unpack_grid(band._pack_grid(c))
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(c))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**16),
)
def test_product_grid_transforms_match_numpy_fft(k, extra, on_grid, seed):
    # the partial DFTs of `_sample` and `_project` against full numpy.fft
    # transforms, for the modes |j|_inf <= k of a grid of n >= 3k + 1, on
    # the smallest even n_s >= 3k + 1 or on the grid itself
    n_s = 2 * ((3 * k + 2) // 2)
    grid = TorusGrid(TWO_PI, n_s + 2 * extra)
    square = (np.abs(grid.j1) <= k) & (np.abs(grid.j2) <= k)
    sgrid = grid if on_grid else TorusGrid(TWO_PI, n_s)
    packing = _Packing(grid, square, sgrid)
    n, h = sgrid.n, sgrid.n // 2 + 1
    j1, j2 = packing.modes
    rng = np.random.default_rng(seed)

    # _sample: irfft2 of the half spectrum j2 >= 0, the j2 = 0 column
    # holding each axis mode and its conjugate mirror
    vecs = rng.standard_normal((2, packing.size)) + 1j * rng.standard_normal((2, packing.size))
    e = np.stack((-j2, j1)) / np.hypot(j1, j2)
    axis = j2 == 0
    for vec in (vecs[0], vecs):
        half = np.zeros(vec.shape[:-1] + (2, n, h), dtype=np.complex128)
        half[..., j1 % n, j2] = vec[..., None, :] * e
        half[..., -j1[axis] % n, 0] = vec[..., None, axis].conj() * e[:, axis]
        expected = np.fft.irfft2(half, s=(n, n), norm="forward")
        got = packing._sample(vec)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    # _project: rfft2 of the products, then the weighted gather at the modes
    ik = 2j * np.pi / grid.L / np.hypot(j1, j2)
    a, b, c = ik * j1 * j2, ik * j1 * j1, ik * j2 * j2
    for weights in (np.stack((-a, b, -c)), np.stack((-a, b - c))):
        products = rng.standard_normal((len(weights), n, n))
        spectra = np.fft.rfft2(products, norm="forward")[:, j1 % n, j2]
        expected = (weights * spectra).sum(axis=0)
        got = packing._project(products)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=40).map(lambda m: 2 * m),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**16),
)
def test_package_built_fields_are_band_amplitude_vectors(n, cut, decay, seed):
    # random_field, the random band forcing, the shear forcing, the
    # Taylor-Green vortex and the bilinear term all return one finite
    # amplitude per band mode, and cutoffs bound their support
    grid = TorusGrid(TWO_PI, n)
    rng = np.random.default_rng(seed)
    band = grid.band_limit
    kappa = 1 + seed % band
    cutoff = GalerkinCutoff(grid.lambda1 * max(1.0, cut * band**2))
    u = random_field(grid, rng, decay=decay)
    v = random_field(grid, rng, decay=decay, norm_v=1.0, cutoff=cutoff)
    assert is_low_supported(v, cutoff)
    # the convolution oracle is quartic in n, so it runs on one small grid
    small = TorusGrid(TWO_PI, 12)
    built = [
        u,
        v,
        _random_band_forcing(grid, 0.5, decay, seed),
        kolmogorov_forcing(grid, kappa if seed % 2 else -kappa, 0.5),
        taylor_green(grid, kappa, 0.3, 0.1),
        bilinear_B(u, v),
        bilinear_B_direct(random_field(small, rng, decay=decay),
                          random_field(small, rng, decay=decay)),
    ]
    for f in built:
        assert f.coeffs.shape == (_band_packing(f.grid).size,)
        assert f.coeffs.dtype == np.complex128 and np.all(np.isfinite(f.coeffs))
    with pytest.raises(ValueError, match="band"):
        random_field(grid, rng, cutoff=GalerkinCutoff(grid.lambda1 * (band**2 + 1)))


def test_coefficients_are_immutable(rng, grid16):
    f = random_field(grid16, rng)
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
def test_inner_product_scalar_linearity(alpha):
    rng = np.random.default_rng(7)
    grid = TorusGrid(TWO_PI, 16)
    f = random_field(grid, rng)
    g = random_field(grid, rng)
    lhs = inner_product(alpha * f, g)
    rhs = alpha * inner_product(f, g)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
