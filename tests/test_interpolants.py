"""Observation operators and the empirical c0 of volume averages."""

import tracemalloc

import numpy as np
import pytest

from nudgeflow.fields import (
    GalerkinCutoff,
    TorusGrid,
    _band_packing,
    leray_project_raw,
    norm_H,
    norm_V,
    project_low,
    random_field,
    to_physical,
)
from nudgeflow.interpolants import (
    InterpolantSpec,
    apply_ih,
    estimate_c0,
)
from nudgeflow.operators import kolmogorov_forcing

TWO_PI = 2.0 * np.pi


def _grid(f):
    """The (2, n, n) coefficient array of a field."""
    return _band_packing(f.grid)._unpack_grid(f.coeffs)


def _norm_H(grid, c):
    """L^2 norm of the velocity with the (2, n, n) coefficients c."""
    return grid.L * np.linalg.norm(c)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        InterpolantSpec("nodal", 0.1)
    with pytest.raises(ValueError, match="positive"):
        InterpolantSpec("fourier_truncation", 0.0)
    spec = InterpolantSpec("fourier_truncation", 0.25)
    assert spec.cutoff().lambda_cut == pytest.approx(16.0)
    with pytest.raises(ValueError, match="fourier"):
        InterpolantSpec("volume_average", 0.25).cutoff()


def test_fourier_truncation_is_spectral_projection(rng, grid32):
    spec = InterpolantSpec("fourier_truncation", 1.0 / 3.0)
    f = random_field(grid32, rng, norm_v=1.0)
    obs = apply_ih(spec, f)
    ref = project_low(f, GalerkinCutoff(9.0))
    assert np.array_equal(obs, _grid(ref))


def test_fourier_truncation_approximation_bound(rng, grid32):
    # |f - I_h f| <= h ||f|| with c0 = 1 for the spectral interpolant
    spec = InterpolantSpec("fourier_truncation", 1.0 / 3.0)
    for _ in range(10):
        f = random_field(grid32, rng, decay=0.2)
        err = _norm_H(grid32, _grid(f) - apply_ih(spec, f))
        assert err <= spec.h * norm_V(f) * (1.0 + 1e-12)


def _loop_block_average(samples, m):
    """Brute-force reference: every h-cell replaced by its sample mean."""
    c, n, _ = samples.shape
    b = n // m
    out = np.empty_like(samples)
    for ci in range(c):
        for i in range(m):
            for j in range(m):
                cell = samples[ci, i * b : (i + 1) * b, j * b : (j + 1) * b]
                out[ci, i * b : (i + 1) * b, j * b : (j + 1) * b] = cell.mean()
    return out


# (n, L/h) with b = n / (L/h) samples per cell side: 4, 1, 3, 3 and 6
CELL_GRIDS = [(16, 4), (16, 16), (24, 8), (48, 16), (48, 8)]


@pytest.mark.parametrize("n, m", CELL_GRIDS)
def test_volume_average_matches_loop_reference(rng, n, m):
    # the symbol checked here is also the one the solver's packed map is
    # built from; tests/test_schemes.py checks that map against apply_ih
    grid = TorusGrid(TWO_PI, n)
    spec = InterpolantSpec("volume_average", TWO_PI / m)
    f = random_field(grid, rng, norm_v=1.0)
    obs = apply_ih(spec, f)
    assert not obs[:, 0, 0].any()
    raw = np.fft.fft2(_loop_block_average(to_physical(f), m)) / grid.n**2
    ref = leray_project_raw(raw, grid)
    assert _norm_H(grid, obs - ref) <= 1e-12 * max(_norm_H(grid, ref), 1e-30)


def test_estimate_c0_pinned_on_twin_bench_grid():
    # the twin bench workload's grid (n = 48) and 16 x 16 cells
    grid = TorusGrid(TWO_PI, 48)
    spec = InterpolantSpec("volume_average", TWO_PI / 16.0)
    assert estimate_c0(spec, grid) == pytest.approx(0.06466571327058503, rel=1e-12)


def _loop_estimate_c0(spec, grid, trials, rng):
    """Per-probe reference: build each random field and its average on the full grid."""
    decays = (1.0, 0.5, 0.25, 0.1)
    worst = 0.0
    for i in range(trials):
        f = random_field(grid, rng, decay=decays[i % len(decays)])
        nv = norm_V(f)
        if nv == 0.0:
            continue
        err = _norm_H(grid, _grid(f) - apply_ih(spec, f))
        worst = max(worst, err * err / (spec.h * spec.h * nv * nv))
    return worst


# a symbol with zeros (n = 24, b = 3), classes with up to four band
# members (96 / 16) and more cells per side than the band limit
# (64 / 32: L/h = 32 > 21)
C0_GRIDS = [(16, 4), (24, 8), (48, 16), (64, 32), (96, 16)]


@pytest.mark.parametrize("n, m", C0_GRIDS)
@pytest.mark.parametrize("seed", [3, 11])
def test_estimate_c0_matches_per_probe_loop(n, m, seed):
    grid = TorusGrid(TWO_PI, n)
    spec = InterpolantSpec("volume_average", TWO_PI / m)
    banded, looped = np.random.default_rng(seed), np.random.default_rng(seed)
    c0 = estimate_c0(spec, grid, trials=30, rng=banded)
    assert c0 == pytest.approx(_loop_estimate_c0(spec, grid, 30, looped), rel=1e-12)
    # the probes consumed exactly the normals of 30 random_field calls
    assert banded.standard_normal() == looped.standard_normal()


def test_estimate_c0_memory_on_twin_bench_grid():
    grid = TorusGrid(TWO_PI, 48)
    spec = InterpolantSpec("volume_average", TWO_PI / 16.0)
    tracemalloc.start()
    try:
        estimate_c0(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_volume_average_annihilates_cell_periodic_mode(grid16):
    # sin(4 x2) completes a full period inside every L/4 cell, and the
    # four equispaced samples per cell sum to zero exactly
    spec = InterpolantSpec("volume_average", TWO_PI / 4.0)
    f = kolmogorov_forcing(grid16, 4, 1.0)
    assert _norm_H(grid16, apply_ih(spec, f)) <= 1e-13 * norm_H(f)


def test_volume_average_divisibility_errors(grid16):
    f = kolmogorov_forcing(grid16, 1, 1.0)
    with pytest.raises(ValueError, match="integer"):
        apply_ih(InterpolantSpec("volume_average", 1.0), f)
    # 5 cells per side does not divide n = 16 sample points
    with pytest.raises(ValueError, match="divisible"):
        apply_ih(InterpolantSpec("volume_average", TWO_PI / 5.0), f)


def test_check_rejects_an_interpolant_that_observes_nothing(grid16):
    # 1/h^2 = lambda1 = 1 observes the first shell; 1/h^2 = 0.01 none, and
    # 1/h^2 past the floats no cutoff
    InterpolantSpec("fourier_truncation", 1.0).check(grid16)
    for h in (10.0, 1e-200):
        with pytest.raises(ValueError, match=rf"^h = {h}: .* 1/h\^2, .* lambda1 = 1\.0$"):
            InterpolantSpec("fourier_truncation", h).check(grid16)
    with pytest.raises(ValueError, match="divisible"):
        InterpolantSpec("volume_average", TWO_PI / 5.0).check(grid16)


def test_volume_average_c0_estimate_finite(grid16):
    spec = InterpolantSpec("volume_average", TWO_PI / 4.0)
    c0 = estimate_c0(spec, grid16, trials=30, rng=np.random.default_rng(5))
    assert 0.0 < c0 < 50.0
    # deterministic under a fixed generator seed
    again = estimate_c0(spec, grid16, trials=30, rng=np.random.default_rng(5))
    assert again == c0
    with pytest.raises(ValueError, match="trials"):
        estimate_c0(spec, grid16, trials=5)
    # Fourier truncation needs no estimate: its c0 is exactly 1
    assert estimate_c0(InterpolantSpec("fourier_truncation", 1.0 / 3.0), grid16) == 1.0
