"""Structural oracles: the facts the paper's estimates rest on, each one
function that returns its worst defect over the draws its caller asks for.

The caller passes the generator, the sizes and the draw counts, and judges
the defect against its own bound: `run_self_check` (CLI `check`) runs every
oracle once on small grids from one seeded generator, and acceptance
criteria 01, 02, 03(a) and 09 run them at their own sizes and seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import gronwall_envelope
from .experiments import FAIL, PASS, ExperimentReport, _steady, write_report
from .fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _band_packing,
    inner_product,
    leray_project_raw,
    norm_H,
    norm_V,
    project_high,
    project_low,
    random_field,
)
from .interpolants import InterpolantSpec
from .operators import bilinear_B, kolmogorov_forcing, kolmogorov_steady_state, taylor_green
from .schemes import SCHEMES, SEMI_IMPLICIT, PhysicsParams, advance


def bilinear_B_direct(u: SpectralField, v: SpectralField) -> SpectralField:
    """Brute-force oracle for bilinear_B via the explicit convolution sum.

    Accumulates uhat_B(k) = sum_{p+q=k} i (uhat(p) . q) vhat(q) mode by
    mode (no FFT, no aliasing) on the (2, n, n) arrays of both fields,
    then packs it on the band, which is the dealiasing mask and Leray
    projection of bilinear_B, so outputs are directly comparable.
    Intended for small grids.
    """
    u._require_same_grid(v)
    grid = u.grid
    n = grid.n
    band = _band_packing(grid)
    uc, vc = band._unpack_grid(u.coeffs), band._unpack_grid(v.coeffs)
    scale = 2.0 * np.pi / grid.L
    j1, j2 = grid.j1, grid.j2
    out = np.zeros((2, n, n), dtype=np.complex128)
    rows, cols = np.nonzero(np.abs(uc[0]) + np.abs(uc[1]))
    half = n // 2
    for a, b in zip(rows, cols):
        # i (uhat(p) . q) vhat(q) for all q at once; q in physical units
        dot = 1j * scale * (uc[0, a, b] * j1 + uc[1, a, b] * j2)
        t1 = j1[a, 0] + j1  # target integer frequencies p + q, shape (n, 1)
        t2 = j2[0, b] + j2  # shape (1, n)
        valid = (t1 >= -half) & (t1 < half) & (t2 >= -half) & (t2 < half)
        qa, qb = np.nonzero(valid)
        out[:, (t1 % n)[qa, 0], (t2 % n)[0, qb]] += dot[qa, qb] * vc[:, qa, qb]
    return SpectralField(grid, band._pack_grid(out))


def bilinear_gap(rng: np.random.Generator, sizes: tuple[int, ...], draws: int) -> float:
    """Largest |B(u, v) - B_direct(u, v)| / |B_direct(u, v)| over `draws`
    pairs of random fields on each grid size."""
    worst = 0.0
    for n in sizes:
        grid = TorusGrid(2.0 * math.pi, n)
        for _ in range(draws):
            u, v = random_field(grid, rng, norm_h=1.0), random_field(grid, rng, norm_h=1.0)
            slow = bilinear_B_direct(u, v)
            gap = norm_H(bilinear_B(u, v) - slow)
            worst = max(worst, gap / max(norm_H(slow), 1e-300))
    return worst


def orthogonality_defect(rng: np.random.Generator, grid: TorusGrid, draws: int) -> float:
    """Largest |(B(u, v), v)| and |(B(u, v), w) + (B(u, w), v)|, each over
    its Cauchy-Schwarz bound, over `draws` triples of random fields."""
    worst = 0.0
    for _ in range(draws):
        u, v, w = (random_field(grid, rng, norm_h=1.0) for _ in range(3))
        buv, buw = bilinear_B(u, v), bilinear_B(u, w)
        worst = max(
            worst,
            abs(inner_product(buv, v)) / max(norm_H(buv) * norm_H(v), 1e-300),
            abs(inner_product(buv, w) + inner_product(buw, v))
            / max(norm_H(buv) * norm_H(w) + norm_H(buw) * norm_H(v), 1e-300),
        )
    return worst


def projection_defect(
    rng: np.random.Generator, grid: TorusGrid, cutoff: GalerkinCutoff, draws: int
) -> float:
    """Largest relative defect, over `draws` draws, of the Leray projection P
    of a random (2, n, n) array (P P = P, P orthogonal to the gradient part),
    and for a random field f of Poincare's lambda1 |f|^2 <= ||f||^2 and of
    the pair P_N, Q_N (orthogonal, summing to f; P_N is a mask, so a
    P_N P_N f that differs from P_N f in any bit is a defect of 1)."""
    worst = 0.0
    for _ in range(draws):
        raw = np.fft.fft2(rng.standard_normal((2, grid.n, grid.n)), axes=(1, 2)) / grid.n**2
        p = leray_project_raw(raw, grid)
        grad = raw - p
        grad[:, 0, 0] = 0.0
        cross = abs(float(np.sum(grad * np.conj(p)).real))
        f = random_field(grid, rng, norm_h=1.0)
        f2 = norm_H(f) ** 2
        low, high = project_low(f, cutoff), project_high(f, cutoff)
        worst = max(
            worst,
            np.linalg.norm(leray_project_raw(p, grid) - p) / np.linalg.norm(p),
            cross / float(np.linalg.norm(grad) * np.linalg.norm(p)),
            (grid.lambda1 * f2 - norm_V(f) ** 2) / f2,
            float(not np.array_equal(project_low(low, cutoff).coeffs, low.coeffs)),
            abs(inner_product(low, high)) / f2,
            norm_H((low + high) - f) / norm_H(f),
        )
    return worst


def steady_drift(
    params: PhysicsParams, star: SpectralField, taus: tuple[float, ...], steps: int
) -> float:
    """Largest growth of |v_k - u*| in one step, over `steps` steps of both
    schemes at each tau from a steady state u* of `params`, nudged toward
    u* itself where params.beta > 0."""
    worst = 0.0
    for scheme in SCHEMES:
        for tau in taus:
            _, traj = advance(star, params, _steady(star), tau, steps, scheme=scheme, store_every=1)
            devs = [0.0] + [norm_H(v - star) for v in traj.fields[1:]]
            worst = max(worst, *(b - a for a, b in zip(devs, devs[1:])))
    return worst


def vortex_gap(grid: TorusGrid, nu: float, tau: float, steps: int) -> float:
    """Largest |v_k - rho^k v_0| / |rho^k v_0| over `steps` unforced steps of
    both schemes from the Taylor-Green vortex v_0, rho = 1 / (1 + nu |k|^2
    tau): B(v, v) is a gradient, so each step only scales the vortex."""
    free = PhysicsParams(nu, grid, SpectralField.zero(grid), 0.0, None, grid.band_cutoff())
    v0 = taylor_green(grid, 1, 0.0, nu)
    kp2 = 2.0 * (2.0 * math.pi / grid.L) ** 2
    worst = 0.0
    for scheme in SCHEMES:
        _, traj = advance(v0, free, None, tau, steps, scheme=scheme, store_every=1)
        for k, v_k in enumerate(traj.fields[1:], 1):
            exact = v0 * (1.0 / (1.0 + nu * kp2 * tau)) ** k
            worst = max(worst, norm_H(v_k - exact) / norm_H(exact))
    return worst


def gronwall_ratio(rng: np.random.Generator, draws: int, max_steps: int, slack: float) -> float:
    """Largest a_k / E_k over `draws` sequences (1 + gamma) a_{k+1} =
    theta_k (a_k + g_k), theta_k drawn from [1 - slack, 1], and their
    `gronwall_envelope` E; slack 0 meets the lemma's hypothesis
    (1 + gamma) a_{k+1} <= a_k + g_k with equality, the tightest case."""
    worst = 0.0
    for _ in range(draws):
        m = int(rng.integers(0, max_steps + 1))
        gamma = float(rng.uniform(-0.5, 3.0))
        a0 = float(rng.uniform(0.0, 10.0))
        g = rng.uniform(0.0, 2.0, size=m)
        theta = rng.uniform(1.0 - slack, 1.0, size=m)
        env = gronwall_envelope(a0, gamma, g, m)
        a = a0
        for k in range(m):
            a = theta[k] * (a + g[k]) / (1.0 + gamma)
            worst = max(worst, a / max(env[k + 1], 1e-300))
    return worst


def run_self_check(seed: int = 0, out_dir: str | None = None) -> ExperimentReport:
    """Every oracle on small grids, drawing from one generator in the order
    of the table: (check, value key or None, worst defect, bound)."""
    rng = np.random.default_rng(seed)
    grid16, grid32 = TorusGrid(2.0 * math.pi, 16), TorusGrid(2.0 * math.pi, 32)
    star = kolmogorov_steady_state(grid32, 1, 0.01, 0.1)
    nudged = PhysicsParams(
        0.1, grid32, kolmogorov_forcing(grid32, 1, 0.01), 5.0,
        InterpolantSpec("fourier_truncation", 0.1), GalerkinCutoff(40.0),
    )
    report = ExperimentReport("check", SEMI_IMPLICIT, seed)
    for name, key, worst, bound in (
        ("bilinear_oracle", "bilinear_oracle_rel", bilinear_gap(rng, (8, 12), 5), 1e-12),
        ("bilinear_orthogonality", "bilinear_orthogonality_rel",
         orthogonality_defect(rng, grid16, 10), 1e-11),
        ("poincare_projection", None,
         projection_defect(rng, grid16, GalerkinCutoff(9.0), 1), 1e-12),
        ("steady_fixed_point", "fixed_point_drift",
         steady_drift(nudged, star, (0.01,), 1), 1e-9),
        ("vortex_recursion", "vortex_recursion_rel", vortex_gap(grid32, 0.1, 1e-3, 20), 1e-10),
        ("gronwall_domination", None, gronwall_ratio(rng, 200, 59, 0.0), 1.0 + 1e-12),
    ):
        if key is not None:
            report.values[key] = worst
        status = PASS if worst <= bound else FAIL
        report.add_check(name, status, f"worst {worst:.3e}, bound {bound:.13g}")
    if out_dir is not None:
        write_report(report, out_dir)
    return report
