"""End-to-end acceptance gate.

One test per numbered criterion, each printing a single pass/fail verdict
line and asserting its runtime budget.  Tolerances are pinned; regimes are
chosen so every admissibility condition genuinely holds (see the configs
inline).  These tests are slower than the unit files (minutes, not
seconds) and exercise the full pipeline: operators, steppers, bounds,
experiment runners, and file outputs.
"""

import dataclasses
import math
import time

import numpy as np

from nudgeflow.analysis import gronwall_envelope
from nudgeflow.config import default_config
from nudgeflow.experiments import (
    FAIL,
    PASS,
    run_contraction_test,
    run_n_sweep,
    run_stability_soak,
    run_tau_sweep,
    run_twin_experiment,
)
from nudgeflow.fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    inner_product,
    norm_H,
    norm_V,
    project_high,
    project_low,
    random_field,
)
from nudgeflow.operators import (
    bilinear_B,
    bilinear_B_direct,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    leray_project,
    taylor_green,
)
from nudgeflow.schemes import PhysicsParams, advance

SEED = 20260815
SCHEMES = ("semi_implicit", "fully_implicit")


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def _elapsed(t0: float, limit: float, num: int) -> float:
    dt = time.monotonic() - t0
    assert dt < limit, f"criterion {num} over budget: {dt:.1f}s >= {limit}s"
    return dt


def _free_params(grid: TorusGrid, nu: float, forcing: SpectralField) -> PhysicsParams:
    return PhysicsParams(
        nu=nu, grid=grid, forcing=forcing, beta=0.0, interpolant=None,
        cutoff=grid.band_cutoff(),
    )


def test_criterion_01_bilinear_matches_direct_convolution():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    pairs = 0
    for n in (8, 12, 16):
        grid = TorusGrid(2.0 * math.pi, n)
        for _ in range(17):
            u = random_field(grid, rng, norm_h=1.0)
            v = random_field(grid, rng, norm_h=1.0)
            slow = bilinear_B_direct(u, v)
            gap = norm_H(bilinear_B(u, v) - slow)
            worst = max(worst, gap / max(norm_H(slow), 1e-300))
            pairs += 1
    assert pairs >= 50
    dt = _elapsed(t0, 10.0, 1)
    _verdict(1, "transform bilinear term vs direct convolution", worst <= 1e-12,
             f"max rel gap {worst:.3e} over {pairs} pairs, {dt:.1f}s")


def _single_mode(grid: TorusGrid, j1: int, j2: int) -> SpectralField:
    c = np.zeros((2, grid.n, grid.n), dtype=complex)
    w = np.array([j2, -j1], dtype=float) / math.hypot(j1, j2)
    val = 0.35 + 0.2j
    c[:, j1 % grid.n, j2 % grid.n] = w * val
    c[:, (-j1) % grid.n, (-j2) % grid.n] = w * np.conj(val)
    return SpectralField.from_coeffs(grid, c, copy=False)


def test_criterion_02_orthogonality_and_projections():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 2)
    grid = TorusGrid(2.0 * math.pi, 32)

    worst_orth = 0.0
    for _ in range(10):
        u = random_field(grid, rng, norm_h=1.0)
        v = random_field(grid, rng, norm_h=1.0)
        w = random_field(grid, rng, norm_h=1.0)
        buv, buw = bilinear_B(u, v), bilinear_B(u, w)
        worst_orth = max(
            worst_orth,
            abs(inner_product(buv, v)) / (norm_H(buv) * norm_H(v)),
            abs(inner_product(buv, w) + inner_product(buw, v))
            / (norm_H(buv) * norm_H(w) + norm_H(buw) * norm_H(v)),
        )

    worst_poincare = 0.0
    for j1, j2 in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (4, 0), (5, 3)):
        e = _single_mode(grid, j1, j2)
        lhs = norm_V(e) ** 2
        rhs = (j1 * j1 + j2 * j2) * grid.lambda1 * norm_H(e) ** 2
        worst_poincare = max(worst_poincare, abs(lhs - rhs) / rhs)

    worst_proj = 0.0
    for _ in range(5):
        phys = rng.standard_normal((2, 32, 32))
        raw = np.fft.fft2(phys, axes=(1, 2)) / (32 * 32)
        p = leray_project(raw, grid)
        again = leray_project(p.coeffs, grid)
        worst_proj = max(worst_proj, norm_H(again - p) / norm_H(p))
        grad = raw - p.coeffs
        grad[:, 0, 0] = 0.0
        cross = abs(grid.L ** 2 * float(np.sum(grad * np.conj(p.coeffs)).real))
        scale = grid.L ** 2 * float(np.linalg.norm(grad) * np.linalg.norm(p.coeffs))
        worst_proj = max(worst_proj, cross / scale)

        f = random_field(grid, rng, norm_h=1.0)
        cut = GalerkinCutoff(25.0)
        low, high = project_low(f, cut), project_high(f, cut)
        assert np.array_equal(project_low(low, cut).coeffs, low.coeffs)
        worst_proj = max(worst_proj, abs(inner_product(low, high)) / norm_H(f) ** 2)
        worst_proj = max(worst_proj, norm_H((low + high) - f) / norm_H(f))

    dt = _elapsed(t0, 10.0, 2)
    ok = worst_orth <= 1e-11 and worst_poincare <= 1e-12 and worst_proj <= 1e-12
    _verdict(2, "orthogonality, per-mode Poincare, projections", ok,
             f"orth {worst_orth:.2e}, poincare {worst_poincare:.2e}, "
             f"proj {worst_proj:.2e}, {dt:.1f}s")


def test_criterion_03_steady_fixed_point_and_taylor_green_order():
    t0 = time.monotonic()

    # (a) the steady shear is a per-step fixed point of both schemes
    grid = TorusGrid(2.0 * math.pi, 32)
    nu = 1.0
    f = kolmogorov_forcing(grid, 1, 1.0)
    star = kolmogorov_steady_state(grid, 1, 1.0, nu)
    params = _free_params(grid, nu, f)
    worst_step = 0.0
    for scheme in SCHEMES:
        for tau in (0.01, 0.1):
            devs = [0.0]

            def on_step(prev, new):
                devs.append(norm_H(new.v - star))

            advance(star, params, None, tau, 50, scheme=scheme, on_step=on_step)
            inc = max(b - a for a, b in zip(devs, devs[1:]))
            worst_step = max(worst_step, inc, devs[1])
            assert all(d <= (k + 1) * 1e-9 for k, d in enumerate(devs[1:]))

    # (b) unforced vortex decay: first order in tau via Richardson halving
    grid_tg = TorusGrid(2.0 * math.pi, 16)
    nu_tg, t_end = 0.1, 2.0
    exact = taylor_green(grid_tg, 1, t_end, nu_tg)
    params_tg = _free_params(grid_tg, nu_tg, SpectralField.zero(grid_tg))
    v0 = taylor_green(grid_tg, 1, 0.0, nu_tg)
    orders = {}
    fine_rel = {}
    for scheme in SCHEMES:
        errs = []
        for tau in (1e-3, 5e-4):
            state, _ = advance(
                v0, params_tg, None, tau, round(t_end / tau), scheme=scheme
            )
            errs.append(norm_H(state.v - exact))
        orders[scheme] = math.log2(errs[0] / errs[1])
        fine_rel[scheme] = errs[0] / norm_H(exact)

    dt = _elapsed(t0, 120.0, 3)
    ok = (
        worst_step <= 1e-9
        and all(0.85 <= o <= 1.15 for o in orders.values())
        and all(r <= 1e-3 for r in fine_rel.values())
    )
    _verdict(3, "steady fixed point and first-order vortex decay", ok,
             f"max per-step drift {worst_step:.2e}, orders "
             + ", ".join(f"{s}={orders[s]:.3f}" for s in SCHEMES)
             + f", fine rel err {max(fine_rel.values()):.2e}, {dt:.1f}s")


def _soak_config(scheme: str):
    # G = 10 shear: beta 1.5x above the nudging floor, h^2 ~ 0.9 nu / beta
    amp = 0.1 * math.sqrt(2.0) / (2.0 * math.pi)
    return default_config(
        nu=0.1, grid_n=32, forcing="kolmogorov", forcing_kappa=2,
        forcing_amplitude=amp, beta=50.0, h=1.0 / math.sqrt(556.0),
        lambda_cut=60.0, scheme=scheme, tau=0.01, t_end=1.0, burn_in=0.0,
        truth="analytic:kolmogorov", ic="random_bv", ic_amplitude=1.0,
        soak_steps=10000, tau_list=(0.001, 0.01, 0.1),
    )


def test_criterion_04_stability_soaks(tmp_path):
    t0 = time.monotonic()
    worst = {}
    for scheme in SCHEMES:
        rep = run_stability_soak(_soak_config(scheme), str(tmp_path / scheme))
        assert rep.status == PASS, rep.describe()
        assert not any(c.status == FAIL for c in rep.checks)
        worst[scheme] = max(
            v for k, v in rep.values.items() if k.endswith("max_ratio")
        )
    dt = _elapsed(t0, 200.0, 4)
    ok = all(w <= 1.0 for w in worst.values())
    _verdict(4, "10^4-step soaks hold every a-priori bound", ok,
             "worst bound ratio "
             + ", ".join(f"{s}={worst[s]:.3f}" for s in SCHEMES)
             + f" at tau in {{0.001, 0.01, 0.1}}, {dt:.1f}s")


def _contraction_config(scheme: str):
    # G = 2 shear, beta = 10 >> floor 0.68, c0 beta h^2 = 0.09 <= nu
    amp = 0.02 * math.sqrt(2.0) / (2.0 * math.pi)
    return default_config(
        nu=0.1, grid_n=32, forcing="kolmogorov", forcing_kappa=1,
        forcing_amplitude=amp, beta=10.0, h=1.0 / math.sqrt(111.0),
        lambda_cut=60.0, scheme=scheme, tau=0.004, t_end=8.0, burn_in=0.0,
        truth="analytic:kolmogorov", ic="random_bv", ic_amplitude=0.9,
        perturbation=0.05, contraction_steps=2000,
    )


def test_criterion_05_contraction_envelopes(tmp_path):
    t0 = time.monotonic()
    ratios = {}
    for scheme, check, key in (
        ("semi_implicit", "contraction_H", "max_ratio_H"),
        ("fully_implicit", "contraction_V", "max_ratio_V"),
    ):
        rep = run_contraction_test(_contraction_config(scheme), str(tmp_path / scheme))
        status = {c.name: c.status for c in rep.checks}
        assert status == {check: PASS}, rep.describe()
        ratios[scheme] = rep.values[key]
    dt = _elapsed(t0, 300.0, 5)
    ok = all(r <= 1.0 + 1e-9 for r in ratios.values())
    _verdict(5, "difference squared below geometric envelope (2000 steps)", ok,
             f"max ratio H {ratios['semi_implicit']:.4f} (semi), "
             f"V {ratios['fully_implicit']:.4f} (full), {dt:.1f}s")


def _tau_sweep_config(scheme: str):
    amp = 0.05 * math.sqrt(2.0) / (2.0 * math.pi)
    return default_config(
        nu=0.1, grid_n=32, forcing="kolmogorov", forcing_kappa=2,
        forcing_amplitude=amp, beta=10.0, h=1.0 / math.sqrt(111.0),
        lambda_cut=60.0, scheme=scheme, tau=0.0025, t_end=1.0,
        burn_in=0.5, truth="nse_integrate", truth_dt_factor=2,
        truth_spinup=1.0, truth_store_every=1, ic="random_bv",
        ic_amplitude=1.0, tau_list=(0.02, 0.01, 0.005, 0.0025), ref_factor=50,
    )


def test_criterion_06_first_order_in_tau_sweep(tmp_path):
    t0 = time.monotonic()
    slopes = {}
    for scheme in SCHEMES:
        rep = run_tau_sweep(_tau_sweep_config(scheme), str(tmp_path / scheme))
        assert rep.status == PASS, rep.describe()
        slopes[scheme] = (rep.values["order_H:slope"], rep.values["order_V:slope"])
    dt = _elapsed(t0, 300.0, 6)
    ok = all(
        0.8 <= sh <= 1.2 and 0.7 <= sv <= 1.2 for sh, sv in slopes.values()
    )
    _verdict(6, "sup-over-tail error is first order in tau", ok,
             ", ".join(
                 f"{s}: H {slopes[s][0]:.3f} V {slopes[s][1]:.3f}"
                 for s in SCHEMES
             ) + f", {dt:.1f}s")


def _twin_config(beta: float, expect: str):
    # G = 20 shear: beta floor 159.8 -> beta 165, 1/h^2 = 1778 >= 1650
    amp = 0.2 * math.sqrt(2.0) / (2.0 * math.pi)
    return default_config(
        nu=0.1, grid_n=64, forcing="kolmogorov", forcing_kappa=2,
        forcing_amplitude=amp, beta=beta, h=1.0 / math.sqrt(1778.0),
        lambda_cut=60.0, scheme="semi_implicit", tau=0.005, t_end=10.0,
        burn_in=0.0, truth="analytic:kolmogorov", ic="random_bv",
        ic_amplitude=1.0, twin_expect=expect, min_decay_orders=6.0,
    )


def test_criterion_07_twin_convergence_and_control(tmp_path):
    t0 = time.monotonic()
    rep = run_twin_experiment(_twin_config(165.0, "decay"), str(tmp_path / "on"))
    status = {c.name: c.status for c in rep.checks}
    assert status["conditions"] == PASS, rep.describe()
    assert status["stability"] == PASS, rep.describe()
    orders = rep.values["decay_orders"]
    rate = rep.values["decay_rate"]

    ctl = run_twin_experiment(_twin_config(0.0, "no_decay"), str(tmp_path / "off"))
    ctl_status = {c.name: c.status for c in ctl.checks}
    ratio = ctl.values["min_error_ratio"]

    dt = _elapsed(t0, 600.0, 7)
    ok = (
        orders >= 6.0 and rate > 0.0
        and status["decay_orders"] == PASS and status["decay_rate"] == PASS
        and ctl_status["no_decay"] == PASS and ratio >= 1e-2
    )
    _verdict(7, "twin run decays >= 6 orders, beta = 0 control does not", ok,
             f"{orders:.1f} orders at rate {rate:.1f}; control min ratio "
             f"{ratio:.3f}, {dt:.1f}s")


def test_criterion_08_postprocessing_cutoff_sweep(tmp_path):
    t0 = time.monotonic()
    amp = 0.1 * math.sqrt(2.0) / (2.0 * math.pi)
    cfg = default_config(
        nu=0.1, grid_n=48, forcing="random_band", forcing_amplitude=amp,
        forcing_decay=1.0, beta=50.0, h=1.0 / math.sqrt(556.0),
        lambda_cut=60.0, scheme="semi_implicit", tau=0.005, t_end=3.0,
        burn_in=1.0, truth="nse_integrate", truth_dt_factor=4,
        truth_spinup=3.0, truth_store_every=8, ic="random_bv",
        ic_amplitude=1.0, lambda_cut_list=(6.0, 16.0, 40.0),
        tau_floor_factor=2.0,
    )
    rep = run_n_sweep(cfg, str(tmp_path))
    status = {c.name: c.status for c in rep.checks}
    slope = rep.values["pp_order:slope"]
    improve = [v for k, v in status.items() if k.startswith("pp_improves")]
    dt = _elapsed(t0, 1200.0, 8)
    ok = (
        len(improve) >= 3 and all(v == PASS for v in improve)
        and -1.6 <= slope <= -0.9 and status["tau_floor_subdominant"] == PASS
    )
    _verdict(8, "postprocessing improves and decays ~ lambda^(-5/4)", ok,
             f"slope {slope:.3f} over {len(improve)} cutoffs, tau floor "
             f"subdominant, {dt:.1f}s")


def test_criterion_09_gronwall_envelope_dominates_recurrence():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(0, 201))
        gamma = float(rng.uniform(-0.5, 3.0))
        a0 = float(rng.uniform(0.0, 10.0))
        g = rng.uniform(0.0, 2.0, size=m)
        env = gronwall_envelope(a0, gamma, g, m)
        a = a0
        for k in range(m):
            a = float(rng.uniform(0.0, 1.0)) * (a + g[k]) / (1.0 + gamma)
            assert a <= env[k + 1] * (1.0 + 1e-12) + 1e-15
            if env[k + 1] > 0.0:
                worst = max(worst, a / env[k + 1])
    dt = _elapsed(t0, 5.0, 9)
    _verdict(9, "recurrence never exceeds its closed envelope", True,
             f"1000 draws, m <= 200, max a/envelope {worst:.4f}, {dt:.1f}s")


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    amp = 0.02 * math.sqrt(2.0) / (2.0 * math.pi)
    twin = default_config(
        nu=0.1, grid_n=32, forcing="kolmogorov", forcing_kappa=1,
        forcing_amplitude=amp, beta=10.0, h=1.0 / math.sqrt(111.0),
        lambda_cut=60.0, scheme="semi_implicit", tau=0.01, t_end=0.3,
        burn_in=0.0, truth="analytic:kolmogorov", ic="random_bv",
        ic_amplitude=0.9, min_decay_orders=0.0,
    )
    contraction = dataclasses.replace(twin, perturbation=0.05, contraction_steps=100)
    compared = 0
    for name, runner, cfg in (
        ("twin", run_twin_experiment, twin),
        ("contraction", run_contraction_test, contraction),
    ):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        runner(cfg, str(a))
        runner(cfg, str(b))
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs, f"{name} produced no series files"
        for fname in csvs:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname
            compared += 1
    dt = _elapsed(t0, 120.0, 10)
    _verdict(10, "identical config and seed reproduce outputs byte-for-byte",
             True, f"{compared} series files compared equal, {dt:.1f}s")
