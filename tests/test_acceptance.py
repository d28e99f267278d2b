"""End-to-end acceptance gate.

One test per numbered criterion, each printing a single pass/fail verdict
line and asserting its runtime budget.  Tolerances are pinned; regimes are
chosen so every admissibility condition genuinely holds at the config's
step (see the config builders, and
`test_acceptance_configs_meet_every_condition_at_their_tau`).  These tests
are slower than the unit files (minutes, not seconds) and exercise the
full pipeline: operators, steppers, bounds, experiment runners, and file
outputs.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from nudgeflow import experiments, oracles, schemes
from nudgeflow.config import default_config
from nudgeflow.experiments import (
    FAIL,
    PASS,
    _setup,
    run_contraction_test,
    run_n_sweep,
    run_stability_soak,
    run_tau_sweep,
    run_twin_experiment,
)
from nudgeflow.fields import GalerkinCutoff, SpectralField, TorusGrid, norm_H, norm_V
from nudgeflow.operators import (
    _modes_field,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    taylor_green,
)
from nudgeflow.schemes import SCHEMES, PhysicsParams, advance

SEED = 20260815


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def _elapsed(t0: float, limit: float, num: int) -> float:
    dt = time.monotonic() - t0
    assert dt < limit, f"criterion {num} over budget: {dt:.1f}s >= {limit}s"
    return dt


def test_criterion_01_bilinear_matches_direct_convolution():
    t0 = time.monotonic()
    worst = oracles.bilinear_gap(np.random.default_rng(SEED), (8, 12, 16), 17)
    dt = _elapsed(t0, 10.0, 1)
    _verdict(1, "transform bilinear term vs direct convolution", worst <= 1e-12,
             f"max rel gap {worst:.3e} over 51 pairs, {dt:.1f}s")


def test_criterion_02_orthogonality_and_projections():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 2)
    grid = TorusGrid(2.0 * math.pi, 32)
    worst_orth = oracles.orthogonality_defect(rng, grid, 10)
    worst_poincare = 0.0
    for j1, j2 in ((1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (4, 0), (5, 3)):
        e = _modes_field(grid, [j1], [j2], [0.35 + 0.2j])
        lhs = norm_V(e) ** 2
        rhs = (j1 * j1 + j2 * j2) * grid.lambda1 * norm_H(e) ** 2
        worst_poincare = max(worst_poincare, abs(lhs - rhs) / rhs)

    worst_proj = oracles.projection_defect(rng, grid, GalerkinCutoff(25.0), 5)
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
    free = PhysicsParams(nu, grid, f, 0.0, None, grid.band_cutoff())
    worst_step = oracles.steady_drift(free, star, (0.01, 0.1), 50)

    # (b) unforced vortex decay: first order in tau via Richardson halving
    grid_tg = TorusGrid(2.0 * math.pi, 16)
    nu_tg, t_end = 0.1, 2.0
    exact = taylor_green(grid_tg, 1, t_end, nu_tg)
    params_tg = PhysicsParams(
        nu_tg, grid_tg, SpectralField.zero(grid_tg), 0.0, None, grid_tg.band_cutoff()
    )
    v0 = taylor_green(grid_tg, 1, 0.0, nu_tg)
    orders = {}
    fine_rel = {}
    for scheme in SCHEMES:
        errs = []
        for tau in (1e-3, 5e-4):
            v_n, _ = advance(
                v0, params_tg, None, tau, round(t_end / tau), scheme=scheme
            )
            errs.append(norm_H(v_n - exact))
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


def test_criterion_06_first_order_in_tau_sweep(tmp_path, monkeypatch):
    # work budget: the ETDRK4 pair at dt_ref = min(tau) = 2 truth steps
    # makes 400 + 200 steps, and every stage time is a stored truth frame
    steps, truths = [0], []
    real_step, real_truth = schemes._Etdrk4.step, experiments.build_truth

    def step(self, *args):
        steps[0] += 1
        return real_step(self, *args)

    def build_truth(setup):
        truths.append(real_truth(setup))
        return truths[-1]

    monkeypatch.setattr(schemes._Etdrk4, "step", step)
    monkeypatch.setattr(experiments, "build_truth", build_truth)
    t0 = time.monotonic()
    slopes = {}
    for scheme in SCHEMES:
        steps[0] = 0
        rep = run_tau_sweep(_tau_sweep_config(scheme), str(tmp_path / scheme))
        assert rep.status == PASS, rep.describe()
        assert steps[0] == 600
        assert truths[-1].interpolated_queries == 0
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


def _n_sweep_config():
    amp = 0.1 * math.sqrt(2.0) / (2.0 * math.pi)
    return default_config(
        nu=0.1, grid_n=48, forcing="random_band", forcing_amplitude=amp,
        forcing_decay=1.0, beta=50.0, h=1.0 / math.sqrt(556.0),
        lambda_cut=60.0, scheme="semi_implicit", tau=0.005, t_end=3.0,
        burn_in=1.0, truth="nse_integrate", truth_dt_factor=4,
        truth_spinup=3.0, truth_store_every=8, ic="random_bv",
        ic_amplitude=1.0, lambda_cut_list=(6.0, 16.0, 40.0),
    )


def test_criterion_08_postprocessing_cutoff_sweep(tmp_path):
    t0 = time.monotonic()
    rep = run_n_sweep(_n_sweep_config(), str(tmp_path))
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
    worst = oracles.gronwall_ratio(np.random.default_rng(SEED + 9), 1000, 200, 1.0)
    dt = _elapsed(t0, 5.0, 9)
    _verdict(9, "recurrence never exceeds its closed envelope", worst <= 1.0 + 1e-12,
             f"1000 draws, m <= 200, max a/envelope {worst:.4f}, {dt:.1f}s")


def _rerun_config():
    # criterion 05's semi-implicit problem, 30 twin steps of 0.01
    return dataclasses.replace(
        _contraction_config("semi_implicit"), tau=0.01, t_end=0.3, min_decay_orders=0.0
    )


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    twin = _rerun_config()
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


def _acceptance_configs():
    """(criterion label, config) of criteria 04-08 and 10."""
    for scheme in SCHEMES:
        yield f"04-{scheme}", _soak_config(scheme)
        yield f"05-{scheme}", _contraction_config(scheme)
        yield f"06-{scheme}", _tau_sweep_config(scheme)
    yield "07", _twin_config(165.0, "decay")
    yield "08", _n_sweep_config()
    yield "10", _rerun_config()


@pytest.mark.parametrize(
    "cfg", [pytest.param(cfg, id=label) for label, cfg in _acceptance_configs()]
)
def test_acceptance_configs_meet_every_condition_at_their_tau(cfg):
    # `_setup` builds the constants and conditions and integrates nothing;
    # no condition depends on the step, so every config meets them at any
    # tau it marches (the contraction runner judges tau * beta <= 1 itself).
    conditions = _setup(cfg).conditions
    names = [c.name for c in conditions]
    assert names[:2] == ["beta_lower_bound", "interpolant_resolution"]
    assert all(c.passed for c in conditions), [c.describe() for c in conditions]
