"""A-priori constants, condition checks, envelopes, and fits.

The constant formulas are exercised on a hand-solvable regime: nu = 1,
L = 2 pi (so lambda1 = 1), |f| = 5, beta = 2, cutoff at lambda = 16.
Every expected number below was worked out by hand from that data.
"""

import numpy as np
import pytest

from nudgeflow.analysis import (
    AbsoluteConstants,
    ConditionCheck,
    ErrorSeries,
    FitError,
    bound_constants,
    check_conditions,
    contraction_envelope,
    convergence_order,
    decay_rate_fit,
    gronwall_envelope,
    stability_bound_h2,
    stability_bound_v2,
)
from nudgeflow.fields import GalerkinCutoff, TorusGrid
from nudgeflow.interpolants import InterpolantSpec
from nudgeflow.operators import kolmogorov_forcing
from nudgeflow.schemes import PhysicsParams

TWO_PI = 2.0 * np.pi
AMP_F5 = 1.1253953951963827  # amplitude giving |f| = 5 on L = 2 pi


@pytest.fixture
def params16():
    grid = TorusGrid(TWO_PI, 16)
    return PhysicsParams(
        nu=1.0,
        grid=grid,
        forcing=kolmogorov_forcing(grid, 1, AMP_F5),
        beta=2.0,
        interpolant=InterpolantSpec("fourier_truncation", 0.25),
        cutoff=GalerkinCutoff(16.5),
    )


def test_constants_hand_regime(params16):
    c = bound_constants(params16)
    assert c.f_norm == pytest.approx(5.0, rel=1e-13)
    assert c.G == pytest.approx(5.0, rel=1e-13)
    assert c.M0 == pytest.approx(10.0, rel=1e-13)
    assert c.M1 == pytest.approx(5.0, rel=1e-13)
    assert c.Lambda == pytest.approx(2.6094379124341005, rel=1e-13)
    assert c.R1 == pytest.approx(326.17973905426254, rel=1e-12)
    assert c.M2 == pytest.approx(47.45545458783761, rel=1e-12)
    assert c.R2 == pytest.approx(3095.8015588324556, rel=1e-12)
    assert c.L_N == pytest.approx(1.9423152993887942, rel=1e-13)
    # forcing sits below the cutoff, so the high-mode residual is M1^2 only
    assert c.C0 == pytest.approx(25.0, rel=1e-12)
    assert c.C1 == pytest.approx(275.0, rel=1e-12)
    assert set(c.as_dict()) == {
        "G", "M0", "M1", "Lambda", "R1", "M2", "R2", "L_N", "C0", "C1", "f_norm",
    }


def test_constants_scale_with_absolute_factors(params16):
    doubled = bound_constants(params16, AbsoluteConstants(c=2.0, c4=3.0))
    base = bound_constants(params16)
    assert doubled.R1 == pytest.approx(3.0 * base.R1, rel=1e-13)
    assert doubled.C0 == pytest.approx(2.0 * base.C0, rel=1e-13)
    # M2 carries no absolute constant
    assert doubled.M2 == pytest.approx(base.M2, rel=1e-15)


def test_constants_reject_degenerate_forcing(params16):
    from dataclasses import replace

    grid = params16.grid
    with pytest.raises(ValueError, match="nonzero forcing"):
        bound_constants(replace(params16, forcing=kolmogorov_forcing(grid, 1, 0.0) * 0.0))
    weak = replace(params16, forcing=kolmogorov_forcing(grid, 1, 1e-3 * AMP_F5))
    with pytest.raises(ValueError, match="1/e"):
        bound_constants(weak)


def test_absolute_constants_alpha_range():
    with pytest.raises(ValueError):
        AbsoluteConstants(alpha=0.5)
    with pytest.raises(ValueError):
        AbsoluteConstants(alpha=1.0)
    assert AbsoluteConstants(alpha=0.9).alpha == 0.9


def test_condition_report_hand_values(params16):
    consts = bound_constants(params16)
    report = check_conditions(params16, consts, tau=0.4)
    floor = report.get("beta_lower_bound")
    assert floor.lhs == pytest.approx(65.23594781085251, rel=1e-12)
    assert floor.rhs == 2.0
    assert not floor.passed
    res = report.get("interpolant_resolution")
    assert res.lhs == pytest.approx(0.125, rel=1e-13)  # c0 beta h^2
    assert res.passed
    ppres = report.get("ppgm_interpolant_resolution")
    assert ppres.strict
    assert ppres.lhs == pytest.approx(0.5, rel=1e-13)  # max(c0, 4 c_minus1) beta h^2
    ppbeta = report.get("ppgm_beta_lower_bound")
    assert ppbeta.lhs == pytest.approx(15421256.876702117, rel=1e-9)
    assert not ppbeta.passed
    tb = report.get("tau_beta")
    assert tb.lhs == pytest.approx(0.8) and tb.passed
    assert not report.all_passed
    assert report.passed("tau_beta", "interpolant_resolution")
    assert "beta_lower_bound" in report.describe()
    with pytest.raises(KeyError):
        report.get("nonexistent")


def test_condition_check_strictness():
    assert ConditionCheck("x", 1.0, 1.0).passed
    assert not ConditionCheck("x", 1.0, 1.0, strict=True).passed
    assert "pass" in ConditionCheck("x", 0.0, 1.0).describe()
    assert "FAIL" in ConditionCheck("x", 2.0, 1.0).describe()


def test_conditions_need_c0_for_volume_averages(params16):
    from dataclasses import replace

    consts = bound_constants(params16)
    vol = replace(params16, interpolant=InterpolantSpec("volume_average", TWO_PI / 8.0))
    with pytest.raises(ValueError, match="c0_value"):
        check_conditions(vol, consts)
    report = check_conditions(vol, consts, c0_value=0.5)
    assert report.get("interpolant_resolution").lhs == pytest.approx(
        0.5 * 2.0 * (TWO_PI / 8.0) ** 2, rel=1e-13
    )


def test_gronwall_envelope_hand_recursion():
    env = gronwall_envelope(1.0, 0.5, [0.3, 0.6], 2)
    assert env == pytest.approx([1.0, 0.8666666666666667, 0.9777777777777779], rel=1e-15)
    assert gronwall_envelope(3.0, 0.1, 0.0, 0) == pytest.approx([3.0])
    with pytest.raises(ValueError):
        gronwall_envelope(1.0, -1.0, 0.0, 5)
    with pytest.raises(ValueError):
        gronwall_envelope(1.0, 0.5, 0.0, -1)


def test_gronwall_envelope_dominates_recurrence(rng):
    # any sequence with (1+gamma) a_{k+1} <= a_k + b_k stays below the envelope
    for _ in range(300):
        m = int(rng.integers(1, 60))
        gamma = float(rng.uniform(0.005, 2.0))
        a0 = float(rng.uniform(0.0, 10.0))
        b = rng.uniform(0.0, 1.0, size=m)
        theta = rng.uniform(0.0, 1.0, size=m)  # slack below saturation
        env = gronwall_envelope(a0, gamma, b, m)
        a = a0
        for k in range(m):
            a = theta[k] * (a + b[k]) / (1.0 + gamma)
            assert a <= env[k + 1] * (1.0 + 1e-12) + 1e-15


def test_contraction_envelope_values(params16):
    from dataclasses import replace

    p = replace(params16, beta=3.0)  # factor 1 + tau (beta + nu lambda1)/4 = 1.1
    env = contraction_envelope(4.0, p, 0.1, 2)
    assert env == pytest.approx([4.0, 3.6363636363636362, 3.305785123966942], rel=1e-14)
    picked = contraction_envelope(4.0, p, 0.1, np.array([0, 2]))
    assert picked == pytest.approx([4.0, 3.305785123966942], rel=1e-14)
    # huge step counts must underflow gracefully, not overflow
    far = contraction_envelope(4.0, p, 0.5, np.array([100000]))
    assert np.isfinite(far[0]) and far[0] >= 0.0


def test_stability_bounds_hand_values(params16):
    consts = bound_constants(params16)
    h2 = stability_bound_h2(params16, consts, v0_h2=100.0, tau=0.5, steps=1)
    assert h2 == pytest.approx([812.5, 762.5], rel=1e-13)
    v2 = stability_bound_v2(params16, consts, v0_v2=9.0, tau=0.5, steps=1)
    assert v2[1] == pytest.approx(739.8787878787879, rel=1e-13)
    # transient decays monotonically toward the persistent tail
    many = stability_bound_h2(params16, consts, 100.0, 0.5, 50)
    assert np.all(np.diff(many) <= 0.0)
    from dataclasses import replace

    free = replace(params16, beta=0.0, interpolant=None)
    with pytest.raises(ValueError, match="beta > 0"):
        stability_bound_h2(free, consts, 1.0, 0.1, 10)


def test_stability_bounds_survive_long_horizons(params16):
    consts = bound_constants(params16)
    vals = stability_bound_h2(params16, consts, 1e8, 0.1, np.array([100000]))
    assert np.isfinite(vals[0])


def test_error_series_tail_helpers():
    s = ErrorSeries(np.array([0.0, 0.5, 1.0]), np.array([3.0, 1.0, 2.0]), "H", False)
    assert s.tail_sup(0.4) == 2.0
    assert s.tail_sup(0.0) == 3.0
    assert len(s.after(0.5)) == 2
    with pytest.raises(ValueError):
        s.tail_sup(5.0)


def test_decay_rate_fit_recovers_synthetic_rate():
    t = np.linspace(0.0, 15.0, 301)
    v = 3.0 * np.exp(-2.0 * t) + 1e-9
    fit = decay_rate_fit(ErrorSeries(t, v, "H", False))
    assert fit.rate == pytest.approx(2.0, rel=0.03)
    assert 0.5e-9 <= fit.floor <= 2e-9
    assert fit.amplitude == pytest.approx(3.0, rel=0.2)
    assert fit.n_used >= 100


def test_decay_rate_fit_rejects_bad_series():
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(FitError, match="samples"):
        decay_rate_fit(ErrorSeries(t[:5], np.ones(5), "H", False))
    growing = ErrorSeries(t, np.exp(t), "H", False)
    with pytest.raises(FitError):
        decay_rate_fit(growing)
    # positive fitted slope on the pre-floor prefix
    v = np.concatenate((5.0 + 0.1 * t[:80], np.full(21, 1e-6)))
    with pytest.raises(FitError, match="not decaying"):
        decay_rate_fit(ErrorSeries(t, v, "H", False))


def test_convergence_order_exact_power_law():
    taus = [0.02, 0.01, 0.005, 0.0025]
    fit = convergence_order((tau, 0.7 * tau**1.03) for tau in taus)
    assert fit.slope == pytest.approx(1.03, rel=1e-12)
    assert fit.intercept == pytest.approx(np.log(0.7), rel=1e-10)
    assert fit.max_log_residual <= 1e-12
    assert fit.n_used == 4 and fit.dropped == 0


def test_convergence_order_filters_and_guards():
    taus = [0.04, 0.02, 0.01, 0.005, 0.0025]
    pairs = [(tau, tau) for tau in taus]
    pairs[2] = (0.01, 0.0)
    with pytest.warns(UserWarning, match="dropped"):
        fit = convergence_order(pairs)
    assert fit.dropped == 1 and fit.n_used == 4
    with pytest.raises(FitError, match="span"):
        convergence_order([(0.02, 1.0), (0.015, 1.0), (0.01, 1.0)])
    with pytest.raises(FitError, match="positive"):
        with pytest.warns(UserWarning, match="dropped"):
            convergence_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.0)])
