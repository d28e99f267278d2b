"""A-priori constants, condition checks, envelopes, and fits.

The constant formulas are exercised on a hand-solvable regime: nu = 1,
L = 2 pi (so lambda1 = 1), |f| = 5, beta = 2, cutoff at lambda = 16.
Every expected number below was worked out by hand from that data.
"""

import dataclasses
import math

import numpy as np
import pytest

from nudgeflow.analysis import (
    ConditionCheck,
    FitError,
    bound_constants,
    check_conditions,
    contraction_envelope,
    convergence_order,
    decay_rate_fit,
    gronwall_envelope,
    stability_bound_h2,
    stability_bound_v2,
    tail_sup,
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


def test_overflowing_constants_are_rejected_and_bounds_read_inf(params16):
    # nu^2 lambda1 underflows, the constants overflow (R2 and R1 from M1^3,
    # |f| staying finite; G from |f| / nu^2), or only the left-hand side of
    # a condition does
    def with_(nu=1.0, amplitude=AMP_F5):
        forcing = kolmogorov_forcing(params16.grid, 1, amplitude)
        return dataclasses.replace(params16, nu=nu, forcing=forcing)

    with pytest.raises(ValueError, match=r"nu\^2 lambda1 underflows to 0"):
        bound_constants(with_(nu=1e-300))
    with pytest.raises(ValueError, match="constant R2 = inf is not finite"):
        bound_constants(with_(amplitude=1e100))
    with pytest.raises(ValueError, match="constant R1 = inf is not finite"):
        bound_constants(with_(amplitude=1e200))
    with pytest.raises(ValueError, match="constant G = inf is not finite"):
        bound_constants(with_(nu=1e-5, amplitude=1e300))
    coarse = dataclasses.replace(
        params16, beta=1e308, interpolant=InterpolantSpec("fourier_truncation", 100.0)
    )
    _, res = check_conditions(coarse, bound_constants(params16))
    assert res.lhs == math.inf and not res.passed


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
    # the report's [constants] section, in this order
    assert list(dataclasses.asdict(c)) == [
        "G", "M0", "M1", "Lambda", "R1", "M2", "R2", "L_N", "C0", "C1", "f_norm",
    ]


def test_constants_reject_degenerate_forcing(params16):
    from dataclasses import replace

    grid = params16.grid
    with pytest.raises(ValueError, match="nonzero forcing"):
        bound_constants(replace(params16, forcing=kolmogorov_forcing(grid, 1, 0.0) * 0.0))
    weak = replace(params16, forcing=kolmogorov_forcing(grid, 1, 1e-3 * AMP_F5))
    with pytest.raises(ValueError, match="1/e"):
        bound_constants(weak)


def test_condition_report_hand_values(params16):
    consts = bound_constants(params16)
    floor, res = check_conditions(params16, consts)
    assert floor.name == "beta_lower_bound" and res.name == "interpolant_resolution"
    assert floor.lhs == pytest.approx(65.23594781085251, rel=1e-12)
    assert floor.rhs == 2.0
    assert not floor.passed
    assert res.lhs == pytest.approx(0.125, rel=1e-13)  # c0 beta h^2
    assert res.passed


def test_beta_lower_bound_fixes_c_at_1(params16):
    # the gain floor is M1^2 Lambda / nu, with no absolute factor and no
    # note, as R1 carries c4 = 1
    consts = bound_constants(params16)
    floor, _ = check_conditions(params16, consts)
    assert floor.lhs == pytest.approx(consts.M1**2 * consts.Lambda / params16.nu, rel=1e-15)
    assert floor.describe() == "beta_lower_bound = fail (lhs=65.2359478109 <= rhs=2)"
    with pytest.raises(TypeError):
        bound_constants(params16, c=2.0)


def test_condition_check_line():
    # the line that stdout, the soak's ConfigError and the report all print
    assert ConditionCheck("x", 1.0, 1.0).passed
    assert ConditionCheck("x", 1.0, 1.0).describe() == "x = pass (lhs=1 <= rhs=1)"
    fail = ConditionCheck("x", 2.0 / 3.0, 0.5, note="c0=1")
    assert not fail.passed
    assert fail.describe() == "x = fail (lhs=0.666666666667 <= rhs=0.5, c0=1)"


def test_conditions_need_c0_for_volume_averages(params16):
    from dataclasses import replace

    consts = bound_constants(params16)
    vol = replace(params16, interpolant=InterpolantSpec("volume_average", TWO_PI / 8.0))
    with pytest.raises(ValueError, match="c0_value"):
        check_conditions(vol, consts)
    _, res = check_conditions(vol, consts, c0_value=0.5)
    assert res.lhs == pytest.approx(
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


def test_contraction_envelope_values(params16):
    from dataclasses import replace

    p = replace(params16, beta=3.0)  # factor 1 + tau (beta + nu lambda1)/4 = 1.1
    env = contraction_envelope(4.0, p, 0.1, 2)
    assert env == pytest.approx([4.0, 3.6363636363636362, 3.305785123966942], rel=1e-14)
    picked = env[[0, 2]]
    assert picked == pytest.approx([4.0, 3.305785123966942], rel=1e-14)
    # huge step counts must underflow gracefully, not overflow
    far = contraction_envelope(4.0, p, 0.5, 100000)[-1]
    assert np.isfinite(far) and far >= 0.0


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
    last = stability_bound_h2(params16, consts, 1e8, 0.1, 100000)[-1]
    assert np.isfinite(last)


def test_error_series_tail_helpers():
    times, values = np.array([0.0, 0.5, 1.0]), np.array([3.0, 1.0, 2.0])
    assert tail_sup(times, values, 0.4) == 2.0
    assert tail_sup(times, values, 0.0) == 3.0
    with pytest.raises(ValueError):
        tail_sup(times, values, 5.0)


def test_decay_rate_fit_recovers_synthetic_rate():
    t = np.linspace(0.0, 15.0, 301)
    v = 3.0 * np.exp(-2.0 * t) + 1e-9
    fit = decay_rate_fit(t, v)
    assert fit.rate == pytest.approx(2.0, rel=0.03)
    assert 0.5e-9 <= fit.floor <= 2e-9
    assert fit.n_used >= 100


def test_decay_rate_fit_uses_the_whole_series_before_any_floor():
    # a clean decay by less than 3x never reaches a floor: the whole series
    # is fitted, and the fit's floor (the tail median) shows how little
    # it fell
    t = np.linspace(0.0, 0.06, 25)
    v = 0.25 * np.exp(-10.5 * t)
    fit = decay_rate_fit(t, v)
    assert fit.rate == pytest.approx(10.5, rel=1e-12)
    assert fit.n_used == len(t)
    assert fit.floor == pytest.approx(float(np.median(v[-2:])), rel=1e-15)
    assert v[0] < 3.0 * fit.floor


def test_decay_rate_fit_calls_a_rising_series_not_decaying():
    t = np.linspace(0.0, 1.0, 30)
    with pytest.raises(FitError, match="not decaying"):
        decay_rate_fit(t, 1e-3 * (1.0 + t))
    # an identically zero error has nothing to fit
    with pytest.raises(FitError, match="0 positive samples"):
        decay_rate_fit(t, np.zeros_like(t))


def test_decay_rate_fit_rejects_bad_series():
    t = np.linspace(0.0, 10.0, 101)
    with pytest.raises(FitError, match="samples"):
        decay_rate_fit(t[:5], np.ones(5))
    with pytest.raises(FitError, match="not decaying"):
        decay_rate_fit(t, np.exp(t))
    # positive fitted slope on the pre-floor prefix
    v = np.concatenate((5.0 + 0.1 * t[:80], np.full(21, 1e-6)))
    with pytest.raises(FitError, match="not decaying"):
        decay_rate_fit(t, v)


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
