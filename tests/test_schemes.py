"""Implicit Euler steppers and the ETDRK4 reference flow: fixed points,
exact recursions, order, guards."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nudgeflow import experiments, oracles, schemes
from nudgeflow.config import default_config, load_config
from nudgeflow.experiments import _steady
from nudgeflow.fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _band_packing,
    _Packing,
    inner_product,
    is_low_supported,
    norm_DA,
    norm_H,
    norm_V,
    project_high,
    project_low,
    random_field,
)
from nudgeflow.interpolants import InterpolantSpec, apply_ih, observation_map
from nudgeflow.krylov import SolverError
from nudgeflow.operators import (
    _taylor_green_decay,
    bilinear_B,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    taylor_green,
)
from nudgeflow.oracles import bilinear_B_direct
from nudgeflow.schemes import (
    FULLY_IMPLICIT,
    SEMI_IMPLICIT,
    PhysicsParams,
    advance,
    nse_integrate,
    reference_galerkin_integrate,
)
from nudgeflow.storage import Trajectory

TWO_PI = 2.0 * np.pi


def rotating(u, w):
    """The truth u cos 3t + w sin 3t."""
    return Trajectory(
        _band_packing(u.grid), [u.coeffs, w.coeffs],
        lambda t: (0, [math.cos(3.0 * t), math.sin(3.0 * t)]),
    )


def marched_fields(v0, p, truth, tau, n_steps, scheme=SEMI_IMPLICIT):
    """The fields v^1, ..., v^n of the march from v0, from its trajectory."""
    _, traj = advance(v0, p, truth, tau, n_steps, scheme=scheme, store_every=1)
    return traj.fields[1:]


def free_params(grid, nu, forcing=None):
    """Unnudged dynamics on the full dealiased band."""
    return PhysicsParams(
        nu=nu,
        grid=grid,
        forcing=forcing if forcing is not None else SpectralField.zero(grid),
        beta=0.0,
        interpolant=None,
        cutoff=grid.band_cutoff(),
    )


def test_params_validation(grid16):
    zero = SpectralField.zero(grid16)
    with pytest.raises(ValueError, match="viscosity"):
        PhysicsParams(0.0, grid16, zero, 0.0, None, grid16.band_cutoff())
    with pytest.raises(ValueError, match="nonnegative"):
        PhysicsParams(1.0, grid16, zero, -1.0, None, grid16.band_cutoff())
    with pytest.raises(ValueError, match="interpolant"):
        PhysicsParams(1.0, grid16, zero, 5.0, None, grid16.band_cutoff())
    with pytest.raises(ValueError, match="band"):
        PhysicsParams(1.0, grid16, zero, 0.0, None, GalerkinCutoff(30.0))


@pytest.mark.parametrize("tau", [0.0, -0.1])
def test_advance_rejects_a_non_positive_step(tau, rng, grid16):
    v0 = random_field(grid16, rng)
    with pytest.raises(ValueError, match="time step must be positive"):
        advance(v0, free_params(grid16, 1.0), None, tau, 1)


def test_advance_projects_energy_outside_cutoff(rng, grid32):
    co = GalerkinCutoff(4.0)
    truncated = PhysicsParams(
        1.0, grid32, SpectralField.zero(grid32), 0.0, None, co
    )
    v = random_field(grid32, rng)  # full band support
    v1, _ = advance(v, truncated, None, 0.01, 1)
    assert is_low_supported(v1, co)


def test_advance_starts_from_the_low_modes_of_v0(rng, grid32):
    # v^0 = P_N v0: the modes above the cutoff never enter the march
    co = GalerkinCutoff(4.0)
    truncated = PhysicsParams(
        1.0, grid32, SpectralField.zero(grid32), 0.0, None, co
    )
    v = random_field(grid32, rng)  # full band support
    runs = [advance(w, truncated, None, 0.01, 3, store_every=1)
            for w in (v, project_low(v, co))]
    (full, full_traj), (low, low_traj) = runs
    assert is_low_supported(full_traj.fields[0], co)
    assert len(full_traj.frames) == len(low_traj.frames) == 4
    for a, b in zip(full_traj.frames, low_traj.frames):
        assert np.array_equal(a, b)
    assert np.array_equal(full.coeffs, low.coeffs)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_steady_state_is_fixed_point_free_run(scheme, grid32):
    nu = 1.0
    u_star = kolmogorov_steady_state(grid32, 1, 1.0, nu)
    p = free_params(grid32, nu, kolmogorov_forcing(grid32, 1, 1.0))
    marched = marched_fields(u_star, p, None, 0.01, 50, scheme)
    drift = [norm_H(v - u_star) for v in marched]
    assert max(drift) <= 50 * 1e-9 * norm_H(u_star)
    assert drift[0] <= 1e-9 * norm_H(u_star)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_steady_state_is_fixed_point_nudged(scheme, grid32):
    nu = 1.0
    u_star = kolmogorov_steady_state(grid32, 1, 1.0, nu)
    spec = InterpolantSpec("fourier_truncation", 0.25)
    p = PhysicsParams(
        nu, grid32, kolmogorov_forcing(grid32, 1, 1.0), 10.0, spec,
        grid32.band_cutoff(),
    )
    marched = marched_fields(u_star, p, _steady(u_star), 0.01, 50, scheme)
    assert max(norm_H(v - u_star) for v in marched) <= 50 * 1e-9 * norm_H(u_star)


def test_taylor_green_exact_per_mode_recursion(grid32):
    # the vortex keeps its shape, so each step of either scheme multiplies
    # the pair of active shells by exactly 1 / (1 + 2 nu tau)
    assert oracles.vortex_gap(grid32, 0.5, 0.02, 20) <= 1e-9


def test_taylor_green_first_order_in_tau(grid32):
    nu, t_end = 0.1, 0.2
    p = free_params(grid32, nu)
    v0 = taylor_green(grid32, 1, 0.0, nu)
    exact = taylor_green(grid32, 1, t_end, nu)
    errs = []
    for tau in (0.02, 0.01):
        v_n, _ = advance(v0, p, None, tau, int(round(t_end / tau)))
        errs.append(norm_H(v_n - exact))
    order = np.log2(errs[0] / errs[1])
    assert 0.85 <= order <= 1.15


def test_semi_and_fully_implicit_agree_to_second_order(rng, grid32):
    nu = 1.0
    p = free_params(grid32, nu, random_field(grid32, rng, norm_h=0.05))
    v0 = random_field(grid32, rng, norm_v=0.2, cutoff=p.cutoff)
    diffs = []
    # small taus: at nu tau lambda ~ O(1) the step is outside the
    # asymptotic regime and the halving ratio sags well below 4
    for tau in (0.0025, 0.00125):
        s, _ = advance(v0, p, None, tau, 1, scheme=SEMI_IMPLICIT)
        f, _ = advance(v0, p, None, tau, 1, scheme=FULLY_IMPLICIT)
        diffs.append(norm_H(s - f))
    assert diffs[0] > 0.0
    ratio = diffs[0] / diffs[1]
    # one-step discrepancy is O(tau^2): halving tau shrinks it ~4x
    assert 3.0 <= ratio <= 5.0


def test_semi_implicit_energy_identity(rng, grid32):
    # testing the step equation against v^{k+1} must give, exactly,
    # |v1|^2 - |v0|^2 + |v1 - v0|^2 + 2 tau nu ||v1||^2 = 2 tau (f, v1)
    nu, tau = 0.1, 0.01
    f = kolmogorov_forcing(grid32, 2, 0.3)
    p = free_params(grid32, nu, f)
    v0 = random_field(grid32, rng, norm_v=1.0)
    _, traj = advance(v0, p, None, tau, 5, store_every=1)
    marched = traj.fields
    assert len(marched) == 6
    for prev, new in zip(marched, marched[1:]):
        lhs = (
            norm_H(new) ** 2
            - norm_H(prev) ** 2
            + norm_H(new - prev) ** 2
            + 2.0 * tau * nu * norm_V(new) ** 2
        )
        rhs = 2.0 * tau * inner_product(f, new)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, norm_H(prev) ** 2)


def test_advance_trajectory_cadence(rng, grid16):
    p = free_params(grid16, 1.0)
    v0 = random_field(grid16, rng, norm_v=0.1)
    v7, traj = advance(v0, p, None, 0.01, 7, store_every=3)
    assert traj is not None
    assert np.allclose(traj.times, [0.0, 0.03, 0.06, 0.07])
    assert np.array_equal(traj.fields[-1].coeffs, v7.coeffs)
    with pytest.raises(ValueError, match="store_every"):
        advance(v0, p, None, 0.01, 3, store_every=0)
    with pytest.raises(ValueError, match="scheme"):
        advance(v0, p, None, 0.01, 1, scheme="leapfrog")


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_advance_agrees_with_single_steps(scheme, rng):
    # advance starts each solve from the truncated damped cubic
    # extrapolation, a bare step from v^k; both iterates meet the 1e-10
    # step tolerance
    p, truth, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    marched = marched_fields(v0, p, truth, 0.01, 20, scheme)
    stepper = schemes._stepper(p, 0.01, scheme)
    x = stepper._pack_field(v0)
    for k, v in enumerate(marched):
        x = stepper.step(x, k, truth)
        stepped = stepper._field(x)
        assert norm_H(v - stepped) <= 1e-9 * norm_H(stepped)


def _random_modes(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def test_predictor_is_exact_on_modes_that_only_decay(rng):
    # x_k = w^k x_0: D_2 = D_3 = 0, and x_k + w D_1 is x_(k+1)
    w = rng.uniform(0.01, 1.0, 200)
    predict = schemes._Predictor(w)
    x = _random_modes(rng, 200)
    assert predict(x) is x
    for _ in range(12):
        x = w * x
        guess = predict(x)
        assert np.max(np.abs(guess - w * x)) <= 1e-14 * np.max(np.abs(x))


def test_predictor_extrapolates_a_smooth_sequence_cubically(rng):
    # where tau d_k << 1 (w = 1) the guess is the cubic through four iterates
    a, b, c, d = (_random_modes(rng, 50) for _ in range(4))
    predict = schemes._Predictor(np.ones(50))

    def x(k):
        t = 0.01 * k
        return a + t * (b + t * (c + t * d))

    for k in range(8):
        guess = predict(x(k))
        if k >= 3:
            assert np.max(np.abs(guess - x(k + 1))) <= 1e-13 * np.max(np.abs(x(k + 1)))


def test_predictor_adds_no_term_beyond_d1_to_roundoff_jitter(rng):
    # around a fixed point the higher differences of roundoff grow, so the
    # guess stays x_k + w (x_k - x_(k-1)) instead of amplifying the noise
    w = rng.uniform(0.5, 1.0, 200)
    predict = schemes._Predictor(w)
    fixed = _random_modes(rng, 200)
    prev = None
    for _ in range(20):
        x = fixed * (1.0 + 2e-16 * rng.standard_normal(200))
        guess = predict(x)
        if prev is not None:
            assert np.array_equal(guess, x + w * (x - prev))
        prev = x


def test_nse_integrate_guards(rng, grid16):
    spec = InterpolantSpec("fourier_truncation", 0.5)
    nudged = PhysicsParams(
        1.0, grid16, SpectralField.zero(grid16), 2.0, spec, grid16.band_cutoff()
    )
    u0 = random_field(grid16, rng, norm_v=0.1)
    with pytest.raises(ValueError, match="beta = 0"):
        nse_integrate(u0, nudged, 10, 0.01)
    truncated = PhysicsParams(
        1.0, grid16, SpectralField.zero(grid16), 0.0, None, GalerkinCutoff(4.0)
    )
    with pytest.raises(ValueError, match="band"):
        nse_integrate(u0, truncated, 10, 0.01)
    p = free_params(grid16, 1.0)
    traj = nse_integrate(u0, p, 5, 0.01)
    assert np.allclose(traj.times, np.arange(6) * 0.01)
    assert len(traj.frames) == 6


def nudged_problem(grid, rng, kind="fourier_truncation"):
    """Nonlinear nudged Galerkin problem observing a moving field: (params,
    truth, v0)."""
    co = GalerkinCutoff(20.0)
    h = 0.4 if kind == "fourier_truncation" else TWO_PI / 8
    spec = InterpolantSpec(kind, h)
    p = PhysicsParams(0.1, grid, kolmogorov_forcing(grid, 2, 0.5), 10.0, spec, co)
    u = random_field(grid, rng, norm_v=2.0, cutoff=co)
    w = random_field(grid, rng, norm_v=2.0, cutoff=co)
    truth = rotating(u, w)
    v0 = random_field(grid, rng, norm_v=3.0, cutoff=co)
    return p, truth, v0


def test_reference_reproduces_taylor_green_to_roundoff(grid32):
    # P_N B(v, v) vanishes on the vortex, so the exponential step is exact
    nu = 0.5
    p = free_params(grid32, nu)
    v0 = taylor_green(grid32, 1, 0.0, nu)
    traj = reference_galerkin_integrate(v0, p, None, 10, 0.02)
    assert np.array_equal(traj.times, np.arange(11) * 0.02)
    for t, v in zip(traj.times, traj.fields):
        exact = taylor_green(grid32, 1, t, nu)
        assert norm_H(v - exact) <= 1e-13 * norm_H(v0)


@pytest.mark.parametrize("kind", ["fourier_truncation", "volume_average"])
def test_reference_is_fourth_order(kind, rng, grid32):
    p, truth, v0 = nudged_problem(grid32, rng, kind)
    ends = [  # each to t = 0.4
        reference_galerkin_integrate(v0, p, truth, n, dt).fields[-1]
        for n, dt in ((20, 0.02), (40, 0.01), (160, 0.0025))
    ]
    errs = [norm_H(v - ends[-1]) for v in ends[:-1]]
    assert 14.0 <= errs[0] / errs[1] <= 18.5


def test_reference_agrees_with_euler_within_its_first_order_gap(rng, grid16):
    p, truth, v0 = nudged_problem(grid16, rng)
    t_end = 0.2
    ref = reference_galerkin_integrate(v0, p, truth, 80, 0.0025)
    euler = {
        tau: advance(v0, p, truth, tau, int(round(t_end / tau)), store_every=1)[1]
        for tau in (0.01, 0.005, 0.0025)
    }

    def sup_gap(traj, other):
        return max(norm_H(v - other.at(t)) for t, v in zip(traj.times, traj.fields))

    gaps = [sup_gap(euler[tau], ref) for tau in (0.01, 0.005)]
    # a first-order error is about twice the step-halving difference
    predicted = [2.0 * sup_gap(euler[tau], euler[tau / 2]) for tau in (0.01, 0.005)]
    for gap, bound in zip(gaps, predicted):
        assert gap <= 1.1 * bound
    assert 1.8 <= gaps[0] / gaps[1] <= 2.2


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=4, max_value=128).map(lambda m: 2 * m))
@example(96)
@example(256)
def test_solver_runs_at_every_grid_size(n):
    grid = TorusGrid(TWO_PI, n)
    rng = np.random.default_rng(n)
    co = GalerkinCutoff(4.0)  # inside the dealiased band from n = 8 on
    p = PhysicsParams(0.1, grid, kolmogorov_forcing(grid, 1, 0.5), 0.0, None, co)
    v0 = random_field(grid, rng, norm_v=1.0, cutoff=co)
    assert random_field(grid, rng).grid == grid
    stepped, _ = advance(v0, p, None, 0.01, 1, scheme=SEMI_IMPLICIT)
    implicit, _ = advance(v0, p, None, 0.01, 1, scheme=FULLY_IMPLICIT)
    traj = reference_galerkin_integrate(v0, p, None, 1, 0.01)
    assert norm_H(stepped - traj.fields[-1]) <= 1e-3 * norm_H(v0)
    for out in (stepped, implicit, traj.fields[-1]):
        # one finite amplitude per band mode: the outside-array checks pass
        SpectralField.from_coeffs(grid, out.coeffs)
        assert is_low_supported(out, co)
    # packing and unpacking are inverse index maps
    gal = schemes._Galerkin(p)
    x = gal._pack_field(stepped)
    assert np.array_equal(gal._pack_field(gal._field(x)), x)
    assert np.array_equal(gal._field(x).coeffs, stepped.coeffs)


def _poisoned(field):
    # NaN on the mode (0, 1), which every cutoff keeps
    c = np.array(field.coeffs)
    c[_band_packing(field.grid)._index_of((np.array([0]), np.array([1])))] = np.nan
    return SpectralField(field.grid, c)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_step_rejects_non_finite_state_as_solver_error(scheme, rng, grid16):
    p = free_params(grid16, 1.0)
    v = _poisoned(random_field(grid16, rng, norm_v=0.1, cutoff=p.cutoff))
    with pytest.raises(SolverError, match="non-finite") as raised:
        advance(v, p, None, 0.01, 1, scheme=scheme)
    # the error carries the last accepted iterate, here the initial one
    assert raised.value.step == 0 and raised.value.cutoff == p.cutoff
    assert raised.value.field.grid == grid16


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_step_with_a_zero_right_hand_side_returns_zero(scheme, rng, grid16):
    # b = 0 (zero state and forcing, no nudging) is solved exactly by
    # v = 0 in both schemes, whatever the guess
    p = free_params(grid16, 0.1)
    stepper = schemes._stepper(p, 0.01, scheme)
    guess = stepper._pack_field(random_field(grid16, rng, norm_v=1.0, cutoff=p.cutoff))
    x = np.zeros_like(guess)
    assert np.array_equal(stepper.step(x, 0, None, guess), x)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_step_of_a_state_below_the_square_underflow_is_not_zero(scheme, rng, grid16):
    # a state near 1e-200 gave a right-hand side whose norm read 0, and
    # the step returned exact zeros; at such amplitudes the step is the
    # linear one, so it scales with the state
    p = free_params(grid16, 0.1)
    stepper = schemes._stepper(p, 0.01, scheme)
    x = stepper._pack_field(random_field(grid16, rng, norm_v=1.0, cutoff=p.cutoff))
    tiny = stepper.step(1e-200 * x, 0, None)
    small = stepper.step(1e-100 * x, 0, None)
    assert np.any(tiny != 0.0)
    assert np.linalg.norm(1e100 * tiny - small) <= 1e-9 * np.linalg.norm(small)


def test_step_rejects_non_finite_observation_as_solver_error(rng, grid16):
    spec = InterpolantSpec("fourier_truncation", 0.5)
    p = PhysicsParams(
        1.0, grid16, SpectralField.zero(grid16), 2.0, spec, grid16.band_cutoff()
    )
    v = random_field(grid16, rng, norm_v=0.1, cutoff=p.cutoff)
    with pytest.raises(SolverError, match="non-finite"):
        advance(v, p, _steady(_poisoned(v)), 0.01, 1)


def test_reference_reports_blow_up_as_solver_error(rng, grid16):
    p = free_params(grid16, 0.01)
    v0 = random_field(grid16, rng, norm_v=1.0)
    with pytest.raises(SolverError, match="non-finite") as raised:
        reference_galerkin_integrate(_poisoned(v0), p, None, 1, 0.1)
    assert raised.value.step == 0 and raised.value.cutoff == p.cutoff
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite") as raised:
            reference_galerkin_integrate(v0 * 1e150, p, None, 10, 0.1)
    # the last accepted iterate is finite, the one before the blow-up
    assert raised.value.step == 0 and raised.value.cutoff == p.cutoff
    assert np.all(np.isfinite(raised.value.field.coeffs))


def test_integrators_march_through_one_advance_call(monkeypatch, rng, grid16):
    calls = []
    real_advance = schemes.advance

    def counted(*args, **kwargs):
        calls.append(kwargs.get("scheme", SEMI_IMPLICIT))
        return real_advance(*args, **kwargs)

    monkeypatch.setattr(schemes, "advance", counted)
    p, truth, v0 = nudged_problem(grid16, rng)
    reference_galerkin_integrate(v0, p, truth, 3, 0.01)
    assert calls == [schemes.ETDRK4]
    nse_integrate(v0, free_params(grid16, 1.0), 3, 0.01)
    assert calls == [schemes.ETDRK4, SEMI_IMPLICIT]


def test_reference_observes_the_stage_times_of_each_step(rng, grid16):
    # each step observes its start, midpoint and end: n steps make 3n
    # observations of the 2n + 1 distinct stage times
    p, truth, v0 = nudged_problem(grid16, rng)
    times = []
    real_observe = truth.observe

    def observe(gal, t):
        times.append(t)
        return real_observe(gal, t)

    truth.observe = observe
    reference_galerkin_integrate(v0, p, truth, 4, 0.01)
    assert len(times) == 3 * 4
    assert sorted(set(times)) == [0.01 * k / 2 for k in range(2 * 4 + 1)]


def _closed_form_etdrk4_weights(hl, h):
    """The Cox-Matthews weights as quotients over z^3 (Kassam & Trefethen
    2005), on the same contour: the reference where z^3 does not overflow."""
    r = np.exp(1j * np.pi * (np.arange(1, 33) - 0.5) / 32)
    z = hl[:, None] + r[None, :]
    ez, z3 = np.exp(z), z**3

    def mean(values):
        return h * np.mean(values, axis=1).real

    return (
        np.exp(hl),
        np.exp(hl / 2.0),
        mean((np.exp(z / 2.0) - 1.0) / z),
        mean((-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3),
        mean((2.0 + z + ez * (z - 2.0)) / z3),
        mean((-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3),
    )


def test_etdrk4_weights_match_the_closed_forms():
    hl = np.array([0.0, -1.0, -10.0, -1e3])
    for got, expected in zip(
        schemes._etdrk4_weights(hl, 0.01), _closed_form_etdrk4_weights(hl, 0.01)
    ):
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))


def test_etdrk4_weights_are_finite_and_at_their_limits_when_stiff():
    # as h L -> -inf, e^(hL) -> 0 and q, f1, f2, f3 -> h (-1/z, -1/z^2,
    # 1/z^2, -1/z); 1/z^2 underflows to 0 at -1e300
    hl, h = np.array([-1e103, -1e300]), 0.01
    w = 1.0 / hl
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        weights = schemes._etdrk4_weights(hl, h)
    limits = (0.0, 0.0, -h * w, -h * w * w, h * w * w, -h * w)
    for got, limit in zip(weights, limits):
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - limit) <= 1e-12 * np.abs(limit))


# ---------------------------------------------------------------------------
# the product-grid operators against the full-grid formulas


# (grid n, interpolant kind, h, lambda_cut or None for the full band, n_s)
PRODUCT_GRID_CASES = [
    (32, "fourier_truncation", 0.4, 60.0, 22),
    (32, "fourier_truncation", 0.4, None, 32),
    # 4 cells per side < 2K + 1 = 15: the observation couples low modes
    (32, "volume_average", TWO_PI / 4, 60.0, 22),
    # 16 cells per side >= 15: the observation is diagonal on the low modes
    (48, "volume_average", TWO_PI / 16, 60.0, 22),
    (48, "volume_average", TWO_PI / 16, None, 46),
]


def _case_params(n, kind, h, lam):
    grid = TorusGrid(TWO_PI, n)
    cutoff = grid.band_cutoff() if lam is None else GalerkinCutoff(lam)
    forcing = kolmogorov_forcing(grid, 2, 0.5)
    return PhysicsParams(0.1, grid, forcing, 8.0, InterpolantSpec(kind, h), cutoff)


def _grid_coeffs(f):
    """The (2, n, n) coefficient array of a field."""
    return _band_packing(f.grid)._unpack_grid(f.coeffs)


def _full_grid_nudging(p, w):
    """beta P_N P_sigma I_h w, evaluated with apply_ih on the params grid."""
    return p.beta * np.where(p.cutoff.mask_low(p.grid), apply_ih(p.interpolant, w), 0.0)


def _rel_gap(packed, gal, full, p):
    """Largest gap between a packed vector's field and full-grid coefficients
    on the low modes, relative to the largest coefficient."""
    mask = p.cutoff.mask_low(p.grid)
    got = _grid_coeffs(gal._field(packed))[:, mask]
    expected = full[:, mask]
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("n, kind, h, lam, n_s", PRODUCT_GRID_CASES)
def test_product_grid_operator_matches_full_grid_formula(n, kind, h, lam, n_s):
    p = _case_params(n, kind, h, lam)
    grid, tau = p.grid, 1.0  # every term of the operator of similar size
    rng = np.random.default_rng(n)
    v = random_field(grid, rng, norm_v=2.0, cutoff=p.cutoff)
    w = random_field(grid, rng, norm_v=1.0, cutoff=p.cutoff)
    stepper = schemes._stepper(p, tau, SEMI_IMPLICIT)
    assert stepper.sgrid.n == n_s

    w_packed = stepper._pack_field(w)
    got = stepper._apply_linear(
        w_packed, stepper._sample(stepper._pack_field(v)), stepper._sample(w_packed)
    )
    wc = _grid_coeffs(w)
    expected = (
        wc / tau + p.nu * grid.lambda1 * grid.shell * wc + _grid_coeffs(bilinear_B(v, w))
        + _full_grid_nudging(p, w)
    )
    assert _rel_gap(got, stepper, expected, p) <= 1e-13


@pytest.mark.parametrize("n, kind, h, lam, n_s", PRODUCT_GRID_CASES)
def test_newton_jacobian_is_exact(n, kind, h, lam, n_s):
    # F(x) = x/tau + nu A x + P_N B(x, x) + beta P_N P_sigma I_h x is
    # quadratic, so its central difference is exact: J(x) d is
    # (F(x + d) - F(x - d)) / 2 up to roundoff, the observation coupled
    # or not
    p = _case_params(n, kind, h, lam)
    stepper = schemes._stepper(p, 1.0, FULLY_IMPLICIT)  # terms of similar size
    rng = np.random.default_rng(n + 2)

    def packed(norm_v):
        return stepper._pack_field(random_field(p.grid, rng, norm_v=norm_v, cutoff=p.cutoff))

    def f(x):
        return stepper._apply_linear(x, stepper._sample(x))

    x, d = packed(2.0), packed(1.0)
    jd = stepper._jacobian(d, stepper._sample(x))
    central = 0.5 * (f(x + d) - f(x - d))
    assert np.linalg.norm(jd - central) <= 1e-12 * np.linalg.norm(jd)


# n = 24 products on n_s = 22 < n, under both interpolants, and the full
# n = 48 band on n_s = 46 = 3K + 1
ORACLE_CASES = [
    (24, "volume_average", TWO_PI / 8, None, 22),
    (24, "fourier_truncation", 0.4, None, 22),
    (48, "volume_average", TWO_PI / 16, None, 46),
]


@pytest.mark.parametrize("n, kind, h, lam, n_s", ORACLE_CASES)
def test_divergence_form_matches_the_direct_convolution(n, kind, h, lam, n_s):
    # each advective term of the solver, the frozen-field application
    # P_N B(u, w), the Jacobian pair P_N [B(u, w) + B(w, u)] and the
    # ETDRK4 explicit term's P_N B(u, u), read from the divergence of a
    # product tensor, against the convolution sum, mode by mode
    p = _case_params(n, kind, h, lam)
    rng = np.random.default_rng(n + 3)
    u, w = (random_field(p.grid, rng, norm_v=nv, cutoff=p.cutoff) for nv in (2.0, 1.0))
    stepper = schemes._stepper(p, 1.0, SEMI_IMPLICIT)
    assert stepper.sgrid.n == n_s
    x, d = stepper._pack_field(u), stepper._pack_field(w)

    def gap(got, *products):
        expected = sum(stepper._pack_field(bilinear_B_direct(a, b)) for a, b in products)
        return np.linalg.norm(got - expected) / np.linalg.norm(expected)

    linear = stepper._stokes_diag * d + stepper._obs_term(d)
    u_phys, w_phys = stepper._sample(np.stack((x, d)))
    assert gap(stepper._apply_linear(d, u_phys, w_phys) - linear, (u, w)) <= 1e-13
    assert gap(stepper._jacobian(d, u_phys) - linear, (u, w), (w, u)) <= 1e-13
    gal = schemes._Etdrk4(p, 1.0)
    explicit = gal._explicit(x, 0.0) - gal.f_low
    if gal._obs_pair is not None:
        explicit -= gal.obs_diag * x - gal._obs_term(x)
    assert gap(-explicit, (u, u)) <= 1e-13


def test_one_newton_solve_from_a_close_guess_meets_the_step_tolerance(monkeypatch):
    # a guess within about 1e-6 of the step's solution leaves a quadratic
    # remainder near 1e-12 after one solve, under the 1e-10 step tolerance
    rng = np.random.default_rng(11)
    p, truth, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    stepper = schemes._stepper(p, 0.01, FULLY_IMPLICIT)
    assert stepper._obs_pair is not None  # 8 cells per side < 2K + 1 = 9
    x0 = stepper._pack_field(v0)
    x1 = stepper.step(x0, 0, truth)
    noise = rng.standard_normal(x1.size) + 1j * rng.standard_normal(x1.size)
    guess = x1 + 1e-6 * np.linalg.norm(x1) / np.linalg.norm(noise) * noise
    counts = _count_gmres(monkeypatch)
    x = stepper.step(x0, 0, truth, guess)
    assert counts["solves"] == 1
    b = x0 / stepper.tau + stepper.f_low + stepper._observed(truth, stepper.tau)
    r = b - stepper._apply_linear(x, stepper._sample(x))
    assert np.linalg.norm(r) <= schemes.STEP_RESIDUAL_RTOL * np.linalg.norm(b)


@pytest.mark.parametrize("n, kind, h, lam, n_s", PRODUCT_GRID_CASES)
def test_reference_vector_field_matches_full_grid_formula(n, kind, h, lam, n_s):
    # the exact diagonal plus the explicit term is the whole Galerkin field
    # P_N f - nu A v - P_N B(v, v) - beta P_N P_sigma I_h (v - u)
    p = _case_params(n, kind, h, lam)
    grid = p.grid
    rng = np.random.default_rng(n + 1)
    v = random_field(grid, rng, norm_v=2.0, cutoff=p.cutoff)
    u = random_field(grid, rng, norm_v=2.0)
    gal = schemes._Etdrk4(p, 0.01)
    x = gal._pack_field(v)
    data = gal._observed(_steady(u), 0.0)
    got = -(p.nu * gal.k_squared + gal.obs_diag) * x + gal._explicit(x, data)

    expected = (
        _grid_coeffs(p.forcing) - _grid_coeffs(bilinear_B(v, v))
        - p.nu * grid.lambda1 * grid.shell * _grid_coeffs(v)
        - _full_grid_nudging(p, v)
        + _full_grid_nudging(p, u)
    )
    assert _rel_gap(got, gal, expected, p) <= 1e-13


def _solenoidal_unit(grid, a, b):
    """Complex unit vector (-j2, j1) / |j| at the single mode with index (a, b)."""
    j1, j2 = float(grid.j1[a, 0]), float(grid.j2[0, b])
    c = np.zeros((2, grid.n, grid.n), dtype=np.complex128)
    c[:, a, b] = np.array([-j2, j1]) / np.hypot(j1, j2)
    return c


def _full_grid_nudging_on_mode(p, e):
    """Complex-linear extension of beta P_N P_sigma I_h to one mode vector e.

    I_h only acts on real fields: with e = (phi_c - i phi_s) / 2 for the real
    fields phi_c = e + conj-mirror and phi_s = i e + conj-mirror, the
    extension is (M phi_c - i M phi_s) / 2.
    """
    band = _band_packing(p.grid)

    def real_field(c):
        # the mirror gather packs the real part, (c + conj-mirror) / 2
        return SpectralField(p.grid, band._pack_grid(2.0 * c))

    m_c = _full_grid_nudging(p, real_field(e))
    m_s = _full_grid_nudging(p, real_field(1j * e))
    return 0.5 * (m_c - 1j * m_s)


@pytest.mark.parametrize(
    "n, kind, h, lam, n_s", [c for c in PRODUCT_GRID_CASES if c[1] == "volume_average"]
)
def test_preconditioner_diagonal_is_exact(n, kind, h, lam, n_s):
    p = _case_params(n, kind, h, lam)
    grid = p.grid
    gal = schemes._Galerkin(p)
    mask = p.cutoff.mask_low(grid)
    diag = np.zeros((n, n))
    j1, j2 = gal.modes
    diag[j1 % n, j2 % n] = diag[-j1 % n, -j2 % n] = gal.obs_diag
    diagonal_case = grid.L / h >= 2 * math.isqrt(p.cutoff.shell_limit(grid)) + 1
    # the diagonal case applies no dense observation pair
    assert (gal._obs_pair is None) == diagonal_case
    worst_diag = worst_off = 0.0
    for a, b in zip(*np.nonzero(mask)):
        e = _solenoidal_unit(grid, a, b)
        image = _full_grid_nudging_on_mode(p, e)
        entry = np.vdot(e, image)  # e has unit norm
        worst_diag = max(worst_diag, abs(entry - diag[a, b]))
        off = image - diag[a, b] * e
        worst_off = max(worst_off, float(np.max(np.abs(off))))
    assert worst_diag <= 1e-13 * p.beta
    if diagonal_case:
        assert worst_off <= 1e-13 * p.beta
    else:
        assert worst_off > 1e-3 * p.beta


# ---------------------------------------------------------------------------
# entry points that layer tracing patches


def test_semi_implicit_step_applies_the_operator_once_per_check_and_iteration(
    monkeypatch,
):
    # the step checks its guess's residual once and its one solve builds
    # its final residual from the products it applied, so the step applies
    # the operator once plus once per GMRES iteration, and the new field is
    # built without validation
    rng = np.random.default_rng(11)
    p, moving, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    truth = _steady(moving.at(0.01))
    truth.observe(schemes._galerkin(p), 0.01)  # observed before counting
    counts = {"advect_raw": 0, "gmres_apply": 0, "from_coeffs": 0}
    real_advect, real_gmres = schemes.advect_raw, schemes.gmres
    real_from_coeffs = SpectralField.from_coeffs.__func__

    def advect(*args):
        counts["advect_raw"] += 1
        return real_advect(*args)

    def gmres(apply_op, b, **kwargs):
        def counted(w):
            counts["gmres_apply"] += 1
            return apply_op(w)

        return real_gmres(counted, b, **kwargs)

    def from_coeffs(cls, *args, **kwargs):
        counts["from_coeffs"] += 1
        return real_from_coeffs(cls, *args, **kwargs)

    monkeypatch.setattr(schemes, "advect_raw", advect)
    monkeypatch.setattr(schemes, "gmres", gmres)
    monkeypatch.setattr(SpectralField, "from_coeffs", classmethod(from_coeffs))
    advance(v0, p, truth, 0.01, 1)
    assert counts["gmres_apply"] > 0
    assert counts["advect_raw"] == counts["gmres_apply"] + 1
    assert counts["from_coeffs"] == 0


def _record_right_hand_sides(monkeypatch) -> list:
    """Wrap `_Stepper.step` to record each step's b = x_k/tau + P_N f + beta
    P_N P_sigma I_h u(t_(k+1)), computed as the step computes it."""
    rhs = []
    real_step = schemes._Stepper.step

    def step(self, x, k, truth, guess=None):
        rhs.append(x / self.tau + self.f_low + self._observed(truth, (k + 1) * self.tau))
        return real_step(self, x, k, truth, guess)

    monkeypatch.setattr(schemes._Stepper, "step", step)
    return rhs


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_solves_start_from_the_residual_just_computed(scheme, monkeypatch):
    # every advect_raw call is an operator application inside GMRES or the
    # residual check of an iterate, the guess first; each solve is for a
    # correction from zero with the residual just checked, r = b - G(x), as
    # its right-hand side, and builds its final residual from the products
    # it applied, so a step applies once per iteration plus once per
    # residual check.  The semi-implicit operator is linear: it checks only
    # its guess
    rng = np.random.default_rng(11)
    p, truth, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    rhs = _record_right_hand_sides(monkeypatch)
    counts = {"advect_raw": 0, "in_gmres": False}
    checks, solves = [], []
    real_advect, real_gmres = schemes.advect_raw, schemes.gmres
    real_apply = schemes._Stepper._apply_linear

    def advect(*args):
        counts["advect_raw"] += 1
        return real_advect(*args)

    def apply(self, *args):
        out = real_apply(self, *args)
        if not counts["in_gmres"]:
            checks.append(out)  # G(x) of the iterate checked
        return out

    def gmres(apply_op, b, **kwargs):
        solve = {
            "applies": 0,
            "no_start": "x0" not in kwargs and "r0" not in kwargs,
            "rhs_exact": np.array_equal(b, rhs[-1] - checks[-1]),
        }

        def counted(w):
            solve["applies"] += 1
            return apply_op(w)

        solves.append(solve)
        counts["in_gmres"] = True
        result = real_gmres(counted, b, **kwargs)
        counts["in_gmres"] = False
        solve["iterations"] = result.iterations
        return result

    monkeypatch.setattr(schemes, "gmres", gmres)
    monkeypatch.setattr(schemes, "advect_raw", advect)
    monkeypatch.setattr(schemes._Stepper, "_apply_linear", apply)
    n_steps = 3
    advance(v0, p, truth, 0.01, n_steps, scheme=scheme)
    if scheme == FULLY_IMPLICIT:
        assert len(solves) >= n_steps
        assert len(checks) == len(solves) + n_steps
    else:
        assert 0 < len(solves) <= n_steps == len(checks)
    applies = sum(s["applies"] for s in solves)
    assert counts["advect_raw"] == applies + len(checks)
    for solve in solves:
        assert solve["no_start"] and solve["rhs_exact"]
        assert solve["applies"] == solve["iterations"]


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_step_at_a_fixed_point_makes_one_apply(scheme, monkeypatch, grid32):
    # the guess v^0 = u* meets the step tolerance, so the step checks its
    # residual once and accepts it without a solve
    nu = 1.0
    u_star = kolmogorov_steady_state(grid32, 1, 1.0, nu)
    spec = InterpolantSpec("fourier_truncation", 0.25)
    p = PhysicsParams(
        nu, grid32, kolmogorov_forcing(grid32, 1, 1.0), 10.0, spec,
        grid32.band_cutoff(),
    )
    counts = {"advect_raw": 0, "gmres": 0}
    real_advect, real_gmres = schemes.advect_raw, schemes.gmres

    def advect(*args):
        counts["advect_raw"] += 1
        return real_advect(*args)

    def gmres(*args, **kwargs):
        counts["gmres"] += 1
        return real_gmres(*args, **kwargs)

    monkeypatch.setattr(schemes, "advect_raw", advect)
    monkeypatch.setattr(schemes, "gmres", gmres)
    v1, _ = advance(u_star, p, _steady(u_star), 0.01, 1, scheme=scheme)
    assert counts == {"advect_raw": 1, "gmres": 0}
    gal = schemes._galerkin(p)
    assert np.array_equal(gal._pack_field(v1), gal._pack_field(u_star))


def test_newton_stall_reports_the_residual_of_its_last_solve(monkeypatch):
    # the volume-average problem takes two Newton solves in its first step,
    # so with one solve allowed that step stalls; the solve's iterate is
    # checked before the step raises, and its residual ends the trace
    rng = np.random.default_rng(11)
    p, truth, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    rhs = _record_right_hand_sides(monkeypatch)
    solved, checked = [], []
    real_solve = schemes._Stepper._solve
    real_apply = schemes._Stepper._apply_linear

    solving = [False]

    def solve(self, *args, **kwargs):
        solving[0] = True  # Jacobian applications are not checks
        solved.append(real_solve(self, *args, **kwargs))
        solving[0] = False
        return solved[-1]

    def apply(self, vec, *args):
        out = real_apply(self, vec, *args)
        if not solving[0]:
            checked.append((vec, out))
        return out

    monkeypatch.setattr(schemes, "NEWTON_MAX_OUTER", 1)
    monkeypatch.setattr(schemes._Stepper, "_solve", solve)
    monkeypatch.setattr(schemes._Stepper, "_apply_linear", apply)
    with pytest.raises(SolverError, match="Newton iteration did not reach") as info:
        advance(v0, p, truth, 0.01, 1, scheme=FULLY_IMPLICIT)
    assert info.value.step == 0
    assert len(solved) == 1 and len(checked) == 2
    (guess, _), (x, fx) = checked
    assert np.array_equal(x, guess + solved[0])
    b = rhs[-1]
    trace = re.findall(r"'([^']*)'", str(info.value))
    assert trace[-1] == "%.3e" % (np.linalg.norm(b - fx) / np.linalg.norm(b))


def _count_gmres(monkeypatch) -> dict:
    counts = {"solves": 0, "iterations": 0}
    real_gmres = schemes.gmres

    def gmres(apply_op, b, **kwargs):
        result = real_gmres(apply_op, b, **kwargs)
        counts["solves"] += 1
        counts["iterations"] += result.iterations
        return result

    monkeypatch.setattr(schemes, "gmres", gmres)
    return counts


@pytest.mark.parametrize("scheme, per_step", [(SEMI_IMPLICIT, 4.0), (FULLY_IMPLICIT, 5.0)])
def test_predictor_keeps_a_nudged_march_under_its_iteration_count(
    scheme, per_step, monkeypatch
):
    # 3.65 (semi) and 4.45 (fully implicit, 1.1 Newton solves) iterations
    # per step with the cubic predictor, 5.05 and 7.15 (2.0 solves) with
    # first-order extrapolation
    p, truth, v0 = nudged_problem(
        TorusGrid(TWO_PI, 24), np.random.default_rng(5), "volume_average"
    )
    counts = _count_gmres(monkeypatch)
    n_steps = 20
    advance(v0, p, truth, 0.01, n_steps, scheme=scheme)
    assert counts["iterations"] <= per_step * n_steps


def test_work_budget_of_a_nudged_march(monkeypatch):
    # a ratchet: a change that lowers a count lowers its bound here.  The
    # fully implicit march makes 22 Newton solves in 20 steps.  Every
    # operator application synthesizes velocities only and analyses their
    # products, one `_Packing._sample` and one `_Packing._project` each: a
    # residual check, a Jacobian application or an ETDRK4 evaluation takes
    # 2 fields in and 2 products out, a semi-implicit application 2 and 3,
    # and a semi-implicit step's first check synthesizes x_k and its guess
    # together, 4 fields
    calls = {"_sample": 0, "_project": 0, "advect_raw": 0}
    fields = {"_sample": 0, "_project": 0}

    def count(owner, name, fields_of):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name in fields:
                fields[name] += fields_of(args[-1])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def work():
        n = calls["advect_raw"]
        assert calls == {"_sample": n, "_project": n, "advect_raw": n}
        out = (n, fields["_sample"], fields["_project"])
        calls.update(_sample=0, _project=0, advect_raw=0)
        fields.update(_sample=0, _project=0)
        return out

    # a packed vector (size,) is 2 velocity fields, a stack (2, size) 4
    count(_Packing, "_sample", lambda vec: 2 * math.prod(vec.shape[:-1]))
    count(_Packing, "_project", len)
    count(schemes, "advect_raw", None)
    counts = _count_gmres(monkeypatch)
    p, truth, v0 = nudged_problem(
        TorusGrid(TWO_PI, 24), np.random.default_rng(5), "volume_average"
    )
    n_steps = 20
    advance(v0, p, truth, 0.01, n_steps, scheme=FULLY_IMPLICIT)
    assert 10 * counts["solves"] <= 11 * n_steps
    n, inward, outward = work()
    assert n > 0 and inward == outward == 2 * n
    advance(v0, p, truth, 0.01, n_steps, scheme=SEMI_IMPLICIT)
    n, inward, outward = work()
    assert n > 0 and (inward, outward) == (2 * n + 2 * n_steps, 3 * n)
    reference_galerkin_integrate(v0, p, truth, 5, 0.01)
    assert work() == (20, 40, 40)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_predictor_does_not_extrapolate_a_steady_states_roundoff(scheme, monkeypatch):
    # criterion 04's soak config (tests/test_acceptance.py): after a transient
    # of about 50 steps the march sits at the steady state, where an
    # untruncated cubic extrapolation of roundoff costs a semi-implicit march
    # 0.54 iterations per step; the truncated one takes 0.046 (semi) and
    # 0.054 (fully implicit)
    amp = 0.1 * math.sqrt(2.0) / (2.0 * math.pi)
    cfg = default_config(
        nu=0.1, grid_n=32, forcing="kolmogorov", forcing_kappa=2,
        forcing_amplitude=amp, beta=50.0, h=1.0 / math.sqrt(556.0),
        lambda_cut=60.0, scheme=scheme, tau=0.01, t_end=1.0, burn_in=0.0,
        truth="analytic:kolmogorov", ic="random_bv", ic_amplitude=1.0,
    )
    setup = experiments._setup(cfg, horizon=(10.0, "t_end"))
    truth, v0 = experiments._start(setup)
    counts = _count_gmres(monkeypatch)
    n_steps = 1000
    advance(v0, setup.params, truth, 0.01, n_steps, scheme=scheme)
    assert counts["iterations"] <= 0.08 * n_steps


def test_layer_entry_points_are_called_once_per_operator_application(monkeypatch):
    for name in ("gmres", "advect_raw", "to_physical", "apply_ih", "advance"):
        assert name in vars(schemes), name
    for name in (
        "advance", "nse_integrate", "reference_galerkin_integrate", "build_truth",
        "estimate_c0", "atomic_write_text", "norm_H", "norm_V", "norm_DA",
        "bound_constants", "check_conditions", "contraction_envelope",
        "convergence_order", "decay_rate_fit", "gronwall_envelope",
        "stability_bound_h2", "stability_bound_v2",
    ):
        assert name in vars(experiments), name
    # class members the tracer patches or reads
    assert "from_coeffs" in vars(SpectralField)
    assert "mode_count" in vars(GalerkinCutoff)
    for name in ("at", "fields"):
        assert name in vars(Trajectory), name
    for name in ("exact_queries", "interpolated_queries"):
        assert name in vars(Trajectory(None)), name
    counts = {"advect_raw": 0, "apply": 0}
    real_advect = schemes.advect_raw
    real_apply = schemes._Stepper._apply_linear
    real_explicit = schemes._Etdrk4._explicit

    def advect(*args):
        counts["advect_raw"] += 1
        return real_advect(*args)

    def apply(self, *args):
        counts["apply"] += 1
        return real_apply(self, *args)

    def explicit(self, *args):
        counts["apply"] += 1
        return real_explicit(self, *args)

    monkeypatch.setattr(schemes, "advect_raw", advect)
    monkeypatch.setattr(schemes._Stepper, "_apply_linear", apply)
    monkeypatch.setattr(schemes._Etdrk4, "_explicit", explicit)
    rng = np.random.default_rng(5)
    p, obs, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    for run in (
        lambda: advance(v0, p, obs, 0.01, 1, scheme=SEMI_IMPLICIT),
        lambda: advance(v0, p, obs, 0.01, 1, scheme=FULLY_IMPLICIT),
        lambda: reference_galerkin_integrate(v0, p, obs, 1, 0.01),
    ):
        counts.update(advect_raw=0, apply=0)
        out = run()
        assert counts["advect_raw"] == counts["apply"] > 0
    assert counts["apply"] == 4  # one ETDRK4 step has four stages
    # the tracer's storage.Trajectory.bytes_held sums these over the fields
    # of the trajectories it keeps: one band amplitude vector per frame
    assert [f.coeffs.nbytes for f in out.fields] == [16 * _band_packing(p.grid).size] * 2


# ---------------------------------------------------------------------------
# the packed state: Parseval norms, packed observations, lazy fields


def _packings(n):
    """A full-band (truth) and a truncated (assimilation) packing at grid n."""
    grid = TorusGrid(TWO_PI, n)
    forcing = kolmogorov_forcing(grid, 1, 0.1)
    lam = min(60.0, 0.5 * grid.band_limit**2)
    truncated = PhysicsParams(
        0.1, grid, forcing, 5.0, InterpolantSpec("fourier_truncation", 0.5),
        GalerkinCutoff(lam),
    )
    return {
        "truth": schemes._Galerkin(free_params(grid, 0.1, forcing)),
        "assimilation": schemes._Galerkin(truncated),
    }


@pytest.mark.parametrize("n", [16, 32, 48, 96])
@pytest.mark.parametrize("which", ["truth", "assimilation"])
def test_packed_norms_equal_full_grid_norms(n, which):
    gal = _packings(n)[which]
    rng = np.random.default_rng(n)
    f = random_field(gal.grid, rng, norm_v=3.0, cutoff=gal.p.cutoff)
    x = gal._pack_field(f)
    built = gal._field(x)
    full = [norm_H(built), norm_V(built), norm_DA(built)]
    packed = gal.norms(x)
    assert all(abs(a - b) <= 1e-13 * b for a, b in zip(packed, full)), (packed, full)


# (grid n, interpolant kind, h): Fourier truncation; volume averages with
# L/h >= 2K + 1 (diagonal on the low modes); L/h < 2K + 1 (coupling them)
OBSERVATION_CASES = [
    (32, "fourier_truncation", 0.4),
    (48, "volume_average", TWO_PI / 16),
    (32, "volume_average", TWO_PI / 4),
]


def _truths(grid, rng):
    """A steady, an analytic and a stored truth on grid, and Taylor-Green at
    kappa = band_limit, whose shell 2 kappa^2 lies outside the ball
    `band_cutoff()` but inside the dealiased square band."""
    forcing = kolmogorov_forcing(grid, 2, 0.5)
    u = random_field(grid, rng, norm_v=2.0)
    w = random_field(grid, rng, norm_v=2.0)
    traj = nse_integrate(u, free_params(grid, 0.1, forcing), 6, 0.01, store_every=2)
    kappa = grid.band_limit
    return {
        "steady": _steady(u),
        "analytic": rotating(u, w),
        "stored": traj,
        "taylor_green": Trajectory(
            _band_packing(grid), [taylor_green(grid, kappa, 0.0, 0.1).coeffs],
            lambda t: (0, [_taylor_green_decay(grid, kappa, t, 0.1)]),
        ),
    }


def _observation_gap(truth, gal, t):
    """|truth.observe - P_N P_sigma I_h u(t)| relative to the largest entry
    (absolute where u(t) is not observed at all)."""
    expected = gal._pack_grid(apply_ih(gal.p.interpolant, truth.at(t)))
    scale = np.max(np.abs(expected)) or 1.0
    return np.max(np.abs(truth.observe(gal, t) - expected)) / scale


def _split_error_norms(truth, gal, x, t):
    """Oracle for |v - u(t)|: |v - P_N u|^2 + |(I - P_N) u|^2 in each norm,
    the tail taken from the field u(t) on the full grid."""
    u = truth.at(t)
    q = project_high(u, gal.p.cutoff)
    tail = np.array([norm_H(q), norm_V(q), norm_DA(q)])
    return np.hypot(gal.norms(x - gal._pack_field(u)), tail)


@pytest.mark.parametrize("n, kind, h", OBSERVATION_CASES)
@pytest.mark.parametrize("which", ["steady", "analytic", "stored", "taylor_green"])
def test_truth_observes_under_the_params_interpolant(which, n, kind, h):
    # every truth observes its packed amplitudes through one map; a stored
    # truth maps its frames once and interpolates them in time
    grid = TorusGrid(TWO_PI, n)
    rng = np.random.default_rng(n + 3)
    truth = _truths(grid, rng)[which]
    p = _case_params(n, kind, h, 60.0)
    gal = schemes._Galerkin(p)
    # truncation keeps the packed amplitudes exactly
    exact = kind == "fourier_truncation" and which != "stored"
    x = gal._pack_field(random_field(grid, rng, norm_v=1.0, cutoff=p.cutoff))
    times = (0.0, 0.02, 0.06, 0.005, 0.031, 0.0555)
    # one call over all times: row m is the error of x at times[m]
    errors = truth.errors(gal, times, np.array([x] * len(times)))
    for t, got in zip(times, errors):
        assert _observation_gap(truth, gal, t) <= 1e-13
        if exact:
            kept = gal._pack_field(project_low(truth.at(t), p.interpolant.cutoff()))
            assert np.array_equal(truth.observe(gal, t), kept)
        expected = _split_error_norms(truth, gal, x, t)
        assert np.max(np.abs(got - expected) / expected) <= 1e-13
    if which == "stored":
        assert truth.interpolated_queries > 0 and truth.exact_queries > 0


@pytest.mark.parametrize(
    "n, kind, h, lam",
    [case + (60.0,) for case in OBSERVATION_CASES] + [(24, "volume_average", TWO_PI / 8, 20.0)],
)
def test_observation_map_matches_apply_ih(n, kind, h, lam):
    # the one builder of P_N P_sigma I_h, from a random vector packed on the
    # whole dealiased square band (corners outside the ball included)
    grid = TorusGrid(TWO_PI, n)
    rng = np.random.default_rng(n)
    p = _case_params(n, kind, h, lam)
    gal = schemes._Galerkin(p)
    band = _band_packing(grid)
    a = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
    expected = gal._pack_grid(apply_ih(p.interpolant, band._field(a)))
    got = schemes._map(observation_map(p.interpolant, grid, gal.modes, band.modes), a)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    # on the solver's own modes: e_k . e_k is exactly 1, and the map is
    # diagonal wherever the solver applies no dense pair
    m, c = observation_map(p.interpolant, grid, gal.modes, gal.modes)
    if kind == "fourier_truncation":
        j1, j2 = gal.modes
        observed = j1 * j1 + j2 * j2 <= p.interpolant.cutoff().shell_limit(grid)
        assert np.array_equal(m.diagonal(), observed.astype(float))
    if gal._obs_pair is None:
        assert not np.any(c) and np.array_equal(m, np.diag(m.diagonal()))


@pytest.mark.parametrize("n", [16, 24, 48, 96])
@pytest.mark.parametrize("lam", [2.0, 20.0])
def test_dense_observation_pair_exactly_below_2k_plus_1_cells(n, lam):
    # the coupled pair is read off the map's own zeros: a volume average
    # couples the low modes exactly when L/h < 2K + 1, Fourier truncation never
    k = math.isqrt(GalerkinCutoff(lam).shell_limit(TorusGrid(TWO_PI, n)))
    for m in [d for d in range(1, n + 1) if n % d == 0]:
        gal = schemes._Galerkin(_case_params(n, "volume_average", TWO_PI / m, lam))
        assert (gal._obs_pair is not None) == (m < 2 * k + 1), m
    assert schemes._Galerkin(_case_params(n, "fourier_truncation", 0.5, lam))._obs_pair is None


def test_twin_bench_assimilation_takes_the_diagonal_observation_path():
    # L/h = 16 cells against 2K + 1 = 15 at lambda_cut = 60: the benchmark
    # times the diagonal beta-term
    cfg = load_config(str(Path(__file__).parents[1] / "bench/configs/twin_volume_nse.cfg"))
    params = experiments._setup(cfg).params
    assert params.interpolant.blocks(params.grid) == 16
    assert schemes._stepper(params, cfg.tau, cfg.scheme)._obs_pair is None


@pytest.mark.parametrize("which", ["steady", "stored"])
def test_one_truth_observed_under_two_interpolants(which):
    # the per-packing caches are keyed on the interpolant too: two params
    # that differ only there observe one truth differently
    n = 32
    truth = _truths(TorusGrid(TWO_PI, n), np.random.default_rng(7))[which]
    coarse = schemes._Galerkin(_case_params(n, "volume_average", TWO_PI / 4, 60.0))
    fine = schemes._Galerkin(_case_params(n, "volume_average", TWO_PI / 16, 60.0))
    assert coarse.modes[0].tolist() == fine.modes[0].tolist()
    for gal in (coarse, fine, coarse):
        assert _observation_gap(truth, gal, 0.031) <= 1e-13
    assert np.max(np.abs(truth.observe(coarse, 0.031) - truth.observe(fine, 0.031))) > 1e-3


def test_twin_steps_make_no_apply_ih_or_field_call(monkeypatch):
    grid = TorusGrid(TWO_PI, 48)
    rng = np.random.default_rng(2)
    forcing = kolmogorov_forcing(grid, 1, 0.05)
    u0 = random_field(grid, rng, norm_v=1.0)
    truth = nse_integrate(u0, free_params(grid, 0.1, forcing), 10, 0.01, store_every=4)
    spec = InterpolantSpec("volume_average", TWO_PI / 16)
    p = PhysicsParams(0.1, grid, forcing, 8.0, spec, GalerkinCutoff(60.0))
    v0 = random_field(grid, rng, norm_v=1.0, cutoff=p.cutoff)
    counts = {"apply_ih": 0, "_field": 0}
    real_apply_ih, real_field = schemes.apply_ih, schemes._Packing._field

    def apply_ih_counted(*args):
        counts["apply_ih"] += 1
        return real_apply_ih(*args)

    def field_counted(self, vec):
        counts["_field"] += 1
        return real_field(self, vec)

    real_step = schemes._Stepper.step
    seen = []

    def step_counted(self, x, k, *args):
        out = real_step(self, x, k, *args)
        seen.append((k + 1, dict(counts)))
        return out

    monkeypatch.setattr(schemes, "apply_ih", apply_ih_counted)
    monkeypatch.setattr(schemes._Packing, "_field", field_counted)
    monkeypatch.setattr(schemes._Stepper, "step", step_counted)
    # counted from the first lookup on, which observes every stored frame;
    # the steps build no field, and advance builds one, for v^n
    advance(v0, p, truth, 0.02, 5, scheme=FULLY_IMPLICIT)
    assert seen == [(k, {"apply_ih": 0, "_field": 0}) for k in range(1, 6)]
    assert counts == {"apply_ih": 0, "_field": 1}
    assert truth.interpolated_queries > 0  # t = 0.02, 0.06, ... lie between frames
