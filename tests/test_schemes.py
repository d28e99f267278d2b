"""Implicit Euler steppers and the ETDRK4 reference flow: fixed points,
exact recursions, order, guards."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nudgeflow import schemes
from nudgeflow.fields import (
    GalerkinCutoff,
    SpectralField,
    TorusGrid,
    _conj_flip,
    inner_product,
    is_low_supported,
    norm_DA,
    norm_H,
    norm_V,
    random_field,
)
from nudgeflow.interpolants import InterpolantSpec, apply_ih
from nudgeflow.krylov import SolverError
from nudgeflow.operators import (
    bilinear_B,
    kolmogorov_forcing,
    kolmogorov_steady_state,
    taylor_green,
)
from nudgeflow.schemes import (
    FULLY_IMPLICIT,
    SEMI_IMPLICIT,
    ObservationStream,
    PhysicsParams,
    SchemeState,
    advance,
    fully_implicit_step,
    nse_integrate,
    reference_galerkin_integrate,
    semi_implicit_step,
)
from nudgeflow.storage import Trajectory

TWO_PI = 2.0 * np.pi


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


def test_state_validation(rng, grid16):
    v = random_field(grid16, rng)
    s = SchemeState(3, 0.25, v)
    assert s.t == pytest.approx(0.75)
    with pytest.raises(ValueError):
        SchemeState(0, 0.0, v)
    with pytest.raises(ValueError):
        SchemeState(-1, 0.1, v)


def test_step_rejects_energy_outside_cutoff(rng, grid32):
    co = GalerkinCutoff(4.0)
    truncated = PhysicsParams(
        1.0, grid32, SpectralField.zero(grid32), 0.0, None, co
    )
    v = random_field(grid32, rng)  # full band support
    with pytest.raises(ValueError, match="outside the Galerkin cutoff"):
        semi_implicit_step(SchemeState(0, 0.01, v), truncated, None)
    # advance projects the initial state instead of raising
    state, _ = advance(v, truncated, None, 0.01, 1)
    assert is_low_supported(state.v, co)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_steady_state_is_fixed_point_free_run(scheme, grid32):
    nu = 1.0
    u_star = kolmogorov_steady_state(grid32, 1, 1.0, nu)
    p = free_params(grid32, nu, kolmogorov_forcing(grid32, 1, 1.0))
    drift = []
    advance(
        u_star, p, None, 0.01, 50, scheme=scheme,
        on_step=lambda prev, new: drift.append(norm_H(new.v - u_star)),
    )
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
    obs = ObservationStream.steady(u_star, spec)
    drift = []
    advance(
        u_star, p, obs, 0.01, 50, scheme=scheme,
        on_step=lambda prev, new: drift.append(norm_H(new.v - u_star)),
    )
    assert max(drift) <= 50 * 1e-9 * norm_H(u_star)


@pytest.mark.parametrize("scheme", [SEMI_IMPLICIT, FULLY_IMPLICIT])
def test_taylor_green_exact_per_mode_recursion(scheme, grid32):
    # the vortex keeps its shape, so each step multiplies the pair of
    # active shells by exactly 1 / (1 + 2 nu tau)
    nu, tau, m = 0.5, 0.02, 20
    p = free_params(grid32, nu)
    v0 = taylor_green(grid32, 1, 0.0, nu)
    collected = []
    advance(
        v0, p, None, tau, m, scheme=scheme,
        on_step=lambda prev, new: collected.append(new),
    )
    rho = 1.0 / (1.0 + 2.0 * nu * tau)
    for state in (collected[0], collected[-1]):
        expected = v0 * rho**state.k
        assert norm_H(state.v - expected) <= 1e-9 * norm_H(v0)


def test_taylor_green_first_order_in_tau(grid32):
    nu, t_end = 0.1, 0.2
    p = free_params(grid32, nu)
    v0 = taylor_green(grid32, 1, 0.0, nu)
    exact = taylor_green(grid32, 1, t_end, nu)
    errs = []
    for tau in (0.02, 0.01):
        state, _ = advance(v0, p, None, tau, int(round(t_end / tau)))
        errs.append(norm_H(state.v - exact))
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
        s = semi_implicit_step(SchemeState(0, tau, v0), p, None)
        f = fully_implicit_step(SchemeState(0, tau, v0), p, None)
        diffs.append(norm_H(s.v - f.v))
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

    def check(prev, new):
        lhs = (
            norm_H(new.v) ** 2
            - norm_H(prev.v) ** 2
            + norm_H(new.v - prev.v) ** 2
            + 2.0 * tau * nu * norm_V(new.v) ** 2
        )
        rhs = 2.0 * tau * inner_product(f, new.v)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, norm_H(prev.v) ** 2)

    advance(v0, p, None, tau, 5, on_step=check)


def test_advance_trajectory_cadence(rng, grid16):
    p = free_params(grid16, 1.0)
    v0 = random_field(grid16, rng, norm_v=0.1)
    state, traj = advance(v0, p, None, 0.01, 7, store_every=3)
    assert state.k == 7
    assert traj is not None
    assert traj.steps == [0, 3, 6, 7]
    assert np.allclose(traj.times, [0.0, 0.03, 0.06, 0.07])
    assert norm_H(traj.fields[-1] - state.v) == 0.0
    with pytest.raises(ValueError, match="store_every"):
        advance(v0, p, None, 0.01, 3, store_every=0)
    with pytest.raises(ValueError, match="scheme"):
        advance(v0, p, None, 0.01, 1, scheme="leapfrog")


@pytest.mark.parametrize(
    "scheme, step_fn",
    [(SEMI_IMPLICIT, semi_implicit_step), (FULLY_IMPLICIT, fully_implicit_step)],
)
def test_advance_agrees_with_single_steps(scheme, step_fn, rng):
    # advance starts each solve from the extrapolated guess, the single-step
    # functions from v^k; both iterates meet the 1e-10 step tolerance
    p, obs, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    marched = []
    advance(v0, p, obs, 0.01, 20, scheme=scheme,
            on_step=lambda prev, new: marched.append(new.v))
    state = SchemeState(0, 0.01, v0)
    for v in marched:
        state = step_fn(state, p, obs)
        assert norm_H(v - state.v) <= 1e-9 * norm_H(state.v)


def test_observation_streams(rng, grid16):
    spec = InterpolantSpec("fourier_truncation", 0.5)
    u = random_field(grid16, rng, norm_v=1.0)
    steady = ObservationStream.steady(u, spec)
    assert norm_H(steady(0.0) - steady(5.0)) == 0.0
    seen = []

    def truth(t):
        seen.append(t)
        return u * (1.0 + t)

    stream = ObservationStream.from_truth_fn(truth, spec)
    got = stream(0.5)
    assert seen == [0.5]
    assert norm_H(got - steady(0.0) * 1.5) <= 1e-12 * norm_H(u)


def test_nse_integrate_guards(rng, grid16):
    spec = InterpolantSpec("fourier_truncation", 0.5)
    nudged = PhysicsParams(
        1.0, grid16, SpectralField.zero(grid16), 2.0, spec, grid16.band_cutoff()
    )
    u0 = random_field(grid16, rng, norm_v=0.1)
    with pytest.raises(ValueError, match="beta = 0"):
        nse_integrate(u0, nudged, 0.1, 0.01)
    truncated = PhysicsParams(
        1.0, grid16, SpectralField.zero(grid16), 0.0, None, GalerkinCutoff(4.0)
    )
    with pytest.raises(ValueError, match="band"):
        nse_integrate(u0, truncated, 0.1, 0.01)
    p = free_params(grid16, 1.0)
    traj = nse_integrate(u0, p, 0.05, 0.01)
    assert len(traj) == 6
    assert traj.t_end == pytest.approx(0.05)


def test_integrator_requires_commensurate_times(rng, grid16):
    p = free_params(grid16, 1.0)
    v0 = random_field(grid16, rng, norm_v=0.1)
    with pytest.raises(ValueError, match="integer multiple"):
        reference_galerkin_integrate(v0, p, None, 0.05, 0.015)


def nudged_problem(grid, rng, kind="fourier_truncation"):
    """Nonlinear nudged Galerkin problem observing a moving field."""
    co = GalerkinCutoff(20.0)
    h = 0.4 if kind == "fourier_truncation" else TWO_PI / 8
    spec = InterpolantSpec(kind, h)
    p = PhysicsParams(0.1, grid, kolmogorov_forcing(grid, 2, 0.5), 10.0, spec, co)
    u = random_field(grid, rng, norm_v=2.0, cutoff=co)
    w = random_field(grid, rng, norm_v=2.0, cutoff=co)
    obs = ObservationStream.from_truth_fn(
        lambda t: u * np.cos(3.0 * t) + w * np.sin(3.0 * t), spec
    )
    v0 = random_field(grid, rng, norm_v=3.0, cutoff=co)
    return p, obs, v0


def test_reference_reproduces_taylor_green_to_roundoff(grid32):
    # P_N B(v, v) vanishes on the vortex, so the exponential step is exact
    nu = 0.5
    p = free_params(grid32, nu)
    v0 = taylor_green(grid32, 1, 0.0, nu)
    traj = reference_galerkin_integrate(v0, p, None, 0.2, 0.02)
    assert traj.steps == list(range(11))
    for t, v in zip(traj.times, traj.fields):
        exact = taylor_green(grid32, 1, t, nu)
        assert norm_H(v - exact) <= 1e-13 * norm_H(v0)


@pytest.mark.parametrize("kind", ["fourier_truncation", "volume_average"])
def test_reference_is_fourth_order(kind, rng, grid32):
    p, obs, v0 = nudged_problem(grid32, rng, kind)
    t_end = 0.4
    ends = [
        reference_galerkin_integrate(v0, p, obs, t_end, dt).fields[-1]
        for dt in (0.02, 0.01, 0.0025)
    ]
    errs = [norm_H(v - ends[-1]) for v in ends[:-1]]
    assert 14.0 <= errs[0] / errs[1] <= 18.5


def test_reference_agrees_with_euler_within_its_first_order_gap(rng, grid16):
    p, obs, v0 = nudged_problem(grid16, rng)
    t_end = 0.2
    ref = reference_galerkin_integrate(v0, p, obs, t_end, 0.0025)
    euler = {
        tau: advance(v0, p, obs, tau, int(round(t_end / tau)), store_every=1)[1]
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
    stepped = semi_implicit_step(SchemeState(0, 0.01, v0), p, None)
    implicit = fully_implicit_step(SchemeState(0, 0.01, v0), p, None)
    traj = reference_galerkin_integrate(v0, p, None, 0.01, 0.01)
    assert norm_H(stepped.v - traj.fields[-1]) <= 1e-3 * norm_H(v0)
    for out in (stepped.v, implicit.v, traj.fields[-1]):
        # real and divergence-free by construction: full validation passes
        SpectralField.from_coeffs(grid, out.coeffs)
        assert is_low_supported(out, co)
    # packing and unpacking are inverse up to the rounding of e_k
    gal = schemes._Galerkin(p)
    x = gal._pack_field(stepped.v)
    eps = 4 * np.finfo(float).eps
    assert np.max(np.abs(gal._pack_field(gal._field(x)) - x)) <= eps * np.max(np.abs(x))
    gap = np.max(np.abs(gal._field(x).coeffs - stepped.v.coeffs))
    assert gap <= eps * np.max(np.abs(stepped.v.coeffs))


def _poisoned(field):
    c = np.array(field.coeffs)
    c[0, 0, 1] = np.nan
    return SpectralField._trusted(field.grid, c)


@pytest.mark.parametrize("step_fn", [semi_implicit_step, fully_implicit_step])
def test_step_rejects_non_finite_state_as_solver_error(step_fn, rng, grid16):
    p = free_params(grid16, 1.0)
    v = _poisoned(random_field(grid16, rng, norm_v=0.1, cutoff=p.cutoff))
    with pytest.raises(SolverError, match="non-finite"):
        step_fn(SchemeState(0, 0.01, v), p, None)


def test_step_rejects_non_finite_observation_as_solver_error(rng, grid16):
    spec = InterpolantSpec("fourier_truncation", 0.5)
    p = PhysicsParams(
        1.0, grid16, SpectralField.zero(grid16), 2.0, spec, grid16.band_cutoff()
    )
    v = random_field(grid16, rng, norm_v=0.1, cutoff=p.cutoff)
    obs = ObservationStream(lambda t: _poisoned(v))
    with pytest.raises(SolverError, match="non-finite"):
        semi_implicit_step(SchemeState(0, 0.01, v), p, obs)


def test_reference_reports_blow_up_as_solver_error(rng, grid16):
    p = free_params(grid16, 0.01)
    v0 = random_field(grid16, rng, norm_v=1.0)
    with pytest.raises(SolverError, match="non-finite"):
        reference_galerkin_integrate(_poisoned(v0), p, None, 0.1, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite"):
            reference_galerkin_integrate(v0 * 1e150, p, None, 1.0, 0.1)


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
    (48, "volume_average", TWO_PI / 16, None, 48),
]


def _case_params(n, kind, h, lam):
    grid = TorusGrid(TWO_PI, n)
    cutoff = grid.band_cutoff() if lam is None else GalerkinCutoff(lam)
    forcing = kolmogorov_forcing(grid, 2, 0.5)
    return PhysicsParams(0.1, grid, forcing, 8.0, InterpolantSpec(kind, h), cutoff)


def _full_grid_nudging(p, w):
    """beta P_N P_sigma I_h w, evaluated with apply_ih on the params grid."""
    return p.beta * np.where(
        p.cutoff.mask_low(p.grid), apply_ih(p.interpolant, w).coeffs, 0.0
    )


def _rel_gap(packed, gal, full, p):
    """Largest gap between a packed vector's field and full-grid coefficients
    on the low modes, relative to the largest coefficient."""
    mask = p.cutoff.mask_low(p.grid)
    got = gal._field(packed).coeffs[:, mask]
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

    got = stepper._apply_linear(
        stepper._pack_field(w), stepper._physical(stepper._pack_field(v))
    )
    expected = (
        w.coeffs / tau + p.nu * grid.k_squared * w.coeffs + bilinear_B(v, w).coeffs
        + _full_grid_nudging(p, w)
    )
    assert _rel_gap(got, stepper, expected, p) <= 1e-13


@pytest.mark.parametrize("n, kind, h, lam, n_s", PRODUCT_GRID_CASES)
def test_reference_vector_field_matches_full_grid_formula(n, kind, h, lam, n_s):
    # the exact diagonal plus the explicit term is the whole Galerkin field
    # P_N f - nu A v - P_N B(v, v) - beta P_N P_sigma I_h (v - u)
    p = _case_params(n, kind, h, lam)
    grid = p.grid
    rng = np.random.default_rng(n + 1)
    v = random_field(grid, rng, norm_v=2.0, cutoff=p.cutoff)
    u = random_field(grid, rng, norm_v=2.0)
    gal = schemes._Galerkin(p)
    x = gal._pack_field(v)
    data = gal._observed(ObservationStream(lambda t: apply_ih(p.interpolant, u)), 0.0)
    got = -(p.nu * gal.k_squared + gal.obs_diag) * x + gal._explicit(x, data)

    expected = (
        p.forcing.coeffs - bilinear_B(v, v).coeffs
        - p.nu * grid.k_squared * v.coeffs
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
    grid = p.grid

    def real_field(c):
        return SpectralField.from_coeffs(grid, c + _conj_flip(grid, c))

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
    # the diagonal case skips the cell-average product altogether
    assert (gal._cell_avg is None) == diagonal_case
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


def test_semi_implicit_step_applies_the_operator_only_inside_gmres(monkeypatch):
    # the step residual is GMRES's final true residual, so there is no
    # separate check apply, and the new field is built without validation
    rng = np.random.default_rng(11)
    p, obs, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    observed = obs(0.01)  # apply_ih validates its own output
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
    new = semi_implicit_step(
        SchemeState(0, 0.01, v0), p, ObservationStream(lambda t: observed)
    )
    assert new.k == 1
    assert counts["advect_raw"] == counts["gmres_apply"] > 0
    assert counts["from_coeffs"] == 0


def test_picard_solves_start_from_the_residual_just_computed(monkeypatch):
    # every advect_raw call is a GMRES operator application or a Picard
    # residual apply, and each solve after the first takes that residual
    # as its initial residual instead of applying the operator again
    rng = np.random.default_rng(11)
    p, obs, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    counts = {"advect_raw": 0, "checking": False}
    solves = []
    real_advect, real_gmres = schemes.advect_raw, schemes.gmres

    def advect(*args):
        counts["advect_raw"] += not counts["checking"]
        return real_advect(*args)

    def gmres(apply_op, b, **kwargs):
        solve = {"applies": 0, "r0": kwargs.get("r0")}
        if solve["r0"] is not None:
            counts["checking"] = True
            solve["r0_exact"] = np.array_equal(
                solve["r0"], b - apply_op(kwargs["x0"])
            )
            counts["checking"] = False

        def counted(w):
            solve["applies"] += 1
            return apply_op(w)

        solves.append(solve)
        result = real_gmres(counted, b, **kwargs)
        solve["iterations"] = result.iterations
        return result

    monkeypatch.setattr(schemes, "gmres", gmres)
    monkeypatch.setattr(schemes, "advect_raw", advect)
    fully_implicit_step(SchemeState(0, 0.01, v0), p, obs)
    assert len(solves) >= 2
    applies = sum(s["applies"] for s in solves)
    assert counts["advect_raw"] == applies + len(solves)
    assert solves[0]["r0"] is None
    assert solves[0]["applies"] == solves[0]["iterations"] + 2
    for solve in solves[1:]:
        assert solve["r0_exact"]
        its = solve["iterations"]
        assert solve["applies"] == its + (its > 0)


def test_layer_entry_points_are_called_once_per_operator_application(monkeypatch):
    for name in ("gmres", "advect_raw", "to_physical", "apply_ih", "advance"):
        assert name in vars(schemes), name
    counts = {"advect_raw": 0, "apply": 0}
    real_advect = schemes.advect_raw
    real_apply = schemes._Stepper._apply_linear
    real_explicit = schemes._Galerkin._explicit

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
    monkeypatch.setattr(schemes._Galerkin, "_explicit", explicit)
    rng = np.random.default_rng(5)
    p, obs, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    state = SchemeState(0, 0.01, v0)
    for run in (
        lambda: semi_implicit_step(state, p, obs),
        lambda: fully_implicit_step(state, p, obs),
        lambda: reference_galerkin_integrate(v0, p, obs, 0.01, 0.01),
    ):
        counts.update(advect_raw=0, apply=0)
        run()
        assert counts["advect_raw"] == counts["apply"] > 0
    assert counts["apply"] == 4  # one ETDRK4 step has four stages


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
    # the tail of a field outside the packing adds orthogonally
    tail = np.array([1.0, 2.0, 3.0])
    assert gal.norms(x, tail**2) == pytest.approx(np.hypot(full, tail), rel=1e-14)


# (grid n, interpolant kind, h): Fourier truncation; volume averages with
# L/h >= 2K + 1 (diagonal on the low modes); L/h < 2K + 1 (coupling them)
OBSERVATION_CASES = [
    (32, "fourier_truncation", 0.4),
    (48, "volume_average", TWO_PI / 16),
    (32, "volume_average", TWO_PI / 4),
]


@pytest.mark.parametrize("n, kind, h", OBSERVATION_CASES)
@pytest.mark.parametrize("stored", ["packed", "plain"])
def test_packed_observations_match_apply_ih(n, kind, h, stored):
    grid = TorusGrid(TWO_PI, n)
    rng = np.random.default_rng(n + 3)
    forcing = kolmogorov_forcing(grid, 2, 0.5)
    u0 = random_field(grid, rng, norm_v=2.0)
    traj = nse_integrate(u0, free_params(grid, 0.1, forcing), 0.06, 0.01, store_every=2)
    assert traj.packing is not None
    if stored == "plain":
        plain = Trajectory(grid)
        for step, t, f in zip(traj.steps, traj.times, traj.fields):
            plain.append(step, float(t), f)
        traj = plain
    spec = InterpolantSpec(kind, h)
    p = PhysicsParams(0.1, grid, forcing, 8.0, spec, GalerkinCutoff(60.0))
    gal = schemes._Galerkin(p)
    obs = ObservationStream.from_trajectory(traj, spec)
    for t in (0.0, 0.02, 0.06, 0.005, 0.031, 0.0555):
        got = obs.packed(gal, t)
        expected = gal._pack_field(apply_ih(spec, traj.at(t)))
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert traj.interpolated_queries > 0 and traj.exact_queries > 0


def test_lazy_state_field_equals_eager_field_bitwise(rng):
    p, obs, v0 = nudged_problem(TorusGrid(TWO_PI, 24), rng, "volume_average")
    new = fully_implicit_step(SchemeState(0, 0.01, v0), p, obs)
    assert new._v is None  # not built until asked for
    stepper = schemes._stepper(p, 0.01, FULLY_IMPLICIT)
    assert new.packing is stepper
    lazy = new.v
    assert np.array_equal(lazy.coeffs, stepper._field(new.x).coeffs)
    assert new.v is lazy
    # a packed state from the cached galerkin of equal params steps alike
    gal = schemes._galerkin(p)
    packed = SchemeState(0, 0.01, x=gal._pack_field(v0), packing=gal)
    again = fully_implicit_step(packed, p, obs)
    assert np.array_equal(again.x, new.x)


def test_twin_steps_make_no_apply_ih_or_field_call(monkeypatch):
    grid = TorusGrid(TWO_PI, 48)
    rng = np.random.default_rng(2)
    forcing = kolmogorov_forcing(grid, 1, 0.05)
    u0 = random_field(grid, rng, norm_v=1.0)
    truth = nse_integrate(u0, free_params(grid, 0.1, forcing), 0.1, 0.01, store_every=4)
    spec = InterpolantSpec("volume_average", TWO_PI / 16)
    p = PhysicsParams(0.1, grid, forcing, 8.0, spec, GalerkinCutoff(60.0))
    obs = ObservationStream.from_trajectory(truth, spec)
    v0 = random_field(grid, rng, norm_v=1.0, cutoff=p.cutoff)
    # the first lookup observes every stored frame once
    state, _ = advance(v0, p, obs, 0.02, 1, scheme=FULLY_IMPLICIT)
    counts = {"apply_ih": 0, "_field": 0}
    real_apply_ih, real_field = schemes.apply_ih, schemes._Galerkin._field

    def apply_ih_counted(*args):
        counts["apply_ih"] += 1
        return real_apply_ih(*args)

    def field_counted(self, vec):
        counts["_field"] += 1
        return real_field(self, vec)

    monkeypatch.setattr(schemes, "apply_ih", apply_ih_counted)
    monkeypatch.setattr(schemes._Galerkin, "_field", field_counted)
    seen = []
    advance(v0, p, obs, 0.02, 5, scheme=FULLY_IMPLICIT,
            on_step=lambda prev, new: seen.append(new.k))
    assert seen == [1, 2, 3, 4, 5]
    assert counts == {"apply_ih": 0, "_field": 0}
    assert truth.interpolated_queries > 0  # t = 0.02, 0.06, ... lie between frames
