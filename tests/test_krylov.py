"""GMRES on complex vectors treated as a real Hilbert space."""

import math

import numpy as np
import pytest

from nudgeflow.krylov import SolveResult, gmres


def _mat_op(a):
    return lambda x: a @ x


def test_diagonal_system_matches_closed_form(rng):
    d = rng.uniform(1.0, 5.0, size=64)
    b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    res = gmres(lambda x: d * x, b, rel_tol=1e-12)
    assert res.converged
    assert np.linalg.norm(res.x - b / d) <= 1e-10 * np.linalg.norm(b / d)
    assert res.residual <= 1e-12


def test_nonsymmetric_dense_system(rng):
    # perturbation scaled by 1/sqrt(n) keeps the field of values coercive
    n = 40
    a = np.eye(n) + 0.3 / math.sqrt(n) * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    res = gmres(_mat_op(a), b.astype(complex), rel_tol=1e-11, restart=20)
    assert res.converged
    exact = np.linalg.solve(a, b)
    assert np.linalg.norm(res.x - exact) <= 1e-8 * np.linalg.norm(exact)


def test_reported_residual_is_true_residual(rng):
    n = 30
    a = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(complex)
    res = gmres(_mat_op(a), b, rel_tol=1e-10)
    true_rel = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
    assert res.residual == pytest.approx(true_rel, rel=1e-6, abs=1e-13)


def test_exact_right_preconditioner_converges_immediately(rng):
    d = rng.uniform(1.0, 100.0, size=128)
    b = rng.standard_normal(128).astype(complex)
    res = gmres(lambda x: d * x, b, apply_precond=lambda y: y / d, rel_tol=1e-12)
    assert res.converged
    assert res.iterations <= 2


def test_preconditioner_preserves_solution(rng):
    n = 32
    a = np.diag(rng.uniform(1.0, 50.0, size=n)) + 0.1 * rng.standard_normal((n, n))
    m_inv = np.diag(1.0 / np.diag(a))
    b = rng.standard_normal(n).astype(complex)
    plain = gmres(_mat_op(a), b, rel_tol=1e-11)
    pre = gmres(_mat_op(a), b, apply_precond=_mat_op(m_inv), rel_tol=1e-11)
    assert plain.converged and pre.converged
    assert np.linalg.norm(plain.x - pre.x) <= 1e-7 * np.linalg.norm(plain.x)
    assert pre.iterations <= plain.iterations


def test_unconverged_run_reports_failure(rng):
    n = 50
    a = np.eye(n) + 0.5 * rng.standard_normal((n, n))
    b = rng.standard_normal(n).astype(complex)
    res = gmres(_mat_op(a), b, rel_tol=1e-14, max_iter=3)
    assert isinstance(res, SolveResult)
    assert not res.converged
    assert res.iterations <= 3
    assert res.residual > 1e-14


def test_zero_rhs_short_circuits():
    res = gmres(lambda x: 2.0 * x, np.zeros(8, dtype=complex))
    assert res.converged
    assert res.iterations == 0
    assert np.all(res.x == 0)


def test_restart_still_converges(rng):
    n = 60
    a = np.eye(n) + 0.3 / math.sqrt(n) * rng.standard_normal((n, n))
    b = rng.standard_normal(n).astype(complex)
    res = gmres(_mat_op(a), b, restart=7, rel_tol=1e-10, max_iter=600)
    assert res.converged
    exact = np.linalg.solve(a, b)
    assert np.linalg.norm(res.x - exact) <= 1e-7 * np.linalg.norm(exact)


def test_history_tracks_progress(rng):
    d = rng.uniform(1.0, 4.0, size=32)
    b = rng.standard_normal(32).astype(complex)
    res = gmres(lambda x: d * x, b, rel_tol=1e-12)
    assert res.history[0] == pytest.approx(1.0)
    assert res.history[-1] <= 1e-12


def test_hermitian_symmetry_is_preserved(rng):
    # operators acting mode-wise with even symbols keep conjugate symmetry;
    # the real inner product must not leak an imaginary part into iterates
    n = 16
    sym = rng.uniform(1.0, 3.0, size=n)
    sym = 0.5 * (sym + sym[::-1])

    def op(x):
        return sym * x

    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = 0.5 * (raw + np.conj(raw[::-1]))  # b_k = conj(b_{-k}) pattern
    res = gmres(op, b, rel_tol=1e-12)
    assert res.converged
    drift = np.max(np.abs(res.x - np.conj(res.x[::-1])))
    assert drift <= 1e-12 * np.max(np.abs(res.x))


def _fresh_residual(a, b, x):
    return np.linalg.norm(b - a @ x) / np.linalg.norm(b)


def test_solve_starts_from_zero_with_residual_b(rng):
    # the first residual is b itself: the history starts at exactly 1 and
    # the first basis vector the preconditioner sees is b / |b|
    n = 24
    a = np.eye(n) + 0.3 / math.sqrt(n) * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    seen = []

    def record(v):
        seen.append(np.array(v))
        return v

    res = gmres(_mat_op(a), b, apply_precond=record, rel_tol=1e-10)
    assert res.converged
    assert res.history[0] == 1.0
    assert np.array_equal(seen[0], b / np.linalg.norm(b))


def test_correction_from_a_close_guess_takes_fewer_iterations(rng):
    # a caller with a guess x0 solves A d = r, r = b - A x0, to the
    # tolerance scaled by |b| / |r|, so x0 + d meets it relative to b
    n = 40
    a = np.eye(n) + 0.3 / math.sqrt(n) * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tol = 1e-10
    cold = gmres(_mat_op(a), b, rel_tol=tol)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = np.linalg.solve(a, b) + 1e-6 * noise
    r = b - a @ x0
    warm = gmres(_mat_op(a), r, rel_tol=tol * np.linalg.norm(b) / np.linalg.norm(r))
    assert cold.converged and warm.converged
    assert warm.iterations < cold.iterations
    assert _fresh_residual(a, b, x0 + warm.x) <= tol


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("preconditioned", [False, True])
def test_final_residual_comes_from_the_applied_products(rng, dtype, preconditioned):
    # the solve starts from x = 0 with residual b and applies the operator
    # once per iteration, and its built residual is the residual of the
    # returned iterate to roundoff
    n = 40
    a = np.diag(rng.uniform(1.0, 20.0, size=n))
    a += 2.0 / math.sqrt(n) * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    if dtype is complex:
        a = a + 1j / math.sqrt(n) * rng.standard_normal((n, n))
        b = b + 1j * rng.standard_normal(n)
    m_inv = 1.0 / np.diag(a)
    calls = [0]

    def counted(x):
        calls[0] += 1
        return a @ x

    res = gmres(
        counted, b, rel_tol=1e-10, restart=8,
        apply_precond=(lambda y: m_inv * y) if preconditioned else None,
    )
    assert res.converged and res.iterations > 8  # more than one cycle
    assert res.x.dtype == np.result_type(dtype, np.float64)
    assert abs(res.residual - _fresh_residual(a, b, res.x)) <= 1e-14
    assert res.history[-1] == res.residual
    assert calls[0] == res.iterations


@pytest.mark.parametrize("cycles", [10, 40, 150])
def test_built_residual_does_not_drift_over_many_short_cycles(rng, cycles):
    # restart = 2 on a strongly nonnormal operator: each cycle starts from
    # the residual the previous one built, so any drift would accumulate
    n = 60
    a = np.diag(1.0 + np.arange(n)) + 50.0 / math.sqrt(n) * np.triu(
        rng.standard_normal((n, n)), 1
    )
    b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(complex)
    res = gmres(_mat_op(a), b, rel_tol=1e-15, restart=2, max_iter=2 * cycles)
    assert not res.converged and res.iterations == 2 * cycles
    assert res.residual < res.history[0]
    assert abs(res.residual - _fresh_residual(a, b, res.x)) <= 1e-14


def test_cgs2_basis_stays_orthonormal_across_a_restart(rng):
    # a strongly nonnormal upper triangular operator, on which one pass of
    # classical (1.5e-12) or modified (2.4e-13) Gram-Schmidt loses more
    # orthogonality than the bound; the preconditioner records each basis
    # vector it is given
    n, m = 60, 30
    a = np.diag(1.0 + np.arange(n)) + 50.0 / math.sqrt(n) * np.triu(
        rng.standard_normal((n, n)), 1
    )
    b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(complex)
    seen = []

    def record(v):
        seen.append(np.array(v))
        return v

    res = gmres(lambda x: a @ x, b, apply_precond=record, rel_tol=1e-15,
                restart=m, max_iter=2 * m)
    assert not res.converged and res.iterations == 2 * m
    # each cycle preconditions its m basis vectors, then the update
    assert len(seen) == 2 * (m + 1)
    for cycle in (seen[:m], seen[m + 1 : 2 * m + 1]):
        q = np.array(cycle)
        gram = (q.conj() @ q.T).real  # the real inner product Re <a, b>
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-13


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_operator_output_ends_the_solve_unconverged():
    # a blow-up inside the iteration is a stalled solve for the caller to
    # report, not an exception about bad input
    b = np.ones(8, dtype=complex)
    res = gmres(lambda x: x * np.nan, b, max_iter=100)
    assert not res.converged
    assert res.iterations == 1
    assert math.isnan(res.residual)
