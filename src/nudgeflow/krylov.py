"""Restarted GMRES for coercive, nonsymmetric, matrix-free operators.

Vectors are 1-D complex arrays regarded as elements of a *real* Hilbert
space with inner product Re <a, b>.  All Arnoldi coefficients are then
real, so Krylov iterates are real-linear combinations of the seed
vectors; operators that preserve Hermitian coefficient symmetry keep the
whole iteration inside the symmetry class.  Preconditioning is applied
on the right, so the reported residual is the residual b - A x of the
original system.

The Arnoldi step orthogonalizes by classical Gram-Schmidt applied twice
(CGS2), two matrix-vector products over a real view of the basis per
pass; twice is enough for an orthonormal basis to roundoff (Giraud,
Langou & Rozloznik, Comput. Math. Appl. 50, 2005).  The small least
squares problem is reduced by Givens rotations and solved by back
substitution on Python floats (Saad & Schultz, SIAM J. Sci. Stat.
Comput. 7, 1986).  Every solve starts from x = 0, so its initial
residual is b itself: a caller with a guess x0 solves A d = b - A x0 for
the correction d (Saad, Iterative Methods for Sparse Linear Systems,
2003, section 6.5).

The residual at the end of a cycle is built from products already
applied: the cycle keeps each A M^(-1) V[j], and since A is linear,
b - A(x + M^(-1) V y) = r - sum_j y_j A M^(-1) V[j].  That residual,
which tracks a freshly applied one to roundoff (Van der Vorst & Ye,
SIAM J. Sci. Comput. 22, 2000), decides convergence, is the reported
residual and starts the next cycle, so a solve applies the operator once
per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["SolveResult", "SolverError", "gmres"]

Vec = np.ndarray
Operator = Callable[[Vec], Vec]


@dataclass(frozen=True)
class SolveResult:
    x: Vec
    converged: bool
    iterations: int
    residual: float  # relative to |b|
    history: tuple[float, ...] = field(repr=False, default=())


class SolverError(RuntimeError):
    """Linear or nonlinear solve failed; carries the partial result.

    An integrator that fails sets step and field to the index and field of
    its last accepted iterate, cutoff to the Galerkin cutoff that field is
    supported under, and trajectory to what it had stored (None if it
    stored nothing); otherwise all four stay None.
    """

    def __init__(self, message: str, result: SolveResult | None = None) -> None:
        super().__init__(message)
        self.result = result
        self.step: int | None = None
        self.field = None
        self.cutoff = None
        self.trajectory = None


# a sum of squares below this may have lost digits to squares that underflowed
_SQUARE_FLOOR = float(np.finfo(float).tiny / np.finfo(float).eps)


def _rescaled(norm: Callable[[Vec], float | Vec], vec: Vec) -> float | Vec:
    """norm(vec) for a norm whose sum of squares overflows or underflows on
    vec (entries past about 1e154, or a norm below about 1e-146): top *
    norm(vec / top), top = max |entry|, for finite nonzero entries;
    norm(vec) itself, 0 or not finite, otherwise."""
    top = float(np.max(np.abs(vec)))
    if not 0.0 < top < math.inf:
        return norm(vec)
    # by parts: numpy's complex division by a subnormal top overflows
    return top * norm(vec.real / top + 1j * (vec.imag / top))


def _norm(vec: Vec) -> float:
    """|vec|, finite for every finite vector and positive for every nonzero
    one (`_rescaled`)."""
    sq = np.vdot(vec, vec).real
    if _SQUARE_FLOOR <= sq < math.inf:
        return math.sqrt(sq)
    return float(_rescaled(np.linalg.norm, vec))


def gmres(
    apply_op: Operator,
    b: Vec,
    *,
    rel_tol: float = 1e-10,
    max_iter: int = 2000,
    restart: int = 50,
    apply_precond: Operator | None = None,
) -> SolveResult:
    """Solve A x = b with restarted GMRES; returns even when unconverged.

    apply_precond, if given, applies an approximate inverse M^(-1); the
    iteration solves A M^(-1) y = b and returns x = M^(-1) y, so the
    residual history tracks |b - A x| throughout.  The iteration starts
    from x = 0 with residual b.  The residual after each cycle is the
    previous one minus the kept products A M^(-1) V[j] weighted by the
    cycle's coefficients, so the operator and the preconditioner must
    both be linear over the reals.
    """
    b = np.asarray(b)
    b = b.astype(np.result_type(b.dtype, np.float64), copy=False)
    bnorm = _norm(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), True, 0, 0.0, (0.0,))
    mi = apply_precond if apply_precond is not None else (lambda v: v)
    x, r = np.zeros_like(b), b
    history: list[float] = []
    total = 0
    breakdown = False
    while True:
        rho = _norm(r)
        res = rho / bnorm
        history.append(res)
        if res <= rel_tol:
            return SolveResult(x, True, total, res, tuple(history))
        if breakdown or total >= max_iter:
            break
        m = min(restart, max_iter - total)
        V = np.empty((m + 1, b.size), dtype=b.dtype)
        # the products A M^(-1) V[j], kept for the cycle's final residual
        W = np.empty((m, b.size), dtype=b.dtype)
        # both as real vectors, so Re <a, b> is a plain dot product
        Vr, Wr = V.view(np.float64), W.view(np.float64)
        V[0] = r / rho
        cols: list[list[float]] = []  # columns of the rotated Hessenberg matrix
        cs: list[float] = []
        sn: list[float] = []
        g = [rho]
        for j in range(m):
            W[j] = apply_op(mi(V[j]))
            # classical Gram-Schmidt, twice (Giraud, Langou & Rozloznik 2005)
            w, basis, v = Wr[j], Vr[: j + 1], Vr[j + 1]
            h = basis @ w
            np.subtract(w, h @ basis, out=v)
            h2 = basis @ v
            v -= h2 @ basis
            col = (h + h2).tolist()
            hnext = math.sqrt(float(v @ v))
            col.append(hnext)
            if hnext > 1e-300:
                v /= hnext
            else:
                breakdown = True  # invariant subspace: solution is exact
            for i in range(j):
                a, c = col[i], col[i + 1]
                col[i] = cs[i] * a + sn[i] * c
                col[i + 1] = -sn[i] * a + cs[i] * c
            d = math.hypot(col[j], col[j + 1])
            total += 1
            if d == 0.0:
                # the operator annihilated this direction: the triangular
                # block is singular, so stop with the previous columns
                breakdown = True
                break
            cs.append(col[j] / d)
            sn.append(col[j + 1] / d)
            col[j] = d
            cols.append(col[: j + 1])
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            history.append(abs(g[j + 1]) / bnorm)
            if history[-1] <= rel_tol or breakdown:
                break
        if cols:
            # back substitution on the upper triangular block the rotations left
            n_used = len(cols)
            y = [0.0] * n_used
            for i in range(n_used - 1, -1, -1):
                s = g[i]
                for k in range(i + 1, n_used):
                    s -= cols[k][i] * y[k]
                y[i] = s / cols[i][i]
            coef = np.array(y)
            x = x + mi((coef @ Vr[:n_used]).view(b.dtype))
            # b - A(x + M^(-1) V y) = r - A M^(-1) V y, from the kept products
            r = r - (coef @ Wr[:n_used]).view(b.dtype)
    return SolveResult(x, False, total, res, tuple(history))
