"""Restarted GMRES for coercive, nonsymmetric, matrix-free operators.

Vectors are 1-D complex arrays regarded as elements of a *real* Hilbert
space with inner product Re <a, b>.  All Arnoldi coefficients are then
real, so Krylov iterates are real-linear combinations of the seed
vectors; operators that preserve Hermitian coefficient symmetry keep the
whole iteration inside the symmetry class.  Preconditioning is applied
on the right, so the reported residual is the true residual of the
original system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

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

    An integrator that fails sets state to its last accepted iterate and
    cutoff to the Galerkin cutoff it is supported under, or leaves both None.
    """

    def __init__(
        self,
        message: str,
        result: SolveResult | None = None,
        *,
        state: object = None,
        cutoff: object = None,
    ) -> None:
        super().__init__(message)
        self.result = result
        self.state = state
        self.cutoff = cutoff


def _re_dot(a: Vec, b: Vec) -> float:
    return float(np.vdot(a, b).real)


def gmres(
    apply_op: Operator,
    b: Vec,
    *,
    x0: Vec | None = None,
    rel_tol: float = 1e-10,
    max_iter: int = 2000,
    restart: int = 50,
    apply_precond: Operator | None = None,
) -> SolveResult:
    """Solve A x = b with restarted GMRES; returns even when unconverged.

    apply_precond, if given, applies an approximate inverse M^(-1); the
    iteration solves A M^(-1) y = b and returns x = M^(-1) y, so the
    residual history tracks |b - A x| throughout.
    """
    b = np.asarray(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), True, 0, 0.0, (0.0,))
    mi = apply_precond if apply_precond is not None else (lambda v: v)
    x = np.array(x0, copy=True) if x0 is not None else np.zeros_like(b)
    history: list[float] = []
    total = 0
    res = np.inf
    while total < max_iter:
        r = b - apply_op(x)
        rho = float(np.linalg.norm(r))
        res = rho / bnorm
        history.append(res)
        if res <= rel_tol:
            return SolveResult(x, True, total, res, tuple(history))
        m = min(restart, max_iter - total)
        V = np.empty((m + 1,) + b.shape, dtype=b.dtype)
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / rho
        g[0] = rho
        j_used = 0
        breakdown = False
        for j in range(m):
            w = apply_op(mi(V[j]))
            for i in range(j + 1):
                H[i, j] = _re_dot(V[i], w)
                w = w - H[i, j] * V[i]
            H[j + 1, j] = float(np.linalg.norm(w))
            if H[j + 1, j] > 1e-300:
                V[j + 1] = w / H[j + 1, j]
            else:
                breakdown = True  # invariant subspace: solution is exact
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            d = float(np.hypot(H[j, j], H[j + 1, j]))
            if d == 0.0:
                # the operator annihilated this direction: the triangular
                # block is singular, so stop with the previous columns
                total += 1
                breakdown = True
                break
            cs[j] = H[j, j] / d
            sn[j] = H[j + 1, j] / d
            H[j, j] = d
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j_used = j + 1
            res = abs(g[j + 1]) / bnorm
            history.append(res)
            if res <= rel_tol or breakdown:
                break
        if j_used:
            # Givens rotations left H upper triangular in the used block.
            y = solve_triangular(H[:j_used, :j_used], g[:j_used])
            z = np.tensordot(y, V[:j_used], axes=(0, 0))
            x = x + mi(z.astype(b.dtype, copy=False))
        if res <= rel_tol or breakdown:
            r = b - apply_op(x)
            res = float(np.linalg.norm(r)) / bnorm
            history.append(res)
            if res <= rel_tol:
                return SolveResult(x, True, total, res, tuple(history))
            if breakdown:
                break
    return SolveResult(x, False, total, res, tuple(history))
