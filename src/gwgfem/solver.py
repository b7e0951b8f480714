"""Sparse symmetric positive definite solves.

Primary path: SuperLU factorization in symmetric mode with diagonal
pivoting suppressed, so the factorization acts as an LDL^T of the
symmetrically permuted matrix; all-positive U diagonal then certifies
positive definiteness (the signs of D carry the inertia).  SuperLU still
pivots off the diagonal after a zero diagonal pivot, which a positive
definite matrix never produces, so row and column permutations that
differ are reported as indefiniteness.  Fallback: diagonally
preconditioned conjugate gradients with an explicit indefinite-curvature
check; convergence alone certifies nothing, so a forced CG solve reports
``spd_certified=False``.

Every accepted solution is re-verified against the residual contract by
an independent matrix-vector multiply.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

__all__ = [
    "SolveReport",
    "SolverError",
    "IndefiniteMatrixError",
    "SingularMatrixError",
    "IterationLimitError",
    "solve",
    "solve_system",
    "CONDITION_WARNING_LIMIT",
]

CONDITION_WARNING_LIMIT = 1e14


class SolverError(RuntimeError):
    pass


class IndefiniteMatrixError(SolverError):
    """Nonpositive factorization pivot or negative CG curvature."""

    def __init__(self, message: str, pivot: int | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.pivot = pivot
        self.iteration = iteration


class SingularMatrixError(SolverError):
    pass


class IterationLimitError(SolverError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    method: str  # "factorization" | "cg"
    iterations: int
    spd_certified: bool
    condition_estimate: float | None = None


def _relative_residual(A, b, x) -> float:
    denom = np.linalg.norm(b)
    if denom == 0.0:
        denom = 1.0
    return float(np.linalg.norm(b - A @ x) / denom)


def _hager_inverse_norm(solve_fn, n: int, max_sweeps: int = 5) -> float:
    """1-norm estimate of the inverse via Hager's method (symmetric matrix,
    so forward solves stand in for transpose solves)."""
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(max_sweeps):
        y = solve_fn(x)
        est = max(est, float(np.abs(y).sum()))
        xi = np.sign(y)
        xi[xi == 0] = 1.0
        z = solve_fn(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    return est


def _pcg(A, b, tol: float, max_iter: int):
    """Jacobi-preconditioned conjugate gradients with curvature check."""
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise IndefiniteMatrixError(
            f"nonpositive diagonal entry at index {int(np.argmin(diag))}",
            pivot=int(np.argmin(diag)),
        )
    inv_diag = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for k in range(1, max_iter + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise IndefiniteMatrixError(
                f"indefinite curvature p.Ap = {pAp:.3e} at iteration {k}",
                iteration=k,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x, k
        z = inv_diag * r
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise IterationLimitError(
        f"conjugate gradients did not converge in {max_iter} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})",
        residual=float(np.linalg.norm(r) / bnorm),
    )


def solve(matrix, rhs: np.ndarray, tol: float = 1e-12,
          max_iter: int | None = None, method: str = "auto",
          estimate_condition: bool = True) -> SolveReport:
    """Solve a symmetric (expected SPD) sparse or dense system.

    ``method``: "auto" tries the factorization first and falls back to
    conjugate gradients when the factorization cannot reach ``tol``;
    "factorization" and "cg" force one path.  Indefiniteness is reported
    as a structured error rather than silently ignored.
    """
    A = sparse.csc_matrix(matrix)
    b = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if n == 0:  # fully condensed or fully constrained system
        return SolveReport(x=np.zeros(0), relative_residual=0.0,
                           method="factorization", iterations=0,
                           spd_certified=True, condition_estimate=None)
    if max_iter is None:
        max_iter = max(1000, 10 * n)

    cond = None
    if method != "cg":
        try:
            lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # SuperLU reports exact singularity this way
            raise SingularMatrixError(f"factorization failed: {exc}") from exc

        offdiag = np.nonzero(lu.perm_r != lu.perm_c)[0]
        if offdiag.size:
            raise IndefiniteMatrixError(
                f"off-diagonal pivot at position {int(offdiag[0])} of {n} after a "
                f"zero diagonal pivot; matrix is not positive definite",
                pivot=int(offdiag[0]),
            )
        pivots = lu.U.diagonal()
        bad = np.nonzero(pivots <= 0)[0]
        if bad.size:
            raise IndefiniteMatrixError(
                f"nonpositive pivot {pivots[bad[0]]:.3e} at position {int(bad[0])} "
                f"of {n}; matrix is not positive definite",
                pivot=int(bad[0]),
            )

        if estimate_condition:
            norm_a = float(np.abs(A).sum(axis=0).max())
            cond = norm_a * _hager_inverse_norm(lu.solve, n)
            if cond > CONDITION_WARNING_LIMIT:
                warnings.warn(
                    f"system condition estimate {cond:.3e} exceeds "
                    f"{CONDITION_WARNING_LIMIT:.0e}; results may be inaccurate",
                    RuntimeWarning,
                    stacklevel=2,
                )

        x = lu.solve(b)
        for _ in range(3):  # iterative refinement, usually a no-op
            res = _relative_residual(A, b, x)
            if res <= tol:
                break
            x = x + lu.solve(b - A @ x)
        res = _relative_residual(A, b, x)
        if res <= tol or method == "factorization":
            if res > tol:
                raise IterationLimitError(
                    f"factorization residual {res:.3e} exceeds tolerance {tol:.1e}",
                    residual=res)
            return SolveReport(x=x, relative_residual=res, method="factorization",
                               iterations=0, spd_certified=True,
                               condition_estimate=cond)

    # forced, or the fallback after a certified factorization missed tol
    x, iters = _pcg(A.tocsr(), b, tol, max_iter)
    res = _relative_residual(A, b, x)
    if res > tol:
        raise IterationLimitError(
            f"cg residual {res:.3e} exceeds tolerance {tol:.1e}", residual=res)
    return SolveReport(x=x, relative_residual=res, method="cg", iterations=iters,
                       spd_certified=method != "cg", condition_estimate=cond)


def solve_system(system, tol: float = 1e-12, max_iter: int | None = None,
                 method: str = "auto") -> SolveReport:
    """Solve an assembled :class:`~gwgfem.assembly.DiscreteSystem`."""
    return solve(system.matrix, system.rhs, tol=tol, max_iter=max_iter,
                 method=method)
