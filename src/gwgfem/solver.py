"""Sparse symmetric positive definite solves.

One path: SuperLU factorization in symmetric mode with diagonal pivoting
suppressed, in the caller's numbering (SuperLU runs no fill-reducing
ordering of its own: the assembled edge system comes numbered by nested
dissection), so the factorization acts as an LDL^T of the matrix;
all-positive U diagonal then certifies positive definiteness (the signs of
D carry the inertia).  SuperLU still pivots off the diagonal after a zero
diagonal pivot, which a positive definite matrix never produces, so row
and column permutations that differ are reported as indefiniteness.  Every
solution is refined (at most three steps) and re-verified against
``RESIDUAL_TOL`` by an independent matrix-vector multiply; a miss, a
non-finite residual included, raises :class:`IterationLimitError`.
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
    "RESIDUAL_TOL",
]

CONDITION_WARNING_LIMIT = 1e14
RESIDUAL_TOL = 1e-12  # relative residual every accepted solution meets


class SolverError(RuntimeError):
    pass


class IndefiniteMatrixError(SolverError):
    """Nonpositive or off-diagonal factorization pivot."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class SingularMatrixError(SolverError):
    pass


class IterationLimitError(SolverError):
    """Iterative refinement did not bring the residual under the tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    method: str  # always "factorization"
    iterations: int  # refinement solves after the first
    spd_certified: bool  # always True: an uncertified matrix raises
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


def solve(matrix, rhs: np.ndarray) -> SolveReport:
    """Solve a symmetric positive definite sparse or dense system.

    The matrix is factored in the order it is given, so its numbering sets
    the fill; a CSC matrix is used without a copy.  Indefiniteness,
    singularity and a residual above ``RESIDUAL_TOL`` (or not finite) after
    refinement are reported as structured errors rather than ignored.
    """
    A = sparse.csc_matrix(matrix)
    b = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if n == 0:  # every edge fixed: no unknowns
        return SolveReport(x=np.zeros(0), relative_residual=0.0,
                           method="factorization", iterations=0,
                           spd_certified=True, condition_estimate=None)

    # 1-norm as the largest column sum, before the factors take memory
    nonempty = np.flatnonzero(np.diff(A.indptr))
    norm1 = float(np.add.reduceat(np.abs(A.data), A.indptr[nonempty]).max(initial=0.0))

    try:
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
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

    cond = norm1 * _hager_inverse_norm(lu.solve, n)
    if cond > CONDITION_WARNING_LIMIT:
        warnings.warn(
            f"system condition estimate {cond:.3e} exceeds "
            f"{CONDITION_WARNING_LIMIT:.0e}; results may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )

    x = lu.solve(b)
    steps = 0
    res = _relative_residual(A, b, x)
    while not res <= RESIDUAL_TOL and steps < 3:  # iterative refinement; NaN is a miss
        x = x + lu.solve(b - A @ x)
        steps += 1
        res = _relative_residual(A, b, x)
    if not res <= RESIDUAL_TOL:
        raise IterationLimitError(
            f"factorization residual {res:.3e} exceeds tolerance {RESIDUAL_TOL:.1e} "
            f"after {steps} refinement steps", residual=res)
    return SolveReport(x=x, relative_residual=res, method="factorization",
                       iterations=steps, spd_certified=True, condition_estimate=cond)


def solve_system(system) -> SolveReport:
    """Solve an assembled :class:`~gwgfem.assembly.DiscreteSystem`."""
    return solve(system.matrix, system.rhs)
