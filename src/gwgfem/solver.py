"""Sparse symmetric positive definite solves, by the block elimination
step that also condenses the element interiors in assembly.

:func:`eliminate` is that step: a batched Cholesky of the pivot blocks,
which is the SPD certificate (the inertia of a block matrix is that of a
pivot block plus that of its Schur complement), then the Schur update.
:func:`solve` takes such steps along a nested-dissection tree: a
multifrontal Cholesky factorization (Duff and Reid 1983; Liu 1992) in the
caller's numbering.  Each part of the tree owns one front: its separator
unknowns (the pivots) and the outside neighbours of its subtree (the update
set).  Levels are factored deepest first; the fronts of a level are grouped
by size, each group takes one step and keeps ``Li`` and ``L21``, and
extend-adds its Schur complements into its parents.  A failed front raises
:class:`IndefiniteMatrixError` with the global index of a failing pivot,
singular matrices included.  A matrix given without a tree is one front.

Every solution is refined (at most three steps) and re-verified against
``RESIDUAL_TOL`` by an independent matrix-vector multiply; a miss, a
non-finite residual included, raises :class:`IterationLimitError`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "SolveReport",
    "SolverError",
    "IndefiniteMatrixError",
    "IterationLimitError",
    "eliminate",
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
    """Nonpositive factorization pivot: the matrix is not positive definite.
    ``pivot`` indexes the failing pivot and ``block`` its block in a batch."""

    def __init__(self, message: str, pivot: int | None = None, block: int | None = None):
        super().__init__(message)
        self.pivot = pivot
        self.block = block


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


def _ranges(starts, counts) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over the pairs."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _failing_pivot(F: np.ndarray) -> tuple:
    """(block, pivot) of the first nonpositive pivot of an unblocked
    Cholesky run on a batch of blocks given by their lower triangles,
    smallest pivot first."""
    F = np.tril(F) + np.tril(F, -1).transpose(0, 2, 1)
    for j in range(F.shape[1]):
        d = F[:, j, j]
        bad = np.flatnonzero(~(d > 0))
        if bad.size:
            return int(bad[0]), j
        col = F[:, j + 1:, j] / np.sqrt(d)[:, None]
        F[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :]
    return 0, F.shape[1] - 1  # rounding put LAPACK's failure past the end


def eliminate(F: np.ndarray, k: int) -> tuple:
    """Eliminate the leading k unknowns of a batch of symmetric matrices
    ``F`` (g, s, s), reading only the lower triangle of the pivot blocks
    and the blocks below them.  Returns ``Li = L^-1`` (g, k, k) for the
    Cholesky factors ``L L^T`` of the pivot blocks and ``L21 = F21 Li^T``
    (g, s - k, k), and writes the Schur complements ``F22 - L21 L21^T``
    over ``F22``.  A failed Cholesky raises :class:`IndefiniteMatrixError`
    with the failing block and its first nonpositive pivot."""
    try:
        L = np.linalg.cholesky(F[:, :k, :k])
    except np.linalg.LinAlgError:
        i, j = _failing_pivot(F[:, :k, :k])
        raise IndefiniteMatrixError(
            f"nonpositive pivot {j} in block {i}; the matrix is not positive definite",
            pivot=j, block=i) from None
    Li = np.linalg.inv(L)
    del L
    L21 = F[:, k:, :k] @ Li.transpose(0, 2, 1)
    # a contiguous right operand keeps the batched matmul on BLAS
    F[:, k:, k:] -= L21 @ L21.transpose(0, 2, 1).copy()
    return Li, L21


def _factor(A: sparse.csc_matrix, tree) -> list:
    """Multifrontal Cholesky of ``A`` along ``tree`` (see :func:`solve`).

    Returns, per level deepest first and per group of equal-size fronts,
    the pivot indices ``(g, k)``, ``Li`` ``(g, k, k)``, the update indices
    ``(g, u)`` and ``L21`` ``(g, u, k)``.
    """
    n = A.shape[0]
    nf = int(tree[0][0, 1:].sum())  # the root covers every node
    nb = n // nf
    if nb * nf != n:
        raise ValueError(f"a tree of {nf} nodes does not divide {n} unknowns")
    A.sum_duplicates()
    indptr, indices, data = A.indptr, A.indices, A.data
    dofs = np.arange(nb)
    factor = []
    below = None  # the level below: its groups, update keys and parents
    for d in reversed(range(len(tree))):
        start, nl, nr, ns = tree[d].T
        P = len(start)
        ps = start + nl + nr  # pivot (separator) nodes [ps, pe)
        pe = ps + ns
        parent, is_right = np.zeros(P, dtype=np.int64), np.zeros(P, dtype=bool)
        if d:
            up = tree[d - 1]
            parent = np.searchsorted(up[:, 0], start, side="right") - 1
            is_right = start >= up[parent, 0] + up[parent, 1]

        # symbolic: the update set of a front is the outside neighbours of its
        # pivots and of its children's update sets, kept as front * nf + node
        piv = _ranges(ps, ns)
        cnt = indptr[nb * piv + 1] - indptr[nb * piv]
        fr = np.repeat(np.repeat(np.arange(P), ns), cnt)
        node = indices[_ranges(indptr[nb * piv], cnt)] // nb
        keys = [(fr * nf + node)[node >= pe[fr]]]
        if below is not None:
            groups, ckeys, cparent = below
            fr = cparent[ckeys // nf]
            node = ckeys % nf
            if np.any(node < ps[fr]):
                raise ValueError("the tree is not a nested dissection of the matrix")
            keys.append((fr * nf + node)[node >= pe[fr]])
        keys = np.sort(np.concatenate(keys))  # np.unique's hash path is slower
        keys = keys[np.diff(keys, prepend=-1) != 0]
        uptr = np.searchsorted(keys, np.arange(P + 1) * nf)
        k, u = nb * ns, nb * np.diff(uptr)
        s = k + u
        order = np.lexsort((is_right, u, k))  # groups, left children first
        size = s[order] ** 2
        base = np.empty(P, dtype=np.int64)
        base[order] = np.cumsum(size) - size
        buf = np.zeros(int(size.sum()))

        def local(fr, node):  # first dof of each node within its front
            want = fr * nf + node
            at = np.searchsorted(keys, want)
            out = node >= pe[fr]
            if not np.all((np.r_[keys, -1][at] == want) | ~out):
                raise ValueError("the matrix couples unknowns that the tree separates")
            return nb * np.where(out, at - uptr[fr] + ns[fr], node - ps[fr])

        # the lower triangle of every pivot column
        cols = _ranges(nb * ps, k)
        cnt = indptr[cols + 1] - indptr[cols]
        ent = _ranges(indptr[cols], cnt)
        row, col = indices[ent], np.repeat(cols, cnt)
        low = row >= col
        ent, row, col = ent[low], row[low], col[low]
        fr = np.repeat(np.repeat(np.arange(P), k), cnt)[low]
        col -= nb * ps[fr]
        buf[base[fr] + (local(fr, row // nb) + row % nb) * s[fr] + col] = data[ent]
        del cols, cnt, ent, row, col, low, fr

        if below is not None:  # extend-add the children
            for cf, kc, F, nleft, unodes in groups:
                p = cparent[cf]
                loc = (local(p[:, None], unodes)[:, :, None] + dofs).reshape(len(cf), -1)
                tgt = (base[p, None, None] + loc[:, :, None] * s[p, None, None]
                       + loc[:, None, :])
                upd = F[:, kc:, kc:]
                buf[tgt[:nleft]] += upd[:nleft]  # one child per parent a pass
                buf[tgt[nleft:]] += upd[nleft:]
        below = groups = None

        level, groups = [], []
        ks, us = k[order], u[order]
        head = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (us[1:] != us[:-1]), True])
        for a, z in zip(head[:-1], head[1:]):
            fg = order[a:z]
            g, kg, ug = len(fg), int(ks[a]), int(us[a])
            F = buf[base[fg[0]]:base[fg[0]] + g * (kg + ug) ** 2].reshape(g, kg + ug, -1)
            try:
                Li, L21 = eliminate(F, kg)
            except IndefiniteMatrixError as err:
                pivot = int(nb * ps[fg[err.block]] + err.pivot)
                raise IndefiniteMatrixError(
                    f"nonpositive pivot at position {pivot} of {n}; the matrix "
                    f"is not positive definite", pivot=pivot) from None
            unodes = keys[uptr[fg, None] + np.arange(ug // nb)] % nf
            level.append((nb * ps[fg, None] + np.arange(kg), Li,
                          (nb * unodes[:, :, None] + dofs).reshape(g, ug), L21))
            groups.append((fg, kg, F, int(np.count_nonzero(~is_right[fg])), unodes))
        factor.append(level)
        below = (groups, keys, parent)
    return factor


def _substitute(factor: list, b: np.ndarray) -> np.ndarray:
    """Solve with the factor: forward up the tree, backward down it."""
    x = np.array(b, dtype=float)
    for level in factor:
        idx, val = [], []
        for pidx, Li, uidx, L21 in level:
            y = Li @ x[pidx][:, :, None]
            x[pidx] = y[:, :, 0]
            idx.append(uidx.ravel())
            val.append((L21 @ y).ravel())
        x -= np.bincount(np.concatenate(idx), np.concatenate(val), minlength=len(x))
    for level in reversed(factor):
        for pidx, Li, uidx, L21 in level:
            y = x[pidx][:, :, None] - L21.transpose(0, 2, 1) @ x[uidx][:, :, None]
            x[pidx] = (Li.transpose(0, 2, 1) @ y)[:, :, 0]
    return x


def solve(matrix, rhs: np.ndarray, tree=None) -> SolveReport:
    """Solve a symmetric positive definite sparse or dense system.

    ``tree`` is a nested dissection of the matrix's unknowns in the order
    given, as :func:`gwgfem.assembly.dof_map` returns it: one ``(parts, 4)``
    array per level, root first, of each part's first node and its left,
    right and separator node counts, where a node is a block of
    ``n / (number of nodes)`` consecutive unknowns.  Without a tree the
    matrix is one dense front, which suits small systems only.
    Indefiniteness (singularity included) and a residual above
    ``RESIDUAL_TOL`` (or not finite) after refinement are reported as
    structured errors rather than ignored.
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

    factor = _factor(A, tree or (np.array([[0, 0, 0, n]]),))

    def lsolve(v):
        return _substitute(factor, v)

    cond = norm1 * _hager_inverse_norm(lsolve, n)
    if cond > CONDITION_WARNING_LIMIT:
        warnings.warn(
            f"system condition estimate {cond:.3e} exceeds "
            f"{CONDITION_WARNING_LIMIT:.0e}; results may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )

    x = lsolve(b)
    steps = 0
    res = _relative_residual(A, b, x)
    while not res <= RESIDUAL_TOL and steps < 3:  # iterative refinement; NaN is a miss
        x = x + lsolve(b - A @ x)
        steps += 1
        res = _relative_residual(A, b, x)
    if not res <= RESIDUAL_TOL:
        raise IterationLimitError(
            f"factorization residual {res:.3e} exceeds tolerance {RESIDUAL_TOL:.1e} "
            f"after {steps} refinement steps", residual=res)
    return SolveReport(x=x, relative_residual=res, method="factorization",
                       iterations=steps, spd_certified=True, condition_estimate=cond)


def solve_system(system) -> SolveReport:
    """Solve an assembled :class:`~gwgfem.assembly.DiscreteSystem` along
    its dissection tree."""
    return solve(system.matrix, system.rhs, system.dofmap.tree)
