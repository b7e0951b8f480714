"""Sparse symmetric positive definite solves, by the block elimination
step that also condenses the element interiors in assembly.

:func:`eliminate` is that step: a batched Cholesky of the pivot blocks,
which is the SPD certificate (the inertia of a block matrix is that of a
pivot block plus that of its Schur complement) and its only LAPACK call,
then the triangles' inverses, by halves, and new Schur complements.
:func:`solve` takes such steps along the matrix's nested-dissection tree:
a multifrontal Cholesky factorization (Duff and Reid 1983; Liu 1992) in
the tree's numbering.  Each part of the tree owns one front: its separator
unknowns (the pivots) and the outside neighbours of its subtree (the update
set).  Each element goes whole into the front of its first-eliminated node;
the Schur complements of a front's children are generated elements, which
one scatter adds the same way.  Levels are factored deepest first; the
fronts of a level are grouped by size, and each group takes one step and
keeps ``Li`` and ``L21``; a front has no pivots (k = 0) when its part's
separator is empty, as on jittered meshes.  A failed front raises
:class:`IndefiniteMatrixError` with the global index of a failing pivot,
singular matrices included.  A level holds the factor so far, its own
buffer of fronts, freed once they are eliminated, and one level's Schur
complements: its children's while it scatters them, each group freed once
added, then its own; each Schur product and scatter runs in chunks of at
most ``CHUNK_ENTRIES`` entries.

Where a lower bound of the condition, Hager's 1-norm estimate over the
smallest diagonal entry ((A^-1)_ii >= 1 / a_ii for SPD A), is at most
1 / (64 u) = 2^18 (u: float32's unit roundoff) and the entries lie in
float32's normal range, the factor is float32 and the solution is refined
with float64 residuals (Buttari et al. 2008; LAPACK's DSPOSV) until
``|r| <= 4 eps |A| |x|`` (max norms) and ``RESIDUAL_TOL`` hold.  A float32
Cholesky failure, or a correction not at most half the one before, falls
back to float64, which assembly's condensation also keeps; so only float64
raises :class:`IndefiniteMatrixError`, and in float32 the certificate is a
Cholesky of A + E and a contracting refinement: ``||(A + E)^-1 E|| < 1``,
so A is SPD.  Float64 refines at most three steps.  Every solution is
re-verified against ``RESIDUAL_TOL`` by an independent matrix-vector multiply;
a miss, a non-finite residual included, raises :class:`IterationLimitError`.
The condition estimate is Hager's, with that multiply and with the factor's
substitutions (good to O(cond u) in float32): five sweeps for ||A||_1, which
gates float32, three for ||A^-1||_1, only reported (5 substitutions, not up
to 9; 0.954-0.969 of five sweeps' on tri p1/p0/id, lambda = 1e6, n = 32-128).

The module is numpy only.  The matrix is an :class:`ElementMatrix`, one
condensed block per class of elements and each element's class and tree
nodes, as assembly leaves them: the factorization adds each element's
block whole into one front, and the residual check gathers and multiplies
the blocks a chunk of elements at a time.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import threading
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ElementMatrix",
    "SolveReport",
    "SolverError",
    "IndefiniteMatrixError",
    "IterationLimitError",
    "eliminate",
    "solve",
    "solve_system",
    "CONDITION_WARNING_LIMIT",
    "RESIDUAL_TOL",
    "CHUNK_ENTRIES",
]

CONDITION_WARNING_LIMIT = 1e14
RESIDUAL_TOL = 1e-12  # relative residual every accepted solution meets
# Entries in one chunk of a Schur product or a scatter: 8 MB of float64,
# under the 32 MB ceiling of glibc's mmap threshold, so the heap can reuse
# these temporaries instead of mapping fresh pages.
CHUNK_ENTRIES = 1 << 20


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


@dataclass(frozen=True, eq=False)
class ElementMatrix:
    """A symmetric matrix as a sum of element blocks over the nodes of its
    nested-dissection tree, the multifrontal method's elemental input:
    element ``e`` adds its class's block ``data[classes[e]]`` (nc, s, s) at
    the unknowns of its nodes ``indices[e]`` (ne, m), -1 marking a fixed
    node.  Node ``k`` owns the ``nb = s / m`` unknowns ``nb * k + i``.
    ``tree`` has one ``(parts, 4)`` array per level, root first, of each
    part's first node and left, right and separator node counts; the root is
    one part of all ``nf`` nodes, and the empty tree has none.  Other
    shapes, classes outside ``[0, nc)`` and nodes outside ``[-1, nf)`` raise
    ``ValueError``."""

    indices: np.ndarray
    data: np.ndarray
    classes: np.ndarray
    tree: tuple

    def __post_init__(self):
        (ne, m), s = self.indices.shape, self.data.shape[-1]
        if self.data.shape != (len(self.data), s, s) or not 0 < m <= s or s % m:
            raise ValueError(f"element blocks of shape {self.data.shape} are not "
                             f"(nc, s, s) for elements of {m} nodes, m dividing s")
        cls, nc = self.classes, len(self.data)
        if cls.shape != (ne,) or ne and not 0 <= cls.min() <= cls.max() < nc:
            raise ValueError(f"the class map is not {ne} classes in [0, {nc})")
        if self.tree and (len(self.tree[0]) != 1 or self.tree[0][0, 0]):
            raise ValueError("the tree's root level is not one part starting at node 0")
        if self.indices.size and not -1 <= self.indices.min() <= self.indices.max() < self.nodes:
            raise ValueError(f"element nodes lie outside [-1, {self.nodes}), the tree's nodes")

    @property
    def nb(self) -> int:
        return self.data.shape[-1] // self.indices.shape[1]

    @property
    def nodes(self) -> int:
        return int(self.tree[0][0, 1:].sum()) if self.tree else 0

    @property
    def shape(self) -> tuple:
        return self.nb * self.nodes, self.nb * self.nodes

    @property
    def nnz(self) -> int:
        """Entries of the element blocks, ``ne s^2``, shared or not."""
        return len(self.classes) * self.data.shape[-1] ** 2

    @property
    def indptr(self) -> np.ndarray:
        """The element pointer ``m * arange(ne + 1)``, read by perfbench's traced pass."""
        ne, m = self.indices.shape
        return m * np.arange(ne + 1)

    def unknowns(self) -> np.ndarray:
        """(ne, s) unknown ids of the element rows, -1 at a fixed node."""
        ids = self.nb * self.indices[:, :, None] + np.arange(self.nb)  # node -1: -nb..-1
        return np.maximum(ids, -1, out=ids).reshape(len(ids), self.data.shape[-1])

    def diagonal(self) -> np.ndarray:
        """The assembled diagonal (n,)."""
        ids = self.unknowns()
        free = ids >= 0
        diag = self.data.diagonal(0, 1, 2)[self.classes]
        return np.bincount(ids[free], diag[free], minlength=self.shape[0])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        ids = self.unknowns()
        y, free = np.append(x, 0.0)[ids], ids >= 0  # -1 reads 0
        for c in _chunks(len(ids), self.data.shape[-1] ** 2):  # products replace inputs
            y[c] = np.einsum("eij,ej->ei", self.data[self.classes[c]], y[c])
        y = np.bincount(ids[free], y[free], minlength=self.shape[0])
        return y.astype(float, copy=False)  # bincount of nothing is int


@dataclass
class SolveReport:
    x: np.ndarray
    relative_residual: float
    method: str  # always "factorization"
    iterations: int  # refinement solves after the first
    precision: str = "double"  # of the factor: "single" or "double"
    condition_estimate: float | None = None


_blas_lock, _blas = threading.Lock(), {"depth": 0}  # OpenBLAS has one count a process


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the OpenBLAS that numpy loaded at one thread, found once among
    the mapped libraries (numpy's wheel prefixes ``scipy_`` and suffixes
    ``64_``); the last nested or concurrent holder restores the caller's
    count.  With another BLAS, or no ``/proc/self/maps``, it does nothing."""
    with _blas_lock:
        if "threads" not in _blas:
            _blas["threads"] = None
            with contextlib.suppress(OSError), open("/proc/self/maps") as f:
                libs = [*map(ctypes.CDLL, dict.fromkeys(
                    r[-1] for r in map(str.split, f) if "openblas" in r[-1]))]
                get, put = ctypes.CFUNCTYPE(ctypes.c_int), ctypes.CFUNCTYPE(None, ctypes.c_int)
                _blas["threads"] = next(((get((n % "get", lib)), put((n % "set", lib)))
                                         for n in ("scipy_openblas_%s_num_threads64_",
                                                   "openblas_%s_num_threads")
                                         for lib in libs if hasattr(lib, n % "set")), None)
        threads = _blas["threads"]
        if threads and not _blas["depth"]:
            _blas["caller"] = threads[0]()
            threads[1](1)
        _blas["depth"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas["depth"] -= 1
            if threads and not _blas["depth"]:
                threads[1](_blas["caller"])


def _hager_norm(apply, n: int, sweeps: int = 5) -> float:
    """Hager's estimate of the 1-norm of a symmetric matrix of order ``n``,
    given as its product ``apply`` with a vector, in at most ``sweeps``
    sweeps (a symmetric matrix is its own transpose).  The estimate is the
    1-norm of a product with a unit vector, so it never exceeds the norm."""
    x = np.full(n, 1.0 / n)
    est = 0.0
    for sweep in range(sweeps):
        y = apply(x)
        est = max(est, float(np.abs(y).sum()))
        if sweep == sweeps - 1:  # no further sweep, so no test product for one
            break
        xi = np.sign(y)
        xi[xi == 0] = 1.0
        z = apply(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= z @ x:
            break
        x = np.eye(1, n, j)[0]
    return est


def _chunks(g: int, entries: int):
    """Slices of a batch of ``g`` items of ``entries`` entries each, at
    most ``CHUNK_ENTRIES`` entries a slice unless one item is larger."""
    step = max(1, CHUNK_ENTRIES // max(1, entries))
    return (slice(a, a + step) for a in range(0, g, step))


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


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Invert lower triangles ``L`` (g, k, k) in place by halves, bottom up: with
    the diagonal blocks A and C of widths 1, 2, 4, ... inverted, ``[[A, 0], [B, C]]^-1
    = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]``, the first width in closed form."""
    k = L.shape[1]
    i, j = np.arange(k), np.arange(0, k - 1, 2)
    L[:, i, i] = 1.0 / L[:, i, i]
    L[:, j + 1, j] = -L[:, j + 1, j] * L[:, j, j] * L[:, j + 1, j + 1]
    for w in (1 << e for e in range(1, (k - 1).bit_length())):  # widths 2, 4, ... below k
        for a in range(0, k - w, 2 * w):
            A, C = slice(a, a + w), slice(a + w, a + 2 * w)
            L[:, C, A] = -(L[:, C, C] @ L[:, C, A]) @ L[:, A, A]
    return L


def eliminate(F: np.ndarray, k: int) -> tuple:
    """Eliminate the leading k unknowns of a batch of symmetric matrices
    ``F`` (g, s, s), which it only reads: the lower triangle of the pivot
    blocks, the blocks below them and ``F22``.  Returns ``Li = L^-1``
    (g, k, k) for the Cholesky factors ``L L^T`` of the pivot blocks,
    ``L21 = F21 Li^T`` (g, s - k, k) and the Schur complements
    ``S = F22 - L21 L21^T`` as a new contiguous (g, s - k, s - k) array;
    k = 0 gives ``S`` equal to ``F``.  ``Li`` is inverted by halves;
    LAPACK's Cholesky is the certificate, and a failure raises
    :class:`IndefiniteMatrixError` with the failing block and pivot."""
    try:
        Li = _tril_inv(np.linalg.cholesky(F[:, :k, :k]))
    except np.linalg.LinAlgError:
        i, j = _failing_pivot(F[:, :k, :k])
        raise IndefiniteMatrixError(
            f"nonpositive pivot {j} in block {i}; the matrix is not positive definite",
            pivot=j, block=i) from None
    # a contiguous right operand keeps the batched matmuls on BLAS
    L21 = F[:, k:, :k] @ Li.transpose(0, 2, 1).copy()
    S = np.empty((len(F), F.shape[1] - k, F.shape[1] - k), dtype=F.dtype)
    for c in _chunks(len(F), S.shape[1] ** 2):
        np.matmul(L21[c], L21[c].transpose(0, 2, 1).copy(), out=S[c])
        np.subtract(F[c, k:, k:], S[c], out=S[c])
    return Li, L21, S


def _factor(A: ElementMatrix, dtype=np.float64) -> list:
    """Multifrontal Cholesky of ``A`` in ``dtype`` along its tree (see :func:`solve`):
    per level deepest first and per group of equal-size fronts, the pivot
    indices ``(g, k)``, ``Li`` ``(g, k, k)``, the update indices ``(g, u)``
    and ``L21`` ``(g, u, k)``."""
    tree, enode, nb, nf = A.tree, A.indices, A.nb, A.nodes
    n, dofs = nb * nf, np.arange(nb)

    # each element goes whole into the front of its first-eliminated node,
    # its smallest live one (nf: none), in element order within a front
    first = np.where(enode >= 0, enode, nf).min(axis=1)
    eorder = np.argsort(first, kind="stable")
    eptr = np.searchsorted(first[eorder], np.arange(nf + 1))
    factor = []
    # the level below: its groups, update keys and parents
    groups, ckeys, cparent = [], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    for d in reversed(range(len(tree))):
        start, nl, nr, ns = tree[d].T
        P = len(start)
        ps = start + nl + nr  # pivot (separator) nodes [ps, pe)
        pe = ps + ns
        parent = np.searchsorted(tree[d - 1][:, 0], start, side="right") - 1 if d else None

        # the elements of every front
        cnt = eptr[pe] - eptr[ps]
        el = eorder[np.repeat(eptr[ps] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
        efr, elnodes = np.repeat(np.arange(P), cnt), enode[el]

        # symbolic: the update set of a front is the outside nodes of its
        # elements and of its children's update sets, kept as front * nf + node
        up, cnode = cparent[ckeys // nf], ckeys % nf
        if np.any(cnode < ps[up]):
            raise ValueError("the tree is not a nested dissection of the matrix")
        keys = np.concatenate([(efr[:, None] * nf + elnodes)[elnodes >= pe[efr, None]],
                               (up * nf + cnode)[cnode >= pe[up]]])
        keys = np.sort(keys)  # np.unique's hash path is slower
        keys = keys[np.diff(keys, prepend=-1) != 0]
        uptr = np.searchsorted(keys, np.arange(P + 1) * nf)
        k, u = nb * ns, nb * np.diff(uptr)
        s = k + u
        order = np.lexsort((u, k))  # groups of equal-size fronts
        size = s[order] ** 2
        buf = np.zeros(int(size.sum()) + 1, dtype)  # the last entry takes fixed rows
        it = np.int32 if buf.size < 2 ** 31 else np.int64
        base, s = np.empty(P, dtype=it), s.astype(it)
        base[order] = np.cumsum(size) - size

        # one scatter adds the element blocks, then the children's update blocks,
        # into their fronts a chunk at a time, by int32 targets below 2^31 entries
        # child groups are popped in order, each freed once its chunks are added
        for fr, nodes, block in itertools.chain(
                ((efr[c], elnodes[c], A.data[A.classes[el[c]]])
                 for c in _chunks(len(el), A.data[0].size)),
                ((cparent[cf[c]], unodes[c], S[c]) for cf, S, unodes
                 in (groups.pop(0) for _ in range(len(groups)))
                 for c in _chunks(len(cf), S.shape[1] ** 2))):
            at = np.searchsorted(keys, fr[:, None] * nf + nodes) - uptr[fr, None] + ns[fr, None]
            at = np.where(nodes < pe[fr, None], nodes - ps[fr, None], at)  # pivot or update
            loc = (nb * at[:, :, None] + dofs).reshape(len(fr), -1).astype(it)
            tgt = base[fr, None, None] + loc[:, :, None] * s[fr, None, None] + loc[:, None, :]
            fixed = np.repeat(nodes < 0, nb, axis=1)
            if fixed.any():  # element rows only: update nodes are never fixed
                tgt[fixed[:, :, None] | fixed[:, None, :]] = -1
            # flat and of the buffer's dtype: the fast path
            np.add.at(buf, tgt.ravel(), block.astype(dtype, copy=False).ravel())
        block = tgt = loc = at = None  # frees the last child group's chunk

        level, groups = [], []
        ks, us = k[order], u[order]
        head = np.flatnonzero(np.r_[True, (ks[1:] != ks[:-1]) | (us[1:] != us[:-1]), True])
        for a, z in zip(head[:-1], head[1:]):
            fg = order[a:z]
            g, kg, ug = len(fg), int(ks[a]), int(us[a])
            F = buf[base[fg[0]]:base[fg[0]] + g * (kg + ug) ** 2].reshape(g, kg + ug, -1)
            try:
                Li, L21, S = eliminate(F, kg)
            except IndefiniteMatrixError as err:
                pivot = int(nb * ps[fg[err.block]] + err.pivot)
                raise IndefiniteMatrixError(
                    f"nonpositive pivot at position {pivot} of {n}; the matrix "
                    f"is not positive definite", pivot=pivot) from None
            unodes = keys[uptr[fg, None] + np.arange(ug // nb)] % nf
            level.append((nb * ps[fg, None] + np.arange(kg), Li,
                          (nb * unodes[:, :, None] + dofs).reshape(g, ug), L21))
            groups.append((fg, S, unodes))
        buf = F = None  # only the Schur complements are read again
        factor.append(level)
        ckeys, cparent = keys, parent
    return factor


def _substitute(factor: list, b: np.ndarray) -> np.ndarray:
    """Solve with the factor, in its dtype: forward up the tree, each group's
    update subtracted in place, backward down it."""
    x = b.astype(factor[0][0][1].dtype)
    for level in factor:
        for pidx, Li, uidx, L21 in level:
            y = Li @ x[pidx][:, :, None]
            x[pidx] = y[:, :, 0]
            np.subtract.at(x, uidx.ravel(), (L21 @ y).ravel())
    for level in reversed(factor):
        for pidx, Li, uidx, L21 in level:
            y = x[pidx][:, :, None] - L21.transpose(0, 2, 1) @ x[uidx][:, :, None]
            x[pidx] = (Li.transpose(0, 2, 1) @ y)[:, :, 0]
    return x


def _solve_in(A: ElementMatrix, b: np.ndarray, norm1: float, dtype) -> SolveReport | None:
    """Factor ``A`` in ``dtype`` and refine the solution of ``A x = b`` with
    float64 residuals (see the module notes); None where float32 stalls."""
    single, factor = dtype == np.float32, _factor(A, dtype)
    cond = norm1 * _hager_norm(lambda v: _substitute(factor, v), len(b), sweeps=3)
    x, steps, last = _substitute(factor, b).astype(float), 0, np.inf
    tiny = 4 * np.finfo(float).eps * norm1  # |r| <= 4 eps |A| |x|: float64's backward error
    while True:
        r = b - A @ x
        res = float(np.linalg.norm(r) / (np.linalg.norm(b) or 1.0))
        if (res <= RESIDUAL_TOL and (not single or np.abs(r).max() <= tiny * np.abs(x).max())
                or not single and steps == 3):
            break
        d = _substitute(factor, r)
        if single and not 0 < np.abs(d).max() <= last / 2:
            return None
        x, steps, last = x + d, steps + 1, np.abs(d).max()
    if cond > CONDITION_WARNING_LIMIT:
        warnings.warn(f"system condition estimate {cond:.3e} exceeds "
                      f"{CONDITION_WARNING_LIMIT:.0e}; results may be inaccurate",
                      RuntimeWarning, stacklevel=3)
    if not res <= RESIDUAL_TOL:  # NaN is a miss
        raise IterationLimitError(
            f"factorization residual {res:.3e} exceeds tolerance {RESIDUAL_TOL:.1e} "
            f"after {steps} refinement steps", residual=res)
    return SolveReport(x=x, relative_residual=res, method="factorization", iterations=steps,
                       precision="single" if single else "double", condition_estimate=cond)


def solve(matrix: ElementMatrix, rhs: np.ndarray) -> SolveReport:
    """Solve a symmetric positive definite system given as an
    :class:`ElementMatrix`, along its dissection tree; any other type
    raises ``TypeError``, and a right-hand side not of its order raises
    ``ValueError``.  The matrix is only read.

    The condition estimate is the product of Hager's estimates of the
    1-norms of the matrix and of its inverse.  Indefiniteness (singularity
    included) and a residual above ``RESIDUAL_TOL`` (or not finite) after
    refinement are reported as structured errors rather than ignored.  The
    BLAS runs on the calling thread: numpy's OpenBLAS is held at one
    thread, then set back.
    """
    if not isinstance(matrix, ElementMatrix):
        raise TypeError(f"solve takes an ElementMatrix, not {type(matrix).__name__}")
    b = np.asarray(rhs, dtype=float)
    A, n = matrix, matrix.shape[0]
    if b.shape != (n,):
        raise ValueError(f"solve takes a right-hand side of its matrix's order, not "
                         f"shapes {matrix.shape} and {b.shape}")
    if n == 0:  # every edge fixed: no unknowns
        return SolveReport(np.zeros(0), 0.0, method="factorization", iterations=0)
    with _one_blas_thread():  # many small gemms: threads only spin
        norm1 = _hager_norm(lambda v: A @ v, n)  # before the factor takes memory
        # float32 where the condition bound allows and the entries fit
        dmin, f32 = A.diagonal().min(), np.finfo(np.float32)
        single = (f32.tiny <= dmin and norm1 <= dmin / (32 * f32.eps)
                  and max(np.abs(A.data).max(), np.abs(b).max()) <= f32.max)
        rep = None  # float32's failures, overflows included, fall back to float64
        with contextlib.suppress(IndefiniteMatrixError), np.errstate(all="ignore"):
            rep = single and _solve_in(A, b, norm1, np.float32)
        return rep or _solve_in(A, b, norm1, np.float64)


def solve_system(system) -> SolveReport:
    """Solve an assembled :class:`~gwgfem.assembly.DiscreteSystem`."""
    return solve(system.matrix, system.rhs)
