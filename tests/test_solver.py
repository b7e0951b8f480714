import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import as_scipy, make_spaces
import gwgfem
from gwgfem import assembly, solver
from gwgfem.mesh import build_rectangular, build_triangular
from gwgfem.postproc import manufactured
from gwgfem.solver import (
    ElementMatrix,
    IndefiniteMatrixError,
    IterationLimitError,
    solve,
    solve_system,
)
from gwgfem.weakops import parse_rb


def _table_system(n=8, interior="p1", boundary="p0"):
    mesh = build_rectangular(n)
    spaces = make_spaces(mesh, interior, boundary)
    case = manufactured("example1", 0.5, 1.0)
    return assembly.assemble(mesh, spaces, parse_rb("qb"), 0.5, 1.0, 1.0, -1.0,
                             case.f, case.g)


def _dense(A):
    """A small dense matrix as one element on the one node of its tree."""
    return ElementMatrix(np.zeros((1, 1), dtype=int), A[None], np.zeros(1, dtype=int),
                         (np.array([[0, 0, 0, 1]]),))


class TestInputContract:
    def test_other_types_are_rejected(self):
        # a dense array too: the element form is the one input
        for matrix in (sparse.eye(2, format="csc"), [[1.0, 0.0], [0.0, 1.0]], np.eye(2)):
            with pytest.raises(TypeError, match="takes an ElementMatrix, not"):
                solve(matrix, np.ones(2))

    def test_shapes_are_checked(self):
        # non-square blocks are not a matrix, so they are not reported as
        # indefinite, and a right-hand side of the wrong order fails before
        # any substitution
        with pytest.raises(ValueError, match=r"shape \(1, 2, 3\) are not \(nc, s, s\)"):
            _dense(np.ones((2, 3)))
        cases = [(np.ones(1), r"\(2, 2\) and \(1,\)"),
                 (np.ones(3), r"\(2, 2\) and \(3,\)"),
                 (np.ones((2, 1)), r"\(2, 2\) and \(2, 1\)")]
        for rhs, shapes in cases:
            with pytest.raises(ValueError, match=shapes):
                solve(_dense(np.eye(2)), rhs)

    def test_element_matrix_validates_its_input(self):
        # element blocks that are not whole node blocks, a class map not of
        # one class in [0, nc) per element, nodes that are not the tree's and
        # a root level that is not one part all raise; the empty tree, with
        # no unknowns, is a matrix
        blocks, one, tree = np.ones((1, 2, 2)), np.zeros(1, dtype=int), (np.array([[0, 1, 1, 1]]),)
        with pytest.raises(ValueError, match="m dividing s"):
            ElementMatrix(np.zeros((1, 3), dtype=int), np.ones((1, 4, 4)), one, tree)
        for classes in (np.zeros(2, dtype=int), np.zeros(0, dtype=int), np.zeros((1, 1), dtype=int)):
            with pytest.raises(ValueError, match=r"not 1 classes in \[0, 1\)"):
                ElementMatrix(np.array([[0, 1]]), blocks, classes, tree)
        for bad in (1, -1):
            with pytest.raises(ValueError, match=r"not 1 classes in \[0, 1\)"):
                ElementMatrix(np.array([[0, 1]]), blocks, np.array([bad]), tree)
        two = np.ones((2, 2, 2))
        with pytest.raises(ValueError, match=r"not 2 classes in \[0, 2\)"):
            ElementMatrix(np.array([[0, 1], [1, 2]]), two, np.array([0, 2]), tree)
        assert ElementMatrix(np.array([[0, 1], [1, 2]]), two, np.array([1, 1]), tree).nnz == 8
        for bad in (3, -2):
            with pytest.raises(ValueError, match=r"outside \[-1, 3\)"):
                ElementMatrix(np.array([[0, bad]]), blocks, one, tree)
        with pytest.raises(ValueError, match="root level is not one part"):
            ElementMatrix(np.array([[0, 1]]), blocks, one,
                          (np.array([[0, 0, 0, 1], [1, 0, 0, 1]]),))
        empty = ElementMatrix(np.full((1, 2), -1), blocks, one, ())
        assert empty.shape == (0, 0) and solve(empty, np.zeros(0)).x.shape == (0,)

    def test_argument_is_not_written(self):
        # a path of three elements with fixed ends, [[2, -1], [-1, 2]] in
        # all: the solver leaves the caller's arrays as they were
        A = ElementMatrix(np.array([[-1, 1], [1, 0], [0, -1]]),
                          np.array([[[1.0, -1.0], [-1.0, 1.0]]]), np.zeros(3, dtype=int),
                          (np.array([[0, 0, 0, 2]]),))
        before = [a.copy() for a in (A.indices, A.data, A.classes, A.tree[0])]
        rep = solve(A, np.array([1.0, 1.0]))
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-14)
        for a, b in zip((A.indices, A.data, A.classes, A.tree[0]), before):
            assert np.array_equal(a, b)
        dense = np.array([[2.0, 1.0], [1.0, 2.0]])
        solve(_dense(dense), np.array([3.0, 3.0]))
        assert np.array_equal(dense, [[2.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("build,n,interior,boundary", [
        (build_triangular, 8, "p1", "p1"),
        (build_rectangular, 6, "sin", "rm"),
        (build_rectangular, 1, "p1", "p0"),
    ])
    def test_matvec_is_scipy_matvec(self, build, n, interior, boundary):
        # the element product sums each row in another order than scipy's
        # CSC kernel, so the two agree within the rounding bound of a sum of
        # (entries per row) terms: |y - y_ref| <= 2 k eps |A| |x|
        A = _assembled(build, n, interior, boundary).matrix
        x = np.random.default_rng(n).normal(size=A.shape[1])
        y = A @ x
        S = as_scipy(A)
        k = np.diff(S.tocsr().indptr).max(initial=0)
        bound = 2 * k * np.finfo(float).eps * (abs(S) @ np.abs(x))
        assert y.dtype == np.float64 and y.shape == (A.shape[0],)
        assert np.all(np.abs(y - S @ x) <= bound)


class TestDirectPath:
    def test_identity_matrix(self):
        # returned without IndefiniteMatrixError: the SPD certificate
        rep = solve(_dense(np.eye(5)), np.eye(5)[0])
        assert np.allclose(rep.x, np.eye(5)[0])
        assert rep.relative_residual == 0.0
        assert rep.method == "factorization"

    def test_hand_solved_2x2(self):
        rep = solve(_dense(np.array([[2.0, 1.0], [1.0, 2.0]])), np.array([3.0, 3.0]))
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-14)

    def test_zero_rhs(self):
        rep = solve(_dense(np.array([[2.0, 1.0], [1.0, 2.0]])), np.zeros(2))
        assert np.allclose(rep.x, 0.0)

    def test_residual_contract_reverified(self):
        system = _table_system(4)
        rep = solve_system(system)
        recheck = np.linalg.norm(system.rhs - system.matrix @ rep.x)
        recheck /= np.linalg.norm(system.rhs)
        assert recheck <= 1e-12
        assert rep.relative_residual <= 1e-12

    def test_indefinite_reports_pivot(self):
        with pytest.raises(IndefiniteMatrixError) as err:
            solve(_dense(np.diag([1.0, -1.0, 2.0])), np.ones(3))
        assert err.value.pivot is not None

    def test_off_diagonal_pivot_is_not_certified(self):
        # eigenvalues +-1: an LU that pivots off the diagonal reports positive
        # pivots here, while the Cholesky stops at the zero first pivot
        with pytest.raises(IndefiniteMatrixError) as err:
            solve(_dense(np.array([[0.0, 1.0], [1.0, 0.0]])), np.array([1.0, 2.0]))
        assert err.value.pivot == 0

    def test_singular_raises(self):
        with pytest.raises(IndefiniteMatrixError):
            solve(_dense(np.diag([1.0, 0.0, 0.0])), np.ones(3))

    def test_condition_estimate_reasonable(self):
        rep = solve(_dense(np.diag([1.0, 1e4])), np.ones(2))
        assert rep.condition_estimate == pytest.approx(1e4, rel=0.5)

    def test_condition_warning_over_limit(self):
        with pytest.warns(RuntimeWarning, match="condition estimate"):
            solve(_dense(np.diag([1.0, 1e15])), np.ones(2))

    def test_residual_miss_raises(self, monkeypatch):
        # no refinement reaches a zero tolerance, and there is no other path
        monkeypatch.setattr(solver, "RESIDUAL_TOL", 0.0)
        with pytest.raises(IterationLimitError, match="factorization residual") as err:
            solve_system(_table_system(4))
        assert err.value.residual > 0

    def test_nan_residual_is_a_miss(self):
        # NaN > tol is False: a non-finite residual must not pass as met
        with pytest.raises(IterationLimitError, match="residual nan") as err:
            solve(_dense(np.eye(2)), np.array([np.nan, 1.0]))
        assert np.isnan(err.value.residual)

    def test_paths_agree_on_table_scale_system(self):
        system = _table_system(16)
        rep = solve_system(system)
        dense = np.linalg.solve(as_scipy(system.matrix).toarray(), system.rhs)
        assert rep.precision == "single"  # the gate's pick on this well-conditioned system
        assert np.linalg.norm(rep.x - dense) / np.linalg.norm(dense) < 1e-8


def _spd_batch(g, s, seed=0):
    X = np.random.default_rng(seed).normal(size=(g, s, s))
    return X @ X.transpose(0, 2, 1) + s * np.eye(s)


class TestEliminate:
    def test_schur_complement_and_factors(self):
        F = _spd_batch(3, 7)
        F0 = F.copy()
        Li, L21, S = solver.eliminate(F, 4)
        A11, A21 = F0[:, :4, :4], F0[:, 4:, :4]
        assert np.allclose(Li @ A11 @ Li.transpose(0, 2, 1), np.eye(4), atol=1e-12)
        assert np.allclose(L21, A21 @ Li.transpose(0, 2, 1), atol=1e-12)
        schur = F0[:, 4:, 4:] - A21 @ np.linalg.solve(A11, A21.transpose(0, 2, 1))
        assert S.shape == (3, 3, 3) and S.flags.c_contiguous
        assert np.allclose(S, schur, atol=1e-12)
        assert np.array_equal(F, F0)  # only read

    def test_failing_block_and_pivot(self):
        F = _spd_batch(4, 6, seed=1)
        F[2, 2, 2] = -1.0  # pivots 0 and 1 of block 2 stay positive
        with pytest.raises(IndefiniteMatrixError) as err:
            solver.eliminate(F, 5)
        assert (err.value.block, err.value.pivot) == (2, 2)

    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 6, 7, 8, 31, 32, 33, 64, 65, 128])
    def test_triangle_inverse_by_halves(self, k, g):
        # sizes off a power of two end in a narrower block at some width, so
        # every merge shape is reached; the upper part stays exactly 0
        L = np.linalg.cholesky(_spd_batch(g, k, seed=k))
        ref = np.linalg.inv(L)
        Li = solver._tril_inv(L)  # in place
        assert Li is L
        assert np.abs(Li - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)
        assert not np.triu(Li, 1).any()

    def test_front_without_pivots(self):
        # a part whose separator is empty (jittered meshes make them) takes
        # a step with k = 0: empty factors, and its matrix passes unchanged
        F = _spd_batch(3, 5, seed=2)
        F0 = F.copy()
        Li, L21, S = solver.eliminate(F, 0)
        assert Li.shape == (3, 0, 0) and L21.shape == (3, 5, 0)
        assert np.array_equal(S, F0) and np.array_equal(F, F0)

    def test_no_lapack_inverse(self, monkeypatch):
        # every triangle is inverted by halves, the element interiors' and
        # the fronts' alike, so numpy's inverse is never called
        mesh = build_triangular(8)
        spaces = make_spaces(mesh, "p1", "p1")
        case = manufactured("example1", 0.5, 1.0)

        def no_inverse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")
        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        system = assembly.assemble(mesh, spaces, parse_rb("qb"), 0.5, 1.0, 1.0, -1.0,
                                   case.f, case.g)
        assert solve_system(system).relative_residual <= solver.RESIDUAL_TOL


def _hager_five_full_sweeps(apply, n):
    """Hager's estimate as a loop of five whole sweeps, each ending in the
    product that tests for the next one: the reference for
    ``solver._hager_norm``, which skips that product on the fifth sweep."""
    x = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(5):
        y = apply(x)
        est = max(est, float(np.abs(y).sum()))
        xi = np.sign(y)
        xi[xi == 0] = 1.0
        z = apply(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    return est


def _assembled(build, n, interior, boundary):
    mesh = build(n)
    spaces = make_spaces(mesh, interior, boundary)
    case = manufactured("example1", 0.5, 1.0)
    return assembly.assemble(mesh, spaces, parse_rb("qb"), 0.5, 1.0, 1.0, -1.0,
                             case.f, case.g)


class TestMultifrontalPath:
    """Factorization along the assembly's nested-dissection tree."""

    @pytest.mark.parametrize("build,n,interior,boundary", [
        (build_rectangular, 1, "p1", "p0"),
        (build_rectangular, 2, "p1", "p0"),
        (build_rectangular, 7, "p1", "p1"),
        (build_rectangular, 8, "sin", "rm"),
        (build_triangular, 5, "p1", "p0"),
        (build_triangular, 8, "p1", "rm"),
        (build_triangular, 16, "p1", "p1"),
        (build_triangular, 8, "sin", "p0"),
    ])
    def test_agrees_with_dense_solve(self, build, n, interior, boundary):
        system = _assembled(build, n, interior, boundary)
        rep = solve_system(system)
        if system.matrix.shape == (0, 0):  # rect n=1: every edge is fixed
            assert rep.x.shape == (0,)
            return
        A = as_scipy(system.matrix).toarray()
        dense = np.linalg.solve(A, system.rhs)
        assert np.linalg.norm(rep.x - dense) <= 1e-10 * np.linalg.norm(dense)
        assert rep.condition_estimate <= 1.0001 * np.linalg.cond(A, 1)
        # one front over every node gives the same solution
        A = system.matrix
        one = ElementMatrix(A.indices, A.data, A.classes, (np.array([[0, 0, 0, A.nodes]]),))
        assert np.allclose(solve(one, system.rhs).x, rep.x,
                           rtol=0, atol=1e-12 * np.abs(dense).max())

    @pytest.mark.parametrize("build,n,interior,boundary", [
        (build_triangular, 8, "p1", "p1"),
        (build_rectangular, 6, "sin", "rm"),
    ])
    def test_norm_is_the_assembled_matrix_norm(self, build, n, interior, boundary):
        # Hager's estimate is the 1-norm of a product with a unit vector, so
        # it is never above the assembled matrix's norm (to rounding), and on
        # these systems it comes within 1% of it
        system = _assembled(build, n, interior, boundary)
        A = system.matrix
        norm = abs(as_scipy(A)).sum(axis=0).max()
        got = solver._hager_norm(lambda v: A @ v, A.shape[0])
        assert 0.99 * norm <= got <= (1 + 1e-13) * norm

    def test_norm_skips_the_last_sweeps_product(self):
        # every sweep moves to a new unit vector on this integer matrix (exact
        # in floating point at x = 1/4), so all five run; the product that
        # would test for a sixth goes, and the estimate is the five-sweep one
        A = np.array([[2, 0, 0, -2], [0, -2, 0, -1], [0, 0, -2, 0], [-2, -1, 0, 3]], float)
        calls = []
        got = solver._hager_norm(lambda v: calls.append(v) or A @ v, 4)
        assert len(calls) == 9
        assert got == _hager_five_full_sweeps(lambda v: A @ v, 4) == np.abs(A).sum(axis=0).max()
        B = _assembled(build_triangular, 8, "p1", "p1").matrix
        calls.clear()
        got = solver._hager_norm(lambda v: calls.append(v) or B @ v, B.shape[0])
        assert len(calls) <= 9
        assert got == _hager_five_full_sweeps(lambda v: B @ v, B.shape[0])

    @pytest.mark.parametrize("n", [16, 32])
    def test_inverse_estimate_stops_after_three_sweeps(self, n, monkeypatch):
        # on the lam=1e6 locking systems the estimate of ||A^-1||_1 takes at
        # most 5 substitutions (five sweeps took up to 9) and reads at least
        # 0.95 of the five-sweep estimate, never more
        mesh = build_triangular(n)
        case = manufactured("example2", 0.5, 1e6)
        system = assembly.assemble(mesh, make_spaces(mesh, "p1", "p0"), parse_rb("id"),
                                   0.5, 1e6, 1.0, 0.0, case.f, case.g)
        factors, substitute = [], solver._substitute
        monkeypatch.setattr(solver, "_substitute",
                            lambda factor, v: factors.append(factor) or substitute(factor, v))
        rep = solve_system(system)
        final, A = factors[-1], system.matrix  # a float32 attempt's factor is another
        estimate = sum(f is final for f in factors) - 1 - rep.iterations
        five = (solver._hager_norm(lambda v: A @ v, A.shape[0])
                * _hager_five_full_sweeps(lambda v: substitute(final, v), A.shape[0]))
        assert estimate <= 5
        assert 0.95 * five <= rep.condition_estimate <= five

    @pytest.mark.parametrize("depth", [0, 2, -1])
    def test_indefinite_front_reports_its_pivot(self, depth):
        # make the last pivot of one front negative: every pivot before it
        # is that of the SPD matrix, so the front fails exactly there
        system = _assembled(build_triangular, 8, "p1", "p1")
        A = system.matrix
        start, nl, nr, ns = A.tree[depth][-1]
        last = A.nb * (start + nl + nr + ns) - 1
        data = A.data[A.classes]  # one class per element
        e, i = np.nonzero(A.unknowns() == last)  # its two elements' entries
        data[e, i, i] = 0.0
        data[e[0], i[0], i[0]] = -1.0
        with pytest.raises(IndefiniteMatrixError) as err:
            solve(ElementMatrix(A.indices, data, np.arange(len(data)), A.tree), system.rhs)
        assert err.value.pivot == last

    def test_hand_built_tree_on_a_path(self):
        # 1-D Laplacian on 7 nodes with fixed ends, as 8 two-node elements:
        # parts [0,3) and [3,6) split by node 6, each split again by its
        # last node
        perm = np.array([0, 2, 1, 4, 6, 5, 3])  # dissection order -> path order
        number = np.r_[-1, np.argsort(perm), -1]  # the path, ends fixed
        tree = (np.array([[0, 3, 3, 1]]),
                np.array([[0, 1, 1, 1], [3, 1, 1, 1]]),
                np.array([[0, 0, 0, 1], [1, 0, 0, 1], [3, 0, 0, 1], [4, 0, 0, 1]]))
        A = ElementMatrix(np.column_stack([number[:-1], number[1:]]),
                          np.array([[[1.0, -1.0], [-1.0, 1.0]]]), np.zeros(8, dtype=int), tree)
        dense = sparse.diags([-np.ones(6), 2.0 * np.ones(7), -np.ones(6)], [-1, 0, 1])
        dense = dense.toarray()[perm][:, perm]
        assert np.array_equal(as_scipy(A).toarray(), dense)
        b = np.arange(1.0, 8.0)
        rep = solve(A, b)
        assert np.allclose(rep.x, np.linalg.solve(dense, b), rtol=0, atol=1e-12)

    def test_tree_must_fit_the_matrix(self):
        # the tree's root is one part over all nf nodes, and every element
        # node must be one of them
        A = _assembled(build_triangular, 4, "p1", "p0").matrix
        with pytest.raises(ValueError, match="tree's root level"):
            ElementMatrix(A.indices, A.data, A.classes, A.tree[1:])
        with pytest.raises(ValueError, match="the tree's nodes"):
            ElementMatrix(np.arange(7)[:, None], np.ones((7, 1, 1)), np.arange(7),
                          (np.array([[0, 1, 1, 1]]),))

    def test_coupling_across_a_separator_is_rejected(self):
        # one extra element couples two parts that the tree keeps apart
        system = _assembled(build_triangular, 8, "p1", "p0")
        A = system.matrix
        leaves = A.tree[-1][:, 0]
        extra = np.full(A.indices.shape[1], -1)
        extra[:2] = leaves[0], leaves[-1]
        block = np.zeros(A.data.shape[1:])
        block[0, A.nb] = block[A.nb, 0] = 1e-3
        A = ElementMatrix(np.vstack([A.indices, extra]), np.concatenate([A.data, block[None]]),
                          np.r_[A.classes, len(A.data)], A.tree)
        with pytest.raises(ValueError, match="tree"):
            solve(A, system.rhs)

    def test_coupling_within_a_front_subtree_is_accepted(self):
        # an extra element on two nodes is accepted iff the front subtree of
        # one node (its part: the subtree's nodes [start, pe)) holds the other
        system = _assembled(build_triangular, 8, "p1", "p0")
        A = system.matrix
        lo, hi = np.empty(A.nodes, dtype=int), np.empty(A.nodes, dtype=int)
        for start, nl, nr, ns in np.concatenate(A.tree):
            pe = start + nl + nr + ns
            lo[pe - ns:pe], hi[pe - ns:pe] = start, pe
        block = np.zeros(A.data.shape[1:])
        block[0, A.nb] = block[A.nb, 0] = 1e-3
        rng = np.random.default_rng(7)
        verdicts = []
        for _ in range(60):
            x, y = rng.choice(A.nodes, size=2, replace=False)
            extra = np.full(A.indices.shape[1], -1)
            extra[:2] = x, y
            B = ElementMatrix(np.vstack([A.indices, extra]), np.concatenate([A.data, block[None]]),
                              np.r_[A.classes, len(A.data)], A.tree)
            ok = lo[y] <= x < hi[y] or lo[x] <= y < hi[x]
            verdicts.append(ok)
            if ok:
                assert solve(B, system.rhs).relative_residual <= 1e-12
            else:
                with pytest.raises(ValueError, match="tree"):
                    solve(B, system.rhs)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_element_without_free_nodes_is_dropped(self):
        # an element on fixed nodes only goes into no front, whatever its
        # block, and the solution keeps its bits
        system = _assembled(build_triangular, 8, "p1", "p1")
        A = system.matrix
        extra = np.full((1, A.indices.shape[1]), -1)
        block = np.arange(1.0, 1.0 + A.data[0].size).reshape(A.data[0].shape)
        B = ElementMatrix(np.vstack([A.indices, extra]), np.concatenate([A.data, block[None]]),
                          np.r_[A.classes, len(A.data)], A.tree)
        assert np.array_equal(solve(B, system.rhs).x, solve(A, system.rhs).x)


def _tri_condition(n, boundary, rb="qb", lam=1.0, gamma=-1.0, example=1):
    mesh = build_triangular(n)
    spaces = make_spaces(mesh, "p1", boundary)
    case = manufactured(f"example{example}", 0.5, lam)
    system = assembly.assemble(mesh, spaces, parse_rb(rb), 0.5, lam, 1.0, gamma,
                               case.f, case.g)
    return solve_system(system).condition_estimate


class TestRigidMotionConditioning:
    """The rm edge basis is scaled like p1's, so its systems condition alike."""

    def test_rm_like_p1(self):
        assert _tri_condition(16, "rm") < 4.0 * _tri_condition(16, "p1")

    def test_rm_identity_locking(self):
        assert _tri_condition(32, "rm", rb="id", lam=1e6, gamma=0.0, example=2) < 1e11


@pytest.mark.parametrize("build,interior,boundary,rb,lam,gamma,example", [
    (build_triangular, "p1", "p1", "qb", 1.0, -1.0, 1),
    (build_rectangular, "sin", "p0", "qb", 1.0, -1.0, 1),
    (build_rectangular, "p1", "p0", "qb", 1.0, -1.0, 1),
    (build_triangular, "p1", "p0", "id", 1e6, 0.0, 2),
])
def test_condition_grows_as_h_to_the_minus_two(build, interior, boundary, rb, lam, gamma,
                                               example):
    # halving h multiplies the condition estimate by at most 4.1 (3.22,
    # 4.00, 4.00 and 3.89 at n = 16 -> 32): the scaling of the bases adds no
    # growth beyond the stiffness's own h^-2
    conds = []
    for n in (16, 32):
        mesh = build(n)
        case = manufactured(f"example{example}", 0.5, lam)
        system = assembly.assemble(mesh, make_spaces(mesh, interior, boundary), parse_rb(rb),
                                   0.5, lam, 1.0, gamma, case.f, case.g)
        conds.append(solve_system(system).condition_estimate)
    assert 1.0 < conds[1] / conds[0] <= 4.1


def _locking(n):
    mesh = build_triangular(n)
    spaces = make_spaces(mesh, "p1", "p0")
    case = manufactured("example2", 0.5, 1e6)
    return assembly.assemble(mesh, spaces, parse_rb("id"), 0.5, 1e6, 1.0, 0.0,
                             case.f, case.g)


def _factor_dtypes(monkeypatch):
    """The dtypes ``solve`` factors in, in order, recorded as it calls ``_factor``."""
    dtypes, factor = [], solver._factor

    def record(A, dtype=np.float64):
        dtypes.append(np.dtype(dtype))
        return factor(A, dtype)
    monkeypatch.setattr(solver, "_factor", record)
    return dtypes


class TestMixedPrecision:
    """float32 factors where norm / smallest diagonal entry is at most
    1 / (64 u) and the entries fit; float64 factors everywhere else, and
    where float32 fails."""

    def test_well_conditioned_system_takes_float32(self, monkeypatch):
        system = _assembled(build_triangular, 16, "p1", "p1")
        A, b = system.matrix, system.rhs
        dtypes = _factor_dtypes(monkeypatch)
        rep = solve_system(system)
        assert dtypes == [np.float32] and rep.precision == "single"
        # the float64 path's tolerances: the dense solution, the residual
        # and the condition estimate (to the float32 substitutions' rounding)
        dense = np.linalg.solve(as_scipy(A).toarray(), b)
        assert np.linalg.norm(rep.x - dense) <= 1e-10 * np.linalg.norm(dense)
        assert rep.relative_residual <= solver.RESIDUAL_TOL
        assert np.linalg.norm(b - A @ rep.x) <= solver.RESIDUAL_TOL * np.linalg.norm(b)
        cond = np.linalg.cond(as_scipy(A).toarray(), 1)
        assert rep.condition_estimate <= 1.001 * cond
        # within cond x eps of the float64 factor's solution
        x64 = solver._substitute(solver._factor(A), b)
        assert np.abs(rep.x - x64).max() <= cond * np.finfo(float).eps * np.abs(x64).max()

    def test_locking_factors_once_in_float64(self, monkeypatch):
        # lambda = 1e6: the bound reads millions, so float32 is never tried
        system = _locking(16)
        dtypes = _factor_dtypes(monkeypatch)
        rep = solve_system(system)
        assert dtypes == [np.float64] and rep.precision == "double"
        assert rep.relative_residual <= solver.RESIDUAL_TOL

    def test_failed_float32_cholesky_falls_back(self, monkeypatch):
        # the bound reads 2, but 1 - 1e-9 rounds to 1 in float32, where the
        # matrix is singular; float64 factors it (condition 2e9)
        A = np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]])
        b = np.array([1.0, 2.0])
        dtypes = _factor_dtypes(monkeypatch)
        rep = solve(_dense(A), b)
        assert dtypes == [np.float32, np.float64] and rep.precision == "double"
        assert rep.relative_residual <= solver.RESIDUAL_TOL
        assert np.allclose(rep.x, np.linalg.solve(A, b), rtol=1e-6, atol=0)

    @pytest.mark.parametrize("scale", [1e39, 1e-39])
    def test_entries_out_of_float32_range_take_float64(self, monkeypatch, scale):
        # a bound of 2 passes, but the entries overflow (or fall below the
        # smallest normal) in float32: no cast is tried, so nothing warns
        dtypes = _factor_dtypes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(_dense(scale * np.diag([1.0, 2.0])), np.array([scale, scale]))
        assert dtypes == [np.float64] and rep.precision == "double"
        assert np.allclose(rep.x, [1.0, 0.5], rtol=1e-15, atol=0)

    def test_float32_overflow_falls_back_without_warning(self, monkeypatch):
        # the gate passes (bound 1, entries in range), but x = 1e40 overflows
        # float32: the attempt stalls on inf and float64 solves it, silently
        dtypes = _factor_dtypes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(_dense(1e-30 * np.eye(2)), np.array([1e10, 2e10]))
        assert dtypes == [np.float32, np.float64] and rep.precision == "double"
        assert np.allclose(rep.x, [1e40, 2e40], rtol=1e-15, atol=0)

    def test_indefinite_matrix_raises_its_float64_pivot(self, monkeypatch):
        # a positive diagonal and a bound of 3 pass the gate; the third pivot
        # is 1 - 4 in either precision, and float64's failure is the one raised
        dtypes = _factor_dtypes(monkeypatch)
        A = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(IndefiniteMatrixError) as err:
            solve(_dense(A), np.ones(3))
        assert dtypes == [np.float32, np.float64]
        assert err.value.pivot == 2


class TestBoundedMemory:
    """Temporaries come in chunks of ``solver.CHUNK_ENTRIES`` entries."""

    @pytest.mark.parametrize("system", [
        lambda: _assembled(build_triangular, 16, "p1", "p1"),  # nb = 4
        lambda: _locking(16),  # nb = 2
    ])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_chunking_keeps_the_factor(self, monkeypatch, system, chunk):
        runs = []
        for entries in (solver.CHUNK_ENTRIES, chunk):
            monkeypatch.setattr(solver, "CHUNK_ENTRIES", entries)
            s = system()
            runs.append((s, solver._factor(s.matrix), solve_system(s).x))
        (s, factor, x), (t, chunked, y) = runs
        for name in ("recovery", "interior_load", "rhs"):
            assert np.array_equal(getattr(s, name), getattr(t, name))
        assert np.array_equal(s.matrix.data, t.matrix.data)
        assert len(factor) == len(chunked)
        for level, other in zip(factor, chunked):
            assert len(level) == len(other)
            for group, same in zip(level, other):
                assert all(np.array_equal(a, b) for a, b in zip(group, same))
        assert np.array_equal(x, y)
        # some parent takes two children of one group, which a single entry
        # splits into two chunks; the scatter still adds them in order
        nb, tree = s.matrix.nb, s.matrix.tree
        size = {}  # first pivot node of each front -> its (k, u)
        for level in factor:
            for pidx, Li, uidx, L21 in level:
                size.update((i, (Li.shape[1], L21.shape[1])) for i in pidx[:, 0] // nb)
        shared = 0
        for d in range(1, len(tree)):
            first = {st: st + nl + nr for st, nl, nr, ns in tree[d]}  # start -> pivots
            for st, nl, nr, ns in tree[d - 1]:
                if nl and nr and st in first and st + nl in first:
                    shared += size[first[st]] == size[first[st + nl]]
        assert shared > 0

    def test_solve_peak_is_the_factor_and_two_levels(self, monkeypatch):
        # a small chunk bound makes the slack small; at its default the
        # bound allows a few chunks of 8 MB
        monkeypatch.setattr(solver, "CHUNK_ENTRIES", 1 << 16)
        system = _assembled(build_triangular, 64, "p1", "p1")
        # fronts, Schur complements and factor in the precision solve picks
        single = solve_system(system).precision == "single"
        factor = solver._factor(system.matrix, np.float32 if single else np.float64)
        item = factor[0][0][1].itemsize
        # per level, deepest first: the factor so far, the buffer that holds
        # every front (k + u) x (k + u), and the Schur complements u x u
        kept = itertools.accumulate(sum(a.nbytes for group in level for a in group)
                                    for level in factor)
        buffers = [sum(item * len(Li) * (Li.shape[1] + L21.shape[1]) ** 2
                       for pidx, Li, uidx, L21 in level) for level in factor]
        schur = [sum(item * len(Li) * L21.shape[1] ** 2 for pidx, Li, uidx, L21 in level)
                 for level in factor]
        # a level scatters its children's Schur complements into its buffer,
        # then eliminates its fronts into its own; the buffer then goes
        bound = max(k + b + max(s, below) for k, b, s, below
                    in zip(kept, buffers, schur, [0] + schur[:-1]))
        del factor
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_system(system)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound + 4 * 8 * solver.CHUNK_ENTRIES


def _openblas():
    """The (get, set) thread-count functions that ``solve`` holds, found by
    running it once; skips where numpy loaded no OpenBLAS."""
    solve(_dense(np.eye(1)), np.ones(1))
    if not solver._blas["threads"]:
        pytest.skip("numpy loaded no OpenBLAS (another BLAS, or no /proc/self/maps)")
    return solver._blas["threads"]


# hashes every array of the factor, the solution and the condition estimate
# of one assembled system, in a fresh process of the given BLAS thread count
_HASH_SOLVE = """
import hashlib, sys
import numpy as np
from gwgfem import assembly, solver
from gwgfem.mesh import build_triangular
from gwgfem.postproc import manufactured
from gwgfem.spaces import build_spaces, parse_boundary, parse_interior
from gwgfem.weakops import parse_rb
n, boundary, rb, lam, gamma, example = sys.argv[1:]
n, lam, gamma = int(n), float(lam), float(gamma)
mesh = build_triangular(n)
spaces = build_spaces(mesh, parse_interior("p1", seed=0), parse_boundary(boundary), None,
                      seed_entropy=(0, n))
case = manufactured(example, 0.5, lam)
system = assembly.assemble(mesh, spaces, parse_rb(rb), 0.5, lam, 1.0, gamma, case.f, case.g)
h, factor = hashlib.sha256(), solver._factor
def hashed(*args):
    levels = factor(*args)
    for group in (g for level in levels for g in level):
        for a in group:
            h.update(a.tobytes())
    return levels
solver._factor = hashed
rep = solver.solve_system(system)
h.update(rep.x.tobytes())
h.update(np.float64(rep.condition_estimate).tobytes())
print(h.hexdigest())
"""


class TestOneBlasThread:
    """``solve`` runs its BLAS on the calling thread and gives the caller's
    thread count back."""

    def _record(self, monkeypatch, get, before_factor=lambda: None):
        seen = []

        def wrap(fn):
            def inner(*args):
                if fn.__name__ == "_factor":
                    before_factor()
                seen.append(get())
                return fn(*args)
            return inner

        for name in ("_factor", "_substitute"):
            monkeypatch.setattr(solver, name, wrap(getattr(solver, name)))
        return seen

    @pytest.fixture
    def two_threads(self):
        get, set_ = _openblas()
        caller = get()
        set_(2)  # held at one below, whatever the host's default
        yield get, get()
        set_(caller)

    def test_factor_and_substitutions_see_one_thread(self, monkeypatch, two_threads):
        get, caller = two_threads
        seen = self._record(monkeypatch, get)
        solve_system(_assembled(build_triangular, 8, "p1", "p1"))
        assert len(seen) > 2 and set(seen) == {1}
        assert get() == caller and solver._blas["depth"] == 0

    def test_restored_after_an_error(self, monkeypatch, two_threads):
        get, caller = two_threads
        seen = self._record(monkeypatch, get)
        with pytest.raises(IndefiniteMatrixError):
            solve(_dense(np.diag([1.0, -1.0, 2.0])), np.ones(3))
        assert seen == [1]
        assert get() == caller and solver._blas["depth"] == 0

    def test_nested_solve_keeps_the_hold(self, two_threads):
        get, caller = two_threads
        with solver._one_blas_thread():
            solve(_dense(np.eye(2)), np.ones(2))
            assert get() == 1
        assert get() == caller and solver._blas["depth"] == 0

    def test_concurrent_solves_restore_once(self, monkeypatch, two_threads):
        # the late solve factors only after the early one has returned, so
        # the early one's exit must leave the hold in place
        get, caller = two_threads
        inside, early_done = threading.Event(), threading.Event()

        def before_factor():
            if threading.current_thread().name == "late":
                inside.set()
                assert early_done.wait(timeout=60)

        seen = self._record(monkeypatch, get, before_factor)
        system = _assembled(build_triangular, 8, "p1", "p1")
        xs = []

        def early():
            assert inside.wait(timeout=60)
            xs.append(solve_system(system).x)
            early_done.set()

        runs = [threading.Thread(target=lambda: xs.append(solve_system(system).x), name="late"),
                threading.Thread(target=early)]
        for t in runs:
            t.start()
        for t in runs:
            t.join(timeout=120)
            assert not t.is_alive()
        assert len(xs) == 2 and np.array_equal(*xs)
        assert len(seen) > 4 and set(seen) == {1}
        assert get() == caller and solver._blas["depth"] == 0

    @pytest.mark.parametrize("args", [
        ("32", "p1", "qb", "1", "-1", "example1"),
        ("16", "p0", "id", "1e6", "0", "example2"),  # locking
    ])
    def test_bits_do_not_depend_on_the_thread_count(self, args):
        path = [str(Path(gwgfem.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", _HASH_SOLVE, *args],
                                  env=dict(env, OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
