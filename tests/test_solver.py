import numpy as np
import pytest
from scipy import sparse

from conftest import make_spaces
from gwgfem import assembly, solver
from gwgfem.mesh import build_rectangular, build_triangular
from gwgfem.postproc import manufactured
from gwgfem.solver import (
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


class TestDirectPath:
    def test_identity_matrix(self):
        rep = solve(sparse.eye(5, format="csc"), np.eye(5)[0])
        assert np.allclose(rep.x, np.eye(5)[0])
        assert rep.relative_residual == 0.0
        assert rep.method == "factorization"
        assert rep.spd_certified

    def test_hand_solved_2x2(self):
        rep = solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-14)

    def test_zero_rhs(self):
        rep = solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))
        assert np.allclose(rep.x, 0.0)

    def test_residual_contract_reverified(self):
        system = _table_system(4)
        rep = solve_system(system)
        recheck = np.linalg.norm(system.rhs - system.matrix @ rep.x)
        recheck /= np.linalg.norm(system.rhs)
        assert recheck <= 1e-12
        assert rep.relative_residual <= 1e-12

    def test_indefinite_reports_pivot(self):
        A = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(IndefiniteMatrixError) as err:
            solve(A, np.ones(3))
        assert err.value.pivot is not None

    def test_off_diagonal_pivot_is_not_certified(self):
        # eigenvalues +-1: an LU that pivots off the diagonal reports positive
        # pivots here, while the Cholesky stops at the zero first pivot
        with pytest.raises(IndefiniteMatrixError) as err:
            solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
        assert err.value.pivot == 0

    def test_singular_raises(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        with pytest.raises(IndefiniteMatrixError):
            solve(A, np.ones(3))

    def test_condition_estimate_reasonable(self):
        A = np.diag([1.0, 1e4])
        rep = solve(A, np.ones(2))
        assert rep.condition_estimate == pytest.approx(1e4, rel=0.5)

    def test_condition_warning_over_limit(self):
        A = np.diag([1.0, 1e15])
        with pytest.warns(RuntimeWarning, match="condition estimate"):
            solve(A, np.ones(2))

    def test_residual_miss_raises(self, monkeypatch):
        # no refinement reaches a zero tolerance, and there is no other path
        monkeypatch.setattr(solver, "RESIDUAL_TOL", 0.0)
        with pytest.raises(IterationLimitError, match="factorization residual") as err:
            solve_system(_table_system(4))
        assert err.value.residual > 0

    def test_nan_residual_is_a_miss(self):
        # NaN > tol is False: a non-finite residual must not pass as met
        with pytest.raises(IterationLimitError, match="residual nan") as err:
            solve(sparse.eye(2, format="csc"), np.array([np.nan, 1.0]))
        assert np.isnan(err.value.residual)

    def test_paths_agree_on_table_scale_system(self):
        system = _table_system(16)
        rep = solve_system(system)
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
        assert rep.iterations == 0
        assert np.linalg.norm(rep.x - dense) / np.linalg.norm(dense) < 1e-8


def _spd_batch(g, s, seed=0):
    X = np.random.default_rng(seed).normal(size=(g, s, s))
    return X @ X.transpose(0, 2, 1) + s * np.eye(s)


class TestEliminate:
    def test_schur_complement_and_factors(self):
        F = _spd_batch(3, 7)
        F0 = F.copy()
        Li, L21 = solver.eliminate(F, 4)
        A11, A21 = F0[:, :4, :4], F0[:, 4:, :4]
        assert np.allclose(Li @ A11 @ Li.transpose(0, 2, 1), np.eye(4), atol=1e-12)
        assert np.allclose(L21, A21 @ Li.transpose(0, 2, 1), atol=1e-12)
        schur = F0[:, 4:, 4:] - A21 @ np.linalg.solve(A11, A21.transpose(0, 2, 1))
        assert np.allclose(F[:, 4:, 4:], schur, atol=1e-12)
        assert np.array_equal(F[:, :, :4], F0[:, :, :4])  # pivot columns kept

    def test_failing_block_and_pivot(self):
        F = _spd_batch(4, 6, seed=1)
        F[2, 2, 2] = -1.0  # pivots 0 and 1 of block 2 stay positive
        with pytest.raises(IndefiniteMatrixError) as err:
            solver.eliminate(F, 5)
        assert (err.value.block, err.value.pivot) == (2, 2)


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
        if system.dofmap.num_unknowns == 0:  # rect n=1: every edge is fixed
            assert rep.x.shape == (0,)
            return
        A = system.matrix.toarray()
        dense = np.linalg.solve(A, system.rhs)
        assert np.linalg.norm(rep.x - dense) <= 1e-10 * np.linalg.norm(dense)
        assert rep.condition_estimate <= 1.0001 * np.linalg.cond(A, 1)
        # the one-front path gives the same solution
        assert np.allclose(solve(system.matrix, system.rhs).x, rep.x,
                           rtol=0, atol=1e-12 * np.abs(dense).max())

    @pytest.mark.parametrize("depth", [0, 2, -1])
    def test_indefinite_front_reports_its_pivot(self, depth):
        # make the last pivot of one front negative: every pivot before it
        # is that of the SPD matrix, so the front fails exactly there
        system = _assembled(build_triangular, 8, "p1", "p1")
        tree, nb = system.dofmap.tree, system.dofmap.nb
        start, nl, nr, ns = tree[depth][-1]
        last = nb * (start + nl + nr + ns) - 1
        A = system.matrix.tolil()
        A[last, last] = -1.0
        with pytest.raises(IndefiniteMatrixError) as err:
            solve(A.tocsc(), system.rhs, tree)
        assert err.value.pivot == last

    def test_hand_built_tree_on_a_path(self):
        # 1-D Laplacian on 7 nodes: parts [0,3) and [3,6) split by node 6,
        # each split again by its last node
        A = sparse.diags([-np.ones(6), 2.0 * np.ones(7), -np.ones(6)], [-1, 0, 1])
        perm = np.array([0, 2, 1, 4, 6, 5, 3])  # path order -> dissection order
        A = A.tocsr()[perm][:, perm].tocsc()
        tree = (np.array([[0, 3, 3, 1]]),
                np.array([[0, 1, 1, 1], [3, 1, 1, 1]]),
                np.array([[0, 0, 0, 1], [1, 0, 0, 1], [3, 0, 0, 1], [4, 0, 0, 1]]))
        b = np.arange(1.0, 8.0)
        rep = solve(A, b, tree)
        assert np.allclose(rep.x, np.linalg.solve(A.toarray(), b), rtol=0, atol=1e-12)

    def test_coupling_across_a_separator_is_rejected(self):
        system = _assembled(build_triangular, 8, "p1", "p0")
        tree = system.dofmap.tree
        leaves = tree[-1][:, 0]  # two parts the tree keeps apart
        i, j = system.dofmap.nb * leaves[0], system.dofmap.nb * leaves[-1]
        A = system.matrix.tolil()
        A[i, j] = A[j, i] = 1e-3
        with pytest.raises(ValueError, match="tree"):
            solve(A.tocsc(), system.rhs, tree)


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
