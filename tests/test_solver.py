import numpy as np
import pytest
from scipy import sparse

from conftest import make_spaces
from gwgfem import assembly, solver
from gwgfem.mesh import build_rectangular
from gwgfem.postproc import manufactured
from gwgfem.solver import (
    IndefiniteMatrixError,
    IterationLimitError,
    SingularMatrixError,
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
        # eigenvalues +-1: SuperLU pivots off the diagonal, and the positive
        # U diagonal it then reports says nothing about definiteness
        with pytest.raises(IndefiniteMatrixError):
            solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0]))

    def test_singular_raises(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        with pytest.raises((SingularMatrixError, IndefiniteMatrixError)):
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

    def test_paths_agree_on_table_scale_system(self):
        system = _table_system(16)
        rep = solve_system(system)
        dense = np.linalg.solve(system.matrix.toarray(), system.rhs)
        assert rep.iterations == 0
        assert np.linalg.norm(rep.x - dense) / np.linalg.norm(dense) < 1e-8
