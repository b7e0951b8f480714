import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (
    as_scipy,
    dense_full_system,
    dense_reference_solution,
    interior_gradients,
    jittered,
    kernel,
    make_spaces,
    manufactured_gradient,
    operator_identity_residuals,
    own_load,
    vec_field,
    zero_field,
)
from gwgfem import solver
from gwgfem import mesh as meshmod
from gwgfem.assembly import (
    apply_dirichlet,
    assemble,
    extract_solution,
    interpolate,
    project_interior,
    seminorm,
)
from gwgfem.mesh import build_rectangular, build_triangular, element_quadrature
from gwgfem.postproc import error_norms, manufactured
from gwgfem.spaces import eval_interior, interior_mass, spd_condition
from gwgfem.weakops import ElementKernel, WeakFunction, edge_rule, parse_rb

QB = parse_rb("qb")
ID = parse_rb("id")
X_FIELD = vec_field(lambda x, y: x, lambda x, y: 0.0 * x)
RIGID = vec_field(lambda x, y: 0.3 - 0.8 * y, lambda x, y: -0.1 + 0.8 * x)


def _matrix(mesh, spaces):
    """The assembled edge matrix of example 1 on ``mesh``."""
    case = manufactured("example1", 0.5, 1.0)
    return assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g).matrix


def _edge_nodes(mesh, A):
    """(ned,) tree node of every edge as the element matrix numbers it,
    -1 on a fixed edge; every element that has an edge gives it that node."""
    node = np.full(mesh.num_edges, -2)
    node[mesh.element_edges] = A.indices
    assert np.array_equal(node[mesh.element_edges], A.indices)
    return node


class TestLocalStiffness:
    def test_stabilizer_only_is_psd(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        A = kernel(mesh, spaces, QB, [1]).local_stiffness(mu=0.0, lam=0.0, rho=1.0,
                                                          gamma=-1.0)[0]
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() > -1e-12
        assert eigs.max() > 0

    def test_stabilizer_quadratic_form_value(self):
        # unit square, identity R_b, v0 = (x,0), vb = 0:
        # oint |v0|^2 ds = 1/3 + 1/3 + 1 = 5/3 and h_T = sqrt(2),
        # so rho h_T^-1 * 5/3 = (1/sqrt 2) * 5/3
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        wf = WeakFunction.zeros(mesh, spaces)
        wf.interior[0] = project_interior(mesh, 0, spaces, X_FIELD)
        kern = kernel(mesh, spaces, ID)
        vloc = wf.local_coefficients(mesh, kern.eids)
        value = kern.energy(vloc, mu=0.0, lam=0.0, rho=1.0, gamma=-1.0)[0]
        assert value == pytest.approx(5.0 / (3.0 * np.sqrt(2.0)), rel=1e-12)

    def test_rigid_motion_zero_energy(self):
        # edge spaces containing rigid-motion traces represent {phi, phi|e}
        # exactly; its jump, corrections, and strain all vanish
        mesh = build_triangular(2)
        for boundary, rb in (("rm", QB), ("p1", QB), ("rm", ID), ("p1", ID)):
            spaces = make_spaces(mesh, "p1", boundary)
            wf = interpolate(mesh, spaces, RIGID)
            kern = kernel(mesh, spaces, rb)
            vloc = wf.local_coefficients(mesh, kern.eids)
            assert kern.energy(vloc, 0.5, 1.0, 1.0, -1.0).max() < 1e-24

    def test_translation_zero_energy_p0(self):
        # with constant edge spaces the energy kernel holds translations
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        shift = vec_field(lambda x, y: 0.4 + 0 * x, lambda x, y: -0.9 + 0 * x)
        wf = interpolate(mesh, spaces, shift)
        for rb in (QB, ID):
            kern = kernel(mesh, spaces, rb)
            vloc = wf.local_coefficients(mesh, kern.eids)
            assert kern.energy(vloc, 0.5, 1.0, 1.0, -1.0).max() < 1e-24

    @pytest.mark.parametrize("mesh_kind,interior,boundary,rb", [
        ("rect", "sin", "p0", QB), ("tri", "p1", "rm", ID),
        ("tri", "sigmoid", "p1", QB), ("rect", "p1", "p1", QB),
    ])
    def test_energy_is_stiffness_quadratic_form(self, mesh_kind, interior, boundary, rb):
        # energy sums the samples' field values, local_stiffness multiplies
        # them out: both must be the same form
        mesh = (build_rectangular if mesh_kind == "rect" else build_triangular)(3)
        kern = kernel(mesh, make_spaces(mesh, interior, boundary, seed=4), rb)
        v = np.random.default_rng(5).standard_normal((mesh.num_elements, kern.ndof))
        for params in ((0.5, 1.0, 1.0, -1.0), (0.5, 1e6, 1.0, 0.0)):
            quad = np.einsum("ei,eij,ej->e", v, kern.local_stiffness(*params), v)
            diff = np.abs(kern.energy(v, *params) - quad)
            assert diff.max() <= 1e-12 * np.abs(quad).max()

    @pytest.mark.parametrize("mesh_kind,interior,boundary,rb", [
        ("rect", "sin", "p0", QB), ("tri", "p1", "rm", ID),
        ("tri", "sigmoid", "p1", QB), ("rect", "p1", "p1", QB),
    ])
    def test_stiffness_matches_unsplit_samples(self, mesh_kind, interior, boundary, rb):
        # local_stiffness splits the strain and divergence samples at the
        # constant correction; the reference sums the strain point by point,
        # and lambda multiplies the rule's element mean of div_g only
        mesh = (build_rectangular if mesh_kind == "rect" else build_triangular)(3)
        kern = kernel(mesh, make_spaces(mesh, interior, boundary, seed=4), rb)
        E, nq = kern.vol.weights.shape
        grad = np.zeros((E, kern.ndof, nq, 2, 2))
        grad[:, : kern.n0] = interior_gradients(kern)
        eps = 0.5 * (grad + grad.transpose(0, 1, 2, 4, 3)) \
            + 0.5 * (kern.delta1 + kern.delta1.transpose(0, 1, 3, 2))[:, :, None]
        div = np.trace(grad, axis1=3, axis2=4) \
            + np.trace(kern.delta1, axis1=2, axis2=3)[:, :, None]
        # the dense jump rows: each edge dof's own-edge row, 0 on the others
        J = np.zeros((E, kern.m, kern.ndof) + kern.rb_jumpb.shape[3:])
        J[:, :, : kern.n0] = kern.rb_jump0
        for le in range(kern.m):
            J[:, le, kern.n0 + le * kern.nb: kern.n0 + (le + 1) * kern.nb] = kern.rb_jumpb[:, le]
        w = kern.vol.weights
        mean_div = np.einsum("eiq,eq->ei", div, w) / kern.qarea[:, None]
        for mu, lam, rho, gamma in ((0.5, 1.0, 1.0, -1.0), (0.5, 1e6, 1.0, 0.0)):
            ref = (2 * mu * np.einsum("eiqab,ejqab,eq->eij", eps, eps, w)
                   + lam * np.einsum("e,ei,ej->eij", kern.qarea, mean_div, mean_div)
                   + np.einsum("e,emiqc,emjqc,emq->eij", rho * kern.diameter ** gamma,
                               J, J, kern.edge_weights))
            A = kern.local_stiffness(mu, lam, rho, gamma)
            assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_kernel_block_peak_memory(self):
        # one element block of rect sin/p0 at degree 10, set-up plus local
        # matrices: 5.6 MB with the slope-and-pattern interior block and
        # each edge dof's jump row on its own edge only (8.8 MB when every
        # edge dof kept a jump row on all m local edges)
        mesh = build_rectangular(16)
        spaces = make_spaces(mesh, "sin", "p0", quad=10)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            kern = ElementKernel(mesh, spaces, QB, np.arange(meshmod.ELEMENT_BLOCK))
            kern.local_stiffness(0.5, 1.0, 1.0, -1.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 8.38e6

    def test_error_norms_peak_memory(self):
        # tri p1/p1 n=64: 7.5 MiB when the every-edge rule held a basis and
        # coefficient map per edge, 2.7 MiB with p1's one table
        mesh = build_triangular(64)
        spaces = make_spaces(mesh, "p1", "p1")
        wf = WeakFunction.zeros(mesh, spaces)
        u = manufactured("example1", 0.5, 1.0).u
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            error_norms(mesh, spaces, wf, u)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_local_matrix_symmetry(self):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "sigmoid", "rm", seed=8)
        A = kernel(mesh, spaces, QB, [3]).local_stiffness(0.5, 1.0, 1.0, -1.0)[0]
        assert np.abs(A - A.T).max() < 1e-12 * np.abs(A).max()


class TestLocalLoad:
    def test_zero_force(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        assert np.allclose(own_load(kernel(mesh, spaces, ID, [0]), zero_field), 0.0)

    def test_constant_force_small_square(self):
        mesh = build_rectangular(8)
        spaces = make_spaces(mesh, "p1", "p0")
        e1 = vec_field(lambda x, y: 1.0 + 0 * x, lambda x, y: 0.0 * x)
        b = own_load(kernel(mesh, spaces, ID, [0]), e1)
        assert b.shape == (1, 6)  # interior dofs only: edge dofs take no load
        assert b[0, 0] == pytest.approx(1.0 / 64, abs=1e-15)  # (f, [1;0])
        assert b[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_linear_force_unit_square(self):
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        b = own_load(kernel(mesh, spaces, ID, [0]), X_FIELD)[0]
        assert b[0] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("build,interior,boundary", [
        (build_rectangular, "sin", "p0"),
        (build_triangular, "sigmoid", "rm"),
        (jittered, "p1", "p1"),
    ])
    def test_unmoved_load_is_at_own_points(self, build, interior, boundary):
        # where every element is its own class, assemble moves each load by
        # exactly 0.0: f at the element's own rule, bit for bit
        mesh = build(6)
        spaces = make_spaces(mesh, interior, boundary, seed=3)
        ne = mesh.num_elements
        assert len(spaces.classes[1]) == ne
        f = manufactured("example1", 0.5, 1.0).f
        rule = element_quadrature(mesh, np.arange(ne), spaces.quad_degree)
        vals = eval_interior(spaces.interior, spaces.params, rule.points)
        fv = f(rule.points.reshape(-1, 2)).reshape(rule.points.shape)
        ref = np.einsum("einc,enc,en->ei", vals, fv, rule.weights)
        assert np.array_equal(own_load(kernel(mesh, spaces, QB), f), ref)

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    @pytest.mark.parametrize("n", [12, 16])  # rounding splits the classes at n = 12
    def test_moved_points_are_each_members_own(self, build, n):
        # a member's load is f at its representative's points moved by the
        # offset of their first vertices, as assemble moves them: class
        # members are translates, so these are the member's own points
        mesh = build(n)
        spaces = make_spaces(mesh, "p1", "p1")
        cls, reps = spaces.classes
        ne = mesh.num_elements
        assert len(reps) < ne
        seen = []

        def f(pts):
            seen.append(pts.copy())
            return np.zeros_like(pts)

        first = mesh.vertices[mesh.elements[:, 0]]
        shift = first - first[reps[cls]]
        assert not shift[reps].any()
        kernel(mesh, spaces, QB, reps).local_load(f, cls, shift)
        own = element_quadrature(mesh, np.arange(ne), spaces.quad_degree).points
        assert np.abs(seen[0].reshape(own.shape) - own).max() <= 4 * np.spacing(1.0)


class TestDirichlet:
    def test_constant_data_p0(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        gconst = vec_field(lambda x, y: 0.7 + 0 * x, lambda x, y: -0.4 + 0 * x)
        fixed = apply_dirichlet(mesh, spaces, gconst)
        for e in np.nonzero(mesh.boundary)[0]:
            assert np.allclose(fixed[e], [0.7, -0.4], atol=1e-14)

    def test_linear_data_bottom_edge_mean(self):
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        fixed = apply_dirichlet(mesh, spaces, X_FIELD)
        bottom = [e for e in range(4)
                  if np.allclose(mesh.edge_midpoint[e], [0.5, 0.0])][0]
        assert np.allclose(fixed[bottom], [0.5, 0.0], atol=1e-14)

    def test_rigid_motion_exact_in_rm(self):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "p1", "rm")
        fixed = apply_dirichlet(mesh, spaces, RIGID)
        bnd = np.nonzero(mesh.boundary)[0]
        rule = edge_rule(mesh, spaces.boundary, 10, bnd)
        values = np.einsum("ej,ejnc->enc", fixed[bnd], rule.basis)
        resid = values - RIGID(rule.points.reshape(-1, 2)).reshape(values.shape)
        assert np.abs(resid).max() < 1e-12


class TestGlobalSystem:
    def test_unknown_count_single_element(self):
        mesh = build_rectangular(1)
        A = _matrix(mesh, make_spaces(mesh, "p1", "p0"))
        assert A.shape == (0, 0) and A.tree == ()  # all edges Dirichlet, interior condensed
        assert np.all(A.indices == -1)

    def test_unknown_count_n2(self):
        mesh = build_rectangular(2)
        A = _matrix(mesh, make_spaces(mesh, "p1", "p0"))
        assert A.shape == (4 * 2, 4 * 2)  # four interior p0 edges

    @pytest.mark.parametrize("build,boundary", [
        (build_rectangular, "p0"),
        (build_triangular, "p1"),
    ])
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_numbering_is_a_permutation(self, build, boundary, n):
        # nested dissection gives every free edge one node of the tree, and
        # the same one on every call
        mesh = build(n)
        spaces = make_spaces(mesh, "p1", boundary)
        A = _matrix(mesh, spaces)
        node, free = _edge_nodes(mesh, A), ~mesh.boundary
        assert np.all(node[~free] == -1)
        assert np.array_equal(np.sort(node[free]), np.arange(free.sum()))
        assert A.nodes == free.sum() and A.shape == (A.nb * free.sum(),) * 2
        assert np.array_equal(_matrix(mesh, spaces).indices, A.indices)
        # every node is a separator node of exactly one part of the tree
        seps = [(p[:, 0] + p[:, 1] + p[:, 2], p[:, 3]) for p in A.tree]
        starts = np.concatenate([a for a, _ in seps] or [np.zeros(0, int)])
        counts = np.concatenate([c for _, c in seps] or [np.zeros(0, int)])
        covered = np.zeros(free.sum(), dtype=int)
        for a, c in zip(starts, counts):
            covered[a:a + c] += 1
        assert np.all(covered == 1)

    def test_numbering_reduces_fill(self):
        # factored along the tree assembly gives, the multifrontal factor
        # (Li lower triangles plus L21) grows about 5x per mesh halving, as
        # O(N log N) fill does; an O(N^1.5) ordering would grow 8x
        def factor_entries(n):
            mesh = build_triangular(n)
            spaces = make_spaces(mesh, "p1", "p1")
            case = manufactured("example1", 0.5, 1.0)
            system = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
            factor = solver._factor(system.matrix)
            return sum(Li.size // Li.shape[1] * (Li.shape[1] + 1) // 2 + L21.size
                       for level in factor for _, Li, _, L21 in level)

        assert factor_entries(64) < 6 * factor_entries(32)

    def test_zero_data_zero_solution(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        system = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0,
                          zero_field, zero_field)
        rep = solver.solve_system(system)
        assert np.allclose(rep.x, 0.0)
        assert rep.relative_residual == 0.0

    @pytest.mark.parametrize("build,interior,boundary,rb", [
        (build_rectangular, "p1", "p0", QB),
        (build_triangular, "sin", "rm", QB),
        (build_triangular, "p1", "p1", QB),
        (build_rectangular, "sigmoid", "p0", ID),
    ])
    def test_matrix_symmetry(self, build, interior, boundary, rb):
        mesh = build(3)
        spaces = make_spaces(mesh, interior, boundary, seed=6)
        case = manufactured("example1", 0.5, 1.0)
        system = assemble(mesh, spaces, rb, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
        A = as_scipy(system.matrix)
        asym = abs(A - A.T).max()
        assert asym <= 1e-12 * abs(A).max()

    @pytest.mark.parametrize("build,interior,boundary,rb,gamma", [
        (build_triangular, "p1", "p1", QB, -1.0),
        (build_triangular, "p1", "rm", QB, -1.0),
        (build_triangular, "sin", "rm", QB, -1.0),
        (build_triangular, "sigmoid", "rm", QB, -1.0),
        (build_rectangular, "p1", "rm", QB, -1.0),
        (build_triangular, "p1", "p0", ID, 0.0),
        (build_triangular, "sin", "p0", ID, 0.0),
        (build_triangular, "sigmoid", "p0", ID, 0.0),
        (build_rectangular, "lrelu:1.0", "p0", QB, -1.0),
    ])
    def test_spd_certified_for_admissible_pairs(self, build, interior, boundary,
                                                rb, gamma):
        mesh = build(4)
        spaces = make_spaces(mesh, interior, boundary, seed=3)
        case = manufactured("example1", 0.5, 1.0)
        system = assemble(mesh, spaces, rb, 0.5, 1.0, 1.0, gamma, case.f, case.g)
        rep = solver.solve_system(system)  # raises IndefiniteMatrixError unless SPD
        assert rep.relative_residual <= 1e-12

    @pytest.mark.parametrize("build,interior,boundary,n", [
        (build_rectangular, "sin", "p0", 17),
        (build_triangular, "p1", "p1", 12),
    ])
    def test_element_blocking_is_exact(self, monkeypatch, build, interior,
                                       boundary, n):
        # one element per block gives the same system as the default blocks
        # (the meshes have more elements than one default block)
        mesh = build(n)
        assert mesh.num_elements > meshmod.ELEMENT_BLOCK
        spaces = make_spaces(mesh, interior, boundary, seed=2)
        case = manufactured("example1", 0.5, 1.0)
        systems = [assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)]
        monkeypatch.setattr(meshmod, "ELEMENT_BLOCK", 1)
        systems.append(assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g))
        A, B = (as_scipy(s.matrix) for s in systems)
        assert abs(A - B).max() <= 1e-14 * abs(A).max()
        a, b = (s.rhs for s in systems)
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("build,n", [
        (build_rectangular, 1),
        (build_rectangular, 4),
        (build_triangular, 1),
        (build_triangular, 5),
    ])
    @pytest.mark.parametrize("boundary", ["p0", "p1", "rm"])
    def test_matrix_is_scipy_coo_to_csc(self, build, n, boundary):
        # the element form, read as scipy's COO -> CSC sum of its entries at
        # free edge dofs, is the Schur complement of the uncondensed system
        # onto the free edge dofs, numbered nb * node + i along the tree
        # (rect n=1: no unknowns)
        mesh = build(n)
        spaces = make_spaces(mesh, "p1", boundary)
        case = manufactured("example1", 0.5, 1.0)
        A = _matrix(mesh, spaces)
        (ne, m), nb, s = A.indices.shape, spaces.boundary.dim, A.data.shape[1]
        assert m == mesh.element_edges.shape[1] and s == m * nb == m * A.nb
        assert A.data[A.classes].shape == (ne, s, s) and A.nnz == ne * s * s
        assert np.array_equal(A.indptr, m * np.arange(ne + 1))
        K, _ = dense_full_system(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f)
        inner = np.arange(ne * spaces.interior.dim)
        node = _edge_nodes(mesh, A)
        free = np.flatnonzero(node >= 0)
        edge = (len(inner) + nb * free[:, None] + np.arange(nb)).ravel()
        number = (nb * node[free][:, None] + np.arange(nb)).ravel()
        K_ei = K[np.ix_(edge, inner)]
        ref = np.empty((len(edge), len(edge)))
        ref[np.ix_(number, number)] = (K[np.ix_(edge, edge)] - K_ei @ np.linalg.solve(
            K[np.ix_(inner, inner)], K_ei.T))
        got = as_scipy(A).toarray()
        assert got.shape == ref.shape == A.shape
        assert np.abs(got - ref).max(initial=0) <= 1e-12 * np.abs(ref).max(initial=0)

    def test_linear_field_reproduced(self):
        # u in the discrete space exactly: solver must return it
        lin = vec_field(lambda x, y: 0.2 + 1.3 * x - 0.4 * y,
                        lambda x, y: -0.7 + 0.5 * x + 0.9 * y)
        for build in (build_rectangular, build_triangular):
            mesh = build(2)
            spaces = make_spaces(mesh, "p1", "p1")
            system = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0,
                              zero_field, lin)
            wf = extract_solution(system, solver.solve_system(system).x)
            norms = error_norms(mesh, spaces, wf, lin)
            assert norms.u0_l2 < 1e-12
            assert norms.ub_l2 < 1e-12

    def test_condensation_matches_full_solve(self):
        case = manufactured("example1", 0.5, 1.0)
        for build, boundary in ((build_rectangular, "p0"), (build_triangular, "p1")):
            mesh = build(3)
            spaces = make_spaces(mesh, "p1", boundary)
            cond = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
            assert cond.matrix.shape[0] == spaces.boundary.dim * np.count_nonzero(~mesh.boundary)
            wf_full = dense_reference_solution(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0,
                                               case.f, case.g)
            wf_cond = extract_solution(cond, solver.solve_system(cond).x)
            assert np.abs(wf_full.interior - wf_cond.interior).max() < 1e-10
            assert np.abs(wf_full.boundary - wf_cond.boundary).max() < 1e-10

    def test_condensation_all_dirichlet(self):
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        cond = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
        assert cond.matrix.shape[0] == 0
        wf_cond = extract_solution(cond, np.zeros(0))
        wf_full = dense_reference_solution(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0,
                                           case.f, case.g)
        assert np.abs(wf_full.interior - wf_cond.interior).max() < 1e-10

    def test_indefinite_interior_block_raises(self, monkeypatch):
        # nonnegative coefficients give positive semidefinite element
        # matrices, so a broken kernel stands in for an indefinite one
        stiffness = ElementKernel.local_stiffness

        def broken(kern, *args):
            K = stiffness(kern, *args)
            K[kern.eids == 0, 0, 0] = -1.0
            return K

        monkeypatch.setattr(ElementKernel, "local_stiffness", broken)
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        with pytest.raises(solver.IndefiniteMatrixError,
                           match="interior block of element 0 .*pivot 0 of 6") as err:
            assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
        assert (err.value.block, err.value.pivot) == (0, 0)

    @pytest.mark.parametrize("mu,lam,rho", [(-0.5, 1.0, 1.0), (0.5, -1.0, 1.0),
                                            (0.5, 1.0, -1.0)])
    def test_negative_coefficient_is_rejected(self, mu, lam, rho):
        # the form is a sum of squares only for nonnegative coefficients
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(2)
        with pytest.raises(ValueError, match="must be nonnegative"):
            assemble(mesh, make_spaces(mesh, "p1", "p0"), QB, mu, lam, rho, -1.0,
                     case.f, case.g)

    @staticmethod
    def _break_element(monkeypatch, bad):
        """Make the kernel's local matrix of element ``bad`` indefinite at
        interior pivot 2 (pivots 0 and 1 stay positive)."""
        stiffness = ElementKernel.local_stiffness

        def broken(kern, *args):
            K = stiffness(kern, *args)
            K[kern.eids == bad, 2, 2] = -1.0
            return K

        monkeypatch.setattr(ElementKernel, "local_stiffness", broken)

    def test_interior_failure_in_a_later_block_names_its_element(self, monkeypatch):
        # element 270 of 288 is in the second element block, at index 14; a
        # drawn space gives every element its own class
        mesh = build_triangular(12)
        bad = 270
        assert bad >= meshmod.ELEMENT_BLOCK
        self._break_element(monkeypatch, bad)
        case = manufactured("example1", 0.5, 1.0)
        with pytest.raises(solver.IndefiniteMatrixError,
                           match=f"interior block of element {bad} .*pivot 2 of 6") as err:
            assemble(mesh, make_spaces(mesh, "sin", "p1"), QB, 0.5, 1.0, 1.0, -1.0,
                     case.f, case.g)
        assert (err.value.block, err.value.pivot) == (bad, 2)

    def test_interior_failure_of_a_class_names_its_lowest_element(self, monkeypatch):
        # p1 computes each class's matrix on its representative, the class's
        # lowest element id, so breaking element 270's class names that element
        mesh = build_triangular(12)
        spaces = make_spaces(mesh, "p1", "p1")
        cls, reps = spaces.classes
        members = np.flatnonzero(cls == cls[270])
        assert members.size > 1 and members[0] < 270
        self._break_element(monkeypatch, reps[cls[270]])
        case = manufactured("example1", 0.5, 1.0)
        with pytest.raises(solver.IndefiniteMatrixError,
                           match=f"interior block of element {members[0]} .*pivot 2 of 6") as err:
            assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
        assert (err.value.block, err.value.pivot) == (members[0], 2)

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    @pytest.mark.parametrize("n", [12, 16])  # rounding splits the classes at n = 12
    @pytest.mark.parametrize("boundary", ["p0", "p1", "rm"])
    @pytest.mark.parametrize("rb", [QB, ID], ids=["qb", "id"])
    def test_class_sharing_matches_every_element(self, build, n, boundary, rb):
        # a class's stiffness and Gram condition, computed on its
        # representative, are every member's own to rounding, and so are the
        # system assembled from them, its class blocks read per element, its
        # solution and the weak function extracted from it
        mesh = build(n)
        spaces = make_spaces(mesh, "p1", boundary)
        cls, reps = spaces.classes
        ne = mesh.num_elements
        assert len(reps) < ne
        args = (0.5, 1.0, 1.0, -1.0)
        shared = ElementKernel(mesh, spaces, rb, reps).local_stiffness(*args)[cls]
        own = ElementKernel(mesh, spaces, rb, np.arange(ne)).local_stiffness(*args)
        assert np.abs(shared - own).max() <= 1e-12 * np.abs(own).max()
        gram = interior_mass(mesh, np.arange(ne), spaces.interior, spaces.params,
                             spaces.quad_degree)[2]
        np.testing.assert_allclose(spaces.gram_condition, spd_condition(gram), rtol=1e-12)
        case = manufactured("example1", 0.5, 1.0)
        s, t = (assemble(mesh, sp, rb, *args, case.f, case.g) for sp in
                (spaces, dataclasses.replace(spaces, classes=(np.arange(ne),) * 2)))
        A = s.matrix
        assert len(A.data) == len(reps) and np.array_equal(A.classes, cls)
        assert np.array_equal(t.matrix.classes, np.arange(ne)) and len(t.matrix.data) == ne
        assert A.nnz == t.matrix.nnz == ne * A.data[0].size
        x, y = (solver.solve_system(u).x for u in (s, t))
        u, v = (extract_solution(w, z) for w, z in ((s, x), (t, y)))
        for a, b in ((A.data[A.classes], t.matrix.data), (s.rhs, t.rhs),
                     (s.recovery[cls], t.recovery), (s.interior_load, t.interior_load),
                     (x, y), (u.interior, v.interior), (u.boundary, v.boundary)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_assemble_peak_is_its_output_and_one_element_block(self):
        # the system holds one Schur block and one recovery matrix per class,
        # per element its n0 interior load, and per edge nb values: the
        # right-hand side on the free edges and the fixed coefficients on
        # the boundary edges only; besides that the integer node map and
        # tree, array headers and the rule caches of a first call (64 KiB in
        # all): no (ne, s, s) copy of the class blocks and no (ned, nb)
        # fixed array (389 KB more here).  Beyond that, assemble holds one
        # element block at a time (its kernel with the edge rule of its
        # edges, and at most an (E, ndof + 1, ndof + 1) array's worth of
        # eliminated blocks) and a few (ne, m nb) vectors of the size of the
        # dof ids: no edge rule over the mesh
        mesh = build_triangular(64)
        spaces = make_spaces(mesh, "p1", "p1")
        case = manufactured("example1", 0.5, 1.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            kern = ElementKernel(mesh, spaces, QB, np.arange(meshmod.ELEMENT_BLOCK))
            kern.local_stiffness(0.5, 1.0, 1.0, -1.0), own_load(kern, case.f)
            block = tracemalloc.get_traced_memory()[1] - start
            del kern
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            system = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
            held, peak = (v - start for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        ne, n0, nb = mesh.num_elements, spaces.interior.dim, spaces.boundary.dim
        nc, mnb = len(spaces.classes[1]), 3 * nb
        A = system.matrix
        assert system.fixed_coeffs.shape == (np.count_nonzero(mesh.boundary), nb)
        ints = A.indices.nbytes + sum(level.nbytes for level in A.tree)
        floats = nc * mnb * mnb + nc * n0 * mnb + ne * n0 + mesh.num_edges * nb
        assert held <= 8 * floats + ints + 2 ** 16
        eliminated = 8 * meshmod.ELEMENT_BLOCK * (n0 + mnb + 1) ** 2
        assert peak - held <= block + eliminated + 4 * 8 * ne * mnb


class TestSeminorm:
    def test_zero_function(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        wf = WeakFunction.zeros(mesh, spaces)
        assert seminorm(wf, mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0) == 0.0

    def test_rigid_motion_is_in_the_kernel(self):
        mesh = build_triangular(3)
        for boundary, rb in (("rm", QB), ("p1", QB), ("rm", ID), ("p1", ID)):
            spaces = make_spaces(mesh, "p1", boundary)
            wf = interpolate(mesh, spaces, RIGID)
            assert seminorm(wf, mesh, spaces, rb, 0.5, 1.0, 1.0, -1.0) < 1e-12

    def test_unit_square_hand_value(self):
        # v0 = (x,0), vb = 0, identity R_b, mu=0.5, lam=1, rho=1, gamma=-1:
        # weak gradient and weak divergence vanish, so the energy is the
        # stabilizer alone: sqrt(5 / (3 sqrt 2))
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        wf = WeakFunction.zeros(mesh, spaces)
        wf.interior[0] = project_interior(mesh, 0, spaces, X_FIELD)
        val = seminorm(wf, mesh, spaces, ID, 0.5, 1.0, 1.0, -1.0)
        assert val == pytest.approx(np.sqrt(5.0 / (3.0 * np.sqrt(2.0))), rel=1e-12)


class TestProjections:
    def test_interior_projection_reproduces_members(self):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        coeffs = project_interior(mesh, 1, spaces, X_FIELD)
        # (x, 0) = barycenter_x * [1;0] + diameter * [xi;0]
        bx = mesh.elem_barycenter[1, 0]
        assert coeffs[0] == pytest.approx(bx, abs=1e-13)
        assert coeffs[2] == pytest.approx(mesh.elem_diameter[1], rel=1e-13)

    def test_edge_projection_p1_reproduces_linears(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p1")
        edges = np.array([0, np.nonzero(~mesh.boundary)[0][0]])
        rule = edge_rule(mesh, spaces.boundary, 10, edges)
        coeffs = edge_rule(mesh, spaces.boundary, spaces.quad_degree, edges).project(X_FIELD)
        values = np.einsum("ej,ejnc->enc", coeffs, rule.basis)
        resid = values - X_FIELD(rule.points.reshape(-1, 2)).reshape(values.shape)
        assert np.abs(resid).max() < 1e-13


class TestOperatorIdentities:
    @pytest.mark.parametrize("interior,rb", [
        ("p1", QB), ("p1", ID), ("sin", QB), ("sigmoid", ID),
    ])
    def test_strain_and_divergence_identities(self, interior, rb):
        case = manufactured("example1", 0.5, 1.0)
        for build in (build_rectangular, build_triangular):
            mesh = build(3)
            spaces = make_spaces(mesh, interior, "p0", seed=13, quad=10)
            r_eps, r_div = operator_identity_residuals(
                mesh, spaces, rb, case.u, manufactured_gradient(case), [0, mesh.num_elements // 2])
            assert r_eps < 1e-10
            assert r_div < 1e-10


class TestQuadratureAdequacy:
    def test_level_degree_recorded_and_enforced(self):
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(2)
        for interior in ("sin", "cos", "sigmoid"):
            assert make_spaces(mesh, interior).quad_degree == 6
        for interior in ("relu", "lrelu:0.1"):
            assert make_spaces(mesh, interior).quad_degree == 10
        assert make_spaces(mesh, "p1").quad_degree == 4
        spaces = make_spaces(mesh, "p1", quad=6)
        assert spaces.quad_degree == 6
        with pytest.raises(ValueError, match="quad_degree"):
            assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g,
                     quad_degree=4)
        system = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g,
                          quad_degree=6)
        wf = extract_solution(system, solver.solve_system(system).x)
        with pytest.raises(ValueError, match="quad_degree"):
            error_norms(mesh, spaces, wf, case.u, quad_degree=10)
        assert error_norms(mesh, spaces, wf, case.u, quad_degree=6) == \
            error_norms(mesh, spaces, wf, case.u)

    def test_degree_escalation_changes_little(self):
        # activation-space errors must be quadrature-converged at the
        # default degree (6 for sin): escalating it to 16 moves the norms by
        # about 1e-10 relative at rect n=4, far less than the discretization
        # error
        # (the sampled parameters do not depend on the degree, so the
        # comparison isolates quadrature)
        from gwgfem.spaces import build_spaces, default_quad_degree, parse_boundary, parse_interior
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(4)
        default = default_quad_degree(parse_interior("sin"))
        vals, params = {}, {}
        for deg in (default, 16):
            spaces = build_spaces(mesh, parse_interior("sin", seed=2),
                                  parse_boundary("p0"), deg,
                                  seed_entropy=(2, 4))
            system = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
            wf = extract_solution(system, solver.solve_system(system).x)
            vals[deg] = error_norms(mesh, spaces, wf, case.u)
            params[deg] = spaces.params
        assert np.array_equal(params[default].w, params[16].w)
        assert np.array_equal(params[default].x0, params[16].x0)
        for key in ("u0_l2", "ub_l2"):
            a, b = getattr(vals[default], key), getattr(vals[16], key)
            assert abs(a - b) / a < 1e-8

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_default_degree_matches_degree_20(self, build):
        # smooth activations run at degree 6: on the coarsest levels, whose
        # elements are largest, the element matrices agree with degree 20's
        # to 1.4e-12 (degree 4 reads up to 3.1e-9), with the same parameters
        for n in (2, 4):
            mesh = build(n)
            for interior in ("sin", "cos", "sigmoid"):
                for boundary, rb in (("p0", QB), ("rm", QB), ("p1", ID)):
                    spaces = make_spaces(mesh, interior, boundary)
                    A, ref = (kernel(mesh, sp, rb).local_stiffness(0.5, 1.0, 1.0, -1.0)
                              for sp in (spaces, dataclasses.replace(spaces, quad_degree=20)))
                    assert np.abs(A - ref).max() <= 1e-11 * np.abs(ref).max()
        # the Gram checks at the default degree reject the same draws as
        # at degree 10, so the sampled parameters do not move
        mesh = build(16)
        for interior in ("sin", "sigmoid"):
            for seed in (0, 1):
                a, b = (make_spaces(mesh, interior, seed=seed, quad=q).params
                        for q in (None, 10))
                assert np.array_equal(a.w, b.w) and np.array_equal(a.x0, b.x0)
