import numpy as np
import pytest

from conftest import (
    dense_reference_solution,
    kernel,
    make_spaces,
    operator_identity_residuals,
    vec_field,
    zero_field,
)
from gwgfem import mesh as meshmod
from gwgfem import solver
from gwgfem.assembly import (
    apply_dirichlet,
    assemble,
    dof_map,
    extract_solution,
    interpolate,
    project_interior,
    seminorm,
)
from gwgfem.mesh import build_rectangular, build_triangular
from gwgfem.postproc import error_norms, manufactured
from gwgfem.weakops import WeakFunction, edge_rule, parse_rb

QB = parse_rb("qb")
ID = parse_rb("id")
X_FIELD = vec_field(lambda x, y: x, lambda x, y: 0.0 * x)
RIGID = vec_field(lambda x, y: 0.3 - 0.8 * y, lambda x, y: -0.1 + 0.8 * x)


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
        for params in ((0.5, 1.0, 1.0, -1.0), (0.5, 1e6, 1.0, 0.0), (0.5, 1.0, -1.0, -1.0)):
            quad = np.einsum("ei,eij,ej->e", v, kern.local_stiffness(*params), v)
            diff = np.abs(kern.energy(v, *params) - quad)
            assert diff.max() <= 1e-12 * np.abs(quad).max()

    @pytest.mark.parametrize("mesh_kind,interior,boundary,rb", [
        ("rect", "sin", "p0", QB), ("tri", "p1", "rm", ID),
        ("tri", "sigmoid", "p1", QB), ("rect", "p1", "p1", QB),
    ])
    def test_stiffness_matches_unsplit_samples(self, mesh_kind, interior, boundary, rb):
        # local_stiffness splits the strain and divergence samples at the
        # constant correction; the reference sums them point by point
        mesh = (build_rectangular if mesh_kind == "rect" else build_triangular)(3)
        kern = kernel(mesh, make_spaces(mesh, interior, boundary, seed=4), rb)
        E, nq = kern.vol.weights.shape
        grad = np.zeros((E, kern.ndof, nq, 2, 2))
        grad[:, : kern.n0] = kern.G0
        eps = 0.5 * (grad + grad.transpose(0, 1, 2, 4, 3)) \
            + 0.5 * (kern.delta1 + kern.delta1.transpose(0, 1, 3, 2))[:, :, None]
        div = np.trace(grad, axis1=3, axis2=4) + kern.delta2[:, :, None]
        w, J = kern.vol.weights, kern.rb_jumps
        for mu, lam, rho, gamma in ((0.5, 1.0, 1.0, -1.0), (0.5, 1e6, 1.0, 0.0),
                                    (0.5, 1.0, -1.0, -1.0)):
            ref = (2 * mu * np.einsum("eiqab,ejqab,eq->eij", eps, eps, w)
                   + lam * np.einsum("eiq,ejq,eq->eij", div, div, w)
                   + np.einsum("e,emiqc,emjqc,emq->eij", rho * kern.diameter ** gamma,
                               J, J, kern.edge_weights))
            A = kern.local_stiffness(mu, lam, rho, gamma)
            assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_local_matrix_symmetry(self):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "sigmoid", "rm", seed=8)
        A = kernel(mesh, spaces, QB, [3]).local_stiffness(0.5, 1.0, 1.0, -1.0)[0]
        assert np.abs(A - A.T).max() < 1e-12 * np.abs(A).max()


class TestLocalLoad:
    def test_zero_force(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        assert np.allclose(kernel(mesh, spaces, ID, [0]).local_load(zero_field), 0.0)

    def test_constant_force_small_square(self):
        mesh = build_rectangular(8)
        spaces = make_spaces(mesh, "p1", "p0")
        e1 = vec_field(lambda x, y: 1.0 + 0 * x, lambda x, y: 0.0 * x)
        b = kernel(mesh, spaces, ID, [0]).local_load(e1)[0]
        assert b[0] == pytest.approx(1.0 / 64, abs=1e-15)  # (f, [1;0])
        assert b[1] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(b[6:], 0.0)  # edge dofs receive nothing

    def test_linear_force_unit_square(self):
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        b = kernel(mesh, spaces, ID, [0]).local_load(X_FIELD)[0]
        assert b[0] == pytest.approx(0.5, abs=1e-14)


class TestDirichlet:
    def test_constant_data_p0(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        gconst = vec_field(lambda x, y: 0.7 + 0 * x, lambda x, y: -0.4 + 0 * x)
        rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
        fixed = apply_dirichlet(mesh, rule, gconst)
        for e in np.nonzero(mesh.boundary)[0]:
            assert np.allclose(fixed[e], [0.7, -0.4], atol=1e-14)

    def test_linear_data_bottom_edge_mean(self):
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
        fixed = apply_dirichlet(mesh, rule, X_FIELD)
        bottom = [e for e in range(4)
                  if np.allclose(mesh.edge_midpoint[e], [0.5, 0.0])][0]
        assert np.allclose(fixed[bottom], [0.5, 0.0], atol=1e-14)

    def test_rigid_motion_exact_in_rm(self):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "p1", "rm")
        fixed = apply_dirichlet(
            mesh, edge_rule(mesh, spaces.boundary, spaces.quad_degree), RIGID)
        rule = edge_rule(mesh, spaces.boundary, 10)
        bnd = np.nonzero(mesh.boundary)[0]
        values = np.einsum("ej,ejnc->enc", fixed[bnd], rule.basis[bnd])
        resid = values - RIGID(rule.points[bnd].reshape(-1, 2)).reshape(values.shape)
        assert np.abs(resid).max() < 1e-12


class TestGlobalSystem:
    def test_unknown_count_single_element(self):
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        dm = dof_map(mesh, spaces)
        assert dm.num_unknowns == 0  # all edges Dirichlet, interior condensed

    def test_unknown_count_n2(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        dm = dof_map(mesh, spaces)
        assert dm.num_unknowns == 4 * 2  # four interior p0 edges

    @pytest.mark.parametrize("build,boundary", [
        (build_rectangular, "p0"),
        (build_triangular, "p1"),
    ])
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_numbering_is_a_permutation(self, build, boundary, n):
        # nested dissection numbers every free edge block once, and the
        # same way on every call
        mesh = build(n)
        spaces = make_spaces(mesh, "p1", boundary)
        dm = dof_map(mesh, spaces)
        free = ~mesh.boundary
        assert np.all(dm.edge_offset[~free] == -1)
        assert dm.num_unknowns == dm.nb * free.sum()
        assert np.array_equal(np.sort(dm.edge_offset[free]),
                              np.arange(0, dm.num_unknowns, dm.nb))
        assert np.array_equal(dof_map(mesh, spaces).edge_offset, dm.edge_offset)
        # every node is a separator node of exactly one part of the tree
        seps = [(p[:, 0] + p[:, 1] + p[:, 2], p[:, 3]) for p in dm.tree]
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
            factor = solver._factor(system.matrix, system.dofmap.tree)
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
        A = system.matrix
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
        rep = solver.solve_system(system)
        assert rep.spd_certified
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
        A, B = (s.matrix for s in systems)
        assert abs(A - B).max() <= 1e-14 * abs(A).max()
        a, b = (s.rhs for s in systems)
        assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()

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
            assert cond.matrix.shape[0] == spaces.boundary.dim * len(mesh.interior_edges())
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

    def test_indefinite_interior_block_raises(self):
        # a constant interior vector has zero weak strain and divergence
        # (its jump integrates to zero against the normals), so its local
        # energy is rho h^gamma * oint |c|^2 < 0 for rho = -1
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        with pytest.raises(solver.IndefiniteMatrixError,
                           match="interior block of element 0 .*pivot 0 of 6") as err:
            assemble(mesh, spaces, QB, 0.5, 1.0, -1.0, -1.0, case.f, case.g)
        assert (err.value.block, err.value.pivot) == (0, 0)


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
        rule = edge_rule(mesh, spaces.boundary, 10)
        edges = np.array([0, mesh.interior_edges()[0]])
        coeffs = edge_rule(mesh, spaces.boundary, spaces.quad_degree).project(edges, X_FIELD)
        values = np.einsum("ej,ejnc->enc", coeffs, rule.basis[edges])
        resid = values - X_FIELD(rule.points[edges].reshape(-1, 2)).reshape(values.shape)
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
                mesh, spaces, rb, case.u, case.grad_u, [0, mesh.num_elements // 2])
            assert r_eps < 1e-10
            assert r_div < 1e-10


class TestQuadratureAdequacy:
    def test_level_degree_recorded_and_enforced(self):
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(2)
        assert make_spaces(mesh, "sin").quad_degree == 10
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
        # default degree: escalating 10 -> 16 moves the norms by far less
        # than the discretization error
        # (the sampled parameters do not depend on the degree, so the
        # comparison isolates quadrature)
        from gwgfem.spaces import build_spaces, parse_boundary, parse_interior
        case = manufactured("example1", 0.5, 1.0)
        mesh = build_rectangular(4)
        vals, params = {}, {}
        for deg in (10, 16):
            spaces = build_spaces(mesh, parse_interior("sin", seed=2),
                                  parse_boundary("p0"), deg,
                                  seed_entropy=(2, 4))
            system = assemble(mesh, spaces, QB, 0.5, 1.0, 1.0, -1.0, case.f, case.g)
            wf = extract_solution(system, solver.solve_system(system).x)
            vals[deg] = error_norms(mesh, spaces, wf, case.u)
            params[deg] = spaces.params
        assert np.array_equal(params[10].w, params[16].w)
        assert np.array_equal(params[10].x0, params[16].x0)
        for key in ("u0_l2", "ub_l2"):
            a, b = getattr(vals[10], key), getattr(vals[16], key)
            assert abs(a - b) / a < 1e-8
