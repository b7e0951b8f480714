import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (classical_gradient, correction_pair, corrections_closed_form,
                      fd_gradients, gradient_factors, interior_gradients, kernel, make_spaces,
                      moment_residuals, rb_jump_values, vec_field, weak_gradient, weak_strain)
from gwgfem.assembly import interpolate, project_interior
from gwgfem.mesh import build_rectangular, build_triangular, element_blocks
from gwgfem.spaces import _activation_args, eval_boundary, eval_interior, parse_boundary
from gwgfem.weakops import (
    RbOperator,
    WeakFunction,
    check_rigid_motion_invariance,
    edge_rule,
    parse_rb,
)

QB = parse_rb("qb")
ID = parse_rb("id")


def x_field(pts):
    pts = np.atleast_2d(pts)
    return np.column_stack([pts[:, 0], np.zeros(pts.shape[0])])


def unit_square_weak_x():
    """Unit square element, v0 = (x, 0), vb = 0."""
    mesh = build_rectangular(1)
    spaces = make_spaces(mesh, "p1", "p0")
    wf = WeakFunction.zeros(mesh, spaces)
    wf.interior[0] = project_interior(mesh, 0, spaces, x_field)
    return mesh, spaces, wf


def project_traces(rule, field):
    """Q_b of a field on the rule's edges, as values at the rule's points."""
    vals = field(rule.points.reshape(-1, 2)).reshape(rule.points.shape)
    return rule.apply(vals[:, None])[:, 0]


def divergence(kern, vloc):
    return np.trace(classical_gradient(kern, vloc), axis1=2, axis2=3) \
        + correction_pair(kern, vloc)[1][:, None]


class TestKernelInteriorSamples:
    @pytest.mark.parametrize("interior", ["sin", "cos", "sigmoid", "relu", "lrelu:0.1", "p1"])
    def test_shared_activation_args(self, interior):
        # the kernel evaluates the activation arguments at its volume points
        # once for values and slopes; the bits are those of separate calls,
        # and each gradient, its slope times its constant pattern e_c (x) w,
        # matches finite differences of the values (off a kink)
        mesh = build_triangular(3)
        spaces = make_spaces(mesh, interior, "rm", seed=5)
        kern = kernel(mesh, spaces, QB)
        cfg, prm, pts = spaces.interior, spaces.params[kern.eids], kern.vol.points
        assert np.array_equal(kern.V0, eval_interior(cfg, prm, pts))
        grads = interior_gradients(kern)
        assert np.array_equal(grads, gradient_factors(cfg, prm, pts))
        assert not kern.slopes[:, :2].any() and not kern.pattern[:, :2].any()
        h = 1e-6
        t = np.abs(_activation_args(pts, prm))  # (E, p, nq)
        clear = t > 2 * h * np.abs(prm.w).sum(axis=-1)[..., None]
        gap = np.abs(grads - fd_gradients(cfg, prm, pts, h))[:, 2:]
        assert gap[clear].max() <= 1e-8 and clear.mean() > 0.9

    @pytest.mark.parametrize("interior, slope", [("relu", 0.0), ("lrelu:0.125", 0.125)])
    def test_kink_slope_convention(self, interior, slope):
        # an activation anchored at a volume point has t = 0 there exactly;
        # the kernel's slope at the kink is sigma'(0) = 0 (relu), the leaky
        # slope (lrelu)
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, interior, "p0", seed=2)
        point = kernel(mesh, spaces, QB, [1]).vol.points[0, 3]
        spaces.params.x0[1, 0] = point
        kern = kernel(mesh, spaces, QB, [1])
        assert _activation_args(kern.vol.points, spaces.params[[1]])[0, 0, 3] == 0.0
        assert kern.slopes[0, 2, 3] == slope


class TestApplyRb:
    def test_projection_fixes_constants(self):
        mesh = build_rectangular(1)
        const = vec_field(lambda x, y: 0.7 + 0 * x, lambda x, y: -0.2 + 0 * x)
        rule = edge_rule(mesh, parse_boundary("p0"), 4, np.array([0]))
        out = project_traces(rule, const)[0]
        assert np.allclose(out, const(rule.points[0]), atol=1e-14)

    def test_projection_onto_constants_is_edge_mean(self):
        mesh = build_rectangular(1)
        bottom = [e for e in range(4)
                  if np.allclose(mesh.edge_midpoint[e], [0.5, 0.0])][0]
        rule = edge_rule(mesh, parse_boundary("p0"), 10, bottom)
        assert np.allclose(rule.project(x_field), [0.5, 0.0], atol=1e-14)

    def test_identity_passthrough(self):
        # identity R_b leaves the trace jump vb - v0 unchanged
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        kern = kernel(mesh, spaces, ID)
        vloc = np.random.default_rng(1).normal(size=(1, kern.ndof))
        pts = kern.edge_points[0]  # (m, nqe, 2)
        edges = kern.edge_ids[0]
        # each point's edge coordinate s = (x - x_e) . t/|e|
        s = np.einsum("mnc,mc->mn", pts - mesh.edge_midpoint[edges][:, None],
                      mesh.edge_tangent[edges]) / mesh.edge_length[edges][:, None]
        vb = np.einsum("mj,mjnc->mnc", vloc[0, kern.n0:].reshape(kern.m, -1),
                       np.stack([eval_boundary(mesh, e, spaces.boundary, se)
                                 for e, se in zip(edges, s)]))
        v0 = np.einsum("j,jmnc->mnc", vloc[0, : kern.n0],
                       eval_interior(spaces.interior, spaces.params[0],
                                     pts.reshape(-1, 2)).reshape(kern.n0, *pts.shape))
        assert np.allclose(rb_jump_values(kern, vloc)[0], vb - v0, atol=1e-14)

    @pytest.mark.parametrize("rb", [QB, ID])
    def test_kernel_jump_rows(self, rb):
        # edge basis functions lie in V^b: their jumps are their own edge's
        # basis values and 0 elsewhere, so only that edge's rows are kept;
        # interior rows are R_b of -traces
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "sin", "p1", seed=3)
        kern = kernel(mesh, spaces, rb)
        rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree, kern.edge_ids)
        E, m, nqe = kern.edge_weights.shape
        assert kern.rb_jump0.shape == (E, m, kern.n0, nqe, 2)
        assert kern.rb_jumpb.shape == (E, m, kern.nb, nqe, 2)
        tr0 = eval_interior(spaces.interior, spaces.params[kern.eids],
                            kern.edge_points.reshape(E, -1, 2))
        jump0 = -np.swapaxes(tr0.reshape(E, kern.n0, m, nqe, 2), 1, 2)
        expect = rule.apply(jump0) if rb.kind == "qb" else jump0
        # the jumps of each local basis function on every local edge
        unit = np.eye(kern.ndof)
        J = np.stack([rb_jump_values(kern, np.broadcast_to(unit[k], (E, kern.ndof)))
                      for k in range(kern.ndof)], axis=2)  # (E, m, ndof, nqe, 2)
        assert np.abs(J[:, :, : kern.n0] - expect).max() < 1e-14
        edge_rows = J[:, :, kern.n0:].reshape(E, m, m, kern.nb, nqe, 2)
        for le in range(m):
            for other in range(m):
                want = rule.basis[:, le] if other == le else 0.0
                assert np.array_equal(edge_rows[:, le, other],
                                      np.broadcast_to(want, edge_rows[:, le, other].shape))

    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    def test_idempotent_on_traces(self, kind):
        # Qb(Qb w) = Qb w, including rm on fine-mesh edges away from origin
        mesh = build_triangular(8)
        edges = np.array([0, mesh.num_edges // 2, mesh.num_edges - 1])
        rule = edge_rule(mesh, parse_boundary(kind), 10, edges)
        w = vec_field(lambda x, y: np.sin(3 * x) + y, lambda x, y: x * y)
        once = project_traces(rule, w)
        twice = rule.apply(once[:, None])[:, 0]
        assert np.allclose(once, twice, atol=1e-12)

    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    def test_apply_is_the_explicit_projector(self, kind):
        # apply goes through projection coefficients; the reference forms
        # each edge's projector flat^T cmap on (point, component) values,
        # with the squared norms of the basis under the rule
        mesh = build_triangular(8)
        edges = np.array([0, mesh.num_edges // 2, mesh.num_edges - 1])
        rule = edge_rule(mesh, parse_boundary(kind), 10, edges)
        vals = np.random.default_rng(2).standard_normal((3, 4) + rule.points.shape[1:])
        norms = np.einsum("einc,einc,en->ei", rule.basis, rule.basis, rule.weights)
        flat = rule.basis.reshape(3, rule.basis.shape[1], -1)
        cmap = flat * np.repeat(rule.weights, 2, axis=1)[:, None] / norms[:, :, None]
        P = np.swapaxes(flat, 1, 2) @ cmap
        want = (vals.reshape(3, 4, -1) @ np.swapaxes(P, 1, 2)).reshape(vals.shape)
        once = rule.apply(vals)
        assert np.abs(once - want).max() < 1e-14
        assert np.abs(rule.apply(once) - once).max() < 1e-14

    def test_linearity_on_jumps(self):
        # R_b applied to the jump equals the difference of the images
        mesh = build_rectangular(2)
        rule = edge_rule(mesh, parse_boundary("p1"), 10, np.nonzero(~mesh.boundary)[0][:1])
        a = vec_field(lambda x, y: np.sin(x + y), lambda x, y: x ** 2)
        b = vec_field(lambda x, y: np.cos(x), lambda x, y: y ** 3)
        jump = lambda pts: a(pts) - b(pts)
        whole = project_traces(rule, jump)
        parts = project_traces(rule, a) - project_traces(rule, b)
        assert np.allclose(whole, parts, atol=1e-13)


class TestEdgeRuleOnEdgeIds:
    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    @pytest.mark.parametrize("degree", [3, 10])
    def test_rule_on_ids_is_the_full_rule_at_them(self, build, kind, degree):
        # a rule over edge ids of any shape has the bits of the rule over
        # every edge taken at those ids: the (E, m) element edges of a
        # kernel's element block, and the boundary edges
        mesh = build(12)
        cfg = parse_boundary(kind)
        full = edge_rule(mesh, cfg, degree)
        *_, last = element_blocks(np.arange(mesh.num_elements))
        for ids in (mesh.element_edges[last], np.flatnonzero(mesh.boundary)):
            rule = edge_rule(mesh, cfg, degree, ids)
            for name in ("points", "weights", "basis", "coeff_map"):
                assert np.array_equal(getattr(rule, name), getattr(full, name)[ids]), name
            assert np.array_equal(rule.s, full.s)


class TestEdgeTable:
    @pytest.mark.parametrize("kind", ["p0", "p1"])
    def test_p0_p1_are_one_table_on_every_edge(self, kind):
        # the basis depends on the edge coordinate alone, and the edge length
        # cancels from the coefficient map: both are one table, held once
        mesh = build_triangular(3)
        rule = edge_rule(mesh, parse_boundary(kind), 4)
        x, w = np.polynomial.legendre.leggauss(3)
        assert np.allclose(rule.s, 0.5 * x, rtol=0, atol=1e-16)
        s, w = rule.s, 0.5 * w
        one, zero = np.ones_like(s), np.zeros_like(s)
        table = np.stack([np.stack(pair, axis=-1) for pair in
                          [(one, zero), (zero, one), (s, zero), (zero, s)]])
        table = table[: parse_boundary(kind).dim]
        norms = np.einsum("inc,inc,n->i", table, table, w)
        cmap = table.reshape(len(table), -1) * np.repeat(w, 2) / norms[:, None]
        for name, want, tol in (("basis", table, 0.0), ("coeff_map", cmap, 1e-15)):
            got = getattr(rule, name)
            assert got.shape == (mesh.num_edges,) + want.shape, name
            assert got.strides[0] == 0, name
            assert np.allclose(got, want, rtol=tol, atol=0), name

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    @pytest.mark.parametrize("degree", [2, 4, 10])
    def test_gram_is_the_diagonal_coeff_map_divides_by(self, build, kind, degree):
        # the projection solves nothing: the Gram matrix of the basis under
        # the rule is diagonal, (1, 1, 1/12, 1/12) times the edge length, and
        # coeff_map divides each moment by that diagonal, so apply fixes
        # every basis function
        mesh = build(4)
        rule = edge_rule(mesh, parse_boundary(kind), degree)
        nb = rule.basis.shape[1]
        gram = np.einsum("einc,ejnc,en->eij", rule.basis, rule.basis, rule.weights)
        diag = np.array([1.0, 1.0, 1 / 12, 1 / 12])[:nb] * mesh.edge_length[:, None]
        assert np.abs(gram - diag[:, :, None] * np.eye(nb)).max() <= 1e-15
        flat = rule.basis.reshape(mesh.num_edges, nb, -1)
        assert np.abs(rule.coeff_map @ np.swapaxes(flat, 1, 2) - np.eye(nb)).max() <= 1e-14
        assert np.abs(rule.apply(rule.basis) - rule.basis).max() <= 1e-15

    def test_rm_rotation_row_on_every_edge(self):
        mesh = build_triangular(3)
        rule = edge_rule(mesh, parse_boundary("rm"), 4)
        t = mesh.edge_tangent
        want = rule.s[:, None] * np.stack([-t[:, 1], t[:, 0]], axis=-1)[:, None]
        assert np.abs(rule.basis[:, 2] - want).max() <= 1e-15
        assert np.array_equal(rule.basis[:, :2], edge_rule(mesh, parse_boundary("p0"), 4).basis)


class TestCorrections:
    def test_zero_jump_gives_zero(self):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "p1", "p1")
        wf = interpolate(mesh, spaces, x_field)  # traces match exactly
        kern = kernel(mesh, spaces, ID)
        d1, d2 = correction_pair(kern, wf.local_coefficients(mesh, kern.eids))
        assert np.allclose(d1, 0.0, atol=1e-13)
        assert np.abs(d2).max() < 1e-13

    def test_unit_square_closed_form(self):
        # independent analytic oracle: delta = -oint (x,0) (x) n ds over the
        # unit square boundary = [[-1, 0], [0, 0]]; divergence = -1
        mesh, spaces, wf = unit_square_weak_x()
        d1, d2 = correction_pair(kernel(mesh, spaces, ID), wf.local_coefficients(mesh, [0]))
        assert np.allclose(d1[0], [[-1.0, 0.0], [0.0, 0.0]], atol=1e-13)
        assert d2[0] == pytest.approx(-1.0, abs=1e-13)

    def test_rigid_motion_preserved_under_admissible_pairs(self):
        mesh = build_triangular(2)
        rmf = vec_field(lambda x, y: 0.4 - 1.1 * y, lambda x, y: 0.2 + 1.1 * x)
        for boundary, rb in (("rm", QB), ("p1", QB), ("p0", ID)):
            spaces = make_spaces(mesh, "p1", boundary)
            wf = interpolate(mesh, spaces, rmf)
            kern = kernel(mesh, spaces, rb)
            # correction must recover exactly the jump-free state:
            # strain of the total weak gradient vanishes
            eps = weak_strain(kern, wf.local_coefficients(mesh, kern.eids))
            assert np.abs(eps).max() < 1e-12

    def test_constant_vb_closed_surface(self):
        # v0 = 0, vb = (1, 0) on all edges: oint (1,0).n ds = 0
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        wf = WeakFunction.zeros(mesh, spaces)
        wf.boundary[:, 0] = 1.0
        _, d2 = correction_pair(kernel(mesh, spaces, ID), wf.local_coefficients(mesh, [0]))
        assert d2[0] == pytest.approx(0.0, abs=1e-13)

    def test_closed_form_matches_gram_solve(self):
        for build, interior in ((build_rectangular, "sin"), (build_triangular, "p1")):
            mesh = build(2)
            spaces = make_spaces(mesh, interior, "p1", seed=4)
            for rb in (QB, ID):
                kern = kernel(mesh, spaces, rb)
                d1c, d2c = corrections_closed_form(kern, mesh)
                assert np.abs(kern.delta1 - d1c).max() < 1e-12
                assert np.abs(np.trace(kern.delta1, axis1=2, axis2=3) - d2c).max() < 1e-12


class TestWeakOperators:
    def test_constant_weak_function(self):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        cfield = vec_field(lambda x, y: 0.3 + 0 * x, lambda x, y: -1.2 + 0 * x)
        wf = interpolate(mesh, spaces, cfield)
        kern = kernel(mesh, spaces, QB)
        vloc = wf.local_coefficients(mesh, kern.eids)
        assert np.abs(weak_gradient(kern, vloc)).max() < 1e-13
        assert np.abs(divergence(kern, vloc)).max() < 1e-13

    def test_classical_cancels_correction(self):
        # v0 = (x, 0), vb = 0 on the unit square: grad v0 = [[1,0],[0,0]]
        # cancels delta exactly
        mesh, spaces, wf = unit_square_weak_x()
        kern = kernel(mesh, spaces, ID)
        vloc = wf.local_coefficients(mesh, kern.eids)
        classical = classical_gradient(kern, vloc)
        assert np.allclose(classical[0, 0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-13)
        assert np.abs(weak_gradient(kern, vloc)).max() < 1e-12
        assert np.abs(divergence(kern, vloc)).max() < 1e-12

    def test_rigid_motion_strain_free_but_rotating(self):
        mesh = build_triangular(1)
        spaces = make_spaces(mesh, "p1", "rm")
        omega = 0.9
        rmf = vec_field(lambda x, y: -omega * y, lambda x, y: omega * x)
        wf = interpolate(mesh, spaces, rmf)
        kern = kernel(mesh, spaces, QB, [0])
        vloc = wf.local_coefficients(mesh, kern.eids)
        assert np.abs(weak_strain(kern, vloc)).max() < 1e-12
        skew = np.array([[0.0, -omega], [omega, 0.0]])
        assert np.allclose(weak_gradient(kern, vloc)[0], skew[None], atol=1e-12)

    def test_consistency_when_jump_vanishes(self):
        # R_b(vb - v0) = 0 on all edges => weak operators equal classical
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "p1", "p1")
        smooth = vec_field(lambda x, y: 0.2 * x + 0.1 * y,
                           lambda x, y: -0.3 * x + 0.7 * y)
        wf = interpolate(mesh, spaces, smooth)
        kern = kernel(mesh, spaces, QB)
        vloc = wf.local_coefficients(mesh, kern.eids)
        assert np.allclose(weak_gradient(kern, vloc), classical_gradient(kern, vloc),
                           atol=1e-12)

    @given(st.integers(0, 7), st.booleans())
    @settings(max_examples=16, deadline=None)
    def test_moment_equation_residuals(self, eid, use_qb):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "sigmoid", "p1", seed=11)
        kern = kernel(mesh, spaces, QB if use_qb else ID, [eid])
        rng = np.random.default_rng(eid)
        vloc = rng.normal(size=(1, kern.ndof))
        r1, r2 = moment_residuals(kern, vloc)
        scale = max(1.0, np.abs(vloc).max())
        assert np.abs(r1).max() < 1e-12 * scale
        assert np.abs(r2).max() < 1e-12 * scale


class TestParseRb:
    def test_names(self):
        assert parse_rb("identity") == parse_rb("id") == RbOperator("identity")
        assert parse_rb("qb") == RbOperator("qb")
        with pytest.raises(ValueError, match="unknown Rb operator 'proj'"):
            parse_rb("proj")


class TestAssumptionPredicates:
    def test_rm_with_projection_passes(self):
        chk = check_rigid_motion_invariance(build_triangular(4), parse_boundary("rm"), QB)
        assert chk.passed

    def test_p1_with_projection_passes(self):
        chk = check_rigid_motion_invariance(build_triangular(4), parse_boundary("p1"), QB)
        assert chk.passed

    def test_identity_always_passes(self):
        chk = check_rigid_motion_invariance(build_rectangular(4), parse_boundary("p0"), ID)
        assert chk.passed

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_p0_with_projection_fails(self, build):
        # projecting a rotation onto edge constants loses the variation
        chk = check_rigid_motion_invariance(build(4), parse_boundary("p0"), QB)
        assert not chk.passed
        assert chk.worst > 1e-3

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_p0_residual_is_rotation_at_two_point_rule(self, build):
        # constants miss the whole rotation s (-t_y, t_x), which the
        # predicate's own two-point rule reads at s = +-1/(2 sqrt 3)
        chk = check_rigid_motion_invariance(build(4), parse_boundary("p0"), QB)
        assert abs(chk.worst - 0.5 / np.sqrt(3)) <= 1e-15

    @pytest.mark.parametrize("kind", ["p1", "rm"])
    def test_zero_norm_basis_raises(self, kind):
        # a 1-point rule sits at the edge midpoint, where the centred
        # linear functions vanish
        with pytest.raises(ValueError, match="zero norm"):
            edge_rule(build_triangular(2), parse_boundary(kind), 1)
