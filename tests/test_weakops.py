import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (classical_gradient, correction_pair, corrections_closed_form, kernel,
                      make_spaces, moment_residuals, rb_jump_values, vec_field,
                      weak_gradient, weak_strain)
from gwgfem.assembly import interpolate, project_interior
from gwgfem.mesh import build_rectangular, build_triangular
from gwgfem.spaces import eval_boundary, eval_interior, parse_boundary
from gwgfem.weakops import (
    WeakFunction,
    check_rb_injectivity,
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


def project_traces(rule, edges, field):
    """Q_b of a field on ``edges``, as values at the rule's points."""
    vals = field(rule.points[edges].reshape(-1, 2)).reshape(rule.points[edges].shape)
    return rule.apply(edges, vals[:, None])[:, 0]


def divergence(kern, vloc):
    return np.trace(classical_gradient(kern, vloc), axis1=2, axis2=3) \
        + correction_pair(kern, vloc)[1][:, None]


class TestApplyRb:
    def test_projection_fixes_constants(self):
        mesh = build_rectangular(1)
        const = vec_field(lambda x, y: 0.7 + 0 * x, lambda x, y: -0.2 + 0 * x)
        rule = edge_rule(mesh, parse_boundary("p0"), 4)
        out = project_traces(rule, np.array([0]), const)[0]
        assert np.allclose(out, const(rule.points[0]), atol=1e-14)

    def test_projection_onto_constants_is_edge_mean(self):
        mesh = build_rectangular(1)
        bottom = [e for e in range(4)
                  if np.allclose(mesh.edge_midpoint[e], [0.5, 0.0])][0]
        rule = edge_rule(mesh, parse_boundary("p0"), 10)
        assert np.allclose(rule.project(bottom, x_field), [0.5, 0.0], atol=1e-14)

    def test_identity_passthrough(self):
        # identity R_b leaves the trace jump vb - v0 unchanged
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        kern = kernel(mesh, spaces, ID)
        vloc = np.random.default_rng(1).normal(size=(1, kern.ndof))
        pts = kern.edge_points[0]  # (m, nqe, 2)
        edges = kern.edge_ids[0]
        vb = np.einsum("mj,mjnc->mnc", vloc[0, kern.n0:].reshape(kern.m, -1),
                       eval_boundary(mesh, edges, spaces.boundary, pts))
        v0 = np.einsum("j,jmnc->mnc", vloc[0, : kern.n0],
                       eval_interior(mesh, 0, spaces.interior, None,
                                     pts.reshape(-1, 2)).reshape(kern.n0, *pts.shape))
        assert np.allclose(rb_jump_values(kern, vloc)[0], vb - v0, atol=1e-14)

    @pytest.mark.parametrize("rb", [QB, ID])
    def test_kernel_jump_rows(self, rb):
        # edge basis functions lie in V^b: their rows are their own edge's
        # basis values and 0 elsewhere; interior rows are R_b of -traces
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "sin", "p1", seed=3)
        kern = kernel(mesh, spaces, rb)
        rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
        E, m, _, nqe, _ = kern.rb_jumps.shape
        tr0 = eval_interior(mesh, kern.eids, spaces.interior, spaces.element_params(kern.eids),
                            kern.edge_points.reshape(E, -1, 2))
        jump0 = -np.swapaxes(tr0.reshape(E, kern.n0, m, nqe, 2), 1, 2)
        expect = rule.apply(kern.edge_ids, jump0) if rb.kind == "qb" else jump0
        assert np.abs(kern.rb_jumps[:, :, : kern.n0] - expect).max() < 1e-14
        edge_rows = kern.rb_jumps[:, :, kern.n0:].reshape(E, m, m, kern.nb, nqe, 2)
        for le in range(m):
            for other in range(m):
                want = rule.basis[kern.edge_ids[:, le]] if other == le else 0.0
                assert np.array_equal(edge_rows[:, le, other],
                                      np.broadcast_to(want, edge_rows[:, le, other].shape))

    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    def test_idempotent_on_traces(self, kind):
        # Qb(Qb w) = Qb w, including rm on fine-mesh edges away from origin
        mesh = build_triangular(8)
        rule = edge_rule(mesh, parse_boundary(kind), 10)
        w = vec_field(lambda x, y: np.sin(3 * x) + y, lambda x, y: x * y)
        edges = np.array([0, mesh.num_edges // 2, mesh.num_edges - 1])
        once = project_traces(rule, edges, w)
        twice = rule.apply(edges, once[:, None])[:, 0]
        assert np.allclose(once, twice, atol=1e-12)

    def test_linearity_on_jumps(self):
        # R_b applied to the jump equals the difference of the images
        mesh = build_rectangular(2)
        rule = edge_rule(mesh, parse_boundary("p1"), 10)
        a = vec_field(lambda x, y: np.sin(x + y), lambda x, y: x ** 2)
        b = vec_field(lambda x, y: np.cos(x), lambda x, y: y ** 3)
        jump = lambda pts: a(pts) - b(pts)
        e = mesh.interior_edges()[:1]
        whole = project_traces(rule, e, jump)
        parts = project_traces(rule, e, a) - project_traces(rule, e, b)
        assert np.allclose(whole, parts, atol=1e-13)


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
                assert np.abs(kern.delta2 - d2c).max() < 1e-12


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

    def test_trace_of_delta1_equals_delta2(self):
        mesh = build_triangular(2)
        spaces = make_spaces(mesh, "sin", "p0", seed=2)
        rng = np.random.default_rng(5)
        for rb in (QB, ID):
            kern = kernel(mesh, spaces, rb)
            vloc = rng.normal(size=(mesh.num_elements, kern.ndof))
            d1, d2 = correction_pair(kern, vloc)
            assert np.abs(np.trace(d1, axis1=1, axis2=2) - d2).max() < 1e-12

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


class TestAssumptionPredicates:
    def test_rm_with_projection_passes(self):
        mesh = build_triangular(4)
        rule = edge_rule(mesh, parse_boundary("rm"), 10)
        chk = check_rigid_motion_invariance(mesh, rule, QB)
        assert chk.passed

    def test_p1_with_projection_passes(self):
        mesh = build_triangular(4)
        rule = edge_rule(mesh, parse_boundary("p1"), 10)
        chk = check_rigid_motion_invariance(mesh, rule, QB)
        assert chk.passed

    def test_identity_always_passes(self):
        mesh = build_rectangular(4)
        rule = edge_rule(mesh, parse_boundary("p0"), 10)
        chk = check_rigid_motion_invariance(mesh, rule, ID)
        assert chk.passed

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_p0_with_projection_fails(self, build):
        # projecting a rotation onto edge constants loses the variation
        mesh = build(4)
        rule = edge_rule(mesh, parse_boundary("p0"), 10)
        chk = check_rigid_motion_invariance(mesh, rule, QB)
        assert not chk.passed
        assert chk.worst > 1e-3

    @pytest.mark.parametrize("kind", ["p1", "rm"])
    def test_zero_norm_basis_raises(self, kind):
        # a 1-point rule sits at the edge midpoint, where the centred
        # linear functions vanish
        with pytest.raises(ValueError, match="zero norm"):
            edge_rule(build_triangular(2), parse_boundary(kind), 1)

    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    def test_injectivity_on_uniform_meshes(self, kind):
        mesh = build_triangular(8)
        chk = check_rb_injectivity(edge_rule(mesh, parse_boundary(kind), 10))
        assert chk.passed
