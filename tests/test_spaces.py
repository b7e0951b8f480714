import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwgfem.mesh import build_rectangular, build_triangular
from gwgfem.spaces import (
    GRAM_CONDITION_LIMIT,
    ElementRandomParams,
    InteriorSpaceConfig,
    SpaceConditioningError,
    _activation_args,
    build_spaces,
    eval_boundary,
    eval_interior,
    grad_interior,
    interior_gram_condition,
    parse_boundary,
    parse_interior,
    sample_element_params,
    spd_condition,
)


class TestConfigs:
    def test_dimensions(self):
        assert parse_interior("p1").dim == 6
        assert parse_interior("sin").dim == 6  # 2 constants + p=4
        assert InteriorSpaceConfig("activation", "sigmoid", p=7).dim == 9
        assert parse_boundary("p0").dim == 2
        assert parse_boundary("p1").dim == 4
        assert parse_boundary("rm").dim == 3

    def test_parse_strings(self):
        cfg = parse_interior("lrelu:0.25")
        assert cfg.activation == "lrelu" and cfg.leaky_slope == 0.25
        for bad in ("lrelu", "lrelu:x", "lrelu:nan", "lrelu:-inf", "tanh", "p2"):
            with pytest.raises(ValueError):
                parse_interior(bad)
        with pytest.raises(ValueError):
            parse_boundary("p2")


class TestSampling:
    def test_rect_midpoint_draws(self):
        # every draw forced to 0.5 on the unit square
        m = build_rectangular(1)
        prm = sample_element_params(m.kind, m.element_vertices(0), np.full((4, 4), 0.5))
        assert np.allclose(prm.w, 0.0)
        assert np.allclose(prm.x0, 0.5)

    def test_triangle_vertex_limit(self):
        # alpha = 1, beta = sqrt(1) = 1 puts the anchor on the first vertex
        m = build_triangular(1)
        verts = m.element_vertices(0)
        assert np.allclose(verts, [[0, 0], [1, 0], [0, 1]])
        u = np.ones((4, 4))
        u[0] = [0.0, 0.0, 1.0, 1.0]
        prm = sample_element_params(m.kind, verts, u)
        assert np.allclose(prm.x0[0], [0.0, 0.0])

    def test_triangle_affine_map(self):
        # draws (alpha, r) = (0.5, 0.25): beta = 0.5,
        # x0 = 0.5*(0.5*A1 + 0.5*A2) + 0.5*A3 = (0.25, 0.5)
        m = build_triangular(1)
        u = np.full((4, 4), 0.25)
        u[0] = [0.0, 0.0, 0.5, 0.25]
        prm = sample_element_params(m.kind, m.element_vertices(0), u)
        assert np.allclose(prm.x0[0], [0.25, 0.5])

    def test_draw_order_documented(self):
        # per i: w_x, w_y then the anchor draws (rect: rx, ry)
        m = build_rectangular(1)
        u = np.array([[0.6, 0.7, 0.1, 0.2],   # i=1
                      [0.8, 0.9, 0.3, 0.4]])  # i=2
        prm = sample_element_params(m.kind, m.element_vertices(0), u)
        assert np.allclose(prm.x0[0], [0.1, 0.2])
        assert np.allclose(prm.w[0], [0.6 - 0.5, 0.7 - 0.5])
        assert np.allclose(prm.w[1], [0.8 - 0.5, 0.9 - 0.5])
        assert np.allclose(prm.x0[1], [0.3, 0.4])

    def test_params_inside_element_and_unshared(self):
        for build in (build_rectangular, build_triangular):
            m = build(3)
            params = build_spaces(m, parse_interior("sigmoid"), parse_boundary("p0"),
                                  seed_entropy=(1, 3)).params
            assert params.w.shape == params.x0.shape == (m.num_elements, 4, 2)
            verts = m.vertices[m.elements]
            lo, hi = verts.min(axis=1), verts.max(axis=1)  # (ne, 2)
            assert (params.x0 >= lo[:, None] - 1e-12).all()
            assert (params.x0 <= hi[:, None] + 1e-12).all()
            assert (np.abs(params.w) <= 0.5).all()
            assert not np.allclose(params[0].x0, params[1].x0)

    def test_seed_reproducibility(self):
        m = build_rectangular(2)
        a, b = (build_spaces(m, parse_interior("sin"), parse_boundary("p0"),
                             seed_entropy=(9, 2)).params for _ in range(2))
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.x0, b.x0)
        # no element is rejected here, so the level's first draw, in element
        # order, gives every parameter
        rng = np.random.default_rng(np.random.SeedSequence((9, 2)))
        ref = sample_element_params(m.kind, m.vertices[m.elements],
                                    rng.uniform(size=(m.num_elements, 4, 4)))
        assert np.array_equal(a.w, ref.w)
        assert np.array_equal(a.x0, ref.x0)

    def test_p1_has_no_params(self):
        m = build_rectangular(2)
        spaces = build_spaces(m, parse_interior("p1"), parse_boundary("p0"))
        assert spaces.params is None
        assert spaces.element_params(0) is None


class TestEvaluation:
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_activation_args_match_einsum(self, shape):
        # two broadcast products give the difference einsum's bits
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=shape + (36, 2))
        prm = ElementRandomParams(w=rng.uniform(-0.5, 0.5, shape + (4, 2)),
                                  x0=rng.uniform(size=shape + (4, 2)))
        ref = np.einsum("...pqd,...pd->...pq",
                        pts[..., None, :, :] - prm.x0[..., :, None, :], prm.w)
        assert np.array_equal(_activation_args(pts, prm), ref)

    def test_zero_direction_sin(self):
        m = build_rectangular(1)
        cfg = parse_interior("sin")
        prm = ElementRandomParams(w=np.zeros((4, 2)), x0=np.full((4, 2), 0.5))
        vals = eval_interior(m, 0, cfg, prm, np.array([[0.3, 0.8]]))
        assert np.allclose(vals[0, 0], [1.0, 0.0])
        assert np.allclose(vals[1, 0], [0.0, 1.0])
        assert np.allclose(vals[2:], 0.0)

    def test_sigmoid_at_anchor(self):
        m = build_rectangular(1)
        cfg = parse_interior("sigmoid")
        prm = ElementRandomParams(w=np.full((4, 2), 0.3), x0=np.full((4, 2), 0.5))
        vals = eval_interior(m, 0, cfg, prm, np.array([[0.5, 0.5]]))
        assert np.allclose(vals[2:, 0].max(axis=1), 0.5)

    def test_relu_direct_value(self):
        m = build_rectangular(1)
        cfg = parse_interior("relu")
        w = np.zeros((4, 2))
        w[0] = [1.0, 0.0]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        vals = eval_interior(m, 0, cfg, prm, np.array([[0.75, 0.5]]))
        assert vals[2, 0, 0] == pytest.approx(0.25)
        assert vals[2, 0, 1] == 0.0

    def test_component_alternation(self):
        m = build_rectangular(1)
        cfg = parse_interior("sin")
        rng = np.random.default_rng(0)
        prm = ElementRandomParams(w=rng.uniform(-0.5, 0.5, (4, 2)),
                                  x0=rng.uniform(0.2, 0.8, (4, 2)))
        vals = eval_interior(m, 0, cfg, prm, np.array([[0.4, 0.6]]))
        for k in range(4):
            active = k % 2
            assert vals[2 + k, 0, 1 - active] == 0.0

    def test_constant_basis_gradient_zero(self):
        m = build_rectangular(1)
        g = grad_interior(m, 0, parse_interior("p1"), None, np.array([[0.2, 0.3]]))
        assert np.allclose(g[:2], 0.0)

    def test_sin_gradient_at_zero(self):
        m = build_rectangular(1)
        cfg = parse_interior("sin")
        w = np.zeros((4, 2))
        w[0] = [0.3, -0.2]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        g = grad_interior(m, 0, cfg, prm, np.array([[0.5, 0.5]]))
        assert np.allclose(g[2, 0, 0], [0.3, -0.2])
        assert np.allclose(g[2, 0, 1], 0.0)

    def test_sigmoid_gradient_at_zero(self):
        m = build_rectangular(1)
        cfg = parse_interior("sigmoid")
        w = np.zeros((4, 2))
        w[0] = [1.0, 0.0]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        g = grad_interior(m, 0, cfg, prm, np.array([[0.5, 0.5]]))
        assert np.allclose(g[2, 0, 0], [0.25, 0.0])

    def test_relu_subgradient_and_leaky_slope_at_kink(self):
        m = build_rectangular(1)
        w = np.zeros((4, 2))
        w[0] = [1.0, 0.0]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        at_kink = np.array([[0.5, 0.5]])
        g_relu = grad_interior(m, 0, parse_interior("relu"), prm, at_kink)
        assert np.allclose(g_relu[2], 0.0)
        g_lrelu = grad_interior(m, 0, parse_interior("lrelu:0.125"), prm, at_kink)
        assert g_lrelu[2, 0, 0, 0] == pytest.approx(0.125)

    @given(st.floats(min_value=-0.45, max_value=0.45),
           st.floats(min_value=-0.45, max_value=0.45))
    @settings(max_examples=25, deadline=None)
    def test_gradients_match_finite_differences(self, wx, wy):
        m = build_rectangular(1)
        prm = ElementRandomParams(w=np.array([[wx, wy]] * 4),
                                  x0=np.full((4, 2), 0.4))
        pt = np.array([[0.6, 0.7]])
        h = 1e-6
        for name in ("sin", "cos", "sigmoid"):
            cfg = parse_interior(name)
            g = grad_interior(m, 0, cfg, prm, pt)[2, 0, 0]
            for d in range(2):
                dp = pt.copy(); dp[0, d] += h
                dm = pt.copy(); dm[0, d] -= h
                fd = (eval_interior(m, 0, cfg, prm, dp)[2, 0, 0]
                      - eval_interior(m, 0, cfg, prm, dm)[2, 0, 0]) / (2 * h)
                assert g[d] == pytest.approx(fd, abs=5e-9)


class TestBoundaryBasis:
    def test_p0_anywhere(self):
        m = build_rectangular(1)
        vals = eval_boundary(m, 0, parse_boundary("p0"), np.array([[0.3, 0.0]]))
        assert np.allclose(vals[0, 0], [1, 0])
        assert np.allclose(vals[1, 0], [0, 1])

    def test_rm_third_vector_global(self):
        m = build_rectangular(1)
        vals = eval_boundary(m, 0, parse_boundary("rm"), np.array([[0.5, 0.25]]))
        assert np.allclose(vals[2, 0], [-0.25, 0.5])

    def test_p1_coordinate_vanishes_at_midpoint(self):
        m = build_rectangular(2)
        for e in range(m.num_edges):
            mid = m.edge_midpoint[e][None, :]
            vals = eval_boundary(m, e, parse_boundary("p1"), mid)
            assert np.allclose(vals[2:, 0], 0.0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    def test_single_valuedness_between_owners(self, kind):
        # same edge id -> identical basis values regardless of the owner
        # element used to reach it
        m = build_triangular(2)
        cfg = parse_boundary(kind)
        for e in m.interior_edges():
            pts = m.edge_midpoint[e][None, :] + 0.001 * m.edge_tangent[e]
            first = eval_boundary(m, e, cfg, pts)
            second = eval_boundary(m, e, cfg, pts)
            assert np.array_equal(first, second)

    def test_rigid_motion_containment_in_p1_interior(self):
        # a + eta x must be exactly representable; least-squares residual
        # below 1e-12 at sample points
        m = build_triangular(3)
        rng = np.random.default_rng(3)
        pts = m.element_vertices(4).mean(axis=0) + rng.uniform(-0.05, 0.05, (12, 2))
        basis = eval_interior(m, 4, parse_interior("p1"), None, pts)
        target = np.column_stack([0.3 - 0.8 * pts[:, 1], -0.1 + 0.8 * pts[:, 0]])
        A = basis.reshape(6, -1).T
        coef, *_ = np.linalg.lstsq(A, target.ravel(), rcond=None)
        assert np.abs(A @ coef - target.ravel()).max() < 1e-12


class TestConditioning:
    def test_report_and_limits(self):
        m = build_rectangular(2)
        spaces = build_spaces(m, parse_interior("sin"), parse_boundary("p0"))
        assert spaces.gram_condition.shape == (4,)
        assert (spaces.gram_condition <= GRAM_CONDITION_LIMIT).all()

    def test_p1_well_conditioned(self):
        m = build_triangular(4)
        spaces = build_spaces(m, parse_interior("p1"), parse_boundary("p0"))
        assert spaces.gram_condition.max() < 1e3

    def test_resampling_recovers(self, monkeypatch):
        # first sample is degenerate (w = 0), the retry draws are fine
        from gwgfem import spaces as sp

        retry = [0.91, 0.13, 0.37, 0.58, 0.24, 0.71, 0.66, 0.08,
                 0.45, 0.83, 0.19, 0.52, 0.77, 0.31, 0.62, 0.98]
        draws = iter([np.full((1, 4, 4), 0.5), np.reshape(retry, (1, 4, 4))])

        class Stream:
            def uniform(self, size):
                assert size == (1, 4, 4)
                return next(draws)

        monkeypatch.setattr(sp, "_level_stream", lambda entropy: Stream())
        m = build_rectangular(1)
        out = sp.build_spaces(m, parse_interior("sin"), parse_boundary("p0"))
        assert out.gram_condition[0] <= GRAM_CONDITION_LIMIT

    def test_unrecoverable_degeneracy_raises(self, monkeypatch):
        from gwgfem import spaces as sp

        class DegenerateStream:
            def uniform(self, size):
                return np.full(size, 0.5)  # w = 0 every time

        monkeypatch.setattr(sp, "_level_stream", lambda entropy: DegenerateStream())
        m = build_rectangular(1)
        with pytest.raises(SpaceConditioningError, match="element 0"):
            sp.build_spaces(m, parse_interior("sin"), parse_boundary("p0"))

    def test_p1_rejection_raises(self, monkeypatch):
        # p1 spaces draw nothing, so a rejected element fails at once
        from gwgfem import spaces as sp

        monkeypatch.setattr(sp, "GRAM_CONDITION_LIMIT", 1.0)
        m = build_triangular(2)
        with pytest.raises(SpaceConditioningError, match="after 0 resampling"):
            sp.build_spaces(m, parse_interior("p1"), parse_boundary("p0"))

    def test_condition_estimate_degenerate(self):
        m = build_rectangular(1)
        prm = ElementRandomParams(w=np.zeros((4, 2)), x0=np.full((4, 2), 0.5))
        c = interior_gram_condition(m, 0, parse_interior("sin"), prm, 10)
        assert c > GRAM_CONDITION_LIMIT

    def test_nonfinite_gram_is_rejected(self):
        # eigvalsh does not converge on these; every one must read inf
        grams = np.stack([np.eye(3), np.diag([1.0, np.inf, 1.0]), np.full((3, 3), np.nan)])
        assert spd_condition(grams).tolist() == [1.0, np.inf, np.inf]
        m = build_rectangular(1)
        prm = ElementRandomParams(w=np.full((4, 2), 0.3), x0=np.full((4, 2), 0.5))
        huge = parse_interior("lrelu:1e300")  # slope**2 overflows the Gram matrix
        assert interior_gram_condition(m, 0, huge, prm, 10) == np.inf
