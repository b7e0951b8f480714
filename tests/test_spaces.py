import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradients, gradient_factors
from gwgfem.mesh import build_rectangular, build_triangular, element_quadrature
from gwgfem.spaces import (
    ACTIVATIONS,
    GRAM_CONDITION_LIMIT,
    ElementRandomParams,
    InteriorSpaceConfig,
    SpaceConditioningError,
    _activation_args,
    build_spaces,
    eval_boundary,
    eval_interior,
    interior_mass,
    parse_boundary,
    parse_interior,
    sample_element_params,
    spd_condition,
)


class TestConfigs:
    def test_dimensions(self):
        assert parse_interior("p1").dim == 6
        assert parse_interior("sin").dim == 6  # 2 constants + p=4
        assert InteriorSpaceConfig("sigmoid", p=7).dim == 9
        assert parse_boundary("p0").dim == 2
        assert parse_boundary("p1").dim == 4
        assert parse_boundary("rm").dim == 3

    def test_p1_takes_no_activation_or_p(self):
        # p1 is the linear row with p = 4, so any other p would build a
        # different space
        with pytest.raises(ValueError):
            InteriorSpaceConfig("p1", p=6)
        assert InteriorSpaceConfig("p1") == parse_interior("p1")
        # the linear activation is p1's row, not a name of its own
        assert ACTIVATIONS == ("sin", "cos", "sigmoid", "relu", "lrelu")
        for bad in ("linear", "activation"):
            with pytest.raises(ValueError):
                parse_interior(bad)
            with pytest.raises(ValueError):
                InteriorSpaceConfig(bad)
        with pytest.raises(ValueError):
            InteriorSpaceConfig("sin", p=0)
        for slope in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                InteriorSpaceConfig("lrelu", leaky_slope=slope)

    def test_parse_strings(self):
        cfg = parse_interior("lrelu:0.25")
        assert cfg.name == "lrelu" and cfg.leaky_slope == 0.25
        for bad in ("lrelu", "lrelu:x", "lrelu:nan", "lrelu:-inf", "tanh", "p2",
                    "lrelufoo:0.1", "lrelu0.5:0.1", "p1:2", "sin:3", "sin:"):
            with pytest.raises(ValueError):
                parse_interior(bad)
        for bad in ("p2", "p9"):
            with pytest.raises(ValueError, match="unknown boundary space"):
                parse_boundary(bad)


class TestSampling:
    def test_rect_midpoint_draws(self):
        # every draw forced to 0.5 on the unit square
        m = build_rectangular(1)
        prm = sample_element_params(m.vertices[m.elements[0]], np.full((4, 4), 0.5))
        assert np.allclose(prm.w, 0.0)
        assert np.allclose(prm.x0, 0.5)

    def test_triangle_vertex_limit(self):
        # alpha = 1, beta = sqrt(1) = 1 puts the anchor on the first vertex
        m = build_triangular(1)
        verts = m.vertices[m.elements[0]]
        assert np.allclose(verts, [[0, 0], [1, 0], [0, 1]])
        u = np.ones((4, 4))
        u[0] = [0.0, 0.0, 1.0, 1.0]
        prm = sample_element_params(verts, u)
        assert np.allclose(prm.x0[0], [0.0, 0.0])

    def test_triangle_affine_map(self):
        # draws (alpha, r) = (0.5, 0.25): beta = 0.5,
        # x0 = 0.5*(0.5*A1 + 0.5*A2) + 0.5*A3 = (0.25, 0.5)
        m = build_triangular(1)
        u = np.full((4, 4), 0.25)
        u[0] = [0.0, 0.0, 0.5, 0.25]
        prm = sample_element_params(m.vertices[m.elements[0]], u)
        assert np.allclose(prm.x0[0], [0.25, 0.5])

    def test_draw_order_documented(self):
        # per i: w_x, w_y then the anchor draws (rect: rx, ry)
        m = build_rectangular(1)
        u = np.array([[0.6, 0.7, 0.1, 0.2],   # i=1
                      [0.8, 0.9, 0.3, 0.4]])  # i=2
        prm = sample_element_params(m.vertices[m.elements[0]], u)
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
        ref = sample_element_params(m.vertices[m.elements],
                                    rng.uniform(size=(m.num_elements, 4, 4)))
        assert np.array_equal(a.w, ref.w)
        assert np.array_equal(a.x0, ref.x0)

    def test_p1_params_are_geometric(self):
        # p1 spans the linear activation with anchors at the barycenter and
        # directions (1/h, 0) twice, then (0, 1/h) twice; nothing is drawn,
        # so every seed gives the same parameters
        m = build_triangular(3)
        a, b = (build_spaces(m, parse_interior("p1", seed=s), parse_boundary("p0"),
                             seed_entropy=(s, 3)).params for s in (0, 1))
        inv = 1.0 / m.elem_diameter
        zero = np.zeros_like(inv)
        want = np.stack([np.column_stack([inv, zero])] * 2
                        + [np.column_stack([zero, inv])] * 2, axis=1)
        assert np.array_equal(a.w, want)
        assert np.array_equal(a.x0, np.repeat(m.elem_barycenter[:, None], 4, axis=1))
        assert not a.x0.flags.writeable  # a view of the barycenters, not a copy
        assert np.array_equal(a.w, b.w) and np.array_equal(a.x0, b.x0)


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
        cfg = parse_interior("sin")
        prm = ElementRandomParams(w=np.zeros((4, 2)), x0=np.full((4, 2), 0.5))
        vals = eval_interior(cfg, prm, np.array([[0.3, 0.8]]))
        assert np.allclose(vals[0, 0], [1.0, 0.0])
        assert np.allclose(vals[1, 0], [0.0, 1.0])
        assert np.allclose(vals[2:], 0.0)

    def test_sigmoid_at_anchor(self):
        cfg = parse_interior("sigmoid")
        prm = ElementRandomParams(w=np.full((4, 2), 0.3), x0=np.full((4, 2), 0.5))
        vals = eval_interior(cfg, prm, np.array([[0.5, 0.5]]))
        assert np.allclose(vals[2:, 0].max(axis=1), 0.5)

    def test_relu_direct_value(self):
        cfg = parse_interior("relu")
        w = np.zeros((4, 2))
        w[0] = [1.0, 0.0]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        vals = eval_interior(cfg, prm, np.array([[0.75, 0.5]]))
        assert vals[2, 0, 0] == pytest.approx(0.25)
        assert vals[2, 0, 1] == 0.0

    def test_component_alternation(self):
        cfg = parse_interior("sin")
        rng = np.random.default_rng(0)
        prm = ElementRandomParams(w=rng.uniform(-0.5, 0.5, (4, 2)),
                                  x0=rng.uniform(0.2, 0.8, (4, 2)))
        vals = eval_interior(cfg, prm, np.array([[0.4, 0.6]]))
        for k in range(4):
            active = k % 2
            assert vals[2 + k, 0, 1 - active] == 0.0

    @pytest.mark.parametrize("build", [build_triangular, build_rectangular])
    def test_p1_matches_closed_form(self, build):
        # the linear activation at p1's parameters gives the scaled
        # coordinates xi, eta to 1 ulp (a product by 1/h, not a quotient by
        # h) and their gradients 1/h bit for bit
        m = build(4)
        spaces = build_spaces(m, parse_interior("p1"), parse_boundary("p0"))
        eids = np.arange(m.num_elements)
        pts = element_quadrature(m, eids, 6).points  # (E, nq, 2)
        prm = spaces.params[eids]
        h = m.elem_diameter[:, None]
        xi, eta = np.moveaxis((pts - m.elem_barycenter[:, None]) / h[..., None], -1, 0)
        vals = eval_interior(spaces.interior, prm, pts)
        for k, (coord, comp) in enumerate([(xi, 0), (xi, 1), (eta, 0), (eta, 1)]):
            got = vals[:, 2 + k, :, comp]
            assert np.all(np.abs(got - coord) <= np.spacing(np.abs(coord)))
            assert not vals[:, 2 + k, :, 1 - comp].any()
        grads = gradient_factors(spaces.interior, prm, pts)
        want = np.zeros_like(grads)
        for k, (comp, d) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            want[:, 2 + k, :, comp, d] = 1.0 / h
        assert np.array_equal(grads, want)

    def test_constant_basis_gradient_zero(self):
        m = build_rectangular(1)
        spaces = build_spaces(m, parse_interior("p1"), parse_boundary("p0"))
        g = gradient_factors(spaces.interior, spaces.params[0], np.array([[0.2, 0.3]]))
        assert np.allclose(g[:2], 0.0)

    def test_sin_gradient_at_zero(self):
        cfg = parse_interior("sin")
        w = np.zeros((4, 2))
        w[0] = [0.3, -0.2]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        g = gradient_factors(cfg, prm, np.array([[0.5, 0.5]]))
        assert np.allclose(g[2, 0, 0], [0.3, -0.2])
        assert np.allclose(g[2, 0, 1], 0.0)

    def test_sigmoid_gradient_at_zero(self):
        cfg = parse_interior("sigmoid")
        w = np.zeros((4, 2))
        w[0] = [1.0, 0.0]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        g = gradient_factors(cfg, prm, np.array([[0.5, 0.5]]))
        assert np.allclose(g[2, 0, 0], [0.25, 0.0])

    def test_relu_subgradient_and_leaky_slope_at_kink(self):
        w = np.zeros((4, 2))
        w[0] = [1.0, 0.0]
        prm = ElementRandomParams(w=w, x0=np.full((4, 2), 0.5))
        at_kink = np.array([[0.5, 0.5]])
        g_relu = gradient_factors(parse_interior("relu"), prm, at_kink)
        assert np.allclose(g_relu[2], 0.0)
        g_lrelu = gradient_factors(parse_interior("lrelu:0.125"), prm, at_kink)
        assert g_lrelu[2, 0, 0, 0] == pytest.approx(0.125)

    @given(st.floats(min_value=-0.45, max_value=0.45),
           st.floats(min_value=-0.45, max_value=0.45))
    @settings(max_examples=25, deadline=None)
    def test_gradients_match_finite_differences(self, wx, wy):
        # every table row; the kinked ones only where t = w . (x - x0)
        # stays clear of 0 by more than the step moves it
        prm = ElementRandomParams(w=np.array([[wx, wy]] * 4),
                                  x0=np.full((4, 2), 0.4))
        pt = np.array([[0.6, 0.7]])
        h = 1e-6
        t = 0.2 * wx + 0.3 * wy
        for name in ("p1", *ACTIVATIONS):
            kinked = name in ("relu", "lrelu")
            if kinked and abs(t) <= 2 * h * (abs(wx) + abs(wy)):
                continue
            cfg = parse_interior(name + ":0.25" * (name == "lrelu"))
            g = gradient_factors(cfg, prm, pt)
            assert np.abs(g - fd_gradients(cfg, prm, pt, h)).max() <= 5e-9


class TestBoundaryBasis:
    def test_p0_anywhere(self):
        m = build_rectangular(1)
        vals = eval_boundary(m, 0, parse_boundary("p0"), np.array([-0.2]))
        assert np.allclose(vals[0, 0], [1, 0])
        assert np.allclose(vals[1, 0], [0, 1])

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_rm_third_vector_rotates_about_midpoint(self, build):
        # s (-t_y, t_x) in the edge coordinate s = (x - x_e) . t/|e|: 0 at
        # the midpoint and +-(1/2)(-t_y, t_x) at the endpoints s = +-1/2
        m = build(3)
        cfg = parse_boundary("rm")
        for e in range(m.num_edges):
            t = m.edge_tangent[e]
            vals = eval_boundary(m, e, cfg, np.array([0.0, 0.5, -0.5]))[2]
            assert np.array_equal(vals[0], [0.0, 0.0])
            assert np.allclose(vals[1], [-0.5 * t[1], 0.5 * t[0]], atol=1e-15)
            assert np.allclose(vals[2], [0.5 * t[1], -0.5 * t[0]], atol=1e-15)

    def test_p1_coordinate_vanishes_at_midpoint(self):
        m = build_rectangular(2)
        for e in range(m.num_edges):
            vals = eval_boundary(m, e, parse_boundary("p1"), np.zeros(1))
            assert np.allclose(vals[2:, 0], 0.0, atol=1e-14)

    @pytest.mark.parametrize("kind", ["p0", "p1", "rm"])
    def test_single_valuedness_between_owners(self, kind):
        # same edge id -> identical basis values regardless of the owner
        # element used to reach it
        m = build_triangular(2)
        cfg = parse_boundary(kind)
        for e in np.nonzero(~m.boundary)[0]:
            first, second = (eval_boundary(m, m.element_edges[t, le], cfg, np.array([0.001]))
                             for t, le in zip(*np.nonzero(m.element_edges == e)))
            assert np.array_equal(first, second)

    def test_rigid_motion_containment_in_p1_interior(self):
        # a + eta x must be exactly representable; least-squares residual
        # below 1e-12 at sample points
        m = build_triangular(3)
        rng = np.random.default_rng(3)
        pts = m.vertices[m.elements[4]].mean(axis=0) + rng.uniform(-0.05, 0.05, (12, 2))
        spaces = build_spaces(m, parse_interior("p1"), parse_boundary("p0"))
        basis = eval_interior(spaces.interior, spaces.params[4], pts)
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

    @pytest.mark.parametrize("n, counts", [(2, (2, 1)), (8, (2, 1)), (16, (2, 1)),
                                           (12, (50, 25))])
    def test_class_counts(self, n, counts):
        # p1 shares the lattices' shape classes, two triangles and one square
        # at n = 2^k, split by the rounding of the lattice coordinates
        # elsewhere; a drawn space has one class per element.  Every class is
        # numbered by its lowest element id, and its members are its
        # representative's translates, edge orientations included.
        for build, nc in zip((build_triangular, build_rectangular), counts):
            m = build(n)
            cls, reps = build_spaces(m, parse_interior("p1"), parse_boundary("p0")).classes
            assert len(reps) == nc
            assert (np.diff(reps) > 0).all() and (cls[reps] == np.arange(len(reps))).all()
            assert (reps[cls] <= np.arange(m.num_elements)).all()
            coords = m.vertices[m.elements]
            offsets = coords - coords[:, :1]
            assert (offsets == offsets[reps[cls]]).all()
            forward = m.edges[m.element_edges, 0] == m.elements
            assert (forward == forward[reps[cls]]).all()
            cls, reps = build_spaces(m, parse_interior("sin"), parse_boundary("p0")).classes
            assert (cls == np.arange(m.num_elements)).all() and (reps == cls).all()

    def test_condition_estimate_degenerate(self):
        m = build_rectangular(1)
        prm = ElementRandomParams(w=np.zeros((4, 2)), x0=np.full((4, 2), 0.5))
        c = spd_condition(interior_mass(m, 0, parse_interior("sin"), prm, 10)[2])
        assert c > GRAM_CONDITION_LIMIT

    def test_nonfinite_gram_is_rejected(self):
        # eigvalsh does not converge on these; every one must read inf
        grams = np.stack([np.eye(3), np.diag([1.0, np.inf, 1.0]), np.full((3, 3), np.nan)])
        assert spd_condition(grams).tolist() == [1.0, np.inf, np.inf]
        m = build_rectangular(1)
        prm = ElementRandomParams(w=np.full((4, 2), 0.3), x0=np.full((4, 2), 0.5))
        huge = parse_interior("lrelu:1e300")  # slope**2 overflows the Gram matrix
        assert spd_condition(interior_mass(m, 0, huge, prm, 10)[2]) == np.inf
