import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jittered, make_spaces, shoelace_area
from gwgfem import assembly, postproc, solver
from gwgfem.mesh import (
    MAX_QUAD_DEGREE,
    _finish_mesh,
    _lattice,
    build_rectangular,
    build_triangular,
    element_quadrature,
)
from gwgfem.spaces import parse_boundary
from gwgfem.weakops import edge_rule, parse_rb

P0 = parse_boundary("p0")


def owners(m):
    """The elements that own each edge, in element order."""
    return [np.nonzero((m.element_edges == e).any(axis=1))[0] for e in range(m.num_edges)]


def sheared(n):
    """n x n squares of the unit lattice sheared by x' = x + 0.3y: parallelograms."""
    vertices, squares = _lattice(n)
    vertices[:, 0] += 0.3 * vertices[:, 1]
    return _finish_mesh(n, vertices, squares)


class TestConstruction:
    def test_unit_square(self):
        m = build_rectangular(1)
        assert m.num_elements == 1
        assert m.num_edges == 4
        assert m.boundary.all()

    def test_rect_counts_n8(self):
        m = build_rectangular(8)
        assert m.num_elements == 64
        assert m.num_edges == 2 * 8 * 9
        assert np.allclose(m.elem_diameter, np.sqrt(2) / 8)

    def test_rect_interior_edges_n2(self):
        # 2x2 grid: one interior vertical pair and one horizontal pair
        m = build_rectangular(2)
        assert np.count_nonzero(~m.boundary) == 4

    def test_tri_counts(self):
        m1 = build_triangular(1)
        assert m1.num_elements == 2
        assert m1.num_edges == 5
        m2 = build_triangular(2)
        assert m2.num_elements == 8
        assert m2.num_edges == 16
        m8 = build_triangular(8)
        assert m8.num_elements == 128

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_rejects_zero(self, build):
        with pytest.raises(ValueError):
            build(0)

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_ccw_and_area_partition(self, build):
        signed = shoelace_area(build(3))
        assert (signed > 0).all()
        assert abs(signed.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_edge_ownership(self, build):
        m = build(3)
        count = np.array([len(o) for o in owners(m)])
        assert (count[m.boundary] == 1).all()
        assert (count[~m.boundary] == 2).all()

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_interior_normals_are_opposite(self, build):
        m = build(3)
        edge_owners = owners(m)
        for e in np.nonzero(~m.boundary)[0]:
            ns = []
            for owner in edge_owners[e]:
                le = list(m.element_edges[owner]).index(e)
                ns.append(m.elem_edge_normals[owner, le])
            assert np.allclose(ns[0] + ns[1], 0.0, atol=1e-14)

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_closed_boundary_normal_integral(self, build):
        m = build(2)
        lengths = m.edge_length[m.element_edges]  # (ne, m)
        total = (lengths[:, :, None] * m.elem_edge_normals).sum(axis=1)
        assert np.allclose(total, 0.0, atol=1e-12)

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_diameter_is_max_vertex_distance(self, build):
        m = build(2)
        for eid in range(m.num_elements):
            verts = m.vertices[m.elements[eid]]
            dmax = max(np.linalg.norm(a - b) for a in verts for b in verts)
            assert m.elem_diameter[eid] == pytest.approx(dmax, abs=1e-15)

    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_mesh_size_halving(self, n):
        for build in (build_rectangular, build_triangular):
            h = [build(k).elem_diameter.max() for k in (n, 2 * n)]
            assert h[1] == pytest.approx(h[0] / 2)

    def test_canonical_edge_orientation(self):
        m = build_triangular(3)
        assert (m.edges[:, 0] < m.edges[:, 1]).all()


class TestQuadrature:
    def test_area_of_small_square(self):
        m = build_rectangular(8)
        rule = element_quadrature(m, 0, 2)
        assert rule.weights.sum() == pytest.approx(1.0 / 64, abs=1e-15)

    def test_centroid_integral(self):
        m = build_rectangular(1)
        rule = element_quadrature(m, 0, 3)
        assert rule.points[:, 0] @ rule.weights == pytest.approx(0.5, abs=1e-14)

    def test_x2y2_unit_square(self):
        m = build_rectangular(1)
        rule = element_quadrature(m, 0, 5)
        val = (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2) @ rule.weights
        assert val == pytest.approx(1.0 / 9, abs=1e-14)

    @given(a=st.integers(0, 4), b=st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_monomial_exactness_square(self, a, b):
        m = build_rectangular(1)
        rule = element_quadrature(m, 0, a + b if a + b >= 1 else 1)
        val = (rule.points[:, 0] ** a * rule.points[:, 1] ** b) @ rule.weights
        assert val == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)

    @given(a=st.integers(0, 5), b=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_monomial_exactness_triangle(self, a, b):
        # reference triangle (0,0),(1,0),(0,1):
        # int x^a y^b = a! b! / (a+b+2)!
        m = build_triangular(1)
        deg = max(a + b, 1)
        rule = element_quadrature(m, 0, deg)
        val = (rule.points[:, 0] ** a * rule.points[:, 1] ** b) @ rule.weights
        import math
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
        assert val == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_weights_positive(self, build):
        m = build(2)
        for deg in (1, 4, 10):
            assert (element_quadrature(m, 0, deg).weights > 0).all()
            assert (edge_rule(m, P0, deg).weights > 0).all()

    def test_edge_length_and_moments(self):
        m = build_rectangular(8)
        rule = edge_rule(m, P0, 1)
        assert rule.weights[0].sum() == pytest.approx(1.0 / 8, abs=1e-15)
        # bottom edge of the unit square: int x ds = 1/2, int x^3 ds = 1/4
        m1 = build_rectangular(1)
        bottom = [e for e in range(4)
                  if np.allclose(m1.edge_midpoint[e], [0.5, 0.0])][0]
        r3 = edge_rule(m1, P0, 3)
        assert r3.points[bottom, :, 0] @ r3.weights[bottom] == pytest.approx(0.5, abs=1e-14)
        r5 = edge_rule(m1, P0, 5)
        assert (r5.points[bottom, :, 0] ** 3 @ r5.weights[bottom]
                == pytest.approx(0.25, abs=1e-14))

    def test_point_counts(self):
        # the fewest Gauss points exact for degree d, one degree more in v
        # for the collapsed triangle's Jacobian
        rect, tri = build_rectangular(1), build_triangular(1)
        for d in range(1, MAX_QUAD_DEGREE + 1):
            k = (d + 2) // 2
            assert element_quadrature(rect, 0, d).weights.shape == (k * k,)
            assert element_quadrature(tri, 0, d).weights.shape == (k * ((d + 3) // 2),)
            assert edge_rule(rect, P0, d).weights.shape == (4, k)

    def test_unsupported_degree_message(self):
        m = build_rectangular(1)
        with pytest.raises(ValueError, match=f"1..{MAX_QUAD_DEGREE}"):
            element_quadrature(m, 0, 0)
        with pytest.raises(ValueError, match=f"1..{MAX_QUAD_DEGREE}"):
            edge_rule(m, P0, MAX_QUAD_DEGREE + 1)


class TestGeneralGeometry:
    """Parallelograms and perturbed triangles through the same affine map."""

    @pytest.mark.parametrize("build,x2y", [(sheared, 1 / 6 + 0.1 + 0.0225),
                                           (jittered, 1 / 6)])
    def test_quadrature_area_and_exactness(self, build, x2y):
        # the sheared square has unit area and int (x + 0.3y)^2 y over [0,1]^2
        # = 1/6 + 0.1 + 0.0225; jittering keeps the unit square
        m = build(8)
        rule = element_quadrature(m, np.arange(m.num_elements), 3)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(rule.weights.sum(axis=1), shoelace_area(m), rtol=1e-13, atol=0)
        x, y = rule.points[..., 0], rule.points[..., 1]
        assert (x ** 2 * y * rule.weights).sum() == pytest.approx(x2y, abs=1e-13)

    @pytest.mark.parametrize("build", [sheared, jittered])
    def test_anchors_inside_elements(self, build):
        m = build(8)
        x0 = make_spaces(m, "sigmoid", seed=2).params.x0  # (ne, p, 2)
        verts = m.vertices[m.elements][:, None]  # (ne, 1, nv, 2)
        side = np.roll(verts, -1, axis=2) - verts
        rel = x0[:, :, None, :] - verts
        cross = side[..., 0] * rel[..., 1] - side[..., 1] * rel[..., 0]
        assert (cross >= -1e-15).all()  # left of every ccw edge

    @pytest.mark.parametrize("build", [sheared, jittered])
    def test_p1_rate(self, build):
        case = postproc.manufactured("example1", 0.5, 1.0)
        errors = []
        for n in (8, 16, 32):
            m = build(n)
            spaces = make_spaces(m, "p1", "p1")
            system = assembly.assemble(m, spaces, parse_rb("qb"), 0.5, 1.0, 1.0, -1.0,
                                       case.f, case.g)
            wf = assembly.extract_solution(system, solver.solve_system(system).x)
            errors.append(postproc.error_norms(m, spaces, wf, case.u).u0_l2)
        assert postproc.rates(errors, (8, 16, 32))[-1] >= 1.9

    def test_rejects_other_elements(self):
        angle = 2 * np.pi * np.arange(5) / 5
        pentagon = np.column_stack([np.cos(angle), np.sin(angle)])
        with pytest.raises(ValueError, match="5 vertices"):
            _finish_mesh(1, pentagon, np.arange(5)[None])
        trapezoid = np.array([[0.0, 0.0], [1.0, 0.0], [0.7, 1.0], [0.3, 1.0]])
        with pytest.raises(ValueError, match="not a parallelogram"):
            _finish_mesh(1, trapezoid, np.arange(4)[None])
