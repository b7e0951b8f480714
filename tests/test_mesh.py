import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwgfem.mesh import (
    MAX_QUAD_DEGREE,
    build_rectangular,
    build_triangular,
    dump_mesh,
    element_quadrature,
)
from gwgfem.spaces import parse_boundary
from gwgfem.weakops import edge_rule

P0 = parse_boundary("p0")


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
        assert len(m.interior_edges()) == 4

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
        m = build(3)
        coords = m.vertices[m.elements]
        nxt = np.roll(coords, -1, axis=1)
        signed = 0.5 * (coords[:, :, 0] * nxt[:, :, 1]
                        - nxt[:, :, 0] * coords[:, :, 1]).sum(axis=1)
        assert (signed > 0).all()
        assert abs(m.elem_area.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_edge_ownership(self, build):
        m = build(3)
        owners = (m.edge_elements >= 0).sum(axis=1)
        assert (owners[m.boundary] == 1).all()
        assert (owners[~m.boundary] == 2).all()

    @pytest.mark.parametrize("build", [build_rectangular, build_triangular])
    def test_interior_normals_are_opposite(self, build):
        m = build(3)
        for e in m.interior_edges():
            ns = []
            for owner in m.edge_elements[e]:
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
            verts = m.element_vertices(eid)
            dmax = max(np.linalg.norm(a - b) for a in verts for b in verts)
            assert m.elem_diameter[eid] == pytest.approx(dmax, abs=1e-15)

    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_mesh_size_halving(self, n):
        for build in (build_rectangular, build_triangular):
            assert build(2 * n).mesh_size == pytest.approx(build(n).mesh_size / 2)

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

    def test_unsupported_degree_message(self):
        m = build_rectangular(1)
        with pytest.raises(ValueError, match=f"1..{MAX_QUAD_DEGREE}"):
            element_quadrature(m, 0, 0)
        with pytest.raises(ValueError, match=f"1..{MAX_QUAD_DEGREE}"):
            edge_rule(m, P0, MAX_QUAD_DEGREE + 1)


class TestDump:
    def test_dump_layout(self):
        m = build_triangular(2)
        text = dump_mesh(m)
        lines = text.strip().split("\n")
        kind, n, nv, ne, nedges = lines[0].split()
        assert kind == "triangular"
        assert (int(n), int(nv), int(ne), int(nedges)) == (2, 9, 8, 16)
        assert len(lines) == 1 + 9 + 8 + 16
        # edge lines end with a 0/1 boundary flag
        flags = {line.split()[-1] for line in lines[1 + 9 + 8:]}
        assert flags <= {"0", "1"}
        x, y = map(float, lines[1].split())
        assert (x, y) == (0.0, 0.0)
