"""Uniform rectangular and triangular partitions of the unit square.

A mesh is immutable after construction and carries, besides vertices and
element connectivity, a deduplicated edge table with owner elements and
boundary flags, plus precomputed geometry: element diameters, areas,
barycenters, and per-(element, edge) outward unit normals.  Edges are
stored with a canonical orientation (the vertex with the smaller index
comes first; vertex indices increase lexicographically in (y, x)), so
that quantities attached to an edge are single-valued from both owner
elements.

Gauss quadrature rules on elements are returned in physical coordinates
with positive weights summing to the element area.  Element-wise work is
done over blocks of ``ELEMENT_BLOCK`` elements at a time (see
:func:`element_blocks`), which bounds the size of batched temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "Mesh2D",
    "build_rectangular",
    "build_triangular",
    "element_blocks",
    "element_quadrature",
    "dump_mesh",
    "ELEMENT_BLOCK",
    "MAX_QUAD_DEGREE",
]

MAX_QUAD_DEGREE = 40

# Elements per batch in every element-wise computation.  At 256, one block
# of degree-10 activation kernels holds about 20 MB of temporaries.
ELEMENT_BLOCK = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points (physical coordinates) and weights.

    Weights are positive and sum to the element area.  The rule
    integrates polynomials of total degree <= ``degree`` exactly.  For a
    block of elements both arrays carry a leading element axis.
    """

    points: np.ndarray  # (nq, 2) or (E, nq, 2)
    weights: np.ndarray  # (nq,) or (E, nq)
    degree: int


@dataclass(frozen=True)
class Mesh2D:
    """A conforming partition of (0,1)^2 into squares or triangles."""

    kind: str  # "rectangular" | "triangular"
    n: int
    vertices: np.ndarray  # (nv, 2)
    elements: np.ndarray  # (ne, m) vertex indices, counterclockwise
    edges: np.ndarray  # (ned, 2) vertex indices, canonical orientation
    edge_elements: np.ndarray  # (ned, 2) owner elements, -1 if absent
    element_edges: np.ndarray  # (ne, m) edge index of local edge k -> k+1
    boundary: np.ndarray  # (ned,) bool
    elem_diameter: np.ndarray  # (ne,)
    elem_area: np.ndarray  # (ne,)
    elem_barycenter: np.ndarray  # (ne, 2)
    elem_edge_normals: np.ndarray  # (ne, m, 2) outward unit normals
    edge_length: np.ndarray  # (ned,)
    edge_midpoint: np.ndarray  # (ned, 2)
    edge_tangent: np.ndarray  # (ned, 2) unit, along canonical orientation

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def mesh_size(self) -> float:
        """h = max element diameter."""
        return float(self.elem_diameter.max())

    def interior_edges(self) -> np.ndarray:
        return np.nonzero(~self.boundary)[0]

    def element_vertices(self, eid: int) -> np.ndarray:
        return self.vertices[self.elements[eid]]


def _lattice(n: int) -> np.ndarray:
    """(n+1)^2 vertices of the uniform lattice, index = j*(n+1)+i at (i/n, j/n)."""
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)  # row j = constant y
    return np.column_stack([xx.ravel(), yy.ravel()])


def _finish_mesh(kind: str, n: int, vertices: np.ndarray, elements: np.ndarray) -> Mesh2D:
    ne, m = elements.shape

    # deduplicated edge table, canonical orientation = sorted vertex pair
    ea = np.repeat(np.arange(ne), m)
    loc = np.tile(np.arange(m), ne)
    v0 = elements[ea, loc]
    v1 = elements[ea, (loc + 1) % m]
    key = np.sort(np.column_stack([v0, v1]), axis=1)
    edges, inverse = np.unique(key, axis=0, return_inverse=True)
    element_edges = inverse.reshape(ne, m)

    # owners in element order: the first element touching an edge takes slot 0
    ned = edges.shape[0]
    edge_elements = np.full((ned, 2), -1, dtype=np.int64)
    order = np.argsort(inverse, kind="stable")
    sorted_edges = inverse[order]
    first = np.ones(ne * m, dtype=bool)
    first[1:] = sorted_edges[1:] != sorted_edges[:-1]
    edge_elements[sorted_edges[first], 0] = ea[order[first]]
    edge_elements[sorted_edges[~first], 1] = ea[order[~first]]
    boundary = edge_elements[:, 1] < 0

    # element geometry
    coords = vertices[elements]  # (ne, m, 2)
    nxt = np.roll(coords, -1, axis=1)
    cross = coords[:, :, 0] * nxt[:, :, 1] - nxt[:, :, 0] * coords[:, :, 1]
    area = 0.5 * cross.sum(axis=1)
    if np.any(area <= 0):
        raise ValueError("element orientation is not counterclockwise")
    cx = ((coords[:, :, 0] + nxt[:, :, 0]) * cross).sum(axis=1) / (6.0 * area)
    cy = ((coords[:, :, 1] + nxt[:, :, 1]) * cross).sum(axis=1) / (6.0 * area)
    barycenter = np.column_stack([cx, cy])

    diameter = np.zeros(ne)
    for a in range(m):
        for b in range(a + 1, m):
            d = np.linalg.norm(coords[:, a] - coords[:, b], axis=1)
            diameter = np.maximum(diameter, d)

    # outward unit normals per local edge of a ccw polygon
    evec = nxt - coords  # (ne, m, 2)
    elen = np.linalg.norm(evec, axis=2)
    normals = np.stack([evec[:, :, 1], -evec[:, :, 0]], axis=2) / elen[:, :, None]

    p0 = vertices[edges[:, 0]]
    p1 = vertices[edges[:, 1]]
    edge_length = np.linalg.norm(p1 - p0, axis=1)
    edge_midpoint = 0.5 * (p0 + p1)
    edge_tangent = (p1 - p0) / edge_length[:, None]

    return Mesh2D(
        kind=kind,
        n=n,
        vertices=vertices,
        elements=elements,
        edges=edges,
        edge_elements=edge_elements,
        element_edges=element_edges,
        boundary=boundary,
        elem_diameter=diameter,
        elem_area=area,
        elem_barycenter=barycenter,
        elem_edge_normals=normals,
        edge_length=edge_length,
        edge_midpoint=edge_midpoint,
        edge_tangent=edge_tangent,
    )


def build_rectangular(n: int) -> Mesh2D:
    """Partition (0,1)^2 into n x n congruent squares.

    Element vertices are ordered counterclockwise starting from the
    lower-left corner.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    vertices = _lattice(n)
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a = idx[:-1, :-1].ravel()  # lower-left
    b = idx[:-1, 1:].ravel()  # lower-right
    c = idx[1:, 1:].ravel()  # upper-right
    d = idx[1:, :-1].ravel()  # upper-left
    elements = np.column_stack([a, b, c, d])
    return _finish_mesh("rectangular", n, vertices, elements)


def build_triangular(n: int) -> Mesh2D:
    """Delaunay triangulation of the uniform (n+1)x(n+1) lattice.

    The lattice squares are cocircular, so the Delaunay diagonal is
    ambiguous; ties are broken deterministically: every square is split
    along its lower-right to upper-left diagonal, giving 2*n^2 congruent
    right triangles.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    vertices = _lattice(n)
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a = idx[:-1, :-1].ravel()
    b = idx[:-1, 1:].ravel()
    c = idx[1:, 1:].ravel()
    d = idx[1:, :-1].ravel()
    lower = np.column_stack([a, b, d])
    upper = np.column_stack([b, c, d])
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper
    return _finish_mesh("triangular", n, vertices, elements)


def element_blocks(eids: np.ndarray):
    """Consecutive blocks of at most ``ELEMENT_BLOCK`` of the ids ``eids``."""
    for start in range(0, len(eids), ELEMENT_BLOCK):
        yield eids[start:start + ELEMENT_BLOCK]


@lru_cache(maxsize=None)
def _gauss_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(
            f"unsupported quadrature degree {degree}; supported range is 1..{MAX_QUAD_DEGREE}"
        )


@lru_cache(maxsize=None)
def _reference_square(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule on [0,1]^2 exact for total degree <= degree."""
    npts = (degree + 2) // 2
    x, w = _gauss_1d(npts)
    X, Y = np.meshgrid(x, x)
    W = np.outer(w, w)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


@lru_cache(maxsize=None)
def _reference_triangle(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor rule on the triangle (0,0),(1,0),(0,1).

    Built from the square via the map (u, v) -> (u(1-v), v) whose
    Jacobian 1-v raises the polynomial degree in v by one; the point
    counts account for that, so the rule is exact for total degree
    <= degree with strictly positive weights.
    """
    nu = (degree + 2) // 2
    nv = (degree + 3) // 2
    u, wu = _gauss_1d(nu)
    v, wv = _gauss_1d(nv)
    U, V = np.meshgrid(u, v)
    X = U * (1.0 - V)
    Y = V
    W = np.outer(wv * (1.0 - v), wu)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def element_quadrature(mesh: Mesh2D, eid, degree: int) -> QuadratureRule:
    """Quadrature on element ``eid`` exact for polynomials of total degree <= degree.

    ``eid`` may be an array of element ids; the rule then carries a
    leading element axis.
    """
    _check_degree(degree)
    verts = mesh.vertices[mesh.elements[eid]]  # (..., m, 2)
    if mesh.kind == "rectangular":
        ref_pts, ref_w = _reference_square(degree)
        lo = verts[..., 0:1, :]
        span = verts[..., 2:3, :] - lo
        points = lo + ref_pts * span
        weights = ref_w * span[..., 0] * span[..., 1]
    else:
        ref_pts, ref_w = _reference_triangle(degree)
        a, b, c = (verts[..., k:k + 1, :] for k in range(3))
        points = a + ref_pts[:, 0:1] * (b - a) + ref_pts[:, 1:2] * (c - a)
        weights = ref_w * 2.0 * mesh.elem_area[eid][..., None]
    return QuadratureRule(points=points, weights=weights, degree=degree)


def dump_mesh(mesh: Mesh2D) -> str:
    """Plain-text mesh dump.

    One header line ``kind n nv ne nedges``, then vertex lines ``x y``,
    element lines of vertex indices, and edge lines ``v0 v1 boundary_flag``.
    """
    lines = [
        f"{mesh.kind} {mesh.n} {mesh.vertices.shape[0]} "
        f"{mesh.num_elements} {mesh.num_edges}"
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for elem in mesh.elements:
        lines.append(" ".join(str(v) for v in elem))
    for (v0, v1), flag in zip(mesh.edges, mesh.boundary):
        lines.append(f"{v0} {v1} {int(flag)}")
    return "\n".join(lines) + "\n"
