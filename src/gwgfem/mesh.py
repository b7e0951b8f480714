"""Partitions of the unit square into triangles or parallelograms.

An element is its vertex list, counterclockwise: three vertices make a
triangle, four a parallelogram.  Either is the image of a reference
element under one affine map ``a + s(b - a) + t(c - a)`` with ``a``, ``b``
the first two vertices and ``c`` the last, so quadrature and anchors come
from the vertices alone.  The uniform rectangular and triangular lattices
below are two such partitions.

A mesh is immutable after construction and carries, besides vertices and
element connectivity, a deduplicated edge table with boundary flags, plus
precomputed geometry: element diameters, barycenters, and
per-(element, edge) outward unit normals.  Edges are stored with a
canonical orientation (the vertex with the smaller index comes first), so
that quantities attached to an edge are single-valued from both owner
elements.

Gauss quadrature rules on elements are returned in physical coordinates
with positive weights summing to the element area.  Element-wise work is
done over blocks of ``ELEMENT_BLOCK`` elements at a time (see
:func:`element_blocks`), which bounds the size of batched temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "Mesh2D",
    "build_rectangular",
    "build_triangular",
    "element_blocks",
    "element_quadrature",
    "ELEMENT_BLOCK",
    "MAX_QUAD_DEGREE",
]

MAX_QUAD_DEGREE = 40

# Elements per batch in every element-wise computation.  At 256, a rect
# sin/p0 kernel block peaks at about 4.5 MB of temporaries (7.7 MB at degree 10).
ELEMENT_BLOCK = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points (physical coordinates) and weights.

    Weights are positive and sum to the element area.  For a block of
    elements both arrays carry a leading element axis.
    """

    points: np.ndarray  # (nq, 2) or (E, nq, 2)
    weights: np.ndarray  # (nq,) or (E, nq)


@dataclass(frozen=True)
class Mesh2D:
    """A conforming partition of (0,1)^2 into triangles or parallelograms,
    each given by its counterclockwise vertices."""

    n: int
    vertices: np.ndarray  # (nv, 2)
    elements: np.ndarray  # (ne, m) vertex indices, counterclockwise
    edges: np.ndarray  # (ned, 2) vertex indices, canonical orientation
    element_edges: np.ndarray  # (ne, m) edge index of local edge k -> k+1
    boundary: np.ndarray  # (ned,) bool
    elem_diameter: np.ndarray  # (ne,)
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

    @cached_property
    def shape_classes(self) -> tuple:
        """Translation classes: the class of every element (ne,), numbered by
        representative, and each class's representative, its lowest element
        (nc,).  Members' vertex offsets from their first vertex agree bitwise,
        and their edges run the same way.  Built on first use."""
        coords = self.vertices[self.elements]
        key = np.concatenate([(coords - coords[:, :1]).reshape(self.num_elements, -1),
                              self.edges[self.element_edges, 0] == self.elements], axis=1)
        rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        order = np.argsort(first)  # its inverse permutation renumbers the classes
        return np.argsort(order)[inverse.ravel()], first[order]


def _lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n+1)^2 vertices of the uniform lattice, index = j*(n+1)+i at (i/n, j/n),
    and the lower-left, lower-right, upper-right and upper-left corners
    (n^2, 4) of its squares, row by row."""
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)  # row j = constant y
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    corners = (idx[:-1, :-1], idx[:-1, 1:], idx[1:, 1:], idx[1:, :-1])
    return (np.column_stack([xx.ravel(), yy.ravel()]),
            np.column_stack([c.ravel() for c in corners]))


def _finish_mesh(n: int, vertices: np.ndarray, elements: np.ndarray) -> Mesh2D:
    ne, m = elements.shape
    if m not in (3, 4):
        raise ValueError(f"elements must be triangles or parallelograms, got {m} vertices")

    # deduplicated edge table, canonical orientation = sorted vertex pair
    ea = np.repeat(np.arange(ne), m)
    loc = np.tile(np.arange(m), ne)
    v0 = elements[ea, loc]
    v1 = elements[ea, (loc + 1) % m]
    lo, hi = np.minimum(v0, v1).astype(np.int64), np.maximum(v0, v1)
    nv = vertices.shape[0]
    key, inverse = np.unique(lo * nv + hi, return_inverse=True)
    edges = np.column_stack([key // nv, key % nv])
    element_edges = inverse.reshape(ne, m)
    boundary = np.bincount(inverse, minlength=edges.shape[0]) == 1

    # element geometry
    coords = vertices[elements]  # (ne, m, 2)
    if m == 4:
        # the affine map sends the square's corner (1, 1) to v1 + v3 - v0, which
        # is v2 only on a parallelogram; allow the rounding of these sums
        gap = np.abs(coords[:, 0] + coords[:, 2] - coords[:, 1] - coords[:, 3]).max(axis=1)
        bad = gap > 16 * np.finfo(float).eps * np.abs(coords).max(axis=(1, 2))
        if bad.any():
            raise ValueError(f"element {int(np.argmax(bad))} is a quadrilateral "
                             "but not a parallelogram")
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

    p0 = vertices[edges[:, 0]]
    p1 = vertices[edges[:, 1]]
    edge_length = np.linalg.norm(p1 - p0, axis=1)
    edge_midpoint = 0.5 * (p0 + p1)
    edge_tangent = (p1 - p0) / edge_length[:, None]

    # outward unit normals per local edge of a ccw polygon
    evec = nxt - coords  # (ne, m, 2)
    normals = np.stack([evec[:, :, 1], -evec[:, :, 0]], axis=2) / edge_length[element_edges, None]

    return Mesh2D(
        n=n,
        vertices=vertices,
        elements=elements,
        edges=edges,
        element_edges=element_edges,
        boundary=boundary,
        elem_diameter=diameter,
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
    return _finish_mesh(n, *_lattice(n))


def build_triangular(n: int) -> Mesh2D:
    """Delaunay triangulation of the uniform (n+1)x(n+1) lattice.

    The lattice squares are cocircular, so the Delaunay diagonal is
    ambiguous; ties are broken deterministically: every square is split
    along its lower-right to upper-left diagonal, giving 2*n^2 congruent
    right triangles.
    """
    vertices, squares = _lattice(n)
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = squares[:, [0, 1, 3]]  # lower
    elements[1::2] = squares[:, [1, 2, 3]]  # upper
    return _finish_mesh(n, vertices, elements)


def element_blocks(eids: np.ndarray):
    """Consecutive blocks of at most ``ELEMENT_BLOCK`` of the ids ``eids``."""
    for start in range(0, len(eids), ELEMENT_BLOCK):
        yield eids[start:start + ELEMENT_BLOCK]


@lru_cache(maxsize=None)
def _gauss_1d(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], the fewest exact for degree <= degree."""
    x, w = np.polynomial.legendre.leggauss((degree + 2) // 2)
    return 0.5 * (x + 1.0), 0.5 * w


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= MAX_QUAD_DEGREE:
        raise ValueError(
            f"unsupported quadrature degree {degree}; supported range is 1..{MAX_QUAD_DEGREE}"
        )


@lru_cache(maxsize=None)
def _reference_square(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule on [0,1]^2 exact for total degree <= degree."""
    x, w = _gauss_1d(degree)
    X, Y = np.meshgrid(x, x)
    W = np.outer(w, w)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


@lru_cache(maxsize=None)
def _reference_triangle(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed tensor rule on the triangle (0,0),(1,0),(0,1).

    Built from the square via the map (u, v) -> (u(1-v), v) whose
    Jacobian 1-v raises the polynomial degree in v by one; the rule in v
    accounts for that, so the rule is exact for total degree <= degree
    with strictly positive weights.
    """
    u, wu = _gauss_1d(degree)
    v, wv = _gauss_1d(degree + 1)
    U, V = np.meshgrid(u, v)
    X = U * (1.0 - V)
    Y = V
    W = np.outer(wv * (1.0 - v), wu)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def element_quadrature(mesh: Mesh2D, eid, degree: int) -> QuadratureRule:
    """Quadrature on element ``eid`` exact for polynomials of total degree <= degree.

    The reference square (weights summing to 1) or triangle (to 1/2) is
    mapped by ``a + s(b - a) + t(c - a)``, with ``a``, ``b`` vertices 0 and 1
    and ``c`` the last vertex; the weights scale by the map's Jacobian
    cross(b - a, c - a), so they sum to the element area.  ``eid`` may be an
    array of element ids; the rule then carries a leading element axis.
    """
    _check_degree(degree)
    verts = mesh.vertices[mesh.elements[eid]]  # (..., m, 2)
    reference = _reference_square if verts.shape[-2] == 4 else _reference_triangle
    ref_pts, ref_w = reference(degree)
    a, b, c = verts[..., 0:1, :], verts[..., 1:2, :], verts[..., -1:, :]
    e1, e2 = b - a, c - a
    points = a + ref_pts[:, 0:1] * e1 + ref_pts[:, 1:2] * e2
    weights = ref_w * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    return QuadratureRule(points=points, weights=weights)
