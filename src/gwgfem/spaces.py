"""Local approximation spaces on elements and edges.

Every interior space is an activation span: the two constant vectors plus
``p`` activation functions sigma(t_i) with t_i = w_i . (x - x0_i), the i-th
(1-based) in component 1 for odd i and component 2 for even i.  One table
row per space name gives sigma, sigma' and the level's quadrature degree.
The activations draw the direction w_i and the anchor x0_i on every
element.  The vector linears ("p1", dimension 6) are the row sigma(t) = t
with p = 4, every anchor at the barycenter and directions (1/h, 0),
(1/h, 0), (0, 1/h), (0, 1/h), h the element diameter: translates share
p1's local matrices (``SpaceSet.classes``).

Edge spaces are constant vectors (dimension 2), linear vectors (s,0),
(0,s) in the edge coordinate s = (x - x_e) . t / length in [-1/2, 1/2]
(dimension 4), or rigid motions restricted to the edge (dimension 3): the
constants and the rotation s (-t_y, t_x) about the midpoint x_e.  Only
that rotation row varies from edge to edge.

Basis ordering is fixed and documented per kind; weak-function
coefficient blocks refer to these orderings.  The interior evaluation
functions accept one element id with points (nq, 2) or an array of E ids
with points (E, nq, 2), with a leading element axis on the result; the
edge basis takes coordinates s (nq,) and edge ids of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh2D, element_blocks, element_quadrature

__all__ = [
    "ACTIVATIONS",
    "InteriorSpaceConfig",
    "BoundarySpaceConfig",
    "ElementRandomParams",
    "SpaceSet",
    "SpaceConditioningError",
    "parse_interior",
    "parse_boundary",
    "default_quad_degree",
    "sample_element_params",
    "build_spaces",
    "eval_interior",
    "eval_boundary",
    "interior_mass",
    "spd_condition",
    "GRAM_CONDITION_LIMIT",
    "MAX_RESAMPLE_ATTEMPTS",
]

GRAM_CONDITION_LIMIT = 1e12
MAX_RESAMPLE_ATTEMPTS = 8


def _sigmoid(t, e):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


# name -> (sigma(t, e), sigma'(t, e), level quadrature degree), e the leaky
# slope.  Degree 4 for p1; 6 for the smooth activations, whose element
# matrices it resolves to 1e-12 of degree 20's on the coarsest levels; 10
# for relu and lrelu, whose kink no Gauss rule resolves.  Their derivative
# at the kink t = 0 is taken as 0 (e for lrelu).
_SPACES = {
    "p1": (lambda t, e: t, lambda t, e: np.ones_like(t), 4),
    "sin": (lambda t, e: np.sin(t), lambda t, e: np.cos(t), 6),
    "cos": (lambda t, e: np.cos(t), lambda t, e: -np.sin(t), 6),
    "sigmoid": (_sigmoid, lambda t, e: _sigmoid(t, e) * (1.0 - _sigmoid(t, e)), 6),
    "relu": (lambda t, e: np.maximum(t, 0.0), lambda t, e: (t > 0).astype(float), 10),
    "lrelu": (lambda t, e: np.where(t > 0, t, e * t), lambda t, e: np.where(t > 0, 1.0, e), 10),
}
ACTIVATIONS = tuple(_SPACES)[1:]


@dataclass(frozen=True)
class InteriorSpaceConfig:
    """Descriptor of V0(T): the two constants plus ``p`` activation basis
    vectors of the table row ``name``.

    "p1", the 6-dimensional vector-linear space, is the linear row with
    p = 4 and geometric parameters; every other row draws its parameters.
    ``leaky_slope`` is used only by lrelu.
    """

    name: str
    p: int = 4
    leaky_slope: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.name not in _SPACES:
            raise ValueError(f"unknown interior space {self.name!r}")
        if self.p < 1 or (self.name == "p1" and self.p != 4):
            raise ValueError(f"p must be >= 1, and 4 for p1; got p = {self.p} for {self.name}")
        if self.name == "lrelu" and not np.isfinite(self.leaky_slope):
            raise ValueError(f"lrelu slope must be finite, got {self.leaky_slope}")

    @property
    def dim(self) -> int:
        return 2 + self.p


@dataclass(frozen=True)
class BoundarySpaceConfig:
    """Descriptor of V^b(e): kind in {"p0", "p1", "rm"}."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("p0", "p1", "rm"):
            raise ValueError(f"unknown boundary space kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return {"p0": 2, "p1": 4, "rm": 3}[self.kind]


@dataclass
class ElementRandomParams:
    """Activation parameters: directions w (p, 2) and anchors x0 (p, 2).

    For a set of elements both arrays carry a leading element axis,
    (ne, p, 2); indexing selects elements.  Anchors lie inside the closed
    element.  Drawn parameters are never shared across elements; p1's are
    geometric, and its ``x0`` is a read-only broadcast of the barycenters.
    Treated as immutable after sampling.
    """

    w: np.ndarray
    x0: np.ndarray

    def __getitem__(self, eid) -> "ElementRandomParams":
        return ElementRandomParams(w=self.w[eid], x0=self.x0[eid])


@dataclass(frozen=True)
class SpaceSet:
    """Interior/boundary space configs, sampled per-element parameters, the
    level's quadrature degree, which every rule on the level uses, and its
    element classes, whose members share the local matrices computed on the
    class representative: p1's are ``Mesh2D.shape_classes``; drawn
    parameters are never shared, so each other space's are its elements."""

    interior: InteriorSpaceConfig
    boundary: BoundarySpaceConfig
    params: ElementRandomParams  # arrays over all elements
    quad_degree: int
    gram_condition: np.ndarray  # per-element interior mass condition
    classes: tuple  # class of every element (ne,), representatives (nc,)


class SpaceConditioningError(RuntimeError):
    """Raised when resampling cannot produce a well-conditioned element basis."""

    def __init__(self, eid: int, condition: float, attempts: int):
        self.eid = eid
        self.condition = condition
        self.attempts = attempts
        super().__init__(
            f"element {eid}: interior Gram condition {condition:.3e} exceeds "
            f"{GRAM_CONDITION_LIMIT:.0e} after {attempts} resampling attempts"
        )


def parse_interior(spec: str, seed: int = 0) -> InteriorSpaceConfig:
    """Parse an interior space string: p1, sin, cos, sigmoid, relu, lrelu:<eps>."""
    name, colon, tail = spec.partition(":")
    if name not in _SPACES:
        raise ValueError(f"unknown interior space {spec!r}")
    if (name == "lrelu") != bool(colon):
        raise ValueError(f"only lrelu takes a slope, and it requires one, e.g. lrelu:0.1; "
                         f"got {spec!r}")
    if name != "lrelu":
        return InteriorSpaceConfig(name, seed=seed)
    try:
        eps = float(tail)
    except ValueError as exc:
        raise ValueError(f"invalid lrelu slope {tail!r}") from exc
    return InteriorSpaceConfig(name, leaky_slope=eps, seed=seed)


def parse_boundary(spec: str) -> BoundarySpaceConfig:
    return BoundarySpaceConfig(kind=spec)


def default_quad_degree(interior: InteriorSpaceConfig) -> int:
    """The level quadrature degree of the interior space's table row."""
    return _SPACES[interior.name][2]


def sample_element_params(vertices: np.ndarray, u: np.ndarray) -> ElementRandomParams:
    """Map uniform(0,1) draws to activation parameters.

    ``u`` holds one element's draws as (p, 4), or E elements' as (E, p, 4)
    with ``vertices`` (E, m, 2).  Draw order, for i = 1..p: direction
    components (w_x, w_y), each shifted by -0.5, then the two anchor draws
    a, r, which place x0 uniformly in the element:

    * parallelogram A1, A2, A3, A4: x0 = A1 + a*(A2-A1) + r*(A4-A1);
    * triangle A1, A2, A3: alpha = a, beta = sqrt(r),
      x0 = beta*(alpha*A1 + (1-alpha)*A2) + (1-beta)*A3.
    """
    v = vertices[..., None, :, :]  # broadcast over the p activations
    a, r = u[..., 2:3], u[..., 3:4]
    if vertices.shape[-2] == 4:
        x0 = v[..., 0, :] + a * (v[..., 1, :] - v[..., 0, :]) + r * (v[..., 3, :] - v[..., 0, :])
    else:
        beta = np.sqrt(r)
        x0 = beta * (a * v[..., 0, :] + (1.0 - a) * v[..., 1, :]) + (1.0 - beta) * v[..., 2, :]
    return ElementRandomParams(w=u[..., :2] - 0.5, x0=x0)


def _activation_args(points: np.ndarray, params: ElementRandomParams) -> np.ndarray:
    """t_i = w_i . (x - x0_i) at every point; shape (..., p, nq)."""
    x, x0, w = points[..., None, :, :], params.x0[..., :, None, :], params.w[..., :, None, :]
    return (x[..., 0] - x0[..., 0]) * w[..., 0] + (x[..., 1] - x0[..., 1]) * w[..., 1]


def _values_at(cfg: InteriorSpaceConfig, t: np.ndarray) -> np.ndarray:
    """:func:`eval_interior` from the activation arguments ``t`` (..., p, nq)."""
    out = np.zeros(t.shape[:-2] + (cfg.dim, t.shape[-1], 2))
    out[..., 0, :, 0] = 1.0
    out[..., 1, :, 1] = 1.0
    vals = _SPACES[cfg.name][0](t, cfg.leaky_slope)
    for c in range(2):  # the activations living in component c
        out[..., 2 + c::2, :, c] = vals[..., c::2, :]
    return out


def _slopes_patterns(cfg: InteriorSpaceConfig, params: ElementRandomParams, t: np.ndarray):
    """Slopes sigma'(t) (..., dim, nq) at ``t`` (..., p, nq) and patterns e_c (x) w_i
    (..., dim, 2, 2), whose products are the basis gradients; 0 on the constants."""
    slopes = np.zeros(t.shape[:-2] + (cfg.dim, t.shape[-1]))
    slopes[..., 2:, :] = _SPACES[cfg.name][1](t, cfg.leaky_slope)
    pattern = np.zeros(params.w.shape[:-2] + (cfg.dim, 2, 2))
    for c in range(2):  # the activations living in component c
        pattern[..., 2 + c::2, c, :] = params.w[..., c::2, :]
    return slopes, pattern


def eval_interior(cfg: InteriorSpaceConfig, params: ElementRandomParams,
                  points: np.ndarray) -> np.ndarray:
    """Interior basis values at ``points`` (nq, 2) with one element's
    ``params``; shape (dim, nq, 2), or (E, dim, nq, 2) for E elements'
    parameters and points (E, nq, 2).

    Basis order: constants (1,0), (0,1) first, then the activation vectors
    for i = 1..p.  For p1 these are (xi,0), (0,xi), (eta,0), (0,eta) with
    xi, eta the barycenter-centered coordinates scaled by 1/diameter (a
    conditioning-friendly basis of the linears).
    """
    return _values_at(cfg, _activation_args(np.atleast_2d(points), params))


def eval_boundary(mesh: Mesh2D, edge_id, cfg: BoundarySpaceConfig, s) -> np.ndarray:
    """Edge basis values at the edge coordinates ``s`` (nq,); shape (dim, nq,
    2), or (..., dim, nq, 2) for edge ids of any shape.

    A point x of edge e sits at s = (x - x_e) . t / length in [-1/2, 1/2],
    with x_e the midpoint and t the canonical tangent.  p0: (1,0), (0,1).
    p1: additionally (s,0), (0,s).  rm: (1,0), (0,1), s (-t_y, t_x), the
    rotation about the midpoint.  p0 and p1 depend on s alone, so their
    values are one read-only table broadcast over the edge axes; rm's
    rotation row is its only per-edge value.  All values are identical from
    either owner element.
    """
    s = np.asarray(s, dtype=float)
    table = np.zeros((cfg.dim, s.size, 2))
    table[0, :, 0] = table[1, :, 1] = 1.0
    if cfg.kind == "p1":
        table[2, :, 0] = table[3, :, 1] = s
    out = np.broadcast_to(table, np.shape(edge_id) + table.shape)
    if cfg.kind == "rm":
        out, t = out.copy(), mesh.edge_tangent[edge_id][..., None, :]
        out[..., 2, :, 0], out[..., 2, :, 1] = -s * t[..., 1], s * t[..., 0]
    return out


def spd_condition(gram: np.ndarray) -> np.ndarray:
    """2-norm condition of symmetric matrices (batched over leading axes):
    the ratio of the extreme eigenvalues, inf when the smallest is <= 0 or
    the matrix has a non-finite entry."""
    finite = np.isfinite(gram).all(axis=(-2, -1))[..., None, None]
    ev = np.linalg.eigvalsh(np.where(finite, gram, 0.0))
    lo, hi = ev[..., 0], ev[..., -1]
    return np.divide(hi, lo, out=np.full_like(hi, np.inf), where=lo > 0)


def interior_mass(mesh: Mesh2D, eid, cfg: InteriorSpaceConfig,
                  params: ElementRandomParams, quad_degree: int):
    """Volume rule of element ``eid``, interior basis values at its points
    and the interior mass Gram matrix (batched over an array of elements)."""
    rule = element_quadrature(mesh, eid, quad_degree)
    vals = eval_interior(cfg, params, rule.points)
    s = vals.reshape(vals.shape[:-2] + (-1,))  # the samples, (..., dim, 2 nq)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN
        return rule, vals, s * np.repeat(rule.weights, 2, -1)[..., None, :] @ s.swapaxes(-1, -2)


def _level_stream(seed_entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed_entropy))


def build_spaces(mesh: Mesh2D, interior: InteriorSpaceConfig,
                 boundary: BoundarySpaceConfig, quad_degree: int | None = None,
                 seed_entropy=None) -> SpaceSet:
    """Sample parameters and enforce per-element Gram conditioning.

    The level's quadrature degree is ``quad_degree``, or
    :func:`default_quad_degree` when it is None; it is recorded on the
    returned :class:`SpaceSet`.  The level draws from one PCG64 stream
    seeded by ``seed_entropy`` (default ``interior.seed``): (ne, p, 4)
    uniforms in element order, then (k, p, 4) for the k elements whose
    interior mass matrix condition exceeds ``GRAM_CONDITION_LIMIT``, up to
    ``MAX_RESAMPLE_ATTEMPTS`` times.  p1 spaces draw nothing: their ``x0`` is
    a read-only view of the barycenters, and each class's condition is
    computed on its representative.  An element still rejected raises
    :class:`SpaceConditioningError`, naming the lowest such element id.
    """
    if quad_degree is None:
        quad_degree = default_quad_degree(interior)
    if seed_entropy is None:
        seed_entropy = interior.seed
    ne = mesh.num_elements
    sampled = interior.name != "p1"
    shape = (ne, interior.p, 2)
    if sampled:
        params = ElementRandomParams(w=np.empty(shape), x0=np.empty(shape))
    else:
        params = ElementRandomParams(w=np.zeros(shape),
                                     x0=np.broadcast_to(mesh.elem_barycenter[:, None], shape))
        params.w[:, :2, 0] = params.w[:, 2:, 1] = 1.0 / mesh.elem_diameter[:, None]
    classes = (np.arange(ne),) * 2 if sampled else mesh.shape_classes
    spaces = SpaceSet(interior=interior, boundary=boundary, params=params,
                      quad_degree=quad_degree, gram_condition=np.empty(ne), classes=classes)
    cond = spaces.gram_condition
    rng = _level_stream(seed_entropy)
    retries = MAX_RESAMPLE_ATTEMPTS if sampled else 0
    todo = classes[1]
    for _ in range(1 + retries):
        if sampled:
            prm = sample_element_params(mesh.vertices[mesh.elements[todo]],
                                        rng.uniform(size=(todo.size, interior.p, 4)))
            params.w[todo] = prm.w
            params.x0[todo] = prm.x0
        for eids in element_blocks(todo):
            cond[eids] = spd_condition(interior_mass(mesh, eids, interior, spaces.params[eids],
                                                     quad_degree)[2])
        todo = todo[~(cond[todo] <= GRAM_CONDITION_LIMIT)]  # NaN is rejected too
        if not todo.size:
            break
    else:
        raise SpaceConditioningError(int(todo[0]), float(cond[todo[0]]), retries)
    cond[:] = cond[classes[1][classes[0]]]  # every member reads its representative's
    return spaces
