"""Local approximation spaces on elements and edges.

Interior spaces are either the vector-valued linears (dimension 6) or an
activation span: the two constant vectors plus ``p`` activation functions
sigma(t_i) with t_i = w_i . (x - x0_i), where the direction w_i and the
anchor x0_i are drawn independently on every element.  Activation basis
vectors alternate components: the i-th one (1-based) lives in component 1
for odd i and component 2 for even i.

Edge spaces are constant vectors (dimension 2), linear vectors in an
edge-local coordinate (dimension 4), or rigid motions span{(1,0), (0,1),
(-y, x)} restricted to the edge (dimension 3).

Basis ordering is fixed and documented per kind; weak-function
coefficient blocks refer to these orderings.  The evaluation functions
accept either one element (edge) id with points (nq, 2) or an array of E
ids with points (E, nq, 2); batched results carry a leading element (edge)
axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    "grad_interior",
    "eval_boundary",
    "interior_mass",
    "interior_gram_condition",
    "spd_condition",
    "GRAM_CONDITION_LIMIT",
    "MAX_RESAMPLE_ATTEMPTS",
]

GRAM_CONDITION_LIMIT = 1e12
MAX_RESAMPLE_ATTEMPTS = 8

ACTIVATIONS = ("sin", "cos", "sigmoid", "relu", "lrelu")


def _activation_pair(name: str, eps: float) -> tuple[Callable, Callable]:
    """Return (sigma, sigma') for an activation name.

    The relu subgradient at t = 0 is taken as 0 (eps for leaky relu).
    """
    if name == "sin":
        return np.sin, np.cos
    if name == "cos":
        return np.cos, lambda t: -np.sin(t)
    if name == "sigmoid":
        def sig(t):
            return 0.5 * (1.0 + np.tanh(0.5 * t))

        return sig, lambda t: sig(t) * (1.0 - sig(t))
    if name == "relu":
        return (
            lambda t: np.maximum(t, 0.0),
            lambda t: (t > 0).astype(float),
        )
    if name == "lrelu":
        return (
            lambda t: np.where(t > 0, t, eps * t),
            lambda t: np.where(t > 0, 1.0, eps),
        )
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class InteriorSpaceConfig:
    """Descriptor of V0(T).

    kind "p1" is the 6-dimensional vector-linear space; kind "activation"
    spans the two constants plus ``p`` activation basis vectors.
    ``leaky_slope`` is used only by the lrelu activation.
    """

    kind: str  # "p1" | "activation"
    activation: str | None = None
    p: int = 4
    leaky_slope: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("p1", "activation"):
            raise ValueError(f"unknown interior space kind {self.kind!r}")
        if self.kind == "activation":
            if self.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {self.activation!r}")
            if self.p < 1:
                raise ValueError("activation count p must be >= 1")
            if self.activation == "lrelu" and not np.isfinite(self.leaky_slope):
                raise ValueError(f"lrelu slope must be finite, got {self.leaky_slope}")

    @property
    def dim(self) -> int:
        return 6 if self.kind == "p1" else 2 + self.p


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
    element; parameters are never shared across elements.  Treated as
    immutable after sampling.
    """

    w: np.ndarray
    x0: np.ndarray

    def __getitem__(self, eid) -> "ElementRandomParams":
        return ElementRandomParams(w=self.w[eid], x0=self.x0[eid])


@dataclass(frozen=True)
class SpaceSet:
    """Interior/boundary space configs, sampled per-element parameters and
    the level's quadrature degree, which every rule on the level uses."""

    interior: InteriorSpaceConfig
    boundary: BoundarySpaceConfig
    params: ElementRandomParams | None  # arrays over all elements, None for p1
    quad_degree: int
    gram_condition: np.ndarray  # per-element interior mass condition

    def element_params(self, eid) -> ElementRandomParams | None:
        """Parameters of element ``eid`` (or of an array of elements)."""
        return None if self.params is None else self.params[eid]


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
    if spec == "p1":
        return InteriorSpaceConfig(kind="p1", seed=seed)
    if spec.startswith("lrelu"):
        _, _, tail = spec.partition(":")
        if not tail:
            raise ValueError("lrelu requires a slope, e.g. lrelu:0.1")
        try:
            eps = float(tail)
        except ValueError as exc:
            raise ValueError(f"invalid lrelu slope {tail!r}") from exc
        return InteriorSpaceConfig(kind="activation", activation="lrelu",
                                   leaky_slope=eps, seed=seed)
    if spec in ("sin", "cos", "sigmoid", "relu"):
        return InteriorSpaceConfig(kind="activation", activation=spec, seed=seed)
    raise ValueError(f"unknown interior space {spec!r}")


def parse_boundary(spec: str) -> BoundarySpaceConfig:
    if spec not in ("p0", "p1", "rm"):
        raise ValueError(f"unknown boundary space {spec!r}")
    return BoundarySpaceConfig(kind=spec)


def default_quad_degree(interior: InteriorSpaceConfig) -> int:
    """Degree 10 when activation bases are active, 4 for pure polynomials."""
    return 10 if interior.kind == "activation" else 4


def sample_element_params(
    kind: str,
    vertices: np.ndarray,
    u: np.ndarray,
) -> ElementRandomParams:
    """Map uniform(0,1) draws to activation parameters.

    ``u`` holds one element's draws as (p, 4), or E elements' as (E, p, 4)
    with ``vertices`` (E, nv, 2).  Draw order, for i = 1..p: direction
    components (w_x, w_y), each shifted by -0.5, then the two anchor draws:

    * rectangular element (vertices counterclockwise from lower-left):
      draws rx, ry give x0 = (x1 + rx*(x2-x1), y2 + ry*(y3-y2));
    * triangular element with vertices A1, A2, A3: draws a, r give
      alpha = a, beta = sqrt(r), x0 = beta*(alpha*A1 + (1-alpha)*A2)
      + (1-beta)*A3.
    """
    v = vertices[..., None, :, :]  # broadcast over the p activations
    a, r = u[..., 2:3], u[..., 3:4]  # the anchor draws (rx, ry on rectangles)
    if kind == "rectangular":
        x0 = np.concatenate([
            v[..., 0, 0:1] + a * (v[..., 1, 0:1] - v[..., 0, 0:1]),
            v[..., 1, 1:2] + r * (v[..., 2, 1:2] - v[..., 1, 1:2]),
        ], axis=-1)
    else:
        beta = np.sqrt(r)
        x0 = beta * (a * v[..., 0, :] + (1.0 - a) * v[..., 1, :]) + (1.0 - beta) * v[..., 2, :]
    return ElementRandomParams(w=u[..., :2] - 0.5, x0=x0)


def _activation_args(points: np.ndarray, params: ElementRandomParams) -> np.ndarray:
    """t_i = w_i . (x - x0_i) at every point; shape (..., p, nq)."""
    x, x0, w = points[..., None, :, :], params.x0[..., :, None, :], params.w[..., :, None, :]
    return (x[..., 0] - x0[..., 0]) * w[..., 0] + (x[..., 1] - x0[..., 1]) * w[..., 1]


def eval_interior(
    mesh: Mesh2D,
    eid,
    cfg: InteriorSpaceConfig,
    params: ElementRandomParams | None,
    points: np.ndarray,
) -> np.ndarray:
    """Interior basis values at ``points``; shape (dim, nq, 2), or
    (E, dim, nq, 2) for an array of E elements.

    Basis order: constants (1,0), (0,1) first.  For p1 these are followed
    by (xi,0), (0,xi), (eta,0), (0,eta) with xi, eta the barycenter-centered
    coordinates scaled by 1/diameter (a conditioning-friendly basis of the
    same span).  For activation spans they are followed by the activation
    vectors for i = 1..p.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[:-2] + (cfg.dim,) + points.shape[-2:])
    out[..., 0, :, 0] = 1.0
    out[..., 1, :, 1] = 1.0
    if cfg.kind == "p1":
        center = mesh.elem_barycenter[eid][..., None, :]
        scale = mesh.elem_diameter[eid][..., None]
        xi = (points[..., 0] - center[..., 0]) / scale
        eta = (points[..., 1] - center[..., 1]) / scale
        out[..., 2, :, 0] = xi
        out[..., 3, :, 1] = xi
        out[..., 4, :, 0] = eta
        out[..., 5, :, 1] = eta
    else:
        f, _ = _activation_pair(cfg.activation, cfg.leaky_slope)
        vals = f(_activation_args(points, params))
        for k in range(cfg.p):
            out[..., 2 + k, :, k % 2] = vals[..., k, :]
    return out


def grad_interior(
    mesh: Mesh2D,
    eid,
    cfg: InteriorSpaceConfig,
    params: ElementRandomParams | None,
    points: np.ndarray,
) -> np.ndarray:
    """Exact analytic basis gradients at ``points``; shape (dim, nq, 2, 2),
    or (E, dim, nq, 2, 2) for an array of E elements.

    Entry (i, q, a, b) is d(phi_i)_a / d x_b.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[:-2] + (cfg.dim, points.shape[-2], 2, 2))
    if cfg.kind == "p1":
        inv = 1.0 / mesh.elem_diameter[eid][..., None]
        out[..., 2, :, 0, 0] = inv
        out[..., 3, :, 1, 0] = inv
        out[..., 4, :, 0, 1] = inv
        out[..., 5, :, 1, 1] = inv
    else:
        _, df = _activation_pair(cfg.activation, cfg.leaky_slope)
        slopes = df(_activation_args(points, params))  # (..., p, nq)
        for k in range(cfg.p):
            out[..., 2 + k, :, k % 2, :] = (slopes[..., k, :, None]
                                            * params.w[..., k, None, :])
    return out


def eval_boundary(
    mesh: Mesh2D,
    edge_id,
    cfg: BoundarySpaceConfig,
    points: np.ndarray,
) -> np.ndarray:
    """Edge basis values at ``points`` on the edge; shape (dim, nq, 2), or
    (E, dim, nq, 2) for an array of E edges.

    p0: (1,0), (0,1).  p1: additionally (s,0), (0,s) where s is the
    midpoint-centered arclength coordinate along the canonical tangent,
    scaled by 1/length.  rm: (1,0), (0,1), (-y, x) at the global point.
    All values are identical from either owner element.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(points.shape[:-2] + (cfg.dim,) + points.shape[-2:])
    out[..., 0, :, 0] = 1.0
    out[..., 1, :, 1] = 1.0
    if cfg.kind == "p1":
        rel = points - mesh.edge_midpoint[edge_id][..., None, :]
        s = (np.einsum("...nc,...c->...n", rel, mesh.edge_tangent[edge_id])
             / mesh.edge_length[edge_id][..., None])
        out[..., 2, :, 0] = s
        out[..., 3, :, 1] = s
    elif cfg.kind == "rm":
        out[..., 2, :, 0] = -points[..., 1]
        out[..., 2, :, 1] = points[..., 0]
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
                  params: ElementRandomParams | None, quad_degree: int):
    """Volume rule of element ``eid``, interior basis values at its points
    and the interior mass Gram matrix (batched over an array of elements)."""
    rule = element_quadrature(mesh, eid, quad_degree)
    vals = eval_interior(mesh, eid, cfg, params, rule.points)
    return rule, vals, np.einsum("...inc,...jnc,...n->...ij", vals, vals, rule.weights)


def interior_gram_condition(mesh: Mesh2D, eid, cfg: InteriorSpaceConfig,
                            params: ElementRandomParams | None, quad_degree: int):
    """2-norm condition of the element interior mass matrix (an array of
    them for an array of elements)."""
    return spd_condition(interior_mass(mesh, eid, cfg, params, quad_degree)[2])


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
    ``MAX_RESAMPLE_ATTEMPTS`` times.  p1 spaces draw nothing.  An element
    still rejected raises :class:`SpaceConditioningError`.
    """
    if quad_degree is None:
        quad_degree = default_quad_degree(interior)
    if seed_entropy is None:
        seed_entropy = interior.seed
    ne = mesh.num_elements
    sampled = interior.kind == "activation"
    params = ElementRandomParams(w=np.empty((ne, interior.p, 2)),
                                 x0=np.empty((ne, interior.p, 2))) if sampled else None
    spaces = SpaceSet(interior=interior, boundary=boundary, params=params,
                      quad_degree=quad_degree, gram_condition=np.empty(ne))
    cond = spaces.gram_condition
    rng = _level_stream(seed_entropy)
    retries = MAX_RESAMPLE_ATTEMPTS if sampled else 0
    todo = np.arange(ne)
    for _ in range(1 + retries):
        if sampled:
            prm = sample_element_params(mesh.kind, mesh.vertices[mesh.elements[todo]],
                                        rng.uniform(size=(todo.size, interior.p, 4)))
            params.w[todo] = prm.w
            params.x0[todo] = prm.x0
        for eids in element_blocks(todo):
            cond[eids] = interior_gram_condition(mesh, eids, interior,
                                                 spaces.element_params(eids), quad_degree)
        todo = todo[~(cond[todo] <= GRAM_CONDITION_LIMIT)]  # NaN is rejected too
        if not todo.size:
            break
    else:
        raise SpaceConditioningError(int(todo[0]), float(cond[todo[0]]), retries)
    return spaces
