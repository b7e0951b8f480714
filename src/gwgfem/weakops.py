"""Weak functions, the edge operator R_b, and generalized weak operators.

A weak function is a pair {v0, vb}: per-element interior coefficient
blocks and per-edge boundary coefficient blocks with no continuity between
them (vb is stored once per edge and therefore single-valued).

The generalized weak gradient / divergence of a weak function on an
element T is the classical operator applied to v0 plus a constant
correction obtained from a small moment problem against the boundary
jump R_b(vb - v0):

    (delta1, psi)_T = <R_b(vb - v0), psi n>_dT   for psi in the constant
                                                  matrix space,
    (delta2, phi)_T = <R_b(vb - v0), phi n>_dT   for phi constant scalar.

R_b is either the edgewise L2 projection onto V^b(e) (``qb``) or the
identity.  The test spaces are constant, so the moment problem's Gram
matrix is q_T I, with q_T the volume rule's total weight, and each
correction is its surface integral divided by q_T.  The kernel splits the
form at that constant (interior fluctuations, per-dof mean plus correction)
and applies R_b to interior traces only, as edge bases lie in V^b.  Elements
are independent of one another, so the element kernel works on a block of
elements at once, with arrays carrying a leading element axis.  Edge
data (quadrature, basis values and their norms) is one :class:`EdgeRule`
of arrays over every edge of a mesh, all in the one edge basis of
:func:`gwgfem.spaces.eval_boundary`, which is orthogonal under the
symmetric Gauss rule, so the L2 projection onto V^b(e) divides moments by
norms and solves nothing.  The caller builds it at the level's degree
(``SpaceSet.quad_degree``), and it is gathered per element through
``mesh.element_edges``; the kernel's volume rule has the same degree.  The
admissibility predicates take one edge rule, so a caller can build it once
for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh2D, _check_degree, _gauss_1d, element_quadrature
from .spaces import (BoundarySpaceConfig, SpaceSet, eval_boundary, eval_interior,
                     grad_interior, spd_condition)

__all__ = [
    "RbOperator",
    "parse_rb",
    "WeakFunction",
    "EdgeRule",
    "edge_rule",
    "ElementKernel",
    "AssumptionCheck",
    "check_rigid_motion_invariance",
    "check_rb_injectivity",
    "RIGID_MOTION_TOL",
    "EDGE_GRAM_CONDITION_LIMIT",
]

# Admissibility thresholds: largest rigid-motion residual of R_b, and
# largest normalized edge Gram condition of V^b(e).
RIGID_MOTION_TOL = 1e-10
EDGE_GRAM_CONDITION_LIMIT = 1e12

@dataclass(frozen=True)
class RbOperator:
    """Edge operator applied to boundary jumps: L2 projection or identity."""

    kind: str  # "qb" | "identity"

    def __post_init__(self):
        if self.kind not in ("qb", "identity"):
            raise ValueError(f"unknown Rb operator {self.kind!r}")


def parse_rb(spec: str) -> RbOperator:
    if spec == "qb":
        return RbOperator("qb")
    if spec in ("id", "identity"):
        return RbOperator("identity")
    raise ValueError(f"unknown Rb operator {spec!r}")


@dataclass
class WeakFunction:
    """Coefficient blocks of a weak function {v0, vb}.

    ``interior[e]`` holds the interior block of element e in the interior
    basis order; ``boundary[k]`` holds the (single-valued) block of edge k
    in the edge basis order.
    """

    interior: np.ndarray  # (ne, n0)
    boundary: np.ndarray  # (ned, nb)

    @classmethod
    def zeros(cls, mesh: Mesh2D, spaces: SpaceSet) -> "WeakFunction":
        return cls(
            interior=np.zeros((mesh.num_elements, spaces.interior.dim)),
            boundary=np.zeros((mesh.num_edges, spaces.boundary.dim)),
        )

    def local_coefficients(self, mesh: Mesh2D, eid) -> np.ndarray:
        """Element-local coefficient vector: interior block then edge blocks
        in the element's local edge order; (E, ndof) for an array of E
        elements."""
        edges = self.boundary[mesh.element_edges[eid]]  # (..., m, nb)
        return np.concatenate(
            [self.interior[eid], edges.reshape(edges.shape[:-2] + (-1,))], axis=-1)


@dataclass(frozen=True)
class EdgeRule:
    """Gauss rule and L2-projection data of V^b(e) for every edge of a mesh.

    Arrays carry a leading edge axis.  The basis is the one of
    :func:`gwgfem.spaces.eval_boundary`, orthogonal under the symmetric
    rule (constants and midpoint-centred linears), so its Gram matrix is its
    diagonal ``norms``: the projection coefficients of a field are its
    weighted moments against the basis divided by ``norms``.
    :func:`check_rb_injectivity` certifies the diagonal.
    """

    points: np.ndarray  # (ned, nq, 2)
    weights: np.ndarray  # (ned, nq), summing to the edge length
    basis: np.ndarray  # (ned, nb, nq, 2) basis values at the points
    norms: np.ndarray  # (ned, nb) squared L2 norms of the basis functions

    def _maps(self, edges) -> tuple[np.ndarray, np.ndarray]:
        """Basis values (..., nb, 2 nq) over flattened (point, component)
        and the map from values to projection coefficients, same shape."""
        flat = self.basis[edges].reshape(np.shape(edges) + self.basis.shape[1:2] + (-1,))
        w = np.repeat(self.weights[edges], 2, axis=-1)[..., None, :]
        return flat, flat * w * (1.0 / self.norms[edges])[..., None]

    def project(self, edges, field_fn) -> np.ndarray:
        """L2 projection of a vector field onto V^b(e) for ``edges`` (an id
        or an array of ids); coefficients in the edge basis."""
        pts = self.points[edges]
        vals = np.asarray(field_fn(pts.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(pts.shape[:-2] + (-1,))
        return np.einsum("...jk,...k->...j", self._maps(edges)[1], vals)

    def apply(self, edges, values: np.ndarray) -> np.ndarray:
        """Project k traces per edge: ``values`` has shape
        ``edges.shape + (k, nq, 2)``; returns the same shape."""
        flat, cmap = self._maps(edges)
        P = np.swapaxes(flat, -1, -2) @ cmap  # values -> values of the projection
        return (values.reshape(values.shape[:-2] + (-1,)) @ np.swapaxes(P, -1, -2)
                ).reshape(values.shape)


def edge_rule(mesh: Mesh2D, cfg: BoundarySpaceConfig, quad_degree: int) -> EdgeRule:
    """Gauss-Legendre rule of degree ``quad_degree`` on every edge, with the
    values of the :func:`gwgfem.spaces.eval_boundary` basis at its points
    and their squared norms; a basis function of zero norm under the rule
    (a linear one at a 1-point rule) raises ``ValueError``."""
    _check_degree(quad_degree)
    x, w = _gauss_1d((quad_degree + 2) // 2)
    edges = np.arange(mesh.num_edges)
    vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    points = mesh.edge_midpoint[:, None, :] + (x - 0.5)[None, :, None] * vec[:, None, :]
    weights = w[None, :] * np.hypot(vec[:, 0], vec[:, 1])[:, None]
    basis = eval_boundary(mesh, edges, cfg, points)
    norms = np.einsum("einc,einc,en->ei", basis, basis, weights)
    if not np.all(norms > 0):
        raise ValueError(f"the {cfg.kind} edge basis has a function of zero norm "
                         f"under the degree-{quad_degree} rule")
    return EdgeRule(points=points, weights=weights, basis=basis, norms=norms)


class ElementKernel:
    """All element-local computations for a block of E elements.

    Precomputes interior basis values/gradients at the volume rule,
    boundary jumps of every local basis weak function at the edge rules,
    their R_b images, and the corrections delta1 (constant matrix) and
    delta2 (constant scalar) per local degree of freedom; an edge basis
    function's jump row is its own edge's basis values, 0 on other edges.
    One builder of weighted samples of the bilinear form, split into
    interior fluctuations and per-dof mean-plus-correction samples, serves
    both the local stiffness matrices and the energy.  Every array carries
    a leading element axis; methods taking local coefficient vectors expect
    them as (E, ndof).

    Local dof layout: interior basis functions first, then the edge basis
    blocks in the element's local edge order.
    """

    def __init__(self, mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator,
                 edges: EdgeRule, eids: np.ndarray):
        icfg = spaces.interior
        prm = spaces.element_params(eids)
        self.eids = eids
        self.n0 = icfg.dim
        self.nb = spaces.boundary.dim
        self.edge_ids = mesh.element_edges[eids]  # (E, m)
        E, self.m = self.edge_ids.shape
        self.ndof = self.n0 + self.m * self.nb
        self.diameter = mesh.elem_diameter[eids]
        self.normals = mesh.elem_edge_normals[eids]  # (E, m, 2)

        self.vol = element_quadrature(mesh, eids, spaces.quad_degree)
        self.V0 = eval_interior(mesh, eids, icfg, prm, self.vol.points)
        self.G0 = grad_interior(mesh, eids, icfg, prm, self.vol.points)

        # R_b images of the boundary jumps vb - v0 of each local basis
        # function on each local edge: (E, m, ndof, nqe, 2); R_b fixes the
        # edge rows, their own edge's basis values (0 on the other edges)
        self.edge_points = edges.points[self.edge_ids]  # (E, m, nqe, 2)
        self.edge_weights = edges.weights[self.edge_ids]  # (E, m, nqe)
        nqe = self.edge_points.shape[2]
        tr0 = eval_interior(mesh, eids, icfg, prm,
                            self.edge_points.reshape(E, self.m * nqe, 2))
        jump0 = -tr0.reshape(E, self.n0, self.m, nqe, 2).transpose(0, 2, 1, 3, 4)
        J = self.rb_jumps = np.zeros((E, self.m, self.ndof, nqe, 2))
        J[:, :, : self.n0] = edges.apply(self.edge_ids, jump0) if rb.kind == "qb" else jump0
        for le in range(self.m):
            base = self.n0 + le * self.nb
            J[:, le, base: base + self.nb] = edges.basis[self.edge_ids[:, le]]
        edge_int = np.einsum("emknc,emn->emkc", J, self.edge_weights)
        self.jump_flux = np.einsum("emkc,emd->ekcd", edge_int, self.normals)
        # R_b jump . n is the trace of R_b jump (x) n
        self.jump_divflux = self.jump_flux[..., 0, 0] + self.jump_flux[..., 1, 1]

        # corrections: the correction spaces are constant, so each moment
        # problem's Gram matrix is the volume rule's total weight q_T times
        # the identity
        self.qarea = self.vol.weights.sum(axis=1)
        self.delta1 = self.jump_flux * (1.0 / self.qarea)[:, None, None, None]
        self.delta2 = self.jump_divflux / self.qarea[:, None]

    # -- local matrices --

    def _weighted_samples(self, mu: float, lam: float, rho: float, gamma: float):
        """The bilinear form 2 mu (eps_g, eps_g) + lam (div_g, div_g) +
        rho h_T^gamma <R_b jump, R_b jump>_dT as two sets of weighted samples;
        the coefficients must be nonnegative (``ValueError`` otherwise).

        With a dof's classical samples a = (e11, e22, sqrt(2) e12, div), 0 on
        edge dofs, split into rule mean abar and fluctuation atil, and c its
        constant correction, sum_q w_q (a_i + c_i)(a_j + c_j) = sum_q w_q
        atil_i atil_j + q_T (abar_i + c_i)(abar_j + c_j).  So ``F`` (E, ndof,
        4 + 2 m nqe) holds abar + c and the R_b jumps at the edge points, and
        ``Fi`` (E, n0, 4 nq) the interior atil at the volume points, each
        scaled by the square root of its weight times its coefficient.
        Returns (F, Fi); the form is F F^T plus Fi Fi^T on the interior block.
        """
        if min(mu, lam, rho) < 0:
            raise ValueError(f"mu, lam and rho must be nonnegative, not {mu}, {lam}, {rho}")
        w, G = self.vol.weights, self.G0
        E = w.shape[0]
        a = _strain_samples(G, G[..., 0, 0] + G[..., 1, 1])  # (E, n0, nq, 4)
        abar = (w[:, None, None] @ a)[:, :, 0] * (1.0 / self.qarea)[:, None, None]
        mean = _strain_samples(self.delta1, self.delta2)  # (E, ndof, 4)
        mean[:, : self.n0] += abar
        coef = np.array([2.0 * mu] * 3 + [lam])
        F = np.empty((E, self.ndof, 4 + self.rb_jumps[0, :, 0].size))
        F[:, :, :4] = mean * np.sqrt(coef * self.qarea[:, None])[:, None]
        jumps = F[:, :, 4:].reshape(E, self.ndof, self.m, -1)  # a view of F
        root = np.sqrt((rho * self.diameter ** gamma)[:, None, None] * self.edge_weights)
        np.multiply(self.rb_jumps.reshape(E, self.m, self.ndof, -1).transpose(0, 2, 1, 3),
                    np.repeat(root, 2, axis=2)[:, None], out=jumps)
        a -= abar[:, :, None]  # the fluctuations
        a *= np.sqrt(coef * w[..., None])[:, None]
        return F, a.reshape(E, self.n0, -1)

    def local_stiffness(self, mu: float, lam: float, rho: float,
                        gamma: float) -> np.ndarray:
        """Local energy matrices (E, ndof, ndof) of the bilinear form,
        F F^T + blockdiag(Fi Fi^T, 0) from the mean-plus-correction and the
        interior fluctuation samples, each product symmetric by construction.
        """
        F, Fi = self._weighted_samples(mu, lam, rho, gamma)
        A = F @ F.transpose(0, 2, 1)
        A[:, : self.n0, : self.n0] += Fi @ Fi.transpose(0, 2, 1)
        return A

    def local_load(self, f) -> np.ndarray:
        """(f, v0)_T for interior basis functions; edge dofs receive 0."""
        pts = self.vol.points
        fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
        b = np.zeros((pts.shape[0], self.ndof))
        b[:, : self.n0] = np.einsum("einc,enc,en->ei", self.V0, fv, self.vol.weights)
        return b

    def energy(self, vloc: np.ndarray, mu: float, lam: float, rho: float,
               gamma: float) -> np.ndarray:
        """Local energies (E,) of weak functions, the sums of squares of
        their fields' weighted samples (not v^T A v, so exact-kernel
        functions come out at field-roundoff scale instead of
        matrix-cancellation scale); the coefficients must be nonnegative."""
        F, Fi = self._weighted_samples(mu, lam, rho, gamma)
        vals = np.einsum("ek,eks->es", vloc, F)
        vals_i = np.einsum("ek,eks->es", vloc[:, : self.n0], Fi)
        return (vals ** 2).sum(axis=1) + (vals_i ** 2).sum(axis=1)


def _strain_samples(g: np.ndarray, div: np.ndarray) -> np.ndarray:
    """(e11, e22, sqrt(2) e12, div) of gradients g (..., 2, 2) on a new last axis."""
    return np.stack([g[..., 0, 0], g[..., 1, 1],
                     np.sqrt(0.5) * (g[..., 0, 1] + g[..., 1, 0]), div], axis=-1)


# -- admissibility predicates for (V^b, R_b) --


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst: float
    worst_edge: int
    detail: str


def _worst(values: np.ndarray) -> tuple[float, int]:
    """Largest per-edge value and its edge (-1 when every value is 0)."""
    e = int(np.argmax(values))
    return float(values[e]), (e if values[e] != 0 else -1)


def check_rigid_motion_invariance(mesh: Mesh2D, rule: EdgeRule,
                                  rb: RbOperator) -> AssumptionCheck:
    """Does R_b fix rigid-motion traces on every edge?

    Checks the generators of the edge's rigid-motion traces, (1,0), (0,1)
    and the rotation about the edge midpoint in the edge-local coordinate
    (the ``rm`` basis), against their R_b images at the points of the edge
    rule ``rule`` of V^b.  The identity passes trivially; the projection
    passes iff rigid-motion traces lie in V^b(e).
    """
    name = "rigid-motion invariance"
    if rb.kind == "identity":
        return AssumptionCheck(name, True, 0.0, -1, "identity preserves all traces")
    edges = np.arange(mesh.num_edges)
    gens = eval_boundary(mesh, edges, BoundarySpaceConfig("rm"), rule.points)
    resid = np.abs(rule.apply(edges, gens) - gens).max(axis=(1, 2, 3))
    worst, worst_edge = _worst(resid)
    passed = worst <= RIGID_MOTION_TOL
    return AssumptionCheck(
        name, passed, worst, worst_edge,
        f"max rigid-motion projection residual {worst:.3e}"
        + ("" if passed else f" on edge {worst_edge}"),
    )


def check_rb_injectivity(rule: EdgeRule) -> AssumptionCheck:
    """Are the edge Gram matrices of V^b(e) in the edge rule ``rule``
    nonsingular (R_b one-to-one)?  The Gram matrices are formed in full, so
    a reported normalized condition of 1 (to rounding) also shows that they
    are diagonal, as :class:`EdgeRule` takes them to be."""
    gram = np.einsum("einc,ejnc,en->eij", rule.basis, rule.basis, rule.weights)
    d = np.sqrt(np.einsum("eii->ei", gram))
    worst, worst_edge = _worst(spd_condition(gram / (d[:, :, None] * d[:, None, :])))
    passed = bool(np.isfinite(worst)) and worst <= EDGE_GRAM_CONDITION_LIMIT
    return AssumptionCheck(
        "edge-space injectivity", passed, worst, worst_edge,
        f"max normalized edge Gram condition {worst:.3e}",
    )
