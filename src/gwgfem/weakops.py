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
data (quadrature, basis values, Gram matrices and projectors) is one
:class:`EdgeRule` of arrays over every edge of a mesh, all in the one
edge basis of :func:`gwgfem.spaces.eval_boundary`, built by the
caller at the level's degree (``SpaceSet.quad_degree``) and gathered per
element through ``mesh.element_edges``; the kernel's volume rule has the
same degree.  The admissibility predicates take one edge rule, which
:func:`check_assumption_pair` builds once for both.
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
    "check_assumption_pair",
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
    :func:`gwgfem.spaces.eval_boundary`; ``coeff_map`` maps values at the
    rule's points to coefficients in it and ``projector`` maps values to
    the values of their projection.
    """

    points: np.ndarray  # (ned, nq, 2)
    weights: np.ndarray  # (ned, nq), summing to the edge length
    basis: np.ndarray  # (ned, nb, nq, 2) basis values at the points
    gram: np.ndarray  # (ned, nb, nb) Gram matrix of the basis
    coeff_map: np.ndarray  # (ned, nb, 2 nq) values -> coefficients
    projector: np.ndarray  # (ned, 2 nq, 2 nq) in flattened (point, component) space

    def project(self, edges, field_fn) -> np.ndarray:
        """L2 projection of a vector field onto V^b(e) for ``edges`` (an id
        or an array of ids); coefficients in the edge basis."""
        pts = self.points[edges]
        vals = np.asarray(field_fn(pts.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(pts.shape[:-2] + (-1,))
        return np.einsum("...jk,...k->...j", self.coeff_map[edges], vals)

    def apply(self, edges, values: np.ndarray) -> np.ndarray:
        """Project k traces per edge: ``values`` has shape
        ``edges.shape + (k, nq, 2)``; returns the same shape."""
        flat = values.reshape(values.shape[:-2] + (-1,))
        P = self.projector[edges]
        return (flat @ np.swapaxes(P, -1, -2)).reshape(values.shape)


def edge_rule(mesh: Mesh2D, cfg: BoundarySpaceConfig, quad_degree: int) -> EdgeRule:
    """Gauss-Legendre rule of degree ``quad_degree`` on every edge, with the
    values of the :func:`gwgfem.spaces.eval_boundary` basis at its points,
    and the Gram matrices and projectors of that basis (no change of
    basis)."""
    _check_degree(quad_degree)
    x, w = _gauss_1d((quad_degree + 2) // 2)
    edges = np.arange(mesh.num_edges)
    vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    points = mesh.edge_midpoint[:, None, :] + (x - 0.5)[None, :, None] * vec[:, None, :]
    weights = w[None, :] * np.hypot(vec[:, 0], vec[:, 1])[:, None]
    basis = eval_boundary(mesh, edges, cfg, points)
    gram = np.einsum("einc,ejnc,en->eij", basis, basis, weights)
    flat = basis.reshape(len(edges), cfg.dim, -1)
    coeff_map = np.linalg.solve(gram, flat * np.repeat(weights, 2, axis=1)[:, None, :])
    projector = np.swapaxes(flat, 1, 2) @ coeff_map
    return EdgeRule(points=points, weights=weights, basis=basis, gram=gram,
                    coeff_map=coeff_map, projector=projector)


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
        self.area = mesh.elem_area[eids]
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

    # -- closed forms (cross-checked against the corrections in tests) --

    def corrections_closed_form(self) -> tuple[np.ndarray, np.ndarray]:
        """delta1 = |T|^-1 * surface integral of R_b(jump) (x) n, and its
        divergence counterpart."""
        return (self.jump_flux / self.area[:, None, None, None],
                self.jump_divflux / self.area[:, None])

    # -- local matrices --

    def _weighted_samples(self, mu: float, lam: float, rho: float, gamma: float):
        """The bilinear form 2 mu (eps_g, eps_g) + lam (div_g, div_g) +
        rho h_T^gamma <R_b jump, R_b jump>_dT as two sets of weighted samples.

        With a dof's classical samples a = (e11, e22, sqrt(2) e12, div), 0 on
        edge dofs, split into rule mean abar and fluctuation atil, and c its
        constant correction, sum_q w_q (a_i + c_i)(a_j + c_j) = sum_q w_q
        atil_i atil_j + q_T (abar_i + c_i)(abar_j + c_j).  So ``F`` (E, ndof,
        4 + 2 m nqe) holds abar + c and the R_b jumps at the edge points, and
        ``Fi`` (E, n0, 4 nq) the interior atil at the volume points, each
        scaled by sqrt(|coef|).  Returns ((F, sign), (Fi, sign_i)); the form
        is sum_s sign_s F[:, i, s] F[:, j, s] summed over both sets.
        """
        w, G = self.vol.weights, self.G0
        E, nq = w.shape
        a = _strain_samples(G, G[..., 0, 0] + G[..., 1, 1])  # (E, n0, nq, 4)
        abar = (w[:, None, None] @ a)[:, :, 0] * (1.0 / self.qarea)[:, None, None]
        mean = _strain_samples(self.delta1, self.delta2)  # (E, ndof, 4)
        mean[:, : self.n0] += abar
        coef = np.array([2.0 * mu] * 3 + [lam])
        F = np.empty((E, self.ndof, 4 + self.rb_jumps[0, :, 0].size))
        F[:, :, :4] = mean * np.sqrt(np.abs(coef) * self.qarea[:, None])[:, None]
        jumps = F[:, :, 4:].reshape(E, self.ndof, self.m, -1)  # a view of F
        root = np.sqrt(np.abs(rho * self.diameter ** gamma)[:, None, None] * self.edge_weights)
        np.multiply(self.rb_jumps.reshape(E, self.m, self.ndof, -1).transpose(0, 2, 1, 3),
                    np.repeat(root, 2, axis=2)[:, None], out=jumps)
        a -= abar[:, :, None]  # the fluctuations
        a *= np.sqrt(np.abs(coef) * w[..., None])[:, None]
        return ((F, np.concatenate([np.sign(coef), np.full(jumps[0, 0].size, np.sign(rho))])),
                (a.reshape(E, self.n0, -1), np.tile(np.sign(coef), nq)))

    def local_stiffness(self, mu: float, lam: float, rho: float,
                        gamma: float) -> np.ndarray:
        """Local energy matrices (E, ndof, ndof) of the bilinear form,
        F F^T + blockdiag(Fi Fi^T, 0) from the mean-plus-correction and the
        interior fluctuation samples, each product symmetric by construction.
        """
        (F, sign), (Fi, sign_i) = self._weighted_samples(mu, lam, rho, gamma)
        A = _signed_gram(F, sign)
        A[:, : self.n0, : self.n0] += _signed_gram(Fi, sign_i)
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
        """Local energies (E,) of weak functions, summed over the weighted
        samples of their fields (not v^T A v, so exact-kernel functions come
        out at field-roundoff scale instead of matrix-cancellation scale)."""
        (F, sign), (Fi, sign_i) = self._weighted_samples(mu, lam, rho, gamma)
        vals = np.einsum("ek,eks->es", vloc, F)
        vals_i = np.einsum("ek,eks->es", vloc[:, : self.n0], Fi)
        return vals ** 2 @ sign + vals_i ** 2 @ sign_i

    # -- weak operators for local coefficient vectors (E, ndof) --

    def correction_pair(self, vloc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The corrections delta1 (E, 2, 2) and delta2 (E,)."""
        return (np.einsum("ek,ekab->eab", vloc, self.delta1),
                np.einsum("ek,ek->e", vloc, self.delta2))

    def moment_residuals(self, vloc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals of the correction moment equations for weak functions:
        (delta, psi)_T - <R_b(vb - v0), psi n>_dT per basis psi; (E, 4), (E,)."""
        d1, d2 = self.correction_pair(vloc)
        lhs1 = self.qarea[:, None] * d1.reshape(-1, 4)
        rhs1 = np.einsum("ek,ekab->eab", vloc, self.jump_flux).reshape(-1, 4)
        rhs2 = np.einsum("ek,ek->e", vloc, self.jump_divflux)
        return lhs1 - rhs1, self.qarea * d2 - rhs2


def _strain_samples(g: np.ndarray, div: np.ndarray) -> np.ndarray:
    """(e11, e22, sqrt(2) e12, div) of gradients g (..., 2, 2) on a new last axis."""
    return np.stack([g[..., 0, 0], g[..., 1, 1],
                     np.sqrt(0.5) * (g[..., 0, 1] + g[..., 1, 0]), div], axis=-1)


def _signed_gram(F: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sum_s sign_s F[:, i, s] F[:, j, s]: F F^T less twice the negative samples'."""
    A = F @ F.transpose(0, 2, 1)
    if (sign < 0).any():
        Fn = F[:, :, sign < 0]
        A -= 2.0 * (Fn @ Fn.transpose(0, 2, 1))
    return A


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
    nonsingular (R_b one-to-one)?"""
    gram = rule.gram
    d = np.sqrt(np.einsum("eii->ei", gram))
    worst, worst_edge = _worst(spd_condition(gram / (d[:, :, None] * d[:, None, :])))
    passed = bool(np.isfinite(worst)) and worst <= EDGE_GRAM_CONDITION_LIMIT
    return AssumptionCheck(
        "edge-space injectivity", passed, worst, worst_edge,
        f"max normalized edge Gram condition {worst:.3e}",
    )


def check_assumption_pair(mesh: Mesh2D, boundary_cfg: BoundarySpaceConfig,
                          rb: RbOperator, quad_degree: int):
    """Both admissibility predicates for a (V^b, R_b) pair, on one edge rule
    of degree ``quad_degree``."""
    rule = edge_rule(mesh, boundary_cfg, quad_degree)
    return (
        check_rigid_motion_invariance(mesh, rule, rb),
        check_rb_injectivity(rule),
    )
