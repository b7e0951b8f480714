"""Weak functions, the edge operator R_b, and generalized weak operators.

A weak function is a pair {v0, vb}: per-element interior coefficient
blocks and per-edge boundary coefficient blocks with no continuity between
them (vb is stored once per edge and therefore single-valued).

The generalized weak gradient of a weak function on an element T is the
classical gradient of v0 plus a constant correction obtained from a small
moment problem against the boundary jump R_b(vb - v0):

    (delta1, psi)_T = <R_b(vb - v0), psi n>_dT   for psi constant matrices.

The weak divergence's correction delta2 solves it at psi = phi I, phi
constant: (delta2, phi)_T = <R_b(vb - v0), phi n>_dT.  So delta2 = tr
delta1, div_g = tr grad_g, and the kernel forms delta1 only; lambda sees
only div_g's element mean, so activation spans do not lock (:mod:`gwgfem.assembly`).

R_b is either the edgewise L2 projection onto V^b(e) (``qb``) or the
identity.  The test space is constant, so the moment problem's Gram
matrix is q_T I, with q_T the volume rule's total weight, and the
correction is its surface integral divided by q_T.  The kernel splits the
form at that constant (interior fluctuations, per-dof mean plus correction)
and applies R_b to interior traces only, as edge bases lie in V^b; an edge
basis function's jump is 0 off its own edge and is kept on that edge only.
Elements are independent of one another, so the element kernel works on a
block of elements at once, with arrays carrying a leading element axis.
Edge data (quadrature and basis values at its points) is an
:class:`EdgeRule` over the edges its caller reads, all in the one edge
basis of :func:`gwgfem.spaces.eval_boundary` at the edge coordinates
s = x_gauss - 1/2.  It is orthogonal under the symmetric Gauss rule, so
the L2 projection onto V^b(e) divides moments by norms, the table (sum w,
sum w s^2) over the edge length, and solves nothing; p0 and p1 share one
table of basis values and coefficient map over every edge.  The kernel
builds the rule of its block's edges (``mesh.element_edges`` of its
elements) at the level's degree (``SpaceSet.quad_degree``), the degree of
its volume rule too.  The admissibility predicate builds its own
two-point rule over every edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Mesh2D, _check_degree, _gauss_1d, element_quadrature
from .spaces import (BoundarySpaceConfig, SpaceSet, _activation_args, _slopes_patterns,
                     _values_at, eval_boundary)

__all__ = [
    "RbOperator",
    "parse_rb",
    "WeakFunction",
    "EdgeRule",
    "edge_rule",
    "ElementKernel",
    "AssumptionCheck",
    "check_rigid_motion_invariance",
    "RIGID_MOTION_TOL",
]

# Admissibility threshold: largest rigid-motion residual of R_b.
RIGID_MOTION_TOL = 1e-10

@dataclass(frozen=True)
class RbOperator:
    """Edge operator applied to boundary jumps: L2 projection or identity."""

    kind: str  # "qb" | "identity"

    def __post_init__(self):
        if self.kind not in ("qb", "identity"):
            raise ValueError(f"unknown Rb operator {self.kind!r}")


def parse_rb(spec: str) -> RbOperator:
    return RbOperator("identity" if spec == "id" else spec)


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
    """Gauss rule and L2-projection data of V^b(e) on an array of edges.

    Arrays other than ``s`` carry the leading axes of the edge ids the rule
    was built on.  The basis is that of :func:`gwgfem.spaces.eval_boundary`
    at ``s``, orthogonal under the symmetric rule (constants and
    midpoint-centred linears), and :func:`edge_rule` rejects a function of
    zero norm, so R_b is one-to-one and the projection coefficients of a
    field are its weighted moments against the basis over the squared
    norms: ``coeff_map``, from which the edge length cancels, so for p0
    and p1 it and ``basis`` are one read-only table broadcast over the
    edge axes.  It is built on first use: the error norms read none.
    """

    points: np.ndarray  # (..., nq, 2)
    weights: np.ndarray  # (..., nq), summing to the edge length
    s: np.ndarray  # (nq,) edge coordinates of the points, in [-1/2, 1/2]
    basis: np.ndarray  # (..., nb, nq, 2) basis values at the points

    @cached_property
    def coeff_map(self) -> np.ndarray:
        """(..., nb, 2 nq): values over (point, component) -> coefficients."""
        w, s, nb = _gauss_1d(2 * self.s.size - 1)[1], self.s, self.basis.shape[-3]
        norms = np.where(np.arange(nb) < 2, w.sum(), w @ (s * s))  # squared, over the length
        one = self.basis if nb == 3 else self.basis[(0,) * (self.basis.ndim - 3)]  # rm: per edge
        cmap = one.reshape(one.shape[:-2] + (-1,)) * (np.repeat(w, 2) / norms[:, None])
        return np.broadcast_to(cmap, self.basis.shape[:-2] + (2 * s.size,))

    def project(self, field_fn) -> np.ndarray:
        """L2 projection of a vector field onto V^b(e) on every edge of the
        rule; coefficients in the edge basis."""
        vals = np.asarray(field_fn(self.points.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(self.points.shape[:-2] + (-1,))
        return np.einsum("...jk,...k->...j", self.coeff_map, vals)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Project k traces per edge through their projection coefficients:
        ``values`` has the rule's edge axes, then (k, nq, 2); so has the result."""
        cmap = self.coeff_map
        coeffs = values.reshape(values.shape[:-2] + (-1,)) @ np.swapaxes(cmap, -1, -2)
        return (coeffs @ self.basis.reshape(cmap.shape)).reshape(values.shape)


def edge_rule(mesh: Mesh2D, cfg: BoundarySpaceConfig, quad_degree: int,
              edges=None) -> EdgeRule:
    """Gauss-Legendre rule of degree ``quad_degree`` on the edges ``edges``
    (edge ids of any shape, every edge of the mesh by default), with the
    values of the :func:`gwgfem.spaces.eval_boundary` basis at its points
    and the projection coefficient map; a basis function of zero norm
    under the rule (a linear one at a 1-point rule) raises ``ValueError``."""
    _check_degree(quad_degree)
    x, w = _gauss_1d(quad_degree)
    s = x - 0.5
    edges = np.arange(mesh.num_edges) if edges is None else np.asarray(edges)
    vec = mesh.vertices[mesh.edges[edges, 1]] - mesh.vertices[mesh.edges[edges, 0]]
    points = mesh.edge_midpoint[edges][..., None, :] + s[:, None] * vec[..., None, :]
    if cfg.dim > 2 and not w @ (s * s) > 0:  # the linears' squared norm
        raise ValueError(f"the {cfg.kind} edge basis has a function of zero norm "
                         f"under the degree-{quad_degree} rule")
    return EdgeRule(points=points, weights=w * mesh.edge_length[edges][..., None], s=s,
                    basis=eval_boundary(mesh, edges, cfg, s))


class ElementKernel:
    """All element-local computations for a block of E elements.

    Precomputes interior basis values and slopes at the volume rule and
    the gradients' constant patterns, the R_b images of the jumps of every
    local basis weak function at the rule of the block's edges, and the
    correction delta1 (constant matrix; its trace corrects the divergence)
    per local degree of freedom, the jumps' fluxes over q_T; an edge basis
    function lies in V^b, so its jump is its own edge's basis values, kept
    on that edge only (0 on the others).  One builder of
    weighted samples of the bilinear form, split into interior fluctuations
    and per-dof mean-plus-correction samples, serves both the local
    stiffness matrices and the energy.  Every array carries a leading
    element axis; methods taking local coefficient vectors expect them as
    (E, ndof).

    Local dof layout: interior basis functions first, then the edge basis
    blocks in the element's local edge order.
    """

    def __init__(self, mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator, eids: np.ndarray):
        icfg = spaces.interior
        prm = spaces.params[eids]
        self.eids = eids
        self.n0 = icfg.dim
        self.nb = spaces.boundary.dim
        self.edge_ids = mesh.element_edges[eids]  # (E, m)
        E, self.m = self.edge_ids.shape
        self.ndof = self.n0 + self.m * self.nb
        self.diameter = mesh.elem_diameter[eids]
        self.normals = mesh.elem_edge_normals[eids]  # (E, m, 2)

        # values, slopes and traces share one activation argument array
        # (E, p, nq + m nqe) over the volume points, then the edge points
        self.vol = element_quadrature(mesh, eids, spaces.quad_degree)
        rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree, self.edge_ids)
        self.edge_points, self.edge_weights = rule.points, rule.weights  # (E, m, nqe[, 2])
        nq, nqe = self.vol.points.shape[1], self.edge_points.shape[2]
        pts = np.concatenate([self.vol.points, self.edge_points.reshape(E, -1, 2)], axis=1)
        t = _activation_args(pts, prm)
        self.V0 = _values_at(icfg, t[..., :nq])
        self.slopes, self.pattern = _slopes_patterns(icfg, prm, t[..., :nq])

        # R_b images of the jumps vb - v0 on each local edge: the interior
        # rows R_b(-tr0) (E, m, n0, nqe, 2), and the edge rows (E, m, nb,
        # nqe, 2) on their own edge, which R_b fixes
        tr0 = _values_at(icfg, t[..., nq:])
        jump0 = -tr0.reshape(E, self.n0, self.m, nqe, 2).transpose(0, 2, 1, 3, 4)
        self.rb_jump0 = rule.apply(jump0) if rb.kind == "qb" else jump0
        self.rb_jumpb = rule.basis
        # the correction: the correction space is constant, so the moment
        # problem's Gram matrix is the volume rule's total weight q_T times
        # the identity, and delta1 is the surface integral of R_b jump (x) n
        # (rows (dof, c) times w n over the points) over q_T
        wn = self.edge_weights[..., None] * self.normals[:, :, None]  # (E, m, nqe, 2)
        j0 = self.rb_jump0.transpose(0, 2, 4, 1, 3).reshape(E, 2 * self.n0, -1)
        jb = self.rb_jumpb.transpose(0, 1, 2, 4, 3).reshape(E, self.m, 2 * self.nb, -1)
        self.qarea = self.vol.weights.sum(axis=1)
        self.delta1 = (np.concatenate([j0 @ wn.reshape(E, -1, 2), (jb @ wn).reshape(E, -1, 2)],
                                      axis=1).reshape(E, -1, 2, 2)
                       * (1.0 / self.qarea)[:, None, None, None])

    # -- local matrices --

    def _weighted_samples(self, mu: float, lam: float, rho: float, gamma: float):
        """The form of :mod:`gwgfem.assembly` as weighted samples; the
        coefficients must be nonnegative (``ValueError`` otherwise).

        A dof's samples (e11, e22, sqrt(2) e12, div) are its slope s_q times
        p, its gradient pattern's (0 on edge dofs); with sbar the slopes' mean and
        c the constant correction, sum_q w_q (s_i p_i + c_i)(s_j p_j + c_j) =
        q_T (sbar_i p_i + c_i)(sbar_j p_j + c_j) + sum_q w_q (s_i - sbar_i)(s_j
        - sbar_j) p_i . p_j, lambda in the first term only.  So ``M`` (E, ndof,
        4) holds sbar p + c, ``S`` (E, n0, nq) the slope fluctuations, ``P``
        (E, n0, 3) p's strain columns (the block is (S S^T) * (P P^T)), and
        ``J0`` (E, m, n0, 2 nqe) and ``Jb`` (E, m, nb, 2 nqe) the R_b jump rows
        at each edge's points, each scaled by the root of its weight times its
        coefficient; an edge dof's jump samples off its own edge are 0.
        """
        if min(mu, lam, rho) < 0:
            raise ValueError(f"mu, lam and rho must be nonnegative, not {mu}, {lam}, {rho}")
        w, E = self.vol.weights, len(self.qarea)
        sbar = (self.slopes @ w[:, :, None])[..., 0] * (1.0 / self.qarea)[:, None]
        pattern = _strain_samples(self.pattern)  # (E, n0, 4)
        mean = _strain_samples(self.delta1)  # (E, ndof, 4), div_g = tr grad_g
        mean[:, : self.n0] += sbar[..., None] * pattern
        coef = np.array([2.0 * mu] * 3 + [lam])
        mean *= np.sqrt(coef * self.qarea[:, None])[:, None]
        S = (self.slopes - sbar[..., None]) * np.sqrt(w)[:, None]  # the fluctuations
        root = np.sqrt((rho * self.diameter ** gamma)[:, None, None] * self.edge_weights)
        root = np.repeat(root, 2, axis=2)[:, :, None]  # (E, m, 1, 2 nqe)
        J0 = self.rb_jump0.reshape(E, self.m, self.n0, -1) * root
        Jb = self.rb_jumpb.reshape(E, self.m, self.nb, -1) * root
        return mean, S, pattern[..., :3] * np.sqrt(coef[:3]), J0, Jb

    def local_stiffness(self, mu: float, lam: float, rho: float, gamma: float) -> np.ndarray:
        """Local energy matrices (E, ndof, ndof) of the bilinear form: M M^T,
        plus the fluctuations and jumps on the interior block (the jumps one
        product of each dof's edge rows side by side), each edge's
        interior-by-own-edge jump products on both interior-edge blocks and
        one own-edge jump block per edge; every product is symmetric or mirrored."""
        M, S, P, J0, Jb = self._weighted_samples(mu, lam, rho, gamma)
        (E, m, nb, _), n0 = Jb.shape, self.n0
        A = M @ M.transpose(0, 2, 1).copy()  # a contiguous right operand: 3-7x faster
        R0 = J0.transpose(0, 2, 1, 3).reshape(E, n0, -1)
        A[:, :n0, :n0] += ((S @ S.transpose(0, 2, 1).copy()) * (P @ P.transpose(0, 2, 1).copy())
                           + R0 @ R0.transpose(0, 2, 1).copy())
        cross = (J0 @ Jb.transpose(0, 1, 3, 2).copy()).transpose(0, 2, 1, 3).reshape(E, n0, -1)
        A[:, :n0, n0:] += cross
        A[:, n0:, :n0] += cross.transpose(0, 2, 1)
        own = np.arange(m)  # the edge blocks on the diagonal, through a view of A
        A[:, n0:, n0:].reshape(E, m, nb, m, nb)[:, own, :, own] += \
            (Jb @ Jb.transpose(0, 1, 3, 2).copy()).transpose(1, 0, 2, 3)
        return A

    def local_load(self, f, k: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """(f, v0)_T (E, n0) for the interior basis functions of E elements,
        each the translate by ``shift`` (E, 2) of block row ``k`` (E,): f at
        that row's volume points moved by the shift, against its basis values
        and weights.  A zero shift gives the row element's own load."""
        pts = self.vol.points[k] + shift[:, None]
        fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape)
        return np.einsum("einc,enc,en->ei", self.V0[k], fv, self.vol.weights[k])

    def energy(self, vloc: np.ndarray, mu: float, lam: float, rho: float,
               gamma: float) -> np.ndarray:
        """Local energies (E,) of weak functions, the sums of squares of
        their fields' weighted samples (not v^T A v, so exact-kernel
        functions come out at field-roundoff scale instead of
        matrix-cancellation scale); the coefficients must be nonnegative."""
        M, S, P, J0, Jb = self._weighted_samples(mu, lam, rho, gamma)
        v0, vb = vloc[:, : self.n0], vloc[:, self.n0:].reshape(Jb.shape[:3])
        jumps = np.einsum("ek,emks->ems", v0, J0) + np.einsum("emk,emks->ems", vb, Jb)
        return ((np.einsum("ek,eks->es", vloc, M) ** 2).sum(axis=1)
                + (np.einsum("ek,ekq,eks->eqs", v0, S, P) ** 2).sum(axis=(1, 2))
                + (jumps ** 2).sum(axis=(1, 2)))


def _strain_samples(g: np.ndarray) -> np.ndarray:
    """(e11, e22, sqrt(2) e12, div) of gradients g (..., 2, 2) on a new last axis."""
    r = np.sqrt(0.5)  # the map from the entries (g11, g12, g21, g22), one product
    smap = np.array([[1, 0, 0, 1], [0, 0, r, 0], [0, 0, r, 0], [0, 1, 0, 1]])
    return (g.reshape(-1, 4) @ smap).reshape(g.shape[:-2] + (4,))


# -- admissibility predicates for (V^b, R_b) --


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst: float
    worst_edge: int
    detail: str


def check_rigid_motion_invariance(mesh: Mesh2D, cfg: BoundarySpaceConfig,
                                  rb: RbOperator) -> AssumptionCheck:
    """Does R_b fix rigid-motion traces on every edge of V^b = ``cfg``?

    Checks the generators of the edge's rigid-motion traces, (1,0), (0,1)
    and the rotation about the edge midpoint (the ``rm`` basis), against
    their R_b images at the points of V^b's two-point Gauss rule over every
    edge.  Two points integrate the product of two linear traces exactly,
    so that rule's projection is the exact L2 projection onto V^b(e) and
    the verdict is that of every rule of degree >= 2.  The identity passes
    trivially; the projection passes iff rigid-motion traces lie in V^b(e).
    """
    name = "rigid-motion invariance"
    if rb.kind == "identity":
        return AssumptionCheck(name, True, 0.0, -1, "identity preserves all traces")
    rule = edge_rule(mesh, cfg, 2)
    gens = eval_boundary(mesh, np.arange(mesh.num_edges), BoundarySpaceConfig("rm"), rule.s)
    resid = np.abs(rule.apply(gens) - gens).max(axis=(1, 2, 3))
    e = int(np.argmax(resid))  # the worst edge, -1 when every residual is 0
    worst, worst_edge = float(resid[e]), (e if resid[e] != 0 else -1)
    passed = worst <= RIGID_MOTION_TOL
    return AssumptionCheck(
        name, passed, worst, worst_edge,
        f"max rigid-motion projection residual {worst:.3e}"
        + ("" if passed else f" on edge {worst_edge}"),
    )
