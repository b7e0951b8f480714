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
identity.  Every element solves its moment problem independently of the
others, so the element kernel works on a block of elements at once, with
arrays carrying a leading element axis.  Edge data (quadrature, basis
values, Gram matrices and projectors) is computed once per mesh as arrays
over edges, and gathered per element through ``mesh.element_edges``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh2D, _check_degree, _gauss_1d, element_quadrature
from .spaces import BoundarySpaceConfig, SpaceSet, eval_boundary, eval_interior, grad_interior

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
]

# Constant-matrix basis of the gradient-correction space, row-major entry order.
_G1_BASIS = np.eye(4).reshape(4, 2, 2)


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

    Arrays carry a leading edge axis.  The projection is solved in a
    midpoint-centered basis of the same span (for ``rm`` the rotation
    vector is centered, which keeps the Gram matrix well conditioned far
    from the origin): ``coeff_map`` maps values at the rule's points to
    centered coefficients, and ``to_global`` maps those to coefficients in
    the global basis of :func:`gwgfem.spaces.eval_boundary`.
    """

    points: np.ndarray  # (ned, nq, 2)
    weights: np.ndarray  # (ned, nq), summing to the edge length
    basis: np.ndarray  # (ned, nb, nq, 2) global-basis values at the points
    gram: np.ndarray  # (ned, nb, nb) Gram matrix of the centered basis
    coeff_map: np.ndarray  # (ned, nb, 2 nq) values -> centered coefficients
    to_global: np.ndarray  # (ned, nb, nb) centered -> global coefficients
    projector: np.ndarray  # (ned, 2 nq, 2 nq) in flattened (point, component) space

    def project(self, edges, field_fn) -> np.ndarray:
        """L2 projection of a vector field onto V^b(e) for ``edges`` (an id
        or an array of ids); coefficients in the global basis."""
        pts = self.points[edges]
        vals = np.asarray(field_fn(pts.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(pts.shape[:-2] + (-1,))
        coeffs = np.einsum("...jk,...k->...j", self.coeff_map[edges], vals)
        return np.einsum("...ij,...j->...i", self.to_global[edges], coeffs)

    def apply(self, edges, values: np.ndarray) -> np.ndarray:
        """Project k traces per edge: ``values`` has shape
        ``edges.shape + (k, nq, 2)``; returns the same shape."""
        flat = values.reshape(values.shape[:-2] + (-1,))
        P = self.projector[edges]
        return (flat @ np.swapaxes(P, -1, -2)).reshape(values.shape)


def edge_rule(mesh: Mesh2D, cfg: BoundarySpaceConfig, quad_degree: int) -> EdgeRule:
    """Gauss-Legendre rule of degree ``quad_degree`` on every edge, with the
    edge-space basis values, Gram matrices and projectors."""
    _check_degree(quad_degree)
    x, w = _gauss_1d((quad_degree + 2) // 2)
    edges = np.arange(mesh.num_edges)
    vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    offsets = (x - 0.5)[None, :, None] * vec[:, None, :]  # relative to midpoint
    mid = mesh.edge_midpoint
    points = mid[:, None, :] + offsets
    weights = w[None, :] * np.hypot(vec[:, 0], vec[:, 1])[:, None]
    basis = eval_boundary(mesh, edges, cfg, points)

    centered = basis.copy()
    if cfg.kind == "rm":
        centered[:, 2, :, 0] = -offsets[:, :, 1]
        centered[:, 2, :, 1] = offsets[:, :, 0]
    gram = np.einsum("einc,ejnc,en->eij", centered, centered, weights)
    flat = centered.reshape(len(edges), cfg.dim, -1)
    coeff_map = np.linalg.solve(gram, flat * np.repeat(weights, 2, axis=1)[:, None, :])
    projector = np.swapaxes(flat, 1, 2) @ coeff_map
    to_global = np.tile(np.eye(cfg.dim), (len(edges), 1, 1))
    if cfg.kind == "rm":  # (-y, x) = centered rotation - (mid_y, -mid_x)
        to_global[:, 0, 2] = mid[:, 1]
        to_global[:, 1, 2] = -mid[:, 0]
    return EdgeRule(points=points, weights=weights, basis=basis, gram=gram,
                    coeff_map=coeff_map, to_global=to_global, projector=projector)


class ElementKernel:
    """All element-local computations for a block of E elements.

    Precomputes interior basis values/gradients at the volume rule,
    boundary jumps of every local basis weak function at the edge rules,
    their R_b images, and the corrections delta1 (constant matrix) and
    delta2 (constant scalar) per local degree of freedom.  Every array
    carries a leading element axis; methods taking local coefficient
    vectors expect them as (E, ndof).

    Local dof layout: interior basis functions first, then the edge basis
    blocks in the element's local edge order.
    """

    def __init__(self, mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator,
                 edges: EdgeRule, eids: np.ndarray, quad_degree: int):
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

        self.vol = element_quadrature(mesh, eids, quad_degree)
        self.V0 = eval_interior(mesh, eids, icfg, prm, self.vol.points)
        self.G0 = grad_interior(mesh, eids, icfg, prm, self.vol.points)

        # boundary jumps vb - v0 of each local basis function on each local
        # edge, and their R_b images: (E, m, ndof, nqe, 2)
        self.edge_points = edges.points[self.edge_ids]  # (E, m, nqe, 2)
        self.edge_weights = edges.weights[self.edge_ids]  # (E, m, nqe)
        nqe = self.edge_points.shape[2]
        tr0 = eval_interior(mesh, eids, icfg, prm,
                            self.edge_points.reshape(E, self.m * nqe, 2))
        J = np.zeros((E, self.m, self.ndof, nqe, 2))
        J[:, :, : self.n0] = -tr0.reshape(E, self.n0, self.m, nqe, 2).transpose(0, 2, 1, 3, 4)
        for le in range(self.m):
            base = self.n0 + le * self.nb
            J[:, le, base: base + self.nb] = edges.basis[self.edge_ids[:, le]]
        self.rb_jumps = edges.apply(self.edge_ids, J) if rb.kind == "qb" else J
        edge_int = np.einsum("emknc,emn->emkc", self.rb_jumps, self.edge_weights)
        self.jump_flux = np.einsum("emkc,emd->ekcd", edge_int, self.normals)
        self.jump_divflux = np.einsum("emkc,emc->ek", edge_int, self.normals)

        # corrections through the general Gram-solve path; the correction
        # bases are constant, so their mass matrices only need the rule's
        # total weight
        self.qarea = self.vol.weights.sum(axis=1)
        mass1 = np.einsum("aij,bij->ab", _G1_BASIS, _G1_BASIS) * self.qarea[:, None, None]
        sol = np.linalg.solve(mass1, self.jump_flux.reshape(E, self.ndof, 4).transpose(0, 2, 1))
        self.delta1 = sol.transpose(0, 2, 1).reshape(E, self.ndof, 2, 2)
        self.delta2 = self.jump_divflux / self.qarea[:, None]

    # -- closed forms (cross-checked against the Gram path in tests) --

    def corrections_closed_form(self) -> tuple[np.ndarray, np.ndarray]:
        """delta1 = |T|^-1 * surface integral of R_b(jump) (x) n, and its
        divergence counterpart."""
        return (self.jump_flux / self.area[:, None, None, None],
                self.jump_divflux / self.area[:, None])

    # -- local matrices --

    def local_stiffness(self, mu: float, lam: float, rho: float,
                        gamma: float) -> np.ndarray:
        """Local energy matrices (E, ndof, ndof): 2 mu (eps_g, eps_g) +
        lam (div_g, div_g) plus the stabilizer
        rho h_T^gamma <R_b jump, R_b jump>_dT.

        Assembled as F F^T with one factor column per quadrature sample,
        weighted by the square root of the sample's coefficient, which keeps
        each matrix symmetric by construction; columns with a negative
        coefficient (a negative mu, lam or rho) are subtracted instead.
        """
        E, nq = self.vol.weights.shape
        eps = np.zeros((E, self.ndof, nq, 2, 2))
        eps[:, : self.n0] = 0.5 * (self.G0 + self.G0.transpose(0, 1, 2, 4, 3))
        eps += 0.5 * (self.delta1 + self.delta1.transpose(0, 1, 3, 2))[:, :, None]
        div = np.zeros((E, self.ndof, nq))
        div[:, : self.n0] = np.trace(self.G0, axis1=3, axis2=4)
        div += self.delta2[:, :, None]
        w = self.vol.weights
        we = np.repeat(self.edge_weights.reshape(E, -1), 2, axis=1)  # (E, m nqe 2)
        scale = rho * self.diameter ** gamma
        coef = np.concatenate([2.0 * mu * np.repeat(w, 4, axis=1), lam * w,
                               scale[:, None] * we], axis=1)
        F = np.concatenate([
            eps.reshape(E, self.ndof, -1), div,
            self.rb_jumps.transpose(0, 2, 1, 3, 4).reshape(E, self.ndof, -1),
        ], axis=2) * np.sqrt(np.abs(coef))[:, None]
        A = F @ F.transpose(0, 2, 1)
        neg = coef < 0
        if neg.any():
            Fn = F * neg[:, None]
            A -= 2.0 * (Fn @ Fn.transpose(0, 2, 1))
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
        """Local energies (E,) of weak functions, evaluated through their
        fields (not v^T A v, so exact-kernel functions come out at
        field-roundoff scale instead of matrix-cancellation scale)."""
        d1, d2 = self.correction_pair(vloc)
        grad = self.classical_gradient(vloc)
        eps = 0.5 * (grad + grad.transpose(0, 1, 3, 2)) + 0.5 * (d1 + d1.transpose(0, 2, 1))[:, None]
        div = np.trace(grad, axis1=2, axis2=3) + d2[:, None]
        w = self.vol.weights
        val = 2.0 * mu * np.einsum("enab,enab,en->e", eps, eps, w)
        val += lam * np.einsum("en,en,en->e", div, div, w)
        rj = self.rb_jump_values(vloc)
        val += rho * self.diameter ** gamma * np.einsum("emnc,emnc,emn->e", rj, rj,
                                                         self.edge_weights)
        return val

    # -- weak operators for local coefficient vectors (E, ndof) --

    def correction_pair(self, vloc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The corrections delta1 (E, 2, 2) and delta2 (E,)."""
        return (np.einsum("ek,ekab->eab", vloc, self.delta1),
                np.einsum("ek,ek->e", vloc, self.delta2))

    def classical_gradient(self, vloc: np.ndarray) -> np.ndarray:
        """Gradient of v0 at the volume rule; (E, nq, 2, 2)."""
        return np.einsum("ek,eknab->enab", vloc[:, : self.n0], self.G0)

    def rb_jump_values(self, vloc: np.ndarray) -> np.ndarray:
        """R_b(vb - v0) on every local edge at the edge rule; (E, m, nqe, 2)."""
        return np.einsum("ek,emknc->emnc", vloc, self.rb_jumps)

    def moment_residuals(self, vloc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals of the correction moment equations for weak functions:
        (delta, psi)_T - <R_b(vb - v0), psi n>_dT per basis psi; (E, 4), (E,)."""
        d1, d2 = self.correction_pair(vloc)
        lhs1 = self.qarea[:, None] * np.einsum("eab,kab->ek", d1, _G1_BASIS)
        rhs1 = np.einsum("ek,ekab->eab", vloc, self.jump_flux).reshape(-1, 4)
        rhs2 = np.einsum("ek,ek->e", vloc, self.jump_divflux)
        return lhs1 - rhs1, self.qarea * d2 - rhs2


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


def check_rigid_motion_invariance(mesh: Mesh2D, boundary_cfg: BoundarySpaceConfig,
                                  rb: RbOperator, quad_degree: int = 10,
                                  tol: float = 1e-10) -> AssumptionCheck:
    """Does R_b fix rigid-motion traces on every edge?

    Checks the generators (1,0), (0,1), (-y,x) against their R_b images at
    the edge quadrature points.  The identity passes trivially; the
    projection passes iff rigid-motion traces lie in V^b(e).
    """
    name = "rigid-motion invariance"
    if rb.kind == "identity":
        return AssumptionCheck(name, True, 0.0, -1, "identity preserves all traces")
    rule = edge_rule(mesh, boundary_cfg, quad_degree)
    edges = np.arange(mesh.num_edges)
    gens = eval_boundary(mesh, edges, BoundarySpaceConfig("rm"), rule.points)
    resid = np.abs(rule.apply(edges, gens) - gens).max(axis=(1, 2, 3))
    worst, worst_edge = _worst(resid)
    passed = worst <= tol
    return AssumptionCheck(
        name, passed, worst, worst_edge,
        f"max rigid-motion projection residual {worst:.3e}"
        + ("" if passed else f" on edge {worst_edge}"),
    )


def check_rb_injectivity(mesh: Mesh2D, boundary_cfg: BoundarySpaceConfig,
                         quad_degree: int = 10,
                         condition_limit: float = 1e12) -> AssumptionCheck:
    """Are the edge Gram matrices of V^b(e) nonsingular (R_b one-to-one)?"""
    gram = edge_rule(mesh, boundary_cfg, quad_degree).gram
    d = np.sqrt(np.einsum("eii->ei", gram))
    worst, worst_edge = _worst(np.linalg.cond(gram / (d[:, :, None] * d[:, None, :])))
    passed = bool(np.isfinite(worst)) and worst <= condition_limit
    return AssumptionCheck(
        "edge-space injectivity", passed, worst, worst_edge,
        f"max normalized edge Gram condition {worst:.3e}",
    )


def check_assumption_pair(mesh: Mesh2D, boundary_cfg: BoundarySpaceConfig,
                          rb: RbOperator, quad_degree: int = 10):
    """Both admissibility predicates for a (V^b, R_b) pair."""
    return (
        check_rigid_motion_invariance(mesh, boundary_cfg, rb, quad_degree),
        check_rb_injectivity(mesh, boundary_cfg, quad_degree),
    )
