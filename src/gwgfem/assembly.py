"""Global assembly of the discrete elasticity system.

Find u_h with u_h = (L2 projection of g onto the edge spaces) on the
domain boundary and

    (2 mu eps_g(u_h), eps_g(v)) + (lam div_g u_h, div_g v)
        + sum_T rho h_T^gamma <R_b(u0 - ub), R_b(v0 - vb)>_dT = (f, v0)

for all weak test functions vanishing on the boundary.  Dirichlet data is
enforced by elimination: fixed edge blocks are moved to the load vector,
which keeps the reduced matrix symmetric positive definite whenever the
admissibility predicates hold.

Interior dofs couple only to their own element's edges, so they can
optionally be condensed out before the global solve; the condensed path
must reproduce the uncondensed solution to 1e-10 (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .mesh import Mesh2D, element_blocks, element_quadrature
from .spaces import SpaceSet, default_quad_degree, eval_interior
from .weakops import EdgeRule, ElementKernel, RbOperator, WeakFunction, edge_rule

__all__ = [
    "DofMap",
    "DiscreteSystem",
    "dof_map",
    "apply_dirichlet",
    "assemble",
    "extract_solution",
    "seminorm",
    "project_interior",
    "project_boundary",
    "project_g1",
    "project_g2",
    "interpolate",
]


@dataclass(frozen=True)
class DofMap:
    """Unknown numbering: per-element interior blocks first, then one block
    per interior edge.  Dirichlet (boundary) edges carry fixed coefficients
    and are excluded from the unknowns."""

    n0: int
    nb: int
    num_elements: int
    edge_offset: np.ndarray  # (ned,) start of the edge block, -1 if fixed
    num_unknowns: int


@dataclass
class DiscreteSystem:
    """Sparse symmetric system plus everything needed to interpret it."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    fixed_coeffs: np.ndarray  # (ned, nb); valid rows only for boundary edges
    mesh: Mesh2D
    spaces: SpaceSet
    rb: RbOperator
    mu: float
    lam: float
    rho: float
    gamma: float
    quad_degree: int
    condensed: bool = False
    # condensed only: per-element (A_ii, A_ib, b_i) arrays, (ne, n0, ...)
    recovery: tuple | None = field(default=None, repr=False)


def dof_map(mesh: Mesh2D, spaces: SpaceSet) -> DofMap:
    n0 = spaces.interior.dim
    nb = spaces.boundary.dim
    ne = mesh.num_elements
    free = np.nonzero(~mesh.boundary)[0]
    edge_offset = np.full(mesh.num_edges, -1, dtype=np.int64)
    edge_offset[free] = ne * n0 + nb * np.arange(len(free))
    return DofMap(n0=n0, nb=nb, num_elements=ne, edge_offset=edge_offset,
                  num_unknowns=ne * n0 + nb * len(free))


def _dirichlet(mesh: Mesh2D, edges: EdgeRule, g) -> np.ndarray:
    fixed = np.zeros((mesh.num_edges, edges.basis.shape[1]))
    bnd = np.nonzero(mesh.boundary)[0]
    fixed[bnd] = edges.project(bnd, g)
    return fixed


def apply_dirichlet(mesh: Mesh2D, g, spaces: SpaceSet,
                    quad_degree: int | None = None) -> np.ndarray:
    """L2-project the boundary displacement onto V^b(e) for every boundary
    edge; returns an (ned, nb) array with valid rows on boundary edges."""
    if quad_degree is None:
        quad_degree = default_quad_degree(spaces.interior)
    return _dirichlet(mesh, edge_rule(mesh, spaces.boundary, quad_degree), g)


def _local_dof_ids(mesh: Mesh2D, dm: DofMap) -> np.ndarray:
    """(ne, ndof) global ids of every element's local dofs; -1 marks the
    fixed (Dirichlet) edge blocks."""
    ne = mesh.num_elements
    off = dm.edge_offset[mesh.element_edges]  # (ne, m)
    edge_ids = np.where(off[:, :, None] >= 0, off[:, :, None] + np.arange(dm.nb), -1)
    return np.concatenate([np.arange(ne * dm.n0).reshape(ne, dm.n0),
                           edge_ids.reshape(ne, -1)], axis=1)


def assemble(mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator, mu: float,
             lam: float, rho: float, gamma: float, f, g,
             quad_degree: int | None = None,
             condense: bool = False) -> DiscreteSystem:
    """Assemble the global sparse system (scatter of local matrices).

    With ``condense=True`` the element-interior dofs are eliminated
    locally (Schur complement); the returned system then has edge
    unknowns only and carries the per-element recovery data.
    """
    if quad_degree is None:
        quad_degree = default_quad_degree(spaces.interior)
    dm = dof_map(mesh, spaces)
    edges = edge_rule(mesh, spaces.boundary, quad_degree)
    fixed = _dirichlet(mesh, edges, g)
    ids = _local_dof_ids(mesh, dm)
    ne, ndof = ids.shape
    n0 = dm.n0

    A = np.empty((ne, ndof, ndof))
    b = np.empty((ne, ndof))
    for eids in element_blocks(np.arange(ne)):
        kern = ElementKernel(mesh, spaces, rb, edges, eids, quad_degree)
        A[eids] = kern.local_stiffness(mu, lam, rho, gamma)
        b[eids] = kern.local_load(f)
    # fixed coefficients per local dof; zero on free dofs (rows of free
    # edges in ``fixed`` are zero)
    ufix = np.zeros((ne, ndof))
    ufix[:, n0:] = fixed[mesh.element_edges].reshape(ne, -1)

    recovery = None
    n_unknowns = dm.num_unknowns
    if condense:
        # Schur complement onto the edge block (fixed and free alike),
        # then eliminate the fixed columns
        Aii, Aib, bi = A[:, :n0, :n0], A[:, :n0, n0:], b[:, :n0]
        sol = np.linalg.solve(Aii, np.concatenate([Aib, bi[:, :, None]], axis=2))
        AibT = Aib.transpose(0, 2, 1)
        recovery = (Aii.copy(), Aib.copy(), bi.copy())
        b = b[:, n0:] - (AibT @ sol[:, :, -1:])[:, :, 0]
        A = A[:, n0:, n0:] - AibT @ sol[:, :, :-1]
        shift = ne * n0
        ids = np.where(ids[:, n0:] >= 0, ids[:, n0:] - shift, -1)
        ufix = ufix[:, n0:]
        n_unknowns -= shift

    free = ids >= 0
    b = b - (A @ ufix[:, :, None])[:, :, 0]
    pairs = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(ids[:, :, None], A.shape)[pairs]
    cols = np.broadcast_to(ids[:, None, :], A.shape)[pairs]
    matrix = sparse.coo_matrix((A[pairs], (rows, cols)),
                               shape=(n_unknowns, n_unknowns)).tocsr()
    rhs = np.bincount(ids[free], weights=b[free], minlength=n_unknowns)
    return DiscreteSystem(matrix=matrix, rhs=rhs, dofmap=dm, fixed_coeffs=fixed,
                          mesh=mesh, spaces=spaces, rb=rb, mu=mu, lam=lam,
                          rho=rho, gamma=gamma, quad_degree=quad_degree,
                          condensed=condense, recovery=recovery)


def extract_solution(system: DiscreteSystem, x: np.ndarray) -> WeakFunction:
    """Expand a solution vector into a weak function, filling Dirichlet
    edge blocks with their fixed coefficients (and recovering condensed
    interior blocks)."""
    mesh, dm = system.mesh, system.dofmap
    ne = mesh.num_elements
    shift = ne * dm.n0 if system.condensed else 0
    wf = WeakFunction.zeros(mesh, system.spaces)
    free = dm.edge_offset >= 0
    wf.boundary[~free] = system.fixed_coeffs[~free]
    wf.boundary[free] = x[(dm.edge_offset[free] - shift)[:, None] + np.arange(dm.nb)]
    if system.condensed:
        Aii, Aib, bi = system.recovery
        ub = wf.boundary[mesh.element_edges].reshape(ne, -1, 1)
        wf.interior[:] = np.linalg.solve(Aii, bi[:, :, None] - Aib @ ub)[:, :, 0]
    else:
        wf.interior[:] = x[: ne * dm.n0].reshape(ne, dm.n0)
    return wf


def seminorm(v: WeakFunction, mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator,
             mu: float, lam: float, rho: float, gamma: float,
             quad_degree: int | None = None) -> float:
    """Energy semi-norm sqrt(a(v,v) + s(v,v)); zero exactly on the
    zero-energy weak functions (e.g. matched rigid motions)."""
    if quad_degree is None:
        quad_degree = default_quad_degree(spaces.interior)
    edges = edge_rule(mesh, spaces.boundary, quad_degree)
    total = 0.0
    for eids in element_blocks(np.arange(mesh.num_elements)):
        kern = ElementKernel(mesh, spaces, rb, edges, eids, quad_degree)
        vloc = v.local_coefficients(mesh, eids)
        total += float(kern.energy(vloc, mu, lam, rho, gamma).sum())
    return float(np.sqrt(max(total, 0.0)))


# -- L2 projections (needed by diagnostics and the operator identities) --


def project_interior(mesh: Mesh2D, eid, spaces: SpaceSet, field_fn,
                     quad_degree: int | None = None) -> np.ndarray:
    """Element L2 projection of a vector field onto V0(T); coefficients,
    (E, n0) for an array of E elements."""
    if quad_degree is None:
        quad_degree = default_quad_degree(spaces.interior)
    rule = element_quadrature(mesh, eid, quad_degree)
    vals = eval_interior(mesh, eid, spaces.interior, spaces.element_params(eid),
                         rule.points)
    fv = np.asarray(field_fn(rule.points.reshape(-1, 2)), dtype=float)
    fv = fv.reshape(rule.points.shape)
    gram = np.einsum("...inc,...jnc,...n->...ij", vals, vals, rule.weights)
    mom = np.einsum("...inc,...nc,...n->...i", vals, fv, rule.weights)
    return np.linalg.solve(gram, mom[..., None])[..., 0]


def project_boundary(mesh: Mesh2D, edge_id, spaces: SpaceSet, field_fn,
                     quad_degree: int | None = None) -> np.ndarray:
    """Edgewise L2 projection onto V^b(e); coefficients in the global basis,
    (E, nb) for an array of E edges."""
    if quad_degree is None:
        quad_degree = default_quad_degree(spaces.interior)
    return edge_rule(mesh, spaces.boundary, quad_degree).project(edge_id, field_fn)


def project_g1(kern: ElementKernel, field_vals: np.ndarray) -> np.ndarray:
    """L2 projection of matrix fields (values (E, nq, 2, 2) at the kernel's
    volume rule) onto the constant-matrix correction space; (E, 2, 2)."""
    w = kern.vol.weights
    return np.einsum("enab,en->eab", field_vals, w) / w.sum(axis=1)[:, None, None]


def project_g2(kern: ElementKernel, field_vals: np.ndarray) -> np.ndarray:
    """L2 projection of scalar fields (E, nq) onto constants; (E,)."""
    w = kern.vol.weights
    return np.einsum("en,en->e", field_vals, w) / w.sum(axis=1)


def interpolate(mesh: Mesh2D, spaces: SpaceSet, field_fn,
                quad_degree: int | None = None) -> WeakFunction:
    """The projection-based interpolant {Q0 u, Qb u} as a weak function."""
    wf = WeakFunction.zeros(mesh, spaces)
    for eids in element_blocks(np.arange(mesh.num_elements)):
        wf.interior[eids] = project_interior(mesh, eids, spaces, field_fn, quad_degree)
    wf.boundary[:] = project_boundary(mesh, np.arange(mesh.num_edges), spaces,
                                      field_fn, quad_degree)
    return wf
