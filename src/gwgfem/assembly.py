"""Global assembly of the discrete elasticity system.

Find u_h with u_h = (L2 projection of g onto the edge spaces) on the
domain boundary and

    (2 mu eps_g(u_h), eps_g(v)) + (lam div_g u_h, div_g v)
        + sum_T rho h_T^gamma <R_b(u0 - ub), R_b(v0 - vb)>_dT = (f, v0)

for all weak test functions vanishing on the boundary.  Interior dofs
couple only to their own element's edges, so they are condensed out
element by element (static condensation) and the global unknowns are the
free edge blocks only.  Dirichlet data is enforced by elimination: fixed
edge blocks are moved to the load vector, which keeps the reduced matrix
symmetric positive definite whenever the admissibility predicates hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .mesh import Mesh2D, element_blocks, element_quadrature
from .solver import IndefiniteMatrixError
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
    """Unknown numbering: one block per interior edge.  Dirichlet (boundary)
    edges carry fixed coefficients and element interiors are condensed, so
    neither is among the unknowns."""

    nb: int
    edge_offset: np.ndarray  # (ned,) start of the edge block, -1 if fixed
    num_unknowns: int


@dataclass
class DiscreteSystem:
    """Sparse symmetric edge system plus everything needed to interpret it."""

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
    # interior recovery A_ii^-1 [A_ib | b_i] per element, (ne, n0, m*nb + 1)
    recovery: np.ndarray = field(repr=False)


def dof_map(mesh: Mesh2D, spaces: SpaceSet) -> DofMap:
    nb = spaces.boundary.dim
    free = np.nonzero(~mesh.boundary)[0]
    edge_offset = np.full(mesh.num_edges, -1, dtype=np.int64)
    edge_offset[free] = nb * np.arange(len(free))
    return DofMap(nb=nb, edge_offset=edge_offset, num_unknowns=nb * len(free))


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
    """(ne, m*nb) global ids of every element's edge dofs; -1 marks the
    fixed (Dirichlet) edge blocks."""
    off = dm.edge_offset[mesh.element_edges][:, :, None]  # (ne, m, 1)
    return np.where(off >= 0, off + np.arange(dm.nb), -1).reshape(mesh.num_elements, -1)


def assemble(mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator, mu: float,
             lam: float, rho: float, gamma: float, f, g,
             quad_degree: int | None = None,
             condense: bool = True) -> DiscreteSystem:
    """Assemble the global sparse system on the free edge unknowns.

    Each element's interior block is eliminated locally: the scattered
    matrices are the Schur complements A_bb - A_bi A_ii^-1 A_ib.  Every
    A_ii must pass a Cholesky factorization, else
    :class:`~gwgfem.solver.IndefiniteMatrixError` is raised; since the
    inertia of the block matrix is that of A_ii plus that of its Schur
    complement, an SPD certificate for the edge system then holds for the
    whole system.  ``condense`` is accepted for compatibility and ignored:
    condensation is always on.
    """
    if quad_degree is None:
        quad_degree = default_quad_degree(spaces.interior)
    dm = dof_map(mesh, spaces)
    edges = edge_rule(mesh, spaces.boundary, quad_degree)
    fixed = _dirichlet(mesh, edges, g)
    ids = _local_dof_ids(mesh, dm)
    ne = mesh.num_elements
    n0 = spaces.interior.dim
    ndof = n0 + ids.shape[1]

    A = np.empty((ne, ndof, ndof))
    b = np.empty((ne, ndof))
    for eids in element_blocks(np.arange(ne)):
        kern = ElementKernel(mesh, spaces, rb, edges, eids, quad_degree)
        A[eids] = kern.local_stiffness(mu, lam, rho, gamma)
        b[eids] = kern.local_load(f)

    Aii, Aib, bi = A[:, :n0, :n0], A[:, :n0, n0:], b[:, :n0]
    try:
        L = np.linalg.cholesky(Aii)
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(Aii)[:, 0]
        eid = int(np.argmin(low))
        raise IndefiniteMatrixError(
            f"interior block of element {eid} is not positive definite "
            f"(smallest eigenvalue {low[eid]:.3e})") from None
    # Schur complement onto the edge block (fixed and free alike) as
    # A_bb - W^T W with A_ii = L L^T and W = L^-1 A_ib, which is symmetric
    # by construction
    W = np.linalg.solve(L, np.concatenate([Aib, bi[:, :, None]], axis=2))
    WT = W[:, :, :-1].transpose(0, 2, 1)
    b = b[:, n0:] - (WT @ W[:, :, -1:])[:, :, 0]
    A = A[:, n0:, n0:] - WT @ W[:, :, :-1]
    recovery = np.linalg.solve(L.transpose(0, 2, 1), W)
    # eliminate the fixed columns; ``ufix`` is zero on free dofs
    ufix = fixed[mesh.element_edges].reshape(ne, -1)
    b = b - (A @ ufix[:, :, None])[:, :, 0]

    free = ids >= 0
    pairs = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(ids[:, :, None], A.shape)[pairs]
    cols = np.broadcast_to(ids[:, None, :], A.shape)[pairs]
    n = dm.num_unknowns
    matrix = sparse.coo_matrix((A[pairs], (rows, cols)), shape=(n, n)).tocsr()
    rhs = np.bincount(ids[free], weights=b[free], minlength=n)
    return DiscreteSystem(matrix=matrix, rhs=rhs, dofmap=dm, fixed_coeffs=fixed,
                          mesh=mesh, spaces=spaces, rb=rb, mu=mu, lam=lam,
                          rho=rho, gamma=gamma, quad_degree=quad_degree,
                          recovery=recovery)


def extract_solution(system: DiscreteSystem, x: np.ndarray) -> WeakFunction:
    """Expand an edge solution vector into a weak function: Dirichlet edge
    blocks get their fixed coefficients, and every element's interior
    block is recovered from its edges."""
    mesh, dm = system.mesh, system.dofmap
    wf = WeakFunction.zeros(mesh, system.spaces)
    free = dm.edge_offset >= 0
    wf.boundary[~free] = system.fixed_coeffs[~free]
    wf.boundary[free] = x[dm.edge_offset[free][:, None] + np.arange(dm.nb)]
    ub = wf.boundary[mesh.element_edges].reshape(mesh.num_elements, -1, 1)
    wf.interior[:] = system.recovery[:, :, -1] - (system.recovery[:, :, :-1] @ ub)[:, :, 0]
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
