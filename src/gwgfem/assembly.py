"""Global assembly of the discrete elasticity system.

Find u_h with u_h = (L2 projection of g onto the edge spaces) on the
domain boundary and

    (2 mu eps_g(u_h), eps_g(v)) + (lam div_g u_h, div_g v)
        + sum_T rho h_T^gamma <R_b(u0 - ub), R_b(v0 - vb)>_dT = (f, v0)

for all weak test functions vanishing on the boundary.  Interior dofs
couple only to their own element's edges, so they are condensed out
element by element (static condensation, one
:func:`~gwgfem.solver.eliminate` step over all elements) and the global
unknowns are the free edge blocks only, numbered by nested dissection.
The dissection tree travels with the numbering (``DofMap.tree``), and the
solver continues the same elimination up that tree, front by front.
Dirichlet data is enforced by elimination: fixed edge blocks are moved to
the load vector, which keeps the reduced matrix symmetric positive
definite whenever the admissibility predicates hold.

Every quadrature rule has the level's degree, ``spaces.quad_degree``.  Each
function builds the rules it needs and drops them when it returns: one edge
rule per call, one volume rule per element block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .mesh import Mesh2D, element_blocks
from .solver import IndefiniteMatrixError, eliminate
from .spaces import SpaceSet, interior_mass
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
    "interpolate",
]


@dataclass(frozen=True)
class DofMap:
    """Unknown numbering: one block per interior edge, blocks in
    nested-dissection order, and the dissection tree over the edges, which
    :func:`~gwgfem.solver.solve` factors along.  Dirichlet (boundary) edges
    carry fixed coefficients and element interiors are condensed, so
    neither is among the unknowns."""

    nb: int
    edge_offset: np.ndarray  # (ned,) start of the edge block, -1 if fixed
    num_unknowns: int
    tree: tuple = ()  # dissection levels, see :func:`_nested_dissection`


@dataclass
class DiscreteSystem:
    """Sparse symmetric edge system plus everything needed to interpret it."""

    matrix: sparse.csc_matrix
    rhs: np.ndarray
    dofmap: DofMap
    fixed_coeffs: np.ndarray  # (ned, nb); valid rows only for boundary edges
    mesh: Mesh2D
    spaces: SpaceSet
    # interior recovery A_ii^-1 [A_ib | b_i] per element, (ne, n0, m*nb + 1)
    recovery: np.ndarray = field(repr=False)


def _nested_dissection(mesh: Mesh2D, free: np.ndarray) -> tuple:
    """Number of every free edge in a nested-dissection order, and the
    dissection tree.

    The graph has one node per free edge; two nodes are adjacent when their
    edges share an element.  Each part is bisected at the median edge
    midpoint along its longer extent, the left-side nodes with a neighbour
    on the right side form its separator (a separator on any conforming
    mesh), and the part is numbered left, right, separator.  A part with a
    single midpoint is numbered as it stands.  All parts of a level are
    split at once: the unnumbered nodes are kept in two lists grouped by
    part in numbering order, sorted within each part by x and by y, which a
    stable partition keeps sorted, so no level sorts by coordinate.

    The tree has one ``(parts, 4)`` array per level, root first: each
    part's first number and its left, right and separator counts.  A part's
    children are the parts of the next level inside its left and right
    ranges; :func:`~gwgfem.solver.solve` factors along it.
    """
    nf = len(free)
    node = np.full(mesh.num_edges, nf)  # nf marks a fixed edge
    node[free] = np.arange(nf)
    elem = node[mesh.element_edges.T]  # (m, ne) nodes of every element
    xy = mesh.edge_midpoint[free].T.copy()  # (2, nf)
    pos = np.zeros(nf, dtype=np.int64)  # start of the node's part, then its number
    lists = [np.argsort(xy[k], kind="stable") for k in (0, 1)]
    tree = []
    while lists[0].size:
        ox, oy = lists
        start = pos[ox]
        head = np.flatnonzero(np.r_[True, start[1:] != start[:-1]])
        cnt = np.diff(np.r_[head, ox.size])
        g = np.repeat(np.arange(head.size), cnt)  # part of each list entry
        tail = head + cnt - 1
        ext = np.stack([xy[0, ox[tail]] - xy[0, ox[head]],
                        xy[1, oy[tail]] - xy[1, oy[head]]])
        along_y = ext[1] > ext[0]
        mi = head + (cnt - 1) // 2
        med = np.where(along_y, xy[1, oy[mi]], xy[0, ox[mi]])[g]
        c = np.where(along_y[g], xy[1, ox], xy[0, ox])
        left = c <= med
        # a median at the part's maximum sends its ties right
        no_right = np.bincount(g, ~left, minlength=head.size) == 0
        left &= ~no_right[g] | (c < med)
        cls = np.full(nf + 1, -1, dtype=np.int8)  # 0 left, 1 right, 2 numbered
        cls[ox] = ~left
        side = cls[elem]
        cls[elem[(side == 0) & (side == 1).any(axis=0)]] = 2
        cls[ox[ext.max(axis=0)[g] == 0]] = 2
        k = cls[ox]
        n = np.bincount(3 * g + k, minlength=3 * head.size).reshape(-1, 3)
        off = start[head, None] + np.cumsum(n, axis=1) - n  # block starts
        tree.append(np.column_stack([start[head], n]))
        live = k < 2
        pos[ox[live]] = off[g[live], k[live]]
        lists = [o[np.argsort(3 * g + cls[o], kind="stable")] for o in lists]
        # number each separator along itself: by y after an x split
        shift = start[head] - head
        for o, use in zip(lists, (along_y, ~along_y)):
            i = np.flatnonzero((cls[o] == 2) & use[g])
            pos[o[i]] = shift[g[i]] + i
        lists = [o[cls[o] < 2] for o in lists]
    return pos, tuple(tree)


def dof_map(mesh: Mesh2D, spaces: SpaceSet) -> DofMap:
    """Number the free edge blocks by nested dissection of the edge graph
    and keep its tree (see :func:`_nested_dissection`); the same mesh
    always gives the same numbering."""
    nb = spaces.boundary.dim
    free = np.nonzero(~mesh.boundary)[0]
    edge_offset = np.full(mesh.num_edges, -1, dtype=np.int64)
    pos, tree = _nested_dissection(mesh, free)
    edge_offset[free] = nb * pos
    return DofMap(nb=nb, edge_offset=edge_offset, num_unknowns=nb * len(free),
                  tree=tree)


def apply_dirichlet(mesh: Mesh2D, edges: EdgeRule, g) -> np.ndarray:
    """L2-project the boundary displacement onto V^b(e) with the edge rule
    ``edges`` for every boundary edge; returns an (ned, nb) array with
    valid rows on boundary edges."""
    fixed = np.zeros((mesh.num_edges, edges.basis.shape[1]))
    bnd = np.nonzero(mesh.boundary)[0]
    fixed[bnd] = edges.project(bnd, g)
    return fixed


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

    Each element's interior block is eliminated locally by one
    :func:`~gwgfem.solver.eliminate` step on the element matrices bordered
    by their loads: the scattered matrices are the Schur complements
    A_bb - A_bi A_ii^-1 A_ib, and the loads b_b - A_bi A_ii^-1 b_i.  An A_ii
    that fails its Cholesky factorization raises
    :class:`~gwgfem.solver.IndefiniteMatrixError` naming the element and
    the pivot; since the inertia of the block matrix is that of A_ii plus
    that of its Schur complement, an SPD certificate for the edge system
    then holds for the whole system.  Every rule has the degree
    ``spaces.quad_degree``; ``quad_degree``, if given, must equal it.
    ``condense`` is accepted for compatibility and ignored: condensation is
    always on.
    """
    if quad_degree not in (None, spaces.quad_degree):
        raise ValueError(f"quad_degree {quad_degree} differs from the level's "
                         f"{spaces.quad_degree}")
    dm = dof_map(mesh, spaces)
    edges = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    fixed = apply_dirichlet(mesh, edges, g)
    ids = _local_dof_ids(mesh, dm)
    ne = mesh.num_elements
    n0 = spaces.interior.dim
    ndof = n0 + ids.shape[1]

    # element matrices bordered by their loads, so that one elimination
    # step condenses the loads with the matrices
    F = np.zeros((ne, ndof + 1, ndof + 1))
    for eids in element_blocks(np.arange(ne)):
        kern = ElementKernel(mesh, spaces, rb, edges, eids)
        F[eids, :-1, :-1] = kern.local_stiffness(mu, lam, rho, gamma)
        F[eids, -1, :-1] = F[eids, :-1, -1] = kern.local_load(f)
    try:
        Li, L21 = eliminate(F, n0)
    except IndefiniteMatrixError as err:
        raise IndefiniteMatrixError(
            f"interior block of element {err.block} is not positive definite "
            f"(nonpositive pivot {err.pivot} of {n0})", pivot=err.pivot,
            block=err.block) from None
    # L21 = [A_bi; b_i^T] L^-T with A_ii = L L^T, so the recovery
    # A_ii^-1 [A_ib | b_i] is Li^T L21^T; the copies free F
    recovery = Li.transpose(0, 2, 1) @ L21.transpose(0, 2, 1)
    A, b = F[:, n0:-1, n0:-1].copy(), F[:, n0:-1, -1].copy()
    del F, Li, L21
    # eliminate the fixed columns; ``ufix`` is zero on free dofs
    ufix = fixed[mesh.element_edges].reshape(ne, -1)
    b = b - (A @ ufix[:, :, None])[:, :, 0]

    free = ids >= 0
    pairs = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(ids[:, :, None], A.shape)[pairs]
    cols = np.broadcast_to(ids[:, None, :], A.shape)[pairs]
    n = dm.num_unknowns
    matrix = sparse.coo_matrix((A[pairs], (rows, cols)), shape=(n, n)).tocsc()
    rhs = np.bincount(ids[free], weights=b[free], minlength=n)
    return DiscreteSystem(matrix=matrix, rhs=rhs, dofmap=dm, fixed_coeffs=fixed,
                          mesh=mesh, spaces=spaces, recovery=recovery)


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
             mu: float, lam: float, rho: float, gamma: float) -> float:
    """Energy semi-norm sqrt(a(v,v) + s(v,v)); zero exactly on the
    zero-energy weak functions (e.g. matched rigid motions)."""
    edges = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    total = 0.0
    for eids in element_blocks(np.arange(mesh.num_elements)):
        kern = ElementKernel(mesh, spaces, rb, edges, eids)
        vloc = v.local_coefficients(mesh, eids)
        total += float(kern.energy(vloc, mu, lam, rho, gamma).sum())
    return float(np.sqrt(max(total, 0.0)))


# -- L2 projections (needed by diagnostics and the operator identities) --


def project_interior(mesh: Mesh2D, eid, spaces: SpaceSet, field_fn) -> np.ndarray:
    """Element L2 projection of a vector field onto V0(T); coefficients,
    (E, n0) for an array of E elements."""
    rule, vals, gram = interior_mass(mesh, eid, spaces.interior,
                                     spaces.element_params(eid), spaces.quad_degree)
    fv = np.asarray(field_fn(rule.points.reshape(-1, 2)), dtype=float)
    fv = fv.reshape(rule.points.shape)
    mom = np.einsum("...inc,...nc,...n->...i", vals, fv, rule.weights)
    return np.linalg.solve(gram, mom[..., None])[..., 0]


def interpolate(mesh: Mesh2D, spaces: SpaceSet, field_fn) -> WeakFunction:
    """The projection-based interpolant {Q0 u, Qb u} as a weak function."""
    wf = WeakFunction.zeros(mesh, spaces)
    for eids in element_blocks(np.arange(mesh.num_elements)):
        wf.interior[eids] = project_interior(mesh, eids, spaces, field_fn)
    edges = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    wf.boundary[:] = edges.project(np.arange(mesh.num_edges), field_fn)
    return wf
