"""Global assembly of the discrete elasticity system.

Find u_h with u_h = (L2 projection of g onto the edge spaces) on the
domain boundary and

    (2 mu eps_g(u_h), eps_g(v)) + (lam P0 div_g u_h, P0 div_g v)
        + sum_T rho h_T^gamma <R_b(u0 - ub), R_b(v0 - vb)>_dT = (f, v0)

for all weak test functions vanishing on the boundary, P0 the element mean:
lambda penalises a P0 pressure, as selective reduced integration does
(Malkus and Hughes 1978); p1's div_g is constant on an element anyway.
Interior dofs couple only to their own element's edges, so they are
condensed out (static condensation) and the global unknowns are the free
edge blocks only, numbered by nested dissection.  The element kernel and
the condensation, one :func:`~gwgfem.solver.eliminate` step, run once per
class of translates (``SpaceSet.classes``; one class per element where no
two elements share their local matrices).  One pass over each class's
members condenses their loads and enforces Dirichlet data by elimination,
moving fixed edge blocks to the load vector, which keeps the reduced matrix
symmetric positive definite whenever the admissibility predicates hold.
The edge matrix stays in element form, a :class:`~gwgfem.solver.ElementMatrix`
of the condensed class blocks and every element's class and the tree nodes of
its edges, which carries the dissection tree: the tree's nodes are the free
edges, and the solver continues the same elimination up that tree, front by front.

Every quadrature rule has the level's degree, ``spaces.quad_degree``.  Each
rule covers what its caller reads and is dropped when the caller returns:
the element kernel builds the edge and volume rules of its element block,
:func:`apply_dirichlet` an edge rule over the boundary edges, and only
:func:`interpolate` one over every edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh2D, element_blocks
from .solver import ElementMatrix, IndefiniteMatrixError, eliminate
from .spaces import SpaceSet, interior_mass
from .weakops import ElementKernel, RbOperator, WeakFunction, edge_rule

__all__ = [
    "DiscreteSystem",
    "apply_dirichlet",
    "assemble",
    "extract_solution",
    "seminorm",
    "project_interior",
    "interpolate",
]


@dataclass
class DiscreteSystem:
    """Sparse symmetric edge system plus everything needed to interpret it."""

    matrix: ElementMatrix
    rhs: np.ndarray
    fixed_coeffs: np.ndarray  # (nbnd, nb), the boundary edges' in edge order
    mesh: Mesh2D
    spaces: SpaceSet
    # interior recovery A_ii^-1 A_ib per class (nc, n0, m*nb), and A_ii^-1 b_i
    # per element (ne, n0): u0 = interior_load - recovery[class] @ ub
    recovery: np.ndarray = field(repr=False)
    interior_load: np.ndarray = field(repr=False)


def _nested_dissection(mesh: Mesh2D) -> tuple:
    """Node of every edge in a nested-dissection order of the free edges,
    -1 on a fixed (Dirichlet) edge, and the dissection tree.

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
    ranges; :func:`~gwgfem.solver.solve` factors along it.  The same mesh
    always gives the same numbering.
    """
    free = np.flatnonzero(~mesh.boundary)
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
    node[:] = -1
    node[free] = pos
    return node, tuple(tree)


def apply_dirichlet(mesh: Mesh2D, spaces: SpaceSet, g) -> np.ndarray:
    """L2-project the boundary displacement onto V^b(e) for every boundary
    edge, with an edge rule of the level's degree over those edges; returns
    an (ned, nb) array with valid rows on boundary edges."""
    fixed = np.zeros((mesh.num_edges, spaces.boundary.dim))
    bnd = np.flatnonzero(mesh.boundary)
    fixed[bnd] = edge_rule(mesh, spaces.boundary, spaces.quad_degree, bnd).project(g)
    return fixed


def assemble(mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator, mu: float,
             lam: float, rho: float, gamma: float, f, g,
             quad_degree: int | None = None,
             condense: bool = True) -> DiscreteSystem:
    """Assemble the global system on the free edge unknowns, in element form.

    Each class of elements (``spaces.classes``) takes the local matrix of
    its representative, its lowest element, and eliminates its interior
    block by one :func:`~gwgfem.solver.eliminate` step per block of
    classes: the matrix is the sum of the class Schur complements
    S = A_bb - A_bi A_ii^-1 A_ib at the dissection nodes of each member's edges
    (:func:`_nested_dissection`).  One loop over the block's members then
    condenses each one's own load, f at the representative's volume points
    moved by their first vertices' offset, against its basis values and
    weights: with A_ii = L L^T and y = L^-1 b_i, the summed edge load is
    -A_bi L^-T y - S u_fix (u_fix its Dirichlet coefficients, 0 on free
    edges) and the interior load L^-T y is kept.
    An A_ii that fails its Cholesky factorization raises
    :class:`~gwgfem.solver.IndefiniteMatrixError` naming the class's
    representative and the pivot; since the inertia of the block matrix is
    that of A_ii plus that of its Schur complement, an SPD certificate for
    the edge system then holds for the whole system.  Every rule has the
    degree ``spaces.quad_degree``; ``quad_degree``, if given, must equal it.
    ``condense`` is accepted for compatibility and ignored: condensation is
    always on.
    """
    if quad_degree not in (None, spaces.quad_degree):
        raise ValueError(f"quad_degree {quad_degree} differs from the level's "
                         f"{spaces.quad_degree}")
    node, tree = _nested_dissection(mesh)
    fixed = apply_dirichlet(mesh, spaces, g)
    ne = mesh.num_elements
    n0 = spaces.interior.dim
    s = mesh.element_edges.shape[1] * spaces.boundary.dim

    cls, reps = spaces.classes
    order = np.argsort(cls, kind="stable")  # every class's members, class by class
    start = np.searchsorted(cls[order], np.arange(len(reps) + 1))
    A, recovery = np.empty((len(reps), s, s)), np.empty((len(reps), n0, s))
    b, u0 = np.empty((ne, s)), np.empty((ne, n0))
    for cids in element_blocks(np.arange(len(reps))):
        kern = ElementKernel(mesh, spaces, rb, reps[cids])
        try:
            Li, L21, A[cids] = eliminate(kern.local_stiffness(mu, lam, rho, gamma), n0)
        except IndefiniteMatrixError as err:
            e = int(reps[cids[err.block]])
            raise IndefiniteMatrixError(
                f"interior block of element {e} is not positive definite "
                f"(nonpositive pivot {err.pivot} of {n0})", pivot=err.pivot,
                block=e) from None
        # L21 = A_bi L^-T, so the recovery A_ii^-1 A_ib is Li^T L21^T
        recovery[cids] = Li.transpose(0, 2, 1) @ L21.transpose(0, 2, 1)
        for eids in element_blocks(order[start[cids[0]]:start[cids[-1] + 1]]):
            k = cls[eids] - cids[0]
            corner = mesh.vertices[mesh.elements[[eids, kern.eids[k]], 0]]
            y = Li[k] @ kern.local_load(f, k, corner[0] - corner[1])[:, :, None]
            ufix = fixed[mesh.element_edges[eids]].reshape(len(eids), s, 1)
            b[eids] = -(L21[k] @ y)[:, :, 0] - (A[cls[eids]] @ ufix)[:, :, 0]
            u0[eids] = (Li[k].transpose(0, 2, 1) @ y)[:, :, 0]
    matrix = ElementMatrix(node[mesh.element_edges], A, cls, tree)
    ids = matrix.unknowns()
    free = ids >= 0
    rhs = np.bincount(ids[free], weights=b[free], minlength=matrix.shape[0])
    return DiscreteSystem(matrix=matrix, rhs=rhs, fixed_coeffs=fixed[mesh.boundary],
                          mesh=mesh, spaces=spaces, recovery=recovery, interior_load=u0)


def extract_solution(system: DiscreteSystem, x: np.ndarray) -> WeakFunction:
    """Expand an edge solution vector into a weak function: Dirichlet edge
    blocks get their fixed coefficients, and every element's interior
    block is recovered from its edges by its class's recovery matrix."""
    mesh, A = system.mesh, system.matrix
    wf = WeakFunction.zeros(mesh, system.spaces)
    wf.boundary[mesh.boundary] = system.fixed_coeffs
    free = A.indices >= 0
    wf.boundary[mesh.element_edges[free]] = x.reshape(-1, A.nb)[A.indices[free]]
    ub = wf.boundary[mesh.element_edges].reshape(mesh.num_elements, -1, 1)
    for eids in element_blocks(np.arange(mesh.num_elements)):
        rec = system.recovery[A.classes[eids]] @ ub[eids]
        wf.interior[eids] = system.interior_load[eids] - rec[:, :, 0]
    return wf


def seminorm(v: WeakFunction, mesh: Mesh2D, spaces: SpaceSet, rb: RbOperator,
             mu: float, lam: float, rho: float, gamma: float) -> float:
    """Energy semi-norm sqrt(a(v,v) + s(v,v)); zero exactly on the
    zero-energy weak functions (e.g. matched rigid motions)."""
    total = 0.0
    for eids in element_blocks(np.arange(mesh.num_elements)):
        kern = ElementKernel(mesh, spaces, rb, eids)
        vloc = v.local_coefficients(mesh, eids)
        total += float(kern.energy(vloc, mu, lam, rho, gamma).sum())
    return float(np.sqrt(max(total, 0.0)))


# -- L2 projections (needed by diagnostics and the operator identities) --


def project_interior(mesh: Mesh2D, eid, spaces: SpaceSet, field_fn) -> np.ndarray:
    """Element L2 projection of a vector field onto V0(T); coefficients,
    (E, n0) for an array of E elements."""
    rule, vals, gram = interior_mass(mesh, eid, spaces.interior,
                                     spaces.params[eid], spaces.quad_degree)
    fv = np.asarray(field_fn(rule.points.reshape(-1, 2)), dtype=float)
    fv = fv.reshape(rule.points.shape)
    mom = np.einsum("...inc,...nc,...n->...i", vals, fv, rule.weights)
    return np.linalg.solve(gram, mom[..., None])[..., 0]


def interpolate(mesh: Mesh2D, spaces: SpaceSet, field_fn) -> WeakFunction:
    """The projection-based interpolant {Q0 u, Qb u} as a weak function."""
    wf = WeakFunction.zeros(mesh, spaces)
    for eids in element_blocks(np.arange(mesh.num_elements)):
        wf.interior[eids] = project_interior(mesh, eids, spaces, field_fn)
    wf.boundary[:] = edge_rule(mesh, spaces.boundary, spaces.quad_degree).project(field_fn)
    return wf
