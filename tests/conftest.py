import numpy as np
import pytest

from gwgfem.assembly import apply_dirichlet, interpolate
from gwgfem.spaces import (
    build_spaces,
    default_quad_degree,
    eval_interior,
    parse_boundary,
    parse_interior,
)
from gwgfem.weakops import ElementKernel, WeakFunction, edge_rule


def vec_field(fx, fy):
    """Vectorized 2D field from two scalar callables of (x, y)."""

    def field(pts):
        pts = np.atleast_2d(pts)
        return np.column_stack([fx(pts[:, 0], pts[:, 1]),
                                fy(pts[:, 0], pts[:, 1])])

    return field


def zero_field(pts):
    pts = np.atleast_2d(pts)
    return np.zeros((pts.shape[0], 2))


def make_spaces(mesh, interior="p1", boundary="p0", seed=0, quad=None):
    return build_spaces(mesh, parse_interior(interior, seed=seed),
                        parse_boundary(boundary), quad,
                        seed_entropy=(seed, mesh.n))


@pytest.fixture
def x_comp_field():
    """(x, 0): the workhorse of the hand-derived correction examples."""
    return vec_field(lambda x, y: x, lambda x, y: 0.0 * x)


def kernel(mesh, spaces, rb, eids=None, quad=None):
    """Batched element kernel over ``eids`` (default: every element)."""
    if quad is None:
        quad = default_quad_degree(spaces.interior)
    if eids is None:
        eids = np.arange(mesh.num_elements)
    edges = edge_rule(mesh, spaces.boundary, quad)
    return ElementKernel(mesh, spaces, rb, edges, np.asarray(eids), quad)


def dense_reference_solution(mesh, spaces, rb, mu, lam, rho, gamma, f, g, quad=None):
    """Uncondensed reference solve: scatter every element's full local
    matrix and load into one dense block system (the interior blocks of
    all elements, then one block per edge), eliminate the Dirichlet edge
    blocks and solve with ``np.linalg.solve``.  Returns the weak function.
    """
    if quad is None:
        quad = default_quad_degree(spaces.interior)
    kern = kernel(mesh, spaces, rb, quad=quad)
    ne, n0, nb = mesh.num_elements, kern.n0, kern.nb
    edge_dofs = ne * n0 + nb * kern.edge_ids[:, :, None] + np.arange(nb)
    ids = np.concatenate([np.arange(ne * n0).reshape(ne, n0),
                          edge_dofs.reshape(ne, -1)], axis=1)
    size = ne * n0 + nb * mesh.num_edges
    K = np.zeros((size, size))
    F = np.zeros(size)
    np.add.at(K, (ids[:, :, None], ids[:, None, :]), kern.local_stiffness(mu, lam, rho, gamma))
    np.add.at(F, ids, kern.local_load(f))

    bnd = np.nonzero(mesh.boundary)[0]
    fixed = (ne * n0 + nb * bnd[:, None] + np.arange(nb)).ravel()
    free = np.ones(size, dtype=bool)
    free[fixed] = False
    u = np.zeros(size)
    u[fixed] = apply_dirichlet(mesh, g, spaces, quad)[bnd].ravel()
    u[free] = np.linalg.solve(K[np.ix_(free, free)],
                              F[free] - K[np.ix_(free, ~free)] @ u[~free])
    wf = WeakFunction.zeros(mesh, spaces)
    wf.interior[:] = u[: ne * n0].reshape(ne, n0)
    wf.boundary[:] = u[ne * n0:].reshape(-1, nb)
    return wf


def weak_gradient(kern, vloc):
    """Generalized weak gradient (E, nq, 2, 2): classical part plus the
    constant correction."""
    return kern.classical_gradient(vloc) + kern.correction_pair(vloc)[0][:, None]


def weak_strain(kern, vloc):
    g = weak_gradient(kern, vloc)
    return 0.5 * (g + g.transpose(0, 1, 3, 2))


def operator_identity_residuals(mesh, spaces, rb, phi, grad_phi, eids, quad=10):
    """Residuals of the projection identities for the interpolant of a
    smooth field: the weak strain / weak divergence of {Q0 phi, Qb phi}
    tested against constant matrices/scalars must match the four-term
    expansion in the exact field, the interior projection defect, and the
    two boundary jump terms.  Returns (strain residual, divergence
    residual), both maxima over the constant test bases and the elements
    ``eids``.
    """
    kern = kernel(mesh, spaces, rb, eids, quad)
    edges = edge_rule(mesh, spaces.boundary, quad)
    wf = interpolate(mesh, spaces, phi, quad)
    vloc = wf.local_coefficients(mesh, kern.eids)
    E, nq = kern.vol.weights.shape

    d1, d2 = kern.correction_pair(vloc)
    w = kern.vol.weights
    pts = kern.vol.points
    grad_q0 = kern.classical_gradient(vloc)
    eps_q0 = 0.5 * (grad_q0 + grad_q0.transpose(0, 1, 3, 2))
    eps_weak = eps_q0 + 0.5 * (d1 + d1.transpose(0, 2, 1))[:, None]
    div_weak = np.trace(grad_q0, axis1=2, axis2=3) + d2[:, None]

    g_exact = grad_phi(pts.reshape(-1, 2)).reshape(E, nq, 2, 2)
    eps_exact = 0.5 * (g_exact + g_exact.transpose(0, 1, 3, 2))
    div_exact = np.trace(g_exact, axis1=2, axis2=3)

    # per-edge R_b images of (Qb phi - phi) and (phi - Q0 phi)
    ep, ew, nrm = kern.edge_points, kern.edge_weights, kern.normals
    m, nqe = ep.shape[1:3]
    phi_vals = phi(ep.reshape(-1, 2)).reshape(ep.shape)
    qb_vals = np.einsum("emj,emjnc->emnc", wf.boundary[kern.edge_ids],
                        edges.basis[kern.edge_ids])
    tr0 = eval_interior(mesh, kern.eids, spaces.interior,
                        spaces.element_params(kern.eids), ep.reshape(E, -1, 2))
    q0_vals = np.einsum("ej,ejmnc->emnc", vloc[:, : kern.n0],
                        tr0.reshape(E, kern.n0, m, nqe, 2))
    j1 = qb_vals - phi_vals
    j2 = phi_vals - q0_vals
    if rb.kind == "qb":
        j1 = edges.apply(kern.edge_ids, j1[:, :, None])[:, :, 0]
        j2 = edges.apply(kern.edge_ids, j2[:, :, None])[:, :, 0]

    worst_eps = 0.0
    for a in range(2):
        for b in range(2):
            psi = np.zeros((2, 2))
            psi[a, b] = 1.0
            lhs = np.einsum("enab,ab,en->e", eps_weak, psi, w)
            rhs = np.einsum("enab,ab,en->e", eps_exact, psi, w)
            rhs += np.einsum("enab,ab,en->e", eps_q0 - eps_exact, psi, w)
            pn = np.einsum("ab,emb->ema", psi + psi.T, nrm)
            rhs += 0.5 * np.einsum("emnc,emc,emn->e", j1, pn, ew)
            rhs += 0.5 * np.einsum("emnc,emc,emn->e", j2, pn, ew)
            worst_eps = max(worst_eps, float(np.abs(lhs - rhs).max()))

    lhs = np.einsum("en,en->e", div_weak, w)
    rhs = np.einsum("en,en->e", div_exact, w)
    rhs += np.einsum("en,en->e", np.trace(grad_q0, axis1=2, axis2=3) - div_exact, w)
    rhs += np.einsum("emnc,emc,emn->e", j1, nrm, ew)
    rhs += np.einsum("emnc,emc,emn->e", j2, nrm, ew)
    worst_div = float(np.abs(lhs - rhs).max())
    return worst_eps, worst_div
