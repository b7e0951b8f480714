import numpy as np
import pytest

from gwgfem.assembly import apply_dirichlet, interpolate
from gwgfem.spaces import build_spaces, eval_interior, parse_boundary, parse_interior
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


def divergence_of_stress_fd(case, points, step=1e-5):
    """Central finite differences of a manufactured case's analytic stress,
    row-wise: an independent oracle for the body force, which should equal
    minus this."""
    points = np.atleast_2d(points)
    out = np.zeros((points.shape[0], 2))
    for b in range(2):
        shift = np.zeros(2)
        shift[b] = step
        out += (case.stress(points + shift)[:, :, b]
                - case.stress(points - shift)[:, :, b]) / (2.0 * step)
    return out


@pytest.fixture
def x_comp_field():
    """(x, 0): the workhorse of the hand-derived correction examples."""
    return vec_field(lambda x, y: x, lambda x, y: 0.0 * x)


def kernel(mesh, spaces, rb, eids=None):
    """Batched element kernel over ``eids`` (default: every element)."""
    if eids is None:
        eids = np.arange(mesh.num_elements)
    edges = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    return ElementKernel(mesh, spaces, rb, edges, np.asarray(eids))


def dense_reference_solution(mesh, spaces, rb, mu, lam, rho, gamma, f, g):
    """Uncondensed reference solve: scatter every element's full local
    matrix and load into one dense block system (the interior blocks of
    all elements, then one block per edge), eliminate the Dirichlet edge
    blocks and solve with ``np.linalg.solve``.  Returns the weak function.
    """
    kern = kernel(mesh, spaces, rb)
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
    edges = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    u[fixed] = apply_dirichlet(mesh, edges, g)[bnd].ravel()
    u[free] = np.linalg.solve(K[np.ix_(free, free)],
                              F[free] - K[np.ix_(free, ~free)] @ u[~free])
    wf = WeakFunction.zeros(mesh, spaces)
    wf.interior[:] = u[: ne * n0].reshape(ne, n0)
    wf.boundary[:] = u[ne * n0:].reshape(-1, nb)
    return wf


def classical_gradient(kern, vloc):
    """Gradient of v0 at the kernel's volume rule; (E, nq, 2, 2)."""
    return np.einsum("ek,eknab->enab", vloc[:, : kern.n0], kern.G0)


def rb_jump_values(kern, vloc):
    """R_b(vb - v0) on every local edge at the edge rule; (E, m, nqe, 2)."""
    return np.einsum("ek,emknc->emnc", vloc, kern.rb_jumps)


def correction_pair(kern, vloc):
    """The corrections delta1 (E, 2, 2) and delta2 (E,) of weak functions."""
    return (np.einsum("ek,ekab->eab", vloc, kern.delta1),
            np.einsum("ek,ek->e", vloc, kern.delta2))


def moment_residuals(kern, vloc):
    """Residuals of the correction moment equations for weak functions:
    (delta, psi)_T - <R_b(vb - v0), psi n>_dT per basis psi; (E, 4), (E,)."""
    d1, d2 = correction_pair(kern, vloc)
    lhs1 = kern.qarea[:, None] * d1.reshape(-1, 4)
    rhs1 = np.einsum("ek,ekab->eab", vloc, kern.jump_flux).reshape(-1, 4)
    rhs2 = np.einsum("ek,ek->e", vloc, kern.jump_divflux)
    return lhs1 - rhs1, kern.qarea * d2 - rhs2


def corrections_closed_form(kern, mesh):
    """delta1 = |T|^-1 * surface integral of R_b(jump) (x) n, and its
    divergence counterpart, with the exact element areas."""
    area = mesh.elem_area[kern.eids]
    return (kern.jump_flux / area[:, None, None, None],
            kern.jump_divflux / area[:, None])


def weak_gradient(kern, vloc):
    """Generalized weak gradient (E, nq, 2, 2): classical part plus the
    constant correction."""
    return classical_gradient(kern, vloc) + correction_pair(kern, vloc)[0][:, None]


def weak_strain(kern, vloc):
    g = weak_gradient(kern, vloc)
    return 0.5 * (g + g.transpose(0, 1, 3, 2))


def operator_identity_residuals(mesh, spaces, rb, phi, grad_phi, eids):
    """Residuals of the projection identities for the interpolant of a
    smooth field: the weak strain / weak divergence of {Q0 phi, Qb phi}
    tested against constant matrices/scalars must match the four-term
    expansion in the exact field, the interior projection defect, and the
    two boundary jump terms.  Returns (strain residual, divergence
    residual), both maxima over the constant test bases and the elements
    ``eids``.
    """
    kern = kernel(mesh, spaces, rb, eids)
    edges = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    wf = interpolate(mesh, spaces, phi)
    vloc = wf.local_coefficients(mesh, kern.eids)
    E, nq = kern.vol.weights.shape

    d1, d2 = correction_pair(kern, vloc)
    w = kern.vol.weights
    pts = kern.vol.points
    grad_q0 = classical_gradient(kern, vloc)
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
