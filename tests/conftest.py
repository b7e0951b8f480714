import numpy as np
import pytest
from scipy import sparse

from gwgfem.assembly import apply_dirichlet, interpolate
from gwgfem.mesh import _finish_mesh, _lattice
from gwgfem.spaces import (_activation_args, _slopes_patterns, build_spaces, eval_interior,
                           parse_boundary, parse_interior)
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


def as_scipy(A):
    """A :class:`~gwgfem.solver.ElementMatrix` as a scipy CSC matrix, for
    sparse algebra in tests (``.toarray()`` for dense): the COO sum of
    every element entry, its class's, whose row and column are both unknowns."""
    ids, data = A.unknowns(), A.data[A.classes]
    free = ids >= 0
    pairs = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(ids[:, :, None], data.shape)[pairs]
    cols = np.broadcast_to(ids[:, None, :], data.shape)[pairs]
    return sparse.coo_matrix((data[pairs], (rows, cols)), shape=A.shape).tocsc()


def jittered(n):
    """The tri lattice with each interior vertex moved by up to h/4 per
    coordinate, from a fixed seed."""
    vertices, squares = _lattice(n)
    inner = ((vertices > 0) & (vertices < 1)).all(axis=1)
    shift = np.random.default_rng(5).uniform(-0.25, 0.25, size=vertices.shape) / n
    vertices[inner] += shift[inner]
    return _finish_mesh(n, vertices, np.concatenate([squares[:, [0, 1, 3]],
                                                     squares[:, [1, 2, 3]]]))


def shoelace_area(mesh):
    """Signed area (ne,) of every element polygon from its vertices."""
    coords = mesh.vertices[mesh.elements]
    nxt = np.roll(coords, -1, axis=1)
    return 0.5 * (coords[:, :, 0] * nxt[:, :, 1] - nxt[:, :, 0] * coords[:, :, 1]).sum(axis=1)


def make_spaces(mesh, interior="p1", boundary="p0", seed=0, quad=None):
    return build_spaces(mesh, parse_interior(interior, seed=seed),
                        parse_boundary(boundary), quad,
                        seed_entropy=(seed, mesh.n))


def manufactured_gradient(case):
    """The analytic displacement gradient of a manufactured case: points
    (nq, 2) -> (nq, 2, 2), entry (q, a, b) = d u_a / d x_b."""

    def grad_u(pts):
        pts = np.atleast_2d(pts)
        sx, cx = np.sin(pts[:, 0]), np.cos(pts[:, 0])
        sy, cy = np.sin(pts[:, 1]), np.cos(pts[:, 1])
        G = np.zeros((pts.shape[0], 2, 2))
        G[:, 0, 0], G[:, 0, 1] = cx * sy, sx * cy
        if case.case_id == "example2":
            G[:, 0, 0] += 1.0 / case.lam
            G[:, 1, 0], G[:, 1, 1] = -sx * cy, -cx * sy + 1.0 / case.lam
        return G

    return grad_u


def manufactured_stress(case, points):
    """sigma(u) = 2 mu eps(u) + lam div(u) I, from the analytic gradient."""
    G = manufactured_gradient(case)(points)
    div = np.trace(G, axis1=1, axis2=2)
    return case.mu * (G + G.transpose(0, 2, 1)) + case.lam * div[:, None, None] * np.eye(2)


def divergence_of_stress_fd(case, points, step=1e-5):
    """Central finite differences of a manufactured case's analytic stress,
    row-wise: an independent oracle for the body force, which should equal
    minus this."""
    points = np.atleast_2d(points)
    out = np.zeros((points.shape[0], 2))
    for b in range(2):
        shift = np.zeros(2)
        shift[b] = step
        out += (manufactured_stress(case, points + shift)[:, :, b]
                - manufactured_stress(case, points - shift)[:, :, b]) / (2.0 * step)
    return out


def gradient_factors(cfg, prm, points):
    """Interior basis gradients at ``points`` as the kernel forms them, each
    slope sigma'(t) times its function's constant pattern e_c (x) w; (dim,
    nq, 2, 2), or (E, dim, nq, 2, 2) as :func:`~gwgfem.spaces.eval_interior`.
    Entry (i, q, a, b) is d(phi_i)_a / d x_b."""
    slopes, pattern = _slopes_patterns(cfg, prm, _activation_args(np.atleast_2d(points), prm))
    return slopes[..., None, None] * pattern[..., None, :, :]


def fd_gradients(cfg, prm, points, step=1e-6):
    """Central differences of :func:`~gwgfem.spaces.eval_interior` at
    ``points``, laid out as :func:`gradient_factors`."""
    points = np.atleast_2d(points)
    cols = []
    for b in range(2):
        shift = np.zeros(2)
        shift[b] = step
        cols.append((eval_interior(cfg, prm, points + shift)
                     - eval_interior(cfg, prm, points - shift)) / (2.0 * step))
    return np.stack(cols, axis=-1)


@pytest.fixture
def x_comp_field():
    """(x, 0): the workhorse of the hand-derived correction examples."""
    return vec_field(lambda x, y: x, lambda x, y: 0.0 * x)


def kernel(mesh, spaces, rb, eids=None):
    """Batched element kernel over ``eids`` (default: every element)."""
    if eids is None:
        eids = np.arange(mesh.num_elements)
    return ElementKernel(mesh, spaces, rb, np.asarray(eids))


def own_load(kern, f):
    """Every element's own load from a kernel: each block row at a zero shift."""
    E = len(kern.eids)
    return kern.local_load(f, np.arange(E), np.zeros((E, 2)))


def dense_full_system(mesh, spaces, rb, mu, lam, rho, gamma, f):
    """Uncondensed dense system ``(K, F)``: every element's full local
    matrix and load scattered into one block system, the interior blocks
    of all elements (``n0`` dofs each) first, then one block per edge."""
    kern = kernel(mesh, spaces, rb)
    ne, n0, nb = mesh.num_elements, kern.n0, kern.nb
    edge_dofs = ne * n0 + nb * kern.edge_ids[:, :, None] + np.arange(nb)
    ids = np.concatenate([np.arange(ne * n0).reshape(ne, n0),
                          edge_dofs.reshape(ne, -1)], axis=1)
    size = ne * n0 + nb * mesh.num_edges
    K = np.zeros((size, size))
    F = np.zeros(size)
    np.add.at(K, (ids[:, :, None], ids[:, None, :]), kern.local_stiffness(mu, lam, rho, gamma))
    np.add.at(F, ids[:, :n0], own_load(kern, f))
    return K, F


def dense_reference_solution(mesh, spaces, rb, mu, lam, rho, gamma, f, g):
    """Uncondensed reference solve: the :func:`dense_full_system` with the
    Dirichlet edge blocks eliminated, solved with ``np.linalg.solve``.
    Returns the weak function.
    """
    K, F = dense_full_system(mesh, spaces, rb, mu, lam, rho, gamma, f)
    ne, n0, nb = mesh.num_elements, spaces.interior.dim, spaces.boundary.dim
    size = len(F)
    bnd = np.nonzero(mesh.boundary)[0]
    fixed = (ne * n0 + nb * bnd[:, None] + np.arange(nb)).ravel()
    free = np.ones(size, dtype=bool)
    free[fixed] = False
    u = np.zeros(size)
    u[fixed] = apply_dirichlet(mesh, spaces, g)[bnd].ravel()
    u[free] = np.linalg.solve(K[np.ix_(free, free)],
                              F[free] - K[np.ix_(free, ~free)] @ u[~free])
    wf = WeakFunction.zeros(mesh, spaces)
    wf.interior[:] = u[: ne * n0].reshape(ne, n0)
    wf.boundary[:] = u[ne * n0:].reshape(-1, nb)
    return wf


def interior_gradients(kern):
    """Interior basis gradients at the kernel's volume rule, (E, n0, nq, 2,
    2): each slope sigma'(t) times its function's constant pattern e_c (x) w."""
    return kern.slopes[..., None, None] * kern.pattern[:, :, None]


def classical_gradient(kern, vloc):
    """Gradient of v0 at the kernel's volume rule; (E, nq, 2, 2)."""
    return np.einsum("ek,eknab->enab", vloc[:, : kern.n0], interior_gradients(kern))


def rb_jump_values(kern, vloc):
    """R_b(vb - v0) on every local edge at the edge rule; (E, m, nqe, 2)."""
    vb = vloc[:, kern.n0:].reshape(len(vloc), kern.m, kern.nb)
    return (np.einsum("ek,emknc->emnc", vloc[:, : kern.n0], kern.rb_jump0)
            + np.einsum("emk,emknc->emnc", vb, kern.rb_jumpb))


def correction_pair(kern, vloc):
    """The corrections delta1 (E, 2, 2) and delta2 = tr delta1 (E,) of weak
    functions."""
    d1 = np.einsum("ek,ekab->eab", vloc, kern.delta1)
    return d1, np.trace(d1, axis1=1, axis2=2)


def jump_flux(kern):
    """Surface integrals <R_b jump, e_a n_b>_dT (E, ndof, 2, 2) of every
    local basis weak function, from the kernel's R_b jump rows, edge
    weights and normals."""
    wn = kern.edge_weights[..., None] * kern.normals[:, :, None]  # (E, m, nqe, 2)
    flux0 = np.einsum("emknc,emnd->ekcd", kern.rb_jump0, wn)
    fluxb = np.einsum("emknc,emnd->emkcd", kern.rb_jumpb, wn)
    return np.concatenate([flux0, fluxb.reshape(len(wn), -1, 2, 2)], axis=1)


def moment_residuals(kern, vloc):
    """Residuals of the correction moment equations for weak functions:
    (delta, psi)_T - <R_b(vb - v0), psi n>_dT per basis psi; (E, 4), (E,)."""
    d1, d2 = correction_pair(kern, vloc)
    flux = jump_flux(kern)
    lhs1 = kern.qarea[:, None] * d1.reshape(-1, 4)
    rhs1 = np.einsum("ek,ekab->eab", vloc, flux).reshape(-1, 4)
    rhs2 = np.einsum("ek,ekaa->e", vloc, flux)  # <R_b jump . n, 1>_dT
    return lhs1 - rhs1, kern.qarea * d2 - rhs2


def corrections_closed_form(kern, mesh):
    """delta1 = |T|^-1 * surface integral of R_b(jump) (x) n, and its
    divergence counterpart from the trace of that integral, with the exact
    element areas."""
    area = shoelace_area(mesh)[kern.eids]
    flux = jump_flux(kern)
    return (flux / area[:, None, None, None],
            np.trace(flux, axis1=2, axis2=3) / area[:, None])


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
    rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree, kern.edge_ids)
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
    qb_vals = np.einsum("emj,emjnc->emnc", wf.boundary[kern.edge_ids], rule.basis)
    tr0 = eval_interior(spaces.interior, spaces.params[kern.eids], ep.reshape(E, -1, 2))
    q0_vals = np.einsum("ej,ejmnc->emnc", vloc[:, : kern.n0],
                        tr0.reshape(E, kern.n0, m, nqe, 2))
    j1 = qb_vals - phi_vals
    j2 = phi_vals - q0_vals
    if rb.kind == "qb":
        j1 = rule.apply(j1[:, :, None])[:, :, 0]
        j2 = rule.apply(j2[:, :, None])[:, :, 0]

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
