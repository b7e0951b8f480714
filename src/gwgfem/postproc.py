"""Manufactured solutions, discrete error norms, convergence rates, reports.

The discrete norms are

    ||u - u0||      = (sum_T int_T |u - u0|^2)^(1/2)
    ||u - ub||      = (sum_e h_e int_e |u - ub|^2)^(1/2)
    ||u - u0||_inf  = max over elements and components of the pointwise
                      error at the element barycenter
    ||u - ub||_inf  = max over edges and components at the edge midpoint

and rates are log2 of consecutive error ratios under mesh halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh2D, element_blocks, element_quadrature
from .spaces import SpaceSet, eval_boundary, eval_interior
from .weakops import WeakFunction, edge_rule

__all__ = [
    "ManufacturedCase",
    "manufactured",
    "ErrorNorms",
    "error_norms",
    "rates",
    "ConvergenceReport",
    "emit",
    "NORM_KEYS",
]

NORM_KEYS = ("u0_l2", "ub_l2", "u0_inf", "ub_inf")


@dataclass(frozen=True)
class ManufacturedCase:
    """Analytic displacement, its gradient, boundary data, and body force."""

    case_id: str
    mu: float
    lam: float
    u: callable  # points (nq, 2) -> (nq, 2)
    grad_u: callable  # points (nq, 2) -> (nq, 2, 2)
    f: callable  # points (nq, 2) -> (nq, 2)

    def g(self, points):
        """Dirichlet boundary displacement: the trace of u."""
        return self.u(points)

    def stress(self, points) -> np.ndarray:
        """sigma(u) = 2 mu eps(u) + lam div(u) I, from the analytic gradient."""
        G = self.grad_u(points)
        eps = 0.5 * (G + G.transpose(0, 2, 1))
        div = np.trace(G, axis1=1, axis2=2)
        sig = 2.0 * self.mu * eps
        sig[:, 0, 0] += self.lam * div
        sig[:, 1, 1] += self.lam * div
        return sig


def manufactured(case_id: str, mu: float, lam: float) -> ManufacturedCase:
    """Built-in manufactured solutions.

    ``example1``: u = (sin x sin y, 1), so that
        f = ((3 mu + lam) sin x sin y, -(mu + lam) cos x cos y).

    ``example2`` (near-incompressibility study): u = (sin x sin y + x/lam,
        cos x cos y + y/lam), with div u = 2/lam and
        f = 2 mu (sin x sin y, cos x cos y) independently of lam.
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("material parameters must be positive")

    if case_id == "example1":
        def u(pts):
            pts = np.atleast_2d(pts)
            return np.column_stack([np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
                                    np.ones(pts.shape[0])])

        def grad_u(pts):
            pts = np.atleast_2d(pts)
            G = np.zeros((pts.shape[0], 2, 2))
            G[:, 0, 0] = np.cos(pts[:, 0]) * np.sin(pts[:, 1])
            G[:, 0, 1] = np.sin(pts[:, 0]) * np.cos(pts[:, 1])
            return G

        def f(pts):
            pts = np.atleast_2d(pts)
            return np.column_stack([
                (3.0 * mu + lam) * np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
                -(mu + lam) * np.cos(pts[:, 0]) * np.cos(pts[:, 1]),
            ])

        return ManufacturedCase("example1", mu, lam, u, grad_u, f)

    if case_id == "example2":
        def u(pts):
            pts = np.atleast_2d(pts)
            return np.column_stack([
                np.sin(pts[:, 0]) * np.sin(pts[:, 1]) + pts[:, 0] / lam,
                np.cos(pts[:, 0]) * np.cos(pts[:, 1]) + pts[:, 1] / lam,
            ])

        def grad_u(pts):
            pts = np.atleast_2d(pts)
            G = np.zeros((pts.shape[0], 2, 2))
            G[:, 0, 0] = np.cos(pts[:, 0]) * np.sin(pts[:, 1]) + 1.0 / lam
            G[:, 0, 1] = np.sin(pts[:, 0]) * np.cos(pts[:, 1])
            G[:, 1, 0] = -np.sin(pts[:, 0]) * np.cos(pts[:, 1])
            G[:, 1, 1] = -np.cos(pts[:, 0]) * np.sin(pts[:, 1]) + 1.0 / lam
            return G

        def f(pts):
            pts = np.atleast_2d(pts)
            return np.column_stack([
                2.0 * mu * np.sin(pts[:, 0]) * np.sin(pts[:, 1]),
                2.0 * mu * np.cos(pts[:, 0]) * np.cos(pts[:, 1]),
            ])

        return ManufacturedCase("example2", mu, lam, u, grad_u, f)

    raise ValueError(f"unknown manufactured case {case_id!r}")


@dataclass(frozen=True)
class ErrorNorms:
    u0_l2: float
    ub_l2: float
    u0_inf: float
    ub_inf: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in NORM_KEYS}


def _misfit(u_exact, points: np.ndarray, coeffs: np.ndarray,
            basis: np.ndarray) -> np.ndarray:
    """u_exact - sum_j coeffs_j basis_j at points (..., nq, 2)."""
    exact = np.asarray(u_exact(points.reshape(-1, 2)), dtype=float)
    return exact.reshape(points.shape) - np.einsum("...j,...jnc->...nc", coeffs, basis)


def error_norms(mesh: Mesh2D, spaces: SpaceSet, solution: WeakFunction,
                u_exact, quad_degree: int | None = None) -> ErrorNorms:
    """The four discrete norms of u - u_h, with rules of degree
    ``spaces.quad_degree``; ``quad_degree``, if given, must equal it."""
    if quad_degree not in (None, spaces.quad_degree):
        raise ValueError(f"quad_degree {quad_degree} differs from the level's "
                         f"{spaces.quad_degree}")

    acc0 = 0.0
    inf0 = 0.0
    for eids in element_blocks(np.arange(mesh.num_elements)):
        prm = spaces.element_params(eids)
        coeffs = solution.interior[eids]
        rule = element_quadrature(mesh, eids, spaces.quad_degree)
        diff = _misfit(u_exact, rule.points, coeffs,
                       eval_interior(mesh, eids, spaces.interior, prm, rule.points))
        acc0 += float(np.einsum("enc,enc,en->", diff, diff, rule.weights))
        centers = mesh.elem_barycenter[eids][:, None, :]
        diff = _misfit(u_exact, centers, coeffs,
                       eval_interior(mesh, eids, spaces.interior, prm, centers))
        inf0 = max(inf0, float(np.abs(diff).max()))

    rule = edge_rule(mesh, spaces.boundary, spaces.quad_degree)
    diff = _misfit(u_exact, rule.points, solution.boundary, rule.basis)
    accb = float(np.einsum("e,enc,enc,en->", mesh.edge_length, diff, diff, rule.weights))

    edges = np.arange(mesh.num_edges)
    mids = mesh.edge_midpoint[:, None, :]
    diff = _misfit(u_exact, mids, solution.boundary,
                   eval_boundary(mesh, edges, spaces.boundary, mids))
    infb = float(np.abs(diff).max())

    return ErrorNorms(u0_l2=math.sqrt(acc0), ub_l2=math.sqrt(accb),
                      u0_inf=inf0, ub_inf=infb)


def rates(errors, levels) -> list:
    """log2(e(h)/e(h/2)) per level; None where undefined.

    A rate is defined only when the previous level exists, halves the mesh
    (level doubles), and both errors are strictly positive.
    """
    out = []
    for i, err in enumerate(errors):
        if i == 0:
            out.append(None)
            continue
        ok = levels[i] == 2 * levels[i - 1] and errors[i - 1] > 0 and err > 0
        out.append(math.log2(errors[i - 1] / err) if ok else None)
    return out


@dataclass
class ConvergenceReport:
    """Per-level errors in the four discrete norms plus rate columns."""

    levels: list  # subdivision counts n (h = 1/n)
    errors: dict  # key -> list of floats
    rate_columns: dict  # key -> list of float | None

    @classmethod
    def from_errors(cls, levels, errors, seed_errors=None) -> "ConvergenceReport":
        """Build a report; ``seed_errors`` (from one coarser, unreported
        level at levels[0]/2) make the first reported rate well defined."""
        rate_columns = {}
        for key in NORM_KEYS:
            errs = list(errors[key])
            lvls = list(levels)
            if seed_errors is not None and levels:
                errs = [seed_errors[key]] + errs
                lvls = [levels[0] // 2] + lvls
                rate_columns[key] = rates(errs, lvls)[1:]
            else:
                rate_columns[key] = rates(errs, lvls)
        return cls(levels=list(levels), errors={k: list(errors[k]) for k in NORM_KEYS},
                   rate_columns=rate_columns)


_CSV_HEADER = ("level,h,err_u0_l2,rate_u0_l2,err_ub_l2,rate_ub_l2,"
               "err_u0_inf,rate_u0_inf,err_ub_inf,rate_ub_inf")


def _fmt_err(x: float) -> str:
    return f"{x:.2e}"


def _fmt_rate(r) -> str:
    return "" if r is None else f"{r:.2f}"


def emit(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render a report as CSV or an aligned text table.

    Errors use scientific notation with 3 significant digits; rates use 2
    decimals; undefined rates are blank.
    """
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for i, n in enumerate(report.levels):
            cells = [str(n), f"{1.0 / n:.6g}"]
            for key in NORM_KEYS:
                cells.append(_fmt_err(report.errors[key][i]))
                cells.append(_fmt_rate(report.rate_columns[key][i]))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    if fmt == "table":
        header = ["h", "err_u0_L2", "rate", "err_ub_L2", "rate",
                  "err_u0_inf", "rate", "err_ub_inf", "rate"]
        body = []
        for i, n in enumerate(report.levels):
            row = [f"1/{n}"]
            for key in NORM_KEYS:
                row.append(_fmt_err(report.errors[key][i]))
                row.append(_fmt_rate(report.rate_columns[key][i]))
            body.append(row)
        widths = [max(len(header[c]), *(len(r[c]) for r in body)) if body
                  else len(header[c]) for c in range(len(header))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for row in body:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown report format {fmt!r}")
