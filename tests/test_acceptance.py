"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import statistics
import time

import numpy as np

from conftest import (
    corrections_closed_form,
    divergence_of_stress_fd,
    kernel,
    make_spaces,
    moment_residuals,
    operator_identity_residuals,
    vec_field,
    weak_strain,
    zero_field,
)
from gwgfem import solver
from gwgfem.assembly import assemble, extract_solution, interpolate, seminorm
from gwgfem.cli import RunConfig, check_assumptions, run_convergence
from gwgfem.mesh import build_rectangular, build_triangular
from gwgfem.postproc import error_norms, manufactured
from gwgfem.weakops import parse_rb

QB = parse_rb("qb")
ID = parse_rb("id")


def _emit(cid: str, ok: bool, detail: str) -> bool:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_rect_polynomial_reference():
    # rectangular, [P1]^2 / [P0]^2 / Qb, gamma=-1, mu=0.5, lam=1, example 1:
    # at h=1/64 the displacement L2 error within 15% of 1.33e-4, its rate
    # within 0.1 of 2.00, the edge-error rate within 0.1 of 1.02, and the
    # whole 4-level study under 60 s
    t0 = time.perf_counter()
    rep = run_convergence(RunConfig(mesh="rect", levels=(8, 16, 32, 64),
                                    interior="p1", boundary="p0", rb="qb",
                                    gamma=-1.0, lam=1.0, example=1))
    elapsed = time.perf_counter() - t0
    err = rep.errors["u0_l2"][-1]
    rate0 = rep.rate_columns["u0_l2"][-1]
    rateb = rep.rate_columns["ub_l2"][-1]
    ok = (abs(err - 1.33e-4) <= 0.15 * 1.33e-4
          and abs(rate0 - 2.00) <= 0.1
          and abs(rateb - 1.02) <= 0.1
          and elapsed < 60.0)
    assert _emit("criterion 1", ok,
                 f"err(1/64)={err:.3e} (ref 1.33e-04), rate_u0={rate0:.2f}, "
                 f"rate_ub={rateb:.2f}, runtime={elapsed:.1f}s")


def test_criterion_2_tri_polynomial_reference():
    # triangular, [P1]^2 / [P1]^2 / Qb: displacement rates >= 1.9 at all
    # levels 1/16..1/64 and the 1/64 error within 20% of 7.66e-5
    rep = run_convergence(RunConfig(mesh="tri", levels=(8, 16, 32, 64),
                                    interior="p1", boundary="p1", rb="qb",
                                    gamma=-1.0, lam=1.0, example=1))
    err = rep.errors["u0_l2"][-1]
    tail_rates = rep.rate_columns["u0_l2"][1:]
    ok = (all(r >= 1.9 for r in tail_rates)
          and abs(err - 7.66e-5) <= 0.20 * 7.66e-5)
    assert _emit("criterion 2", ok,
                 f"err(1/64)={err:.3e} (ref 7.66e-05), "
                 f"rates(1/16..1/64)={[f'{r:.2f}' for r in tail_rates]}")


def test_criterion_3_divergence_reproduction():
    # triangular, [P1]^2 / [P0]^2 / Qb stagnates (rate at 1/64 <= 0.3) and
    # the admissibility check reports the rigid-motion failure
    rep = run_convergence(RunConfig(mesh="tri", levels=(8, 16, 32, 64),
                                    interior="p1", boundary="p0", rb="qb",
                                    gamma=-1.0, lam=1.0, example=1))
    rate = rep.rate_columns["u0_l2"][-1]
    rm_chk, inj_chk = check_assumptions(RunConfig(mesh="tri", levels=(8,),
                                                  boundary="p0", rb="qb"))
    ok = rate <= 0.3 and not rm_chk.passed and inj_chk.passed
    assert _emit("criterion 3", ok,
                 f"rate(1/64)={rate:.2f} (ref 0.01), rigid-motion check "
                 f"{'FAIL' if not rm_chk.passed else 'PASS'} as required")


def test_criterion_4_locking_free_identity_rb():
    # triangular, [P1]^2 / [P0]^2 / identity, gamma=0, example 2: first-order
    # rates at 1/64 for lam in {1, 1e6} and errors within a factor 2
    errs, rates_ = {}, {}
    for lam in (1.0, 1e6):
        rep = run_convergence(RunConfig(mesh="tri", levels=(32, 64),
                                        interior="p1", boundary="p0", rb="id",
                                        gamma=0.0, lam=lam, example=2))
        errs[lam] = rep.errors["u0_l2"][-1]
        rates_[lam] = rep.rate_columns["u0_l2"][-1]
    ratio = max(errs[1.0], errs[1e6]) / min(errs[1.0], errs[1e6])
    ok = all(0.85 <= rates_[lam] <= 1.1 for lam in (1.0, 1e6)) and ratio < 2.0
    assert _emit("criterion 4", ok,
                 f"err(1/64) lam=1: {errs[1.0]:.3e} (ref 3.65e-03), "
                 f"lam=1e6: {errs[1e6]:.3e} (ref 2.73e-03), ratio={ratio:.2f}, "
                 f"rates={rates_[1.0]:.2f}/{rates_[1e6]:.2f}")


def test_criterion_5_random_space_rates():
    # rectangular sin and sigmoid spaces, [P0]^2 / Qb, gamma=-1: median
    # displacement rate at 1/64 over 5 seeds within [1.85, 2.1]; exact
    # error values are seed-dependent by design
    medians = {}
    for interior in ("sin", "sigmoid"):
        rates_ = []
        for seed in range(5):
            rep = run_convergence(RunConfig(mesh="rect", levels=(32, 64),
                                            interior=interior, boundary="p0",
                                            rb="qb", gamma=-1.0, seed=seed))
            rates_.append(rep.rate_columns["u0_l2"][-1])
        medians[interior] = statistics.median(rates_)
    ok = all(1.85 <= medians[k] <= 2.1 for k in medians)
    assert _emit("criterion 5", ok,
                 f"median rate(1/64) over 5 seeds: sin={medians['sin']:.3f}, "
                 f"sigmoid={medians['sigmoid']:.3f}")


class TestCriterion6Properties:
    """Property suite; every sub-check prints under the same criterion id."""

    def test_moment_residuals_and_closed_form(self):
        worst_mom = 0.0
        worst_cf = 0.0
        rng = np.random.default_rng(0)
        for build, interior in ((build_rectangular, "sin"),
                                (build_triangular, "p1")):
            mesh = build(3)
            spaces = make_spaces(mesh, interior, "p1", seed=5)
            for rb in (QB, ID):
                kern = kernel(mesh, spaces, rb)
                vloc = rng.normal(size=(mesh.num_elements, kern.ndof))
                r1, r2 = moment_residuals(kern, vloc)
                scale = np.maximum(1, np.abs(vloc).max(axis=1))
                worst_mom = max(worst_mom, (np.abs(r1).max(axis=1) / scale).max(),
                                (np.abs(r2) / scale).max())
                d1c, d2c = corrections_closed_form(kern, mesh)
                worst_cf = max(worst_cf, np.abs(kern.delta1 - d1c).max(),
                               np.abs(kern.delta2 - d2c).max())
        ok = worst_mom < 1e-12 and worst_cf < 1e-12
        assert _emit("criterion 6a", ok,
                     f"moment residual {worst_mom:.2e}, closed-form vs kernel corrections "
                     f"{worst_cf:.2e} (both < 1e-12)")

    def test_rigid_motion_kernel(self):
        rigid = vec_field(lambda x, y: 0.4 - 1.3 * y, lambda x, y: -0.2 + 1.3 * x)
        worst_eps = 0.0
        worst_sn = 0.0
        for build in (build_rectangular, build_triangular):
            mesh = build(3)
            for boundary, rb in (("rm", QB), ("p1", QB), ("rm", ID), ("p1", ID)):
                spaces = make_spaces(mesh, "p1", boundary)
                wf = interpolate(mesh, spaces, rigid)
                kern = kernel(mesh, spaces, rb, [0, mesh.num_elements - 1])
                eps = weak_strain(kern, wf.local_coefficients(mesh, kern.eids))
                worst_eps = max(worst_eps, np.abs(eps).max())
                worst_sn = max(worst_sn, seminorm(wf, mesh, spaces, rb,
                                                  0.5, 1.0, 1.0, -1.0))
        ok = worst_eps < 1e-12 and worst_sn < 1e-12
        assert _emit("criterion 6b", ok,
                     f"max |eps_g(rigid motion)| {worst_eps:.2e}, "
                     f"max seminorm {worst_sn:.2e} (both < 1e-12)")

    def test_symmetry_and_spd_on_admissible_configs(self):
        case = manufactured("example1", 0.5, 1.0)
        combos = [
            (build_triangular, "p1", "p1", QB, -1.0, 1.0),
            (build_triangular, "p1", "rm", QB, -1.0, 1.0),
            (build_triangular, "sin", "rm", QB, -1.0, 1.0),
            (build_triangular, "sigmoid", "rm", QB, -1.0, 1.0),
            (build_rectangular, "p1", "rm", QB, -1.0, 1.0),
            (build_triangular, "p1", "p0", ID, 0.0, 1.0),
            (build_triangular, "p1", "p0", ID, 0.0, 1e6),
            (build_triangular, "sin", "p0", ID, 0.0, 1e6),
            (build_triangular, "sigmoid", "p0", ID, 0.0, 1.0),
            (build_rectangular, "lrelu:1.0", "p0", QB, -1.0, 1.0),
        ]
        worst_asym = 0.0
        all_spd = True
        for build, interior, boundary, rb, gamma, lam in combos:
            mesh = build(4)
            spaces = make_spaces(mesh, interior, boundary, seed=1)
            system = assemble(mesh, spaces, rb, 0.5, lam, 1.0, gamma,
                              case.f, case.g)
            A = system.matrix
            worst_asym = max(worst_asym, abs(A - A.T).max() / abs(A).max())
            rep = solver.solve_system(system)
            all_spd = all_spd and rep.spd_certified and rep.relative_residual <= 1e-12
        ok = worst_asym < 1e-12 and all_spd
        assert _emit("criterion 6c", ok,
                     f"max relative asymmetry {worst_asym:.2e} (< 1e-12), "
                     f"SPD certified on {len(combos)} admissible configs")

    def test_operator_identities_on_random_elements(self):
        case = manufactured("example1", 0.5, 1.0)
        rng = np.random.default_rng(3)
        worst = 0.0
        checked = 0
        for build, interior, rb in ((build_rectangular, "p1", QB),
                                    (build_triangular, "sin", QB),
                                    (build_rectangular, "sigmoid", ID),
                                    (build_triangular, "p1", ID)):
            mesh = build(4)
            spaces = make_spaces(mesh, interior, "p0", seed=9, quad=10)
            eids = rng.choice(mesh.num_elements, size=5, replace=False)
            r_eps, r_div = operator_identity_residuals(
                mesh, spaces, rb, case.u, case.grad_u, eids)
            worst = max(worst, r_eps, r_div)
            checked += len(eids)
        ok = worst < 1e-10
        assert _emit("criterion 6d", ok,
                     f"operator identity residuals on {checked} random "
                     f"elements: max {worst:.2e} (< 1e-10)")

    def test_manufactured_force_oracle(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0.02, 0.98, size=(100, 2))
        worst_rel = 0.0
        ok = True
        for case_id in ("example1", "example2"):
            for lam in (1.0, 1e6):
                case = manufactured(case_id, 0.5, lam)
                resid = np.abs(case.f(pts)
                               + divergence_of_stress_fd(case, pts)).max()
                # 1e-6 absolute at lam=1; scales with the O(lam) stress
                ok = ok and resid <= 1e-6 * max(1.0, lam)
                worst_rel = max(worst_rel, resid / max(1.0, lam))
        assert _emit("criterion 6e", ok,
                     f"force FD oracle, both examples, lam in {{1, 1e6}}: "
                     f"max scaled residual {worst_rel:.2e}")


def test_criterion_7_exact_linear_reproduction():
    # a global linear field lies in the discrete space (P1 interiors with
    # edge spaces containing its traces); the solver must reproduce it to
    # 1e-9 in all four norms on both mesh kinds
    lin = vec_field(lambda x, y: 0.2 + 1.3 * x - 0.4 * y,
                    lambda x, y: -0.7 + 0.5 * x + 0.9 * y)
    worst = 0.0
    for build in (build_rectangular, build_triangular):
        for rb in (QB, ID):
            mesh = build(4)
            spaces = make_spaces(mesh, "p1", "p1")
            system = assemble(mesh, spaces, rb, 0.5, 1.0, 1.0, -1.0,
                              zero_field, lin)
            wf = extract_solution(system, solver.solve_system(system).x)
            norms = error_norms(mesh, spaces, wf, lin)
            worst = max(worst, norms.u0_l2, norms.ub_l2, norms.u0_inf,
                        norms.ub_inf)
    ok = worst <= 1e-9
    assert _emit("criterion 7", ok,
                 f"linear reproduction, both mesh kinds, both R_b: "
                 f"worst norm {worst:.2e} (<= 1e-9)")
