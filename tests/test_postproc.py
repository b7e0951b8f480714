import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import divergence_of_stress_fd, make_spaces, vec_field
from gwgfem.assembly import interpolate
from gwgfem.mesh import build_rectangular, build_triangular
from gwgfem.postproc import (
    ConvergenceReport,
    NORM_KEYS,
    emit,
    error_norms,
    manufactured,
    rates,
)
from gwgfem.weakops import EdgeRule, WeakFunction


class TestManufactured:
    def test_example1_point_values(self):
        case = manufactured("example1", 0.5, 1.0)
        origin = np.array([[0.0, 0.0]])
        assert np.allclose(case.u(origin), [[0.0, 1.0]])
        # f = ((3 mu + lam) sin x sin y, -(mu + lam) cos x cos y)
        assert np.allclose(case.f(origin), [[0.0, -1.5]])
        quarter = np.array([[np.pi / 2, np.pi / 2]])
        assert np.allclose(case.f(quarter), [[2.5, 0.0]], atol=1e-12)

    def test_example2_point_values(self):
        case = manufactured("example2", 0.5, 1.0)
        origin = np.array([[0.0, 0.0]])
        assert np.allclose(case.u(origin), [[0.0, 1.0]])

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            manufactured("example3", 0.5, 1.0)
        with pytest.raises(ValueError):
            manufactured("example1", 0.5, -1.0)

    @pytest.mark.parametrize("case_id", ["example1", "example2"])
    @pytest.mark.parametrize("lam", [1.0, 1e6])
    def test_force_against_fd_oracle(self, case_id, lam):
        # tolerance is 1e-6 absolute at lam = 1; for O(lam) stress fields
        # the finite-difference error scales with lam, hence the factor
        case = manufactured(case_id, 0.5, lam)
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.02, 0.98, size=(100, 2))
        resid = np.abs(case.f(pts) + divergence_of_stress_fd(case, pts)).max()
        assert resid <= 1e-6 * max(1.0, lam)

    def test_example2_force_is_lambda_independent(self):
        pts = np.random.default_rng(1).uniform(0, 1, (20, 2))
        f1 = manufactured("example2", 0.5, 1.0).f(pts)
        f2 = manufactured("example2", 0.5, 1e6).f(pts)
        assert np.allclose(f1, f2, atol=1e-14)


class TestErrorNorms:
    def test_interpolant_of_member_is_exact(self):
        lin = vec_field(lambda x, y: 1.0 + 2.0 * x - y, lambda x, y: x + 0.5 * y)
        for build in (build_rectangular, build_triangular):
            mesh = build(2)
            spaces = make_spaces(mesh, "p1", "p1")
            wf = interpolate(mesh, spaces, lin)
            norms = error_norms(mesh, spaces, wf, lin)
            for key in NORM_KEYS:
                assert getattr(norms, key) < 1e-13

    def test_constant_offset_has_unit_measure_norm(self):
        # u0 = u + (c, 0) exactly on every element; the domain has area 1,
        # so the L2 error equals |c| (u linear, hence representable)
        mesh = build_rectangular(3)
        spaces = make_spaces(mesh, "p1", "p0")
        u = vec_field(lambda x, y: 0.4 * x - 0.2 * y, lambda x, y: x + y)
        wf = interpolate(mesh, spaces, u)
        c = 0.37
        wf.interior[:, 0] += c  # shift the (1,0) constant coefficient
        norms = error_norms(mesh, spaces, wf, u)
        assert norms.u0_l2 == pytest.approx(c, rel=1e-10)
        assert norms.u0_inf == pytest.approx(c, rel=1e-10)

    def test_single_square_hand_value(self):
        # u0 = 0 against u = (x, 0): integral of x^2 over the unit square
        mesh = build_rectangular(1)
        spaces = make_spaces(mesh, "p1", "p0")
        wf = WeakFunction.zeros(mesh, spaces)
        xf = vec_field(lambda x, y: x, lambda x, y: 0 * x)
        norms = error_norms(mesh, spaces, wf, xf)
        assert norms.u0_l2 == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)

    def test_rm_norms_never_build_the_coefficient_map(self, monkeypatch):
        # the edge norms read the every-edge rule's points, weights and basis;
        # rm's projection map, one block per edge, is built on first use only
        mesh = build_triangular(4)
        spaces = make_spaces(mesh, "p1", "rm")
        u = vec_field(lambda x, y: 0.3 - 0.5 * y, lambda x, y: 0.5 * x)  # a rigid motion
        wf = interpolate(mesh, spaces, u)

        def unbuilt(rule):
            raise AssertionError("error_norms built the edge rule's coeff_map")
        monkeypatch.setattr(EdgeRule, "coeff_map", property(unbuilt))
        norms = error_norms(mesh, spaces, wf, u)
        assert norms.ub_l2 < 1e-13 and norms.ub_inf < 1e-13

    @given(t=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_l2_homogeneity(self, t):
        mesh = build_rectangular(2)
        spaces = make_spaces(mesh, "p1", "p0")
        u = vec_field(lambda x, y: np.sin(x + y), lambda x, y: np.cos(x - y))
        wf = interpolate(mesh, spaces, u)
        base = error_norms(mesh, spaces, wf, u)
        scaled_u = lambda pts: (1.0 + t) * u(pts)
        wf_scaled = WeakFunction(interior=(1.0 + t) * wf.interior,
                                 boundary=(1.0 + t) * wf.boundary)
        scaled = error_norms(mesh, spaces, wf_scaled, scaled_u)
        assert scaled.u0_l2 == pytest.approx((1.0 + t) * base.u0_l2, rel=1e-9)
        assert scaled.ub_l2 == pytest.approx((1.0 + t) * base.ub_l2, rel=1e-9)


class TestRates:
    def test_published_pair(self):
        # errors 4.86e-3 at 1/8 and 1.22e-3 at 1/16 give rate 1.99
        out = rates([4.86e-3, 1.22e-3], [8, 16])
        assert out[0] is None
        assert out[1] == pytest.approx(1.99, abs=5e-3)

    def test_equal_errors_rate_zero(self):
        assert rates([0.5, 0.5], [4, 8])[1] == pytest.approx(0.0)

    def test_factor_eight_rate_three(self):
        assert rates([8.0, 1.0], [4, 8])[1] == pytest.approx(3.0)

    def test_undefined_without_halving(self):
        assert rates([1.0, 0.5], [8, 24])[1] is None

    def test_undefined_on_zero_error(self):
        assert rates([0.0, 0.5], [4, 8])[1] is None


class TestReportEmission:
    def _report(self, nlevels):
        levels = [8 * 2 ** k for k in range(nlevels)]
        errors = {k: [10.0 ** -(i + j) for i in range(nlevels)]
                  for j, k in enumerate(NORM_KEYS)}
        return ConvergenceReport.from_errors(levels, errors)

    def test_empty_report_header_only(self):
        rep = ConvergenceReport.from_errors([], {k: [] for k in NORM_KEYS})
        text = emit(rep, "csv")
        assert text.strip() == ("level,h,err_u0_l2,rate_u0_l2,err_ub_l2,"
                                "rate_ub_l2,err_u0_inf,rate_u0_inf,"
                                "err_ub_inf,rate_ub_inf")

    def test_single_level_blank_rates(self):
        text = emit(self._report(1), "csv")
        row = text.strip().split("\n")[1]
        assert row == "8,0.125,1.00e+00,,1.00e-01,,1.00e-02,,1.00e-03,"

    def test_two_levels_populate_rates(self):
        text = emit(self._report(2), "csv")
        rows = text.strip().split("\n")
        assert rows[2].split(",")[3] == "3.32"  # log2(10)
        assert rows[1].split(",")[3] == ""

    def test_seeded_first_rate(self):
        errors = {k: [1.0, 0.25] for k in NORM_KEYS}
        seed = {k: 4.0 for k in NORM_KEYS}
        rep = ConvergenceReport.from_errors([8, 16], errors, seed)
        assert rep.rate_columns["u0_l2"][0] == pytest.approx(2.0)

    def test_table_format_mirrors_layout(self):
        text = emit(self._report(2), "table")
        lines = text.strip().split("\n")
        assert lines[0].split()[:3] == ["h", "err_u0_L2", "rate"]
        assert lines[1].split()[0] == "1/8"
        assert lines[2].split()[0] == "1/16"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(self._report(1), "json")

    def test_formatting_three_significant_digits(self):
        errors = {k: [1.23456e-4] for k in NORM_KEYS}
        rep = ConvergenceReport.from_errors([64], errors)
        assert "1.23e-04" in emit(rep, "csv")
