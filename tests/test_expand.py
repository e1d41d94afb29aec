"""Quadrature certification, projections, parity coefficients,
reconstruction residuals."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from paritywilson import expand, verify
from paritywilson.errors import NoConvergence
from paritywilson.expand import (
    QuadratureConfig,
    auto_cutoff,
    discrete_measure,
    family_values,
    inner_product,
    integrate_semiinfinite,
    parity_coefficients,
    parity_target,
    project,
    reconstruction_residual,
    stieltjes_monic_table,
    tail_bound,
)
from paritywilson.numcore import RationalPolynomial, poly_eval
from paritywilson.wilson import (
    WilsonFamily,
    family_weight,
    monic_from_recurrence,
    norm_closed_form,
)

CASE_A = WilsonFamily.case_a()
CASE_B_32 = WilsonFamily.case_b(Fraction(3, 2))
TWO_PI = 2.0 * math.pi
FAMILIES = [CASE_A] + [WilsonFamily.case_b(Fraction(b)) for b in ("-1/2", "3/2", "73/10")]


class TestIntegrate:
    def test_exponential_moment(self):
        val, err = integrate_semiinfinite(lambda x: x * np.exp(-TWO_PI * x),
                                          growth_degree=1)
        want = 1.0 / (4 * math.pi ** 2)
        assert abs(val - want) <= err
        assert abs(val - want) < 1e-12

    def test_error_honesty_on_twenty_closed_forms(self):
        # x^p e^{-2 pi x} and x^p e^{-3 pi x}, p = 0..9: reported error must
        # dominate the true error on every one
        for lam in (TWO_PI, 3 * math.pi):
            for p in range(10):
                val, err = integrate_semiinfinite(
                    lambda x, p=p, lam=lam: x ** p * np.exp(-lam * x),
                    growth_degree=p)
                want = math.factorial(p) / lam ** (p + 1)
                assert abs(val - want) <= err, (lam, p)

    def test_complex_integrand(self):
        val, err = integrate_semiinfinite(
            lambda x: (1.0 + 2j) * x * np.exp(-TWO_PI * x), growth_degree=1)
        want = (1.0 + 2j) / (4 * math.pi ** 2)
        assert abs(val - want) <= err

    def test_tail_bound_formula(self):
        # exact incomplete-gamma value for p = 2
        lam, x = 2.0, 3.0
        want = math.exp(-lam * x) * (x * x / lam + 2 * x / lam ** 2 + 2 / lam ** 3)
        assert abs(tail_bound(1.0, 2, lam, x) - want) < 1e-14

    def test_explicit_cutoff_respected(self):
        cfg = QuadratureConfig(x_max=20.0)
        val, err = integrate_semiinfinite(lambda x: np.exp(-TWO_PI * x), cfg)
        assert abs(val - 1.0 / TWO_PI) <= err

    def test_no_convergence_cap(self):
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, panel_order=3,
                               max_panels=20, x_max=16.0)
        with pytest.raises(NoConvergence):
            integrate_semiinfinite(
                lambda x: np.cos(37.0 * x * x) * np.exp(-x) * 1e6, cfg)

    def test_no_convergence_message_carries_the_state(self):
        cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_panels=20, x_max=16.0)
        with pytest.raises(NoConvergence) as info:
            integrate_semiinfinite(lambda x: np.cos(37.0 * x * x) * np.exp(-x) * 1e6, cfg)
        msg = str(info.value)
        assert "exceeded 20 panels" in msg
        assert "err_sum" in msg and "budget" in msg
        assert "worst panel [" in msg

    def test_tail_bound_survives_high_degree(self):
        # 101^256 overflows a float; the bound itself is representable
        tail = tail_bound(1e-300, 256, TWO_PI, 101.0)
        want = 1e-300 * mpmath.gammainc(257, TWO_PI * 101.0) / mpmath.mpf(TWO_PI) ** 257
        assert tail == pytest.approx(float(want), rel=1e-12)

    def test_auto_cutoff_grows_with_degree(self):
        assert auto_cutoff(0) == 15.0
        assert auto_cutoff(10) == 15.0  # floor dominates through degree ~17
        assert auto_cutoff(48) > auto_cutoff(30) > 15.0


class TestInnerProduct:
    def test_case_a_norms(self):
        tab = monic_from_recurrence(CASE_A, 2)
        val, err = inner_product(CASE_A, tab[0], tab[0])
        assert abs(float(np.real(val)) - 2.0 / 3.0) <= 1e-8 * (2.0 / 3.0)
        cross, _ = inner_product(CASE_A, tab[0], tab[1])
        assert abs(float(np.real(cross))) <= 1e-8

    def test_case_b_full_measure_norm(self):
        tab = monic_from_recurrence(CASE_B_32, 1)
        val, err = inner_product(CASE_B_32, tab[1], tab[1])
        want = float(norm_closed_form(CASE_B_32, 1))
        assert abs(float(np.real(val)) - want) <= 1e-8 * want

    def test_callable_needs_mass_continuation(self):
        tab = monic_from_recurrence(CASE_B_32, 1)
        with pytest.raises(ValueError, match="continuation"):
            inner_product(CASE_B_32, lambda x: np.exp(-x), tab[0])
        inner_product(CASE_B_32, lambda x: np.exp(-x), tab[0],
                      p_at_masses=lambda t: complex(np.exp(-1j * t)))
        inner_product(CASE_A, lambda x: np.exp(-x), tab[0])  # Case A has no masses


class TestProjection:
    def test_basis_element_projects_to_itself(self):
        tab = monic_from_recurrence(CASE_A, 4)
        table = project(tab[2], CASE_A, 4)
        for n, c, _ in table.entries:
            want = 1.0 if n == 2 else 0.0
            assert abs(c - want) <= 1e-8

    def test_basis_element_case_b(self):
        tab = monic_from_recurrence(CASE_B_32, 3)
        table = project(tab[1], CASE_B_32, 3)
        for n, c, _ in table.entries:
            want = 1.0 if n == 1 else 0.0
            assert abs(c - want) <= 1e-8


class TestParityCoefficients:
    def test_c0_exact(self):
        table = parity_coefficients(CASE_A, 2)
        assert table.coefficient(0) == -1j
        assert table.error(0) == 0.0

    def test_dual_route_agreement(self):
        for family in (CASE_A, CASE_B_32):
            closed = parity_coefficients(family, 6)
            generic = parity_coefficients(family, 6, route="projection")
            for n in range(7):
                d = abs(closed.coefficient(n) - generic.coefficient(n))
                assert d <= 2 * (closed.error(n) + generic.error(n)) + 1e-13, (family.case, n)

    def test_printed_constants_detector_case_a(self):
        closed = parity_coefficients(CASE_A, 4)
        printed = parity_coefficients(CASE_A, 4, route="printed")
        assert printed.coefficient(1) == pytest.approx(closed.coefficient(1), rel=1e-10)
        for n in range(2, 5):
            ratio = printed.coefficient(n) / closed.coefficient(n)
            want = 2 * math.factorial(2 * n) / math.factorial(n + 1) ** 2
            assert ratio == pytest.approx(want, rel=1e-9)

    def test_printed_detector_case_b_misses_point_masses(self):
        closed = parity_coefficients(CASE_B_32, 3)
        printed = parity_coefficients(CASE_B_32, 3, route="printed")
        weight = family_weight(CASE_B_32)
        polys = monic_from_recurrence(CASE_B_32, 3)
        for n in range(4):
            missing = sum(pm.mass * complex(np.exp(-1j * np.pi * pm.t))
                          * float(poly_eval(polys[n], pm.y))
                          for pm in weight.point_masses)
            missing *= (-1) ** n / float(norm_closed_form(CASE_B_32, n))
            delta = closed.coefficient(n) - printed.coefficient(n)
            assert abs(delta - missing) <= 1e-10 * max(1.0, abs(missing))

    def test_symbolic_b_rejected(self):
        with pytest.raises(ValueError):
            parity_coefficients(WilsonFamily.case_b(), 2)


class TestReconstruction:
    def test_case_a_residuals_match_frozen_oracle(self):
        # frozen from a 50-digit evaluation with exact polynomials and norms
        res = reconstruction_residual(CASE_A, 12)
        assert res[0] == pytest.approx(0.820029, abs=2e-6)
        assert res[12] == pytest.approx(0.203557, abs=2e-6)

    def test_case_b_residuals_match_frozen_oracle(self):
        res = reconstruction_residual(CASE_B_32, 12)
        assert res[0] == pytest.approx(3.038876, abs=2e-5)
        assert res[12] == pytest.approx(0.330211, abs=2e-5)

    @pytest.mark.parametrize("family", [CASE_A, CASE_B_32])
    def test_nonincreasing(self, family):
        res = reconstruction_residual(family, 8)
        for a, b in zip(res, res[1:]):
            assert b <= a * (1 + 1e-8) + 1e-10

    def test_first_truncation_strictly_positive(self):
        res = reconstruction_residual(CASE_A, 0)
        assert res[0] > 0.1

    def test_parseval_consistency(self):
        # dropping the last term restores the previous residual:
        # r_{N-1}^2 - r_N^2 = |c|^2 * norm within quadrature error
        table = parity_coefficients(CASE_A, 7)
        res = reconstruction_residual(CASE_A, 6, table=table)
        for n in range(1, 7):
            gap = res[n - 1] ** 2 - res[n] ** 2
            want = abs(table.coefficient(n + 1)) ** 2 * float(norm_closed_form(CASE_A, n))
            assert gap == pytest.approx(want, rel=1e-6, abs=1e-10)


def _exact_value(poly, u: Fraction) -> float:
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * u + c
    return float(acc)


def _oracle_member(family, n):
    """x -> P_n(x^2) for the adaptive oracle integrands."""
    def pn(x):
        values, scale = family_values(family, n, x * x)
        return scale[n] * values[n]
    return pn


class TestFamilyValues:
    @pytest.mark.parametrize("family", [CASE_A, CASE_B_32])
    def test_recurrence_matches_exact_values(self, family):
        n = 20
        table = monic_from_recurrence(family, n)
        us = [Fraction(k, 7) for k in range(0, 120, 9)]
        values, scale = family_values(family, n, np.array([float(u) for u in us]))
        for k in (12, 20):
            for j, u in enumerate(us):
                want = _exact_value(table[k], u)
                got = scale[k] * values[k, j]
                assert abs(got - want) <= 1e-12 * max(abs(want), scale[k]), (k, float(u))


class TestDiscreteMeasure:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_orthogonality_to_degree_twenty(self, family):
        n_max = 20
        table = monic_from_recurrence(family, n_max)
        norms = [float(norm_closed_form(family, n)) for n in range(n_max + 1)]
        for n in range(n_max + 1):
            for m in range(n, n_max + 1):
                val = float(np.real(inner_product(family, table[n], table[m])[0]))
                if n == m:
                    assert abs(val - norms[n]) <= 1e-8 * norms[n], (n, m)
                else:
                    assert abs(val) <= 1e-8 * math.sqrt(norms[n] * norms[m]), (n, m)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_inner_products_agree_with_adaptive_oracle(self, family):
        weight = family_weight(family)
        table = monic_from_recurrence(family, 12)
        for n, m in ((0, 0), (3, 11), (7, 7), (12, 12), (5, 12)):
            val, err = inner_product(family, table[n], table[m])
            pn, pm = _oracle_member(family, n), _oracle_member(family, m)
            degree = 2 * (n + m)
            want, want_err = integrate_semiinfinite(
                lambda x: weight.evaluate(x) * pn(x) * pm(x),
                QuadratureConfig(x_max=auto_cutoff(degree)), growth_degree=degree)
            for mass in weight.point_masses:
                u = np.array(mass.y)
                vals, scale = family_values(family, max(n, m), u)
                want += mass.mass * scale[n] * vals[n] * scale[m] * vals[m]
            assert abs(val - want) <= err + want_err, (n, m)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_coefficient_routes_agree_with_adaptive_oracle(self, family):
        n_max = 12
        closed = parity_coefficients(family, n_max)
        proj = parity_coefficients(family, n_max, route="projection")
        weight = family_weight(family)
        f_target, f_masses = parity_target(family.case)
        for n in range(1, n_max + 1):
            k = n - 1 if family.case == "A" else n
            pk = _oracle_member(family, k)
            degree = 2 * k
            num, num_err = integrate_semiinfinite(
                lambda x: weight.evaluate(x) * f_target(x) * pk(x),
                QuadratureConfig(x_max=auto_cutoff(degree)), growth_degree=degree)
            for mass in weight.point_masses:
                vals, scale = family_values(family, k, np.array(mass.y))
                num += mass.mass * f_masses(mass.t) * scale[k] * vals[k]
            norm = float(norm_closed_form(family, k))
            want, want_err = (-1) ** k * num / norm, num_err / norm
            for table in (closed, proj):
                assert abs(table.coefficient(n) - want) <= table.error(n) + want_err, \
                    (table.route, n)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_residuals_agree_with_adaptive_oracle(self, family):
        n_trunc = 24
        table = parity_coefficients(family, n_trunc + (1 if family.case == "A" else 0))
        res = reconstruction_residual(family, n_trunc, table=table)
        weight = family_weight(family)
        f_target, f_masses = parity_target(family.case)
        offset = 1 if family.case == "A" else 0
        coeffs = np.array([(-1) ** n * table.coefficient(n + offset)
                           for n in range(n_trunc + 1)])
        for N in (0, 8, 16, 24):
            def integrand(x, N=N):
                values, scale = family_values(family, N, x * x)
                s = (coeffs[: N + 1] * scale) @ values
                return weight.evaluate(x) * np.abs(f_target(x) - s) ** 2
            want, want_err = integrate_semiinfinite(
                integrand, QuadratureConfig(x_max=auto_cutoff(4 * n_trunc)),
                growth_degree=4 * N)
            for mass in weight.point_masses:
                vals, scale = family_values(family, N, np.array(mass.y))
                s = (coeffs[: N + 1] * scale) @ vals
                want += mass.mass * abs(f_masses(mass.t) - s) ** 2
            # the measure's own bar on the squared residual is its budget
            assert abs(res[N] ** 2 - want) <= want_err + 1e-10 * want + 1e-13, N

    def test_unresolved_callable_raises(self):
        # the measure's panels cannot resolve cos(40 x); there is no second path
        f = lambda x: np.cos(40.0 * x)  # noqa: E731
        with pytest.raises(NoConvergence) as info:
            inner_product(CASE_A, f, RationalPolynomial([1]))
        msg = str(info.value)
        assert "row 0 (growth degree 0)" in msg
        assert "misses its budget" in msg and "against budget/2" in msg

    @pytest.mark.parametrize("call", [
        lambda fam, cfg: discrete_measure(fam, 6, cfg),
        lambda fam, cfg: inner_product(fam, *monic_from_recurrence(fam, 2)[1:], cfg),
        lambda fam, cfg: project(monic_from_recurrence(fam, 2)[2], fam, 4, cfg),
        lambda fam, cfg: parity_coefficients(fam, 6, cfg),
        lambda fam, cfg: parity_coefficients(fam, 6, cfg, route="printed"),
        lambda fam, cfg: parity_coefficients(fam, 6, cfg, route="projection"),
        lambda fam, cfg: reconstruction_residual(fam, 6, cfg),
    ], ids=["measure", "inner_product", "project", "closed_form", "printed", "projection",
            "residual"])
    def test_unresolvable_measure_raises_in_every_consumer(self, call):
        with pytest.raises(NoConvergence, match=r"B\(1\.5\) measure at degree bound 8"):
            call(CASE_B_32, QuadratureConfig(max_panels=5))

    def test_measure_past_the_degree_ceiling_fails_fast(self):
        # at bound 128 the value rows overflow near the cutoff; the panel loop
        # must stop at the first non-finite value, not bisect it to max_panels
        with pytest.raises(NoConvergence) as info:
            discrete_measure(CASE_A, 70)
        msg = str(info.value)
        assert "non-finite" in msg and "degree bound 128" in msg

    def test_basis_scale_overflow_is_named(self):
        # sqrt(gamma_2 ... gamma_{k+1}) leaves the float range at k = 115 in
        # Case A; a polynomial past it is refused before the measure is asked
        # for, without an overflow warning (errors under the suite's filter)
        p = monic_from_recurrence(CASE_A, 120)[120]
        with pytest.raises(NoConvergence, match="degree 120: the basis scale overflows "
                                                "at degree 115"):
            inner_product(CASE_A, p, RationalPolynomial([1]))
        with pytest.raises(NoConvergence, match="overflows at degree 115"):
            project(p, CASE_A, 2)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_panel_order_below_three_is_rejected(self, order):
        with pytest.raises(ValueError, match="panel_order must be at least 3"):
            QuadratureConfig(panel_order=order)

    def test_library_never_calls_the_oracle(self, monkeypatch):
        # the adaptive quadrature is the tests' oracle only; with it disabled
        # the extended verdict is unchanged, so no row at the extended caps
        # misses its budget either
        def disabled(*args, **kwargs):
            raise AssertionError("the library called integrate_semiinfinite")

        monkeypatch.setattr(expand, "integrate_semiinfinite", disabled)
        report = verify.run_suites(extended=True)
        assert len(report.results) == 49
        assert {r.check_id for r in report.failed} == set(verify.EXPECTED_FAILURES)

    def test_results_do_not_depend_on_earlier_measures(self):
        def run():
            table = monic_from_recurrence(CASE_B_32, 12)
            return (inner_product(CASE_B_32, table[5], table[12]),
                    parity_coefficients(CASE_B_32, 12).entries,
                    parity_coefficients(CASE_A, 12, route="projection").entries,
                    reconstruction_residual(CASE_A, 12))

        expand._build_measure.cache_clear()
        fresh = run()
        expand._build_measure.cache_clear()
        for family in (CASE_A, CASE_B_32):
            discrete_measure(family, 64)
            parity_coefficients(family, 40)
        assert run() == fresh

    def test_degree_bound_is_a_power_of_two(self):
        assert discrete_measure(CASE_A, 0).degree == 8
        assert discrete_measure(CASE_A, 8).degree == 8
        assert discrete_measure(CASE_A, 9).degree == 16
        assert discrete_measure(CASE_A, 40).degree == 64
        assert discrete_measure(CASE_A, 9) is discrete_measure(CASE_A, 16)
