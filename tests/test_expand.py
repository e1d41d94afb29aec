"""Quadrature certification, projections, parity coefficients,
reconstruction residuals."""

import ast
import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paritywilson
from paritywilson import expand, verify, wilson
from paritywilson.errors import DegenerateFamily, NoConvergence
from paritywilson.expand import (
    auto_cutoff,
    discrete_measure,
    family_values,
    inner_product,
    parity_coefficients,
    parity_target,
    project,
    reconstruction_residual,
    tail_bound,
)
from paritywilson.numcore import BParamPolynomial, RationalPolynomial, poly_eval
from paritywilson.wilson import (
    WilsonFamily,
    family_weight,
    monic_from_recurrence,
    norm_closed_form,
)

CASE_A = WilsonFamily.case_a()
CASE_B_32 = WilsonFamily.case_b(Fraction(3, 2))
TWO_PI = 2.0 * math.pi
LGAMMA = (None, "lgamma")  # the prefix store's key of the log-gamma terms
FAMILIES = [CASE_A] + [WilsonFamily.case_b(Fraction(b)) for b in ("-1/2", "3/2", "73/10")]
# polynomials outside the tables: several nonzero entries in the family basis
MIXED = RationalPolynomial([Fraction(1, 3), -2, Fraction(5, 7), Fraction(-9, 4), 1])
LARGE_DENOMINATORS = RationalPolynomial(
    [Fraction((-1) ** k * (7 ** k + 1), 3 ** k * 11 + 2 * k + 1) for k in range(41)])


@pytest.fixture
def quadrature(monkeypatch):
    """Sets expand's quadrature constants for one test, as in
    ``quadrature(PANEL_ORDER=3)``, with the measure caches emptied before
    and after, so that no measure outlives the constants it was built
    under."""
    def clear():
        expand._build_measure.cache_clear()
        expand._reads.cache_clear()

    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(expand, name, value)
    clear()
    yield patch
    clear()


class TestIntegrate:
    """The tests' oracle (``tests/oracles.py``) and the library's tail bound
    and cutoff choice."""

    def test_exponential_moment(self):
        val, err = oracles.integrate(lambda x: x * np.exp(-TWO_PI * x), auto_cutoff(1),
                                     growth_degree=1)
        want = 1.0 / (4 * math.pi ** 2)
        assert abs(val - want) <= err
        assert abs(val - want) < 1e-12

    def test_error_honesty_on_twenty_closed_forms(self):
        # x^p e^{-2 pi x} and x^p e^{-3 pi x}, p = 0..9: the oracle's bar must
        # dominate the true error on every one
        for lam in (TWO_PI, 3 * math.pi):
            for p in range(10):
                val, err = oracles.integrate(
                    lambda x, p=p, lam=lam: x ** p * np.exp(-lam * x), auto_cutoff(p),
                    growth_degree=p)
                want = math.factorial(p) / lam ** (p + 1)
                assert abs(val - want) <= err, (lam, p)

    def test_complex_integrand(self):
        val, err = oracles.integrate(
            lambda x: (1.0 + 2j) * x * np.exp(-TWO_PI * x), auto_cutoff(1), growth_degree=1)
        want = (1.0 + 2j) / (4 * math.pi ** 2)
        assert abs(val - want) <= err

    def test_oracle_imports_no_library_module(self):
        # an oracle that shared the library's machinery would check nothing
        tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, node.module
                modules.append(node.module)
        assert modules and not [m for m in modules if m.split(".")[0] == "paritywilson"]

    def test_tail_bound_formula(self):
        # exact incomplete-gamma value for p = 2
        lam, x = 2.0, 3.0
        want = math.exp(-lam * x) * (x * x / lam + 2 * x / lam ** 2 + 2 / lam ** 3)
        assert abs(tail_bound(1.0, 2, lam, x) - want) < 1e-14

    def test_no_convergence_cap(self, quadrature):
        quadrature(ABS_TOL=1e-300, PANEL_ORDER=3, MAX_PANELS=20)
        with pytest.raises(NoConvergence):
            discrete_measure(CASE_A, 6)

    def test_no_convergence_message_carries_the_state(self, quadrature):
        quadrature(ABS_TOL=1e-300, MAX_PANELS=20)
        with pytest.raises(NoConvergence) as info:
            discrete_measure(CASE_B_32, 6)
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


def _hardest(family, degree):
    """The measure build's panel-loop integrand, w * sum_k (P_k / scale_k)^2."""
    weight = family_weight(family)

    def f(x):
        with np.errstate(over="ignore", invalid="ignore"):
            values, _ = family_values(family, degree, x * x)
            return weight.evaluate(x) * np.sum(values * values, axis=0)
    return f


class TestPanelLoop:
    @pytest.mark.parametrize("case", ["A", "B(7.3)", "cos"])
    def test_batched_panels_equal_single_panel_rules(self, case):
        # the loop evaluates whole rounds at once; every panel must keep the
        # bits of its own two rules evaluated alone
        if case == "cos":
            f, x_max = lambda x: np.cos(37.0 * x * x) * np.exp(-x), 16.0
            edges = np.linspace(0.0, x_max, 17)
        else:
            family = CASE_A if case == "A" else FAMILIES[3]
            measure = discrete_measure(family, 64)
            f, x_max = _hardest(family, 64), measure.x_max
            edges = expand._graded_edges(x_max)
        panels = expand._adaptive_panels(f, x_max, edges)
        if case != "cos":
            assert len(panels) == measure.panels
        assert len(panels) > len(edges) - 1  # some panels were split
        rules = expand._nodes(expand.PANEL_ORDER), expand._nodes(2 * expand.PANEL_ORDER)
        for err, lo, hi, value in panels:
            coarse, fine = (0.5 * (hi - lo) * np.sum(w * f(0.5 * (hi + lo) + 0.5 * (hi - lo) * x))
                            for x, w in rules)
            assert value == fine and err == abs(fine - coarse), (lo, hi)

    def test_nodes_are_numpys_gauss_legendre_rule(self):
        # the library runs leggauss's algorithm itself, so that no build
        # imports numpy.polynomial; every bit must stay numpy's
        for k in range(3, 130):
            got, want = expand._nodes(k), np.polynomial.legendre.leggauss(k)
            for a, b in zip(got, want):
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), k
                assert not a.flags.writeable, k

    def test_one_integrand_call_per_round(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.cos(37.0 * x * x) * np.exp(-x)

        points = 3 * expand.PANEL_ORDER  # coarse and fine nodes of one panel
        panels = expand._adaptive_panels(f, 16.0, np.linspace(0.0, 16.0, 17))
        splits = len(sizes) - 1
        # the 16 starting panels, then both halves of each split
        assert sizes == [16 * points] + [2 * points] * splits and splits > 0
        assert len(panels) == 16 + splits

    def test_automatic_cutoff_probes_once_per_candidate(self, quadrature):
        quadrature(ABS_TOL=1e-30)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-math.pi * x)  # decays slower than the assumed 2 pi

        x_max = expand._cutoff(f, TWO_PI, 0)
        assert (x_max, sizes) == (25.0, [3, 3, 3])  # 15 and 20 miss ABS_TOL/4
        probes = np.array([k * x_max for k in expand.PROBES])
        c = expand._growth_constant(probes, np.exp(-math.pi * probes), 0, TWO_PI)
        assert 0.0 < tail_bound(c, 0, TWO_PI, x_max) < 0.25e-30

    def test_cached_tail_bound_is_the_uncached_log_sum(self, monkeypatch):
        # to the bit, from a cold log-gamma table in every order
        args = [(c, p, lam, x) for c in (1e-300, 0.5, 3.0, 1e200) for p in (0, 1, 7, 64, 256)
                for lam in (TWO_PI, 3.0) for x in (0.5, 15.0, 101.0)]
        want = {a: oracles.log_tail_bound(*a).hex() for a in args}
        shuffled = list(args)
        np.random.default_rng(0).shuffle(shuffled)
        for order in (args, args[::-1], shuffled):
            monkeypatch.delitem(wilson._PREFIXES, LGAMMA, raising=False)
            expand._tail_logs.cache_clear()
            for a in order:
                assert tail_bound(*a).hex() == want[a], a
        assert expand._tail_logs.cache_info().hits > 0

    def test_concurrent_prefix_table_extensions_keep_every_entry(self, monkeypatch):
        # threads extend the log-gamma table from different lengths at once;
        # whichever tuple is published last, no entry may move
        degrees = [0, 1, 7, 64, 256, 3, 130, 17]
        args = [(0.75, p, TWO_PI, x) for p in degrees for x in (15.0, 101.0)]
        want = {a: oracles.log_tail_bound(*a).hex() for a in args}
        monkeypatch.delitem(wilson._PREFIXES, LGAMMA, raising=False)
        expand._tail_logs.cache_clear()
        start = threading.Barrier(4, timeout=30)

        def interleaved(offset):
            start.wait()
            return [(a, tail_bound(*a).hex()) for a in args[offset::4] + args[::-1]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(interleaved, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for a, value in got:
                assert value == want[a], a
        table = wilson._PREFIXES[LGAMMA]
        assert len(table) > max(degrees)
        assert all(v.hex() == math.lgamma(j + 1).hex() for j, v in enumerate(table))


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

    def test_callable_is_refused(self):
        # inner products are quadratic forms of the measure's Gram; a callable
        # integrand goes through project, and a polynomial in B has no row
        member = monic_from_recurrence(CASE_A, 1)[1]
        symbolic = monic_from_recurrence(WilsonFamily.case_b(), 1)[1]
        for other in (lambda x: np.exp(-x), symbolic):
            for p, q in ((other, member), (member, other)):
                with pytest.raises(TypeError, match="polynomials over Q; project"):
                    inner_product(CASE_A, p, q)


class TestCertification:
    def _rows(self, measure):
        # rows 2 and 3 oscillate too fast for the panels; the others resolve
        x = measure.x
        return np.stack([measure.values[0], measure.values[3], np.cos(40.0 * x),
                         np.cos(30.0 * x), measure.values[2]])

    def test_a_later_row_that_misses_is_named_with_the_count(self):
        measure = discrete_measure(CASE_A, 8)
        with pytest.raises(NoConvergence) as info:
            measure.sums(self._rows(measure), [0, 6, 5, 2, 4], measure.density)
        msg = str(info.value)
        assert msg.startswith("A measure at degree bound 8: row 2 (growth degree 5) misses "
                              "its budget ")
        assert "(2 of 5 rows miss theirs)" in msg
        # every row is certified by its tail too
        assert ", tail " in msg and " against budget/4 " in msg

    @pytest.mark.parametrize("family, n, m, text", [
        (CASE_A, 0, 8,
         "A measure at degree bound 8: row 0 (growth degree 16) misses its budget 5.867e-09, "
         "err 3.328e-09 against budget/2 2.934e-09, tail 6.140e-24 against budget/4 "
         "1.467e-09 (1 of 1 rows miss theirs); 854 panels, x_max 18.9258"),
        (FAMILIES[3], 5, 8,
         "B(7.3) measure at degree bound 8: row 0 (growth degree 26) misses its budget "
         "1.097e-06, err 1.105e-06 against budget/2 5.485e-07, tail 1.886e-16 against "
         "budget/4 2.742e-07 (1 of 1 rows miss theirs); 639 panels, x_max 18.9258"),
    ], ids=["A", "B(7.3)"])
    def test_an_inner_product_that_misses_its_own_budget_is_named(self, family, n, m, text,
                                                                   quadrature):
        # the measure builds on its own integrand at panel order 3, but the
        # cross term, not the measure, misses its budget
        quadrature(PANEL_ORDER=3)
        discrete_measure(family, 8)
        table = monic_from_recurrence(family, 8)
        with pytest.raises(NoConvergence) as info:
            inner_product(family, table[n], table[m])
        assert str(info.value) == text


def _cold_tables():
    """Empty every per-family table of the expansion layer: the basis rows,
    and the float recurrence rows, Pochhammer pairs and norm parts in the
    prefix store."""
    expand._basis_row.cache_clear()
    for key in list(wilson._PREFIXES):
        if key[1] in ("float recurrence", "pochhammer", "norm parts"):
            del wilson._PREFIXES[key]


class TestFamilyTables:
    def test_tables_do_not_depend_on_call_order(self):
        family = FAMILIES[3]  # B(73/10)
        table = monic_from_recurrence(family, 64)
        polys = [table[n] + MIXED for n in (12, 20, 64)] + [LARGE_DENOMINATORS]
        u = np.linspace(-6.0, 40.0, 9) ** 2

        def run(order):
            _cold_tables()
            for n in order:
                expand._recurrence(family, n)
                norm_closed_form(family, n)
            return ([a.tobytes() for n in (12, 64) for a in family_values(family, n, u)],
                    [expand._basis_row(family, p).tobytes() for p in polys],
                    [norm_closed_form(family, n) for n in range(65)])

        low_first = run((12, 20, 64))
        assert run((64, 20, 12)) == low_first
        s = family.s_value()
        refl = math.pi * s / math.sin(math.pi * s)
        for n, norm in enumerate(low_first[2]):
            prod = Fraction(1)
            for j in range(1, n + 1):
                prod *= j * j - 1 - family.b
            f = math.factorial
            want = Fraction(f(n) ** 4, f(2 * n) * f(2 * n + 1)) * prod * prod * refl * refl
            assert norm.hex() == want.hex(), n

    def test_concurrent_interleaved_degrees(self):
        family = FAMILIES[3]  # B(73/10)
        table = monic_from_recurrence(family, 40)

        def build(degrees):
            return [(norm_closed_form(family, n), expand._basis_row(family, table[n] + MIXED)
                     .tobytes()) for n in degrees]

        _cold_tables()
        want = build(range(41))
        _cold_tables()
        start = threading.Barrier(4, timeout=30)

        def interleaved(offset):
            start.wait()
            return build(range(offset, 41, 4))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(interleaved, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for offset, got in enumerate(results):
            assert got == want[offset::4], offset
        # an entry appended twice would shift every later product
        prods = wilson._PREFIXES[(family, "pochhammer")]
        assert len(prods) == 41 and len(wilson._PREFIXES[(family, "norm parts")]) == 41
        assert all(prods[j] == prods[j - 1] * (j * j - 1 - family.b) for j in range(1, 41))

    def test_degenerate_family_raises_whatever_was_asked_before(self):
        degenerate = WilsonFamily.case_b(3)  # s = 2
        one, u = RationalPolynomial([1]), RationalPolynomial([0, 1])
        _cold_tables()
        # below s the recurrence is fine, and the exact products exist for any n
        expand._recurrence(degenerate, 1)
        expand._basis_row(degenerate, u)
        wilson._pochhammer_pairs(degenerate, 8)
        for call in (lambda: norm_closed_form(degenerate, 0),
                     lambda: norm_closed_form(degenerate, 5),
                     lambda: expand._recurrence(degenerate, 2),
                     lambda: inner_product(degenerate, one, u),
                     lambda: project(lambda x: np.exp(-x), degenerate, 3)):
            with pytest.raises(DegenerateFamily, match=r"sqrt\(B\+1\) = 2 is a positive integer"):
                call()

    def test_symbolic_family_and_negative_degree_raise(self):
        symbolic = WilsonFamily.case_b()
        one = RationalPolynomial([1])
        with pytest.raises(ValueError, match="norms need a numeric B"):
            norm_closed_form(symbolic, 3)
        for call in (lambda: expand._recurrence(symbolic, 3),
                     lambda: inner_product(symbolic, one, one)):
            with pytest.raises(ValueError, match="float evaluation needs a numeric B"):
                call()
        for family in (CASE_A, FAMILIES[3]):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                norm_closed_form(family, -1)


class TestProjection:
    def test_basis_element_projects_to_itself(self):
        tab = monic_from_recurrence(CASE_A, 4)
        for n in range(5):
            c = inner_product(CASE_A, tab[2], tab[n])[0] / float(norm_closed_form(CASE_A, n))
            want = 1.0 if n == 2 else 0.0
            assert abs(c - want) <= 1e-8

    def test_basis_element_case_b(self):
        tab = monic_from_recurrence(CASE_B_32, 3)
        for n in range(4):
            c = inner_product(CASE_B_32, tab[1], tab[n])[0] / float(norm_closed_form(CASE_B_32, n))
            want = 1.0 if n == 1 else 0.0
            assert abs(c - want) <= 1e-8

    @pytest.mark.parametrize("poly", [RationalPolynomial([1, 1]), BParamPolynomial([1, 1])],
                             ids=["rational", "symbolic"])
    def test_polynomial_is_refused(self, poly):
        # a polynomial is callable at u, not at the abscissa; it goes through
        # the Gram of inner_product instead
        with pytest.raises(TypeError, match="^project takes a callable; inner_product "
                                            "takes polynomials$"):
            project(poly, CASE_A, 3)

    def test_unknown_case_target_is_refused(self):
        with pytest.raises(ValueError, match="^unknown case 'a': expected 'A' or 'B'$"):
            parity_target("a")

    def test_one_callable_serves_case_a_and_case_b(self):
        # the integrand at a Case B point mass x = i t is the target itself,
        # read at the complex scalar 1j * t; Case A has no masses
        seen = []

        def f(x):
            seen.append(x)
            return np.exp(-x)
        for family in (CASE_A, CASE_B_32):
            seen.clear()
            table = project(f, family, 2)
            assert len(table.entries) == 3
            masses = family_weight(family).point_masses
            assert isinstance(seen[0], np.ndarray)
            assert seen[1:] == [1j * pm.t for pm in masses]
        assert masses  # Case B(3/2) has point masses

    def test_point_masses_read_the_target_at_i_t(self):
        # the sums route against the Gram route: 1 + x^2 is 1 + u, so at a
        # point mass x = i t it is 1 - t^2 (read at x = t it would be 1 + t^2)
        family = FAMILIES[3]
        table = project(lambda x: 1 + x * x, family, 4)
        one_plus_u = RationalPolynomial([1, 1])
        members = monic_from_recurrence(family, 4)
        for n in range(5):
            norm = float(norm_closed_form(family, n))
            val, err = inner_product(family, one_plus_u, members[n])
            assert abs(table.coefficient(n) - val / norm) <= table.error(n) + err / norm, n

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_basis_row_is_cached_read_only_and_exact(self, family):
        table = monic_from_recurrence(family, 64)
        for poly in (MIXED, LARGE_DENOMINATORS, table[0], table[12], table[64]):
            # exact a_k with poly = sum_k a_k P_k, by Horner in the family
            # basis: not the library's peel off the table
            terms = [wilson.standard_recurrence_terms(family, n) for n in range(1, poly.degree + 2)]
            a = oracles.basis_coefficients(poly.coeffs, terms)
            _, scale = family_values(family, poly.degree, np.zeros(1))
            want = np.array([float(c) for c in a]) * scale
            row = expand._basis_row(family, poly)
            assert row.tobytes() == want.tobytes(), poly.degree
            assert not row.flags.writeable
            assert expand._basis_row(family, poly) is row
            n = poly.degree
            if poly is table[n]:  # a member is its own basis vector: scale_n e_n
                assert row.tobytes() == (np.eye(n + 1)[n] * scale).tobytes(), n


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

    @pytest.mark.parametrize("route", ["closed_form", "printed"])
    def test_case_b_reads_the_target_at_the_point_masses_only(self, monkeypatch, route):
        # the closed formula has its own integrand on the nodes: the target
        # enters at the point masses alone, and the printed route drops them
        want = parity_coefficients(CASE_B_32, 6, route=route)
        reads = []

        def at_masses_only(case):
            target = parity_target(case)

            def guarded(x):
                assert not isinstance(x, np.ndarray), "target read on the measure's nodes"
                reads.append(x)
                return target(x)
            return guarded

        monkeypatch.setattr(expand, "parity_target", at_masses_only)
        assert parity_coefficients(CASE_B_32, 6, route=route) == want
        masses = discrete_measure(CASE_B_32, 6).masses
        assert len(masses) == 2
        assert reads == ([1j * pm.t for pm in masses] if route == "closed_form" else [])

    def test_symbolic_b_rejected(self):
        with pytest.raises(ValueError):
            parity_coefficients(WilsonFamily.case_b(), 2)

    def test_coefficient_outside_the_table_is_a_key_error(self):
        table = parity_coefficients(CASE_B_32, 3)
        for n in (-1, 4):
            with pytest.raises(KeyError):
                table.coefficient(n)
            with pytest.raises(KeyError):
                table.error(n)


@pytest.mark.parametrize("family", [CASE_A, CASE_B_32], ids=lambda f: f.label())
@pytest.mark.parametrize("call", [
    lambda fam, n: project(lambda x: np.ones_like(x), fam, n),
    lambda fam, n: parity_coefficients(fam, n),
    lambda fam, n: parity_coefficients(fam, n, route="printed"),
    lambda fam, n: parity_coefficients(fam, n, route="projection"),
    lambda fam, n: reconstruction_residual(fam, n),
], ids=["project", "closed_form", "printed", "projection", "residual"])
@pytest.mark.parametrize("n", [-1, -3])
def test_negative_degree_bound_is_refused(family, call, n):
    with pytest.raises(ValueError, match="must be nonnegative"):
        call(family, n)


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


def _exact_at(poly, u) -> np.ndarray:
    """poly at the float abscissae ``u`` from its exact coefficients, not
    through the recurrence that fills the measure: every float u is a
    binary rational t / 2^s, so Horner runs on the integer numerators with
    all u over one power of two, and each point is rounded once."""
    u = np.asarray(u, dtype=float)
    coeffs = poly.coeffs
    den = math.lcm(*(c.denominator for c in coeffs))
    ratios = [v.as_integer_ratio() for v in u.ravel().tolist()]
    shift = max(d.bit_length() - 1 for _, d in ratios)
    t = np.array([n << (shift - d.bit_length() + 1) for n, d in ratios], dtype=object)
    acc = np.zeros(t.size, dtype=object)
    for i, c in enumerate(reversed(coeffs)):
        acc = acc * t + ((c.numerator * (den // c.denominator)) << (shift * i))
    bottom = den << (shift * max(len(coeffs) - 1, 0))
    return np.array([x / bottom for x in acc], dtype=float).reshape(u.shape)


def _member_at_mass(family, k, mass) -> float:
    """P_k at a Case B point mass as the measure holds it, from the
    library's float recurrence.  At a mass P_k is the recessive solution of
    the recurrence, and against exact values at the same float y the
    recurrence misses the 1e-15 |term| allowance of the mass terms (by up
    to 6x the bar of the B(3/2) coefficients at n = 12, and 8e3x at
    B(73/10)); the oracle sums share these values until the measure's mass
    values are exact."""
    vals, scale = family_values(family, k, np.array(mass.y))
    return scale[k] * vals[k]


def _oracle_member(family, n):
    """x -> P_n(x^2) for the oracle integrands."""
    member = monic_from_recurrence(family, n)[n]
    return lambda x: _exact_at(member, x * x)


class TestFamilyValues:
    @pytest.mark.parametrize("family", [CASE_A, CASE_B_32])
    def test_recurrence_matches_exact_values(self, family):
        n = 20
        table = monic_from_recurrence(family, n)
        us = [Fraction(k, 7) for k in range(0, 120, 9)]
        values, scale = family_values(family, n, np.array([float(u) for u in us]))
        for k in (12, 20):
            for j, u in enumerate(us):
                want = _exact_at(table[k], float(u))
                got = scale[k] * values[k, j]
                assert abs(got - want) <= 1e-12 * max(abs(want), scale[k]), (k, float(u))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_batched_loop_equals_the_per_degree_loop(self, family):
        # every u + beta_n in one call, then the steps in place: the same
        # operations on every entry as one degree at a time, overflow included
        rng = np.random.default_rng(5)
        beta, root, _ = expand._recurrence(family, 128)
        for u in (np.array(2.5), np.array(-0.75), np.empty(0), np.empty((0, 3)),
                  rng.uniform(-4.0, 1e4, (7, 11)), rng.uniform(0.0, 900.0, 144)):
            for n in (0, 1, 2, 16, 64, 128):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, _ = family_values(family, n, u)
                    want = oracles.recurrence_values(beta, root, n, u)
                assert got.shape == want.shape == (n + 1,) + u.shape, (n, u.shape)
                assert got.tobytes() == want.tobytes(), (n, u.shape)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_measure_rows_are_one_fresh_pass(self, family):
        # the measure keeps the value rows and densities its panel loop
        # evaluated, and those of the cutoff's last probe call, which also
        # covers the masses: every entry must be what a fresh pass gives at
        # the same abscissa, a panel's density what its nodes alone give, and
        # a mass read at a 0-d u as the oracle sums read it
        weight, k = family_weight(family), 3 * expand.PANEL_ORDER
        for bound in (8, 16, 32, 64):
            measure = discrete_measure(family, bound)
            values, scale = family_values(family, bound, measure.x ** 2)
            assert measure.values.tobytes() == values.tobytes(), bound
            assert measure.scale.tobytes() == scale.tobytes(), bound
            assert measure.values.flags.c_contiguous and not measure.values.flags.writeable
            assert not measure.scale.flags.writeable, bound
            for p, block in enumerate(measure.x.reshape(-1, k)):  # the probes come last
                density = weight.evaluate(block)
                assert measure.density[p * k:(p + 1) * k].tobytes() == density.tobytes(), bound
            x_max = measure.x_max
            assert measure.x[-k:].tolist() == [0.7 * x_max, 0.85 * x_max] + [x_max] * (k - 2)
            for j, pm in enumerate(measure.masses):
                at_mass, _ = family_values(family, bound, np.array(pm.y))
                assert measure.mass_values[:, j].tobytes() == at_mass.tobytes(), (bound, j)


def _assert_orthogonal(family, n_max):
    """Every inner product of the members n, m <= n_max against the closed
    norms, within the 1e-8 of ``verify.check_orthogonality``."""
    table = monic_from_recurrence(family, n_max)
    norms = [float(norm_closed_form(family, n)) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n, n_max + 1):
            val = float(np.real(inner_product(family, table[n], table[m])[0]))
            if n == m:
                assert abs(val - norms[n]) <= 1e-8 * norms[n], (n, m)
            else:
                assert abs(val) <= 1e-8 * math.sqrt(norms[n] * norms[m]), (n, m)


def _outcome(call):
    """(numpy type, bytes) of each returned scalar, or the raised error."""
    try:
        return [(type(v), np.asarray(v).tobytes()) for v in call()]
    except NoConvergence as exc:
        return str(exc)


def _assert_single_row_route(family, p, q):
    """inner_product equals the oracle's (1, panels) batch route."""
    a, b = expand._basis_row(family, p), expand._basis_row(family, q)
    measure = discrete_measure(family, max(a.size, b.size) - 1)
    want = _outcome(lambda: oracles.inner_product_row(measure, a, b, NoConvergence))
    assert _outcome(lambda: inner_product(family, p, q)) == want, (p, q)


@given(st.sampled_from(FAMILIES), *[st.lists(st.fractions(-100, 100, max_denominator=1000),
                                             max_size=13) for _ in range(2)])
@settings(max_examples=60, deadline=None)
def test_non_member_inner_product_is_the_single_row_route(family, p, q):
    _assert_single_row_route(family, RationalPolynomial(p), RationalPolynomial(q))


class TestDiscreteMeasure:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_orthogonality_to_degree_twenty(self, family):
        _assert_orthogonal(family, 20)

    @pytest.mark.parametrize("family", [CASE_A, FAMILIES[3]], ids=lambda f: f.label())
    def test_orthogonality_to_degree_sixty_four(self, family):
        # the Gram at degree bound 64, where the values near the cutoff are
        # large enough that a product of two of them, taken before the
        # density, overflows; an overflow warning is an error in this suite
        _assert_orthogonal(family, 64)

    def test_gram_is_built_on_the_first_inner_product_only(self):
        expand._build_measure.cache_clear()
        project(lambda x: 1.0 + x * x, CASE_B_32, 12)
        parity_coefficients(CASE_B_32, 12)
        parity_coefficients(CASE_B_32, 12, route="projection")
        reconstruction_residual(CASE_B_32, 12)
        measure = discrete_measure(CASE_B_32, 12)
        assert "_gram" not in vars(measure)
        table = monic_from_recurrence(CASE_B_32, 12)
        inner_product(CASE_B_32, table[3], table[12])
        gram, absolute = vars(measure)["_gram"]
        assert gram.shape == (2, measure.panels, 17, 17) and absolute.shape == (17, 17)
        inner_product(CASE_B_32, table[0], table[1])
        assert vars(measure)["_gram"][0] is gram

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_non_member_inner_products_agree_with_adaptive_oracle(self, family):
        # several nonzero basis coefficients per factor: the |a|^T A |b|
        # magnitude and the tail probes of a multi-term polynomial
        weight = family_weight(family)
        table = monic_from_recurrence(family, 6)
        powers = [RationalPolynomial([0] * k + [1]) for k in range(7)]
        for i, p in enumerate(powers + [MIXED]):
            for m in (1, 6):
                val, err = inner_product(family, p, table[m])
                degree = 2 * (p.degree + m)
                want, want_err = oracles.integrate(
                    lambda x: weight.evaluate(x) * _exact_at(p, x * x)
                    * _exact_at(table[m], x * x), auto_cutoff(degree), growth_degree=degree)
                for mass in weight.point_masses:
                    want += mass.mass * _exact_at(p, mass.y) * _member_at_mass(family, m, mass)
                assert abs(val - want) <= err + want_err, (i, m)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_inner_product_is_the_single_row_route(self, family):
        # every pair n <= m <= 40, to the bit and the numpy type
        table = monic_from_recurrence(family, 40)
        for n in range(41):
            for m in range(n, 41):
                _assert_single_row_route(family, table[n], table[m])

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_inner_products_agree_with_adaptive_oracle(self, family):
        weight = family_weight(family)
        table = monic_from_recurrence(family, 12)
        for n, m in ((0, 0), (3, 11), (7, 7), (12, 12), (5, 12)):
            val, err = inner_product(family, table[n], table[m])
            pn, pm = _oracle_member(family, n), _oracle_member(family, m)
            degree = 2 * (n + m)
            want, want_err = oracles.integrate(
                lambda x: weight.evaluate(x) * pn(x) * pm(x), auto_cutoff(degree),
                growth_degree=degree)
            for mass in weight.point_masses:
                want += mass.mass * _exact_at(table[n], mass.y) * _exact_at(table[m], mass.y)
            assert abs(val - want) <= err + want_err, (n, m)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_coefficient_routes_agree_with_adaptive_oracle(self, family):
        n_max = 12
        closed = parity_coefficients(family, n_max)
        proj = parity_coefficients(family, n_max, route="projection")
        weight = family_weight(family)
        f_target = parity_target(family.case)
        for n in range(1, n_max + 1):
            k = n - 1 if family.case == "A" else n
            pk = _oracle_member(family, k)
            degree = 2 * k
            num, num_err = oracles.integrate(
                lambda x: weight.evaluate(x) * f_target(x) * pk(x), auto_cutoff(degree),
                growth_degree=degree)
            for mass in weight.point_masses:
                num += mass.mass * f_target(1j * mass.t) * _member_at_mass(family, k, mass)
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
        f_target = parity_target(family.case)
        offset = 1 if family.case == "A" else 0
        coeffs = np.array([(-1) ** n * table.coefficient(n + offset)
                           for n in range(n_trunc + 1)])
        members = monic_from_recurrence(family, n_trunc)
        for N in (0, 8, 16, 24):
            # S_N from the exact members, with its float coefficients taken exactly
            parts = [sum((members[n] * Fraction(float(part(c))) for n, c in
                          enumerate(coeffs[: N + 1])), RationalPolynomial())
                     for part in (np.real, np.imag)]

            def partial(u, parts=parts):
                return _exact_at(parts[0], u) + 1j * _exact_at(parts[1], u)

            def integrand(x, partial=partial):
                return weight.evaluate(x) * np.abs(f_target(x) - partial(x * x)) ** 2
            want, want_err = oracles.integrate(integrand, auto_cutoff(4 * n_trunc),
                                               growth_degree=4 * N)
            for mass in weight.point_masses:
                want += mass.mass * abs(f_target(1j * mass.t) - partial(mass.y)) ** 2
            # the measure's own bar on the squared residual is its budget
            assert abs(res[N] ** 2 - want) <= want_err + 1e-10 * want + 1e-13, N

    def test_unresolved_callable_raises(self):
        # the measure's panels cannot resolve cos(40 x); there is no second path
        f = lambda x: np.cos(40.0 * x)  # noqa: E731
        with pytest.raises(NoConvergence) as info:
            project(f, CASE_A, 0)
        msg = str(info.value)
        assert "row 0 (growth degree 0)" in msg
        assert "misses its budget" in msg and "against budget/2" in msg

    @pytest.mark.parametrize("call", [
        lambda fam: discrete_measure(fam, 6),
        lambda fam: inner_product(fam, *monic_from_recurrence(fam, 2)[1:]),
        lambda fam: project(lambda x: np.exp(-x), fam, 4),
        lambda fam: parity_coefficients(fam, 6),
        lambda fam: parity_coefficients(fam, 6, route="printed"),
        lambda fam: parity_coefficients(fam, 6, route="projection"),
        lambda fam: reconstruction_residual(fam, 6),
    ], ids=["measure", "inner_product", "project", "closed_form", "printed", "projection",
            "residual"])
    def test_unresolvable_measure_raises_in_every_consumer(self, call, quadrature):
        quadrature(MAX_PANELS=5)
        with pytest.raises(NoConvergence, match=r"B\(1\.5\) measure at degree bound 8"):
            call(CASE_B_32)

    def test_measure_past_the_degree_ceiling_fails_fast(self):
        # at bound 128 the value rows overflow near the cutoff; the panel loop
        # must stop at the first non-finite value, not bisect it to max_panels
        with pytest.raises(NoConvergence) as info:
            discrete_measure(CASE_A, 70)
        msg = str(info.value)
        assert "non-finite" in msg and "degree bound 128" in msg

    def test_non_finite_mass_row_is_named(self, monkeypatch):
        # the masses lie outside every panel, so the panel loop never sees
        # their rows; a mass where the recurrence overflows is named
        def with_far_mass(family):
            weight = family_weight(family)
            far = wilson.PointMass(t=1e150, y=-1e300, mass=1.0)
            return dataclasses.replace(weight, point_masses=weight.point_masses + (far,))

        monkeypatch.setattr(expand, "family_weight", with_far_mass)
        expand._build_measure.cache_clear()
        with pytest.raises(NoConvergence, match=r"B\(1\.5\) measure at degree bound 8: "
                                                r"non-finite value row at the point mass "
                                                r"x = 1e\+150i, cutoff "):
            discrete_measure(CASE_B_32, 8)

    def test_non_finite_probe_row_is_named(self, monkeypatch, quadrature):
        # the probe at the cutoff lies past every node: a value row that is
        # non-finite there only is named by its abscissa.  A nan integrand
        # at a probe does not enter the tail's growth constant, so the
        # automatic cutoff stays where it is
        x_max = discrete_measure(CASE_A, 8).x_max

        def poisoned(family, n, u):
            values, scale = family_values(family, n, u)
            values[:, np.asarray(u) == x_max * x_max] = np.nan
            return values, scale

        monkeypatch.setattr(expand, "family_values", poisoned)
        expand._build_measure.cache_clear()
        with pytest.raises(NoConvergence, match=r"^A measure at degree bound 8: non-finite "
                                                r"value row at x = 18\.9258, cutoff 18\.9258$"):
            discrete_measure(CASE_A, 8)

    def test_basis_scale_overflow_is_named(self):
        # sqrt(gamma_2 ... gamma_{k+1}) leaves the float range at k = 115 in
        # Case A; a polynomial past it is refused before the measure is asked
        # for, without an overflow warning (errors under the suite's filter)
        p = monic_from_recurrence(CASE_A, 120)[120]
        with pytest.raises(NoConvergence, match="degree 120: the basis scale overflows "
                                                "at degree 115"):
            inner_product(CASE_A, p, RationalPolynomial([1]))
        with pytest.raises(NoConvergence, match="overflows at degree 115"):
            inner_product(CASE_A, RationalPolynomial([1]), p)

    def test_there_is_one_quadrature_configuration(self):
        # the four module constants are the only settings
        for module in (paritywilson, expand):
            assert not hasattr(module, "QuadratureConfig"), module.__name__

    def test_library_never_calls_the_oracle(self, monkeypatch):
        # the oracle lives in the tests only; with it disabled the extended
        # verdict is unchanged, so no row at the extended caps misses its
        # budget either
        def disabled(*args, **kwargs):
            raise AssertionError("the library called the tests' oracle")

        assert not hasattr(paritywilson, "integrate_semiinfinite")
        assert not hasattr(expand, "integrate_semiinfinite")
        monkeypatch.setattr(oracles, "integrate", disabled)
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
