"""Eigenpairs, residual evaluators, second solutions, eigenvalue scan."""

import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritywilson import wilson
from paritywilson.errors import DomainPole, IllConditioned, LatticePole
from paritywilson.numcore import BParamPolynomial, RationalPolynomial
from paritywilson.spectral import (
    casoratian,
    conjecture_scan,
    default_w_grid,
    eigenfunction,
    eigenvalue,
    g_callable,
    g_polynomial,
    master_residual_polynomial,
    residual_g,
    residual_master,
    second_solution,
)


def fr(s):
    return Fraction(s)


class TestEigenvalue:
    def test_examples(self):
        assert eigenvalue(0) == (1, 0)
        assert eigenvalue(1) == (3, fr("8/3"))
        assert eigenvalue(3) == (7, 16)

    def test_alpha_relation(self):
        for n in range(20):
            ell1, alpha = eigenvalue(n)
            assert ell1 == 2 * n + 1
            assert 3 * alpha == ell1 * ell1 - 1


class TestEigenfunctions:
    def test_case_a_table(self):
        assert eigenfunction("A", 0).poly is None
        assert eigenfunction("A", 0).rational_g
        assert eigenfunction("A", 2).poly == RationalPolynomial([0, 1, 1])
        assert eigenfunction("A", 3).poly == RationalPolynomial([0, fr("12/5"), 4, 1])

    def test_case_a_divisible_by_w(self):
        for n in range(1, 9):
            rec = eigenfunction("A", n)
            assert rec.poly.coefficient(0) == 0
            assert rec.poly.degree == n
            assert rec.poly.leading == 1

    def test_case_b_symbolic_table(self):
        r1 = eigenfunction("B", 1)
        assert r1.poly.coeffs[0] == RationalPolynomial([0, fr("1/2")])
        r2 = eigenfunction("B", 2)
        assert r2.poly.coeffs[0] == RationalPolynomial([0, fr("1/2"), fr("1/6")])
        assert r2.poly.coeffs[1] == RationalPolynomial([1, 1])
        r3 = eigenfunction("B", 3)
        assert r3.poly.coeffs[0] == RationalPolynomial([0, fr("6/5"), fr("19/20"), fr("1/20")])
        assert r3.poly.coeffs[1] == RationalPolynomial([fr("12/5"), fr("22/5"), fr("3/5")])
        assert r3.poly.coeffs[2] == RationalPolynomial([4, fr("3/2")])

    def test_tables_equal_the_composition_route(self, monkeypatch):
        # the route the tables replaced, kept as the oracle: f = g(W + c) by
        # a Taylor shift of g, then B substituted into the symbolic f
        monkeypatch.setattr(wilson, "_PREFIXES", {})
        w = RationalPolynomial([0, 1])
        b_symbol = RationalPolynomial([0, 1])
        for n in range(41):
            symbolic = g_polynomial("B", n).compose(BParamPolynomial([b_symbol + fr("1/4"), 1]))
            assert eigenfunction("B", n).poly == symbolic
            for b in (fr("-1/2"), fr("3/2"), fr("73/10"), 0, 3):
                rec = eigenfunction("B", n, b)
                assert rec.poly == symbolic.substitute_b(b) and rec.b == b
            if n:
                shifted = g_polynomial("A", n).compose(RationalPolynomial([fr("1/4"), 1]))
                assert eigenfunction("A", n).poly == shifted * w

    def test_b_zero_reduces_to_case_a(self):
        for n in range(7):
            a = eigenfunction("A", n)
            b0 = eigenfunction("B", n, 0)
            want = a.poly if a.poly is not None else RationalPolynomial([1])
            assert b0.poly == want

    def test_prefactor_domain(self):
        f = eigenfunction("A", 1).as_callable()
        with pytest.raises(DomainPole):
            f(-1.0)


class TestResidualZ:
    def test_exact_zero_on_eigenpair(self):
        g2 = g_polynomial("A", 2)
        assert g2 == RationalPolynomial([fr("3/4"), 1])
        assert residual_g("A", g_callable("A", 2), 5, fr(2)) == 0

    def test_perturbed_eigenvalue_detected(self):
        assert abs(residual_g("A", g_callable("A", 2), 5 + 1e-3, 2.0)) > 1e-6

    def test_case_b_constant_solution(self):
        val = residual_g("B", g_callable("B", 0, fr("3/2")), 1, 1.7, b=1.5)
        assert abs(val) < 1e-12

    def test_case_b_exact_zeros(self):
        for n in range(6):
            g = g_callable("B", n, fr("3/2"))
            assert residual_g("B", g, 2 * n + 1, fr(3), b=fr("3/2")) == 0

    def test_case_b_z_zero_pole(self):
        with pytest.raises(DomainPole):
            residual_g("B", g_callable("B", 1, fr("1/2")), 3, 0, b=fr("1/2"))

    @pytest.mark.parametrize("case,b", [("A", None), ("B", None), ("B", fr("3/2"))],
                             ids=["case-a", "symbolic", "numeric-b"])
    def test_polynomial_is_refused(self, case, b):
        # a polynomial lives in u = z^2: called at z it would give a wrong
        # value without an error
        with pytest.raises(TypeError, match="^residual_g takes a callable of z; "
                                            "g_callable builds one$"):
            residual_g(case, g_polynomial(case, 2, b), 5, fr(3), b=fr("3/2"))

    def test_unknown_case_is_refused(self):
        # a lowercase tag used to take the Case B branch without an error
        for call in (lambda: g_polynomial("a", 2), lambda: g_callable("a", 2),
                     lambda: eigenfunction("a", 2),
                     lambda: residual_g("a", g_callable("A", 2), 5, fr(2), b=0)):
            with pytest.raises(ValueError, match="^unknown case 'a': expected 'A' or 'B'$"):
                call()

    def test_rational_exception_solves_relation(self):
        g0 = g_callable("A", 0)
        assert residual_g("A", g0, 1, fr(3)) == 0


class TestResidualMaster:
    def test_case_a_eigenpair(self):
        f = eigenfunction("A", 1).as_callable()
        assert abs(residual_master(f, 0.0, 0.0, 3.0, 2.3)) < 1e-12

    def test_case_b_eigenpair(self):
        f = eigenfunction("B", 2, fr("3/2")).as_callable()
        assert abs(residual_master(f, 1.5, 0.0, 5.0, 1.1)) < 1e-12

    def test_perturbed_eigenvalue(self):
        f = eigenfunction("A", 1).as_callable()
        assert abs(residual_master(f, 0.0, 0.0, 3.01, 2.3)) > 1e-6

    def test_domain_poles(self):
        f = eigenfunction("A", 1).as_callable()
        with pytest.raises(DomainPole):
            residual_master(f, 1.0, 0.0, 3.0, -1.0)
        with pytest.raises(DomainPole):
            residual_master(f, 0.0, 0.0, 3.0, -0.5)

    def test_consistency_chain_case_a(self):
        # the master residual factors through the z-space residual after the
        # exact substitutions; compared off-eigenvalue so both sides are O(1)
        for n in range(4):
            g = g_callable("A", n)
            f = eigenfunction("A", n).as_callable()
            ell = 2 * n + 1 + 0.37
            for z in (1.4, 2.6, 5.1):
                w = z * z - 0.25
                lhs = residual_master(f, 0.0, 0.0, ell, w)
                rhs = -np.exp(1j * np.pi * z) * (z * z - 0.25) / (8 * z) \
                    * complex(residual_g("A", g, ell, z))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_consistency_chain_case_b(self):
        b = fr("3/2")
        for n in range(4):
            g = g_callable("B", n, b)
            f = eigenfunction("B", n, b).as_callable()
            ell = 2 * n + 1 + 0.37
            for z in (1.4, 2.6, 5.1):
                w = z * z - float(b) - 0.25
                lhs = residual_master(f, float(b), 0.0, ell, w)
                rhs = np.exp(1j * np.pi * z) * complex(residual_g("B", g, ell, z, b=float(b)))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_branch_guard_grid(self):
        # below W = 3/4 - B the lower shifted argument crosses the branch
        # point and the constructed eigenfunction no longer solves the
        # equation with the principal root; the default grid avoids this
        f = eigenfunction("A", 1).as_callable()
        assert abs(residual_master(f, 0.0, 0.0, 3.0, 0.5)) > 1e-3
        assert min(default_w_grid(0.0)) > 0.75
        assert min(default_w_grid(-0.5)) > 1.25

    def test_floats_only(self):
        f = eigenfunction("A", 1).as_callable()
        for bad in (mp.mpf(2.3), fr("23/10")):
            with pytest.raises(TypeError, match="residual_master works in floats"):
                residual_master(f, 0.0, 0.0, 3.0, bad)
        with pytest.raises(TypeError, match="got mpf"):
            residual_master(f, mp.mpf(0), 0.0, 3.0, 2.3)

    @pytest.mark.parametrize("case,b", [("A", None), ("B", fr("3/2"))], ids=["A", "B1.5"])
    def test_matches_the_mpmath_residual_off_eigenvalue(self, case, b):
        # off the eigenvalue the three terms no longer cancel; the float
        # residual must agree with the mpmath one relative to the largest
        bf = float(b or 0)
        for n in range(7):
            rec = eigenfunction(case, n, b)
            ell = 2 * n + 1 + 0.37
            with mp.workdps(40):
                f_mp = _mp_eigenfunction(rec)
                for w in default_w_grid(bf):
                    got = residual_master(rec.as_callable(), bf, 0.0, ell, w)
                    terms = oracles.master_terms(f_mp, bf, 0, ell, w)
                    want, largest = sum(terms), max(abs(t) for t in terms)
                    assert abs(got - complex(want)) <= 1e-14 * float(largest), (n, w)


def _mpf(q):
    return mp.mpf(q.numerator) / q.denominator


def _mp_eigenfunction(rec):
    """f of the record in mpmath at the working precision."""
    shift = _mpf(rec.prefactor_shift())
    cs = None if rec.poly is None else [_mpf(c) for c in reversed(rec.poly.coeffs)]

    def f(w):
        val = mp.expjpi(mp.sqrt(w + shift))
        return val if cs is None else val * mp.polyval(cs, w)
    return f


FAMILIES = [("A", None)] + [("B", fr(b)) for b in ("-1/2", "3/2", "73/10")]
FAMILY_IDS = ["A", "B-0.5", "B1.5", "B7.3"]


class TestMasterResidualPolynomial:
    @pytest.mark.parametrize("n", [0, 3, 24])
    @pytest.mark.parametrize("case,b", FAMILIES, ids=FAMILY_IDS)
    def test_matches_the_sampled_residual_in_mpmath(self, case, b, n):
        # the tests' mpmath residual against exp(i pi s) P(s) / (2s), at the
        # eigenvalue (P = 0) and off it; the working precision grows with n
        # because the three terms reach |f| ~ 1e41 at n = 24
        rec = eigenfunction(case, n, b)
        with mp.workdps(30 + 2 * n):
            f = _mp_eigenfunction(rec)
            shift = _mpf(rec.prefactor_shift())
            bm = shift - mp.mpf(1) / 4
            for ell in (fr(2 * n + 1), fr(2 * n + 1) + fr("1/1000")):
                cs = [_mpf(c) for c in reversed(master_residual_polynomial(rec, ell).coeffs)]
                for w in default_w_grid(float(bm), count=4):
                    w = mp.mpf(w)
                    s = mp.sqrt(w + shift)
                    want = mp.expjpi(s) * (mp.polyval(cs, s) if cs else 0) / (2 * s)
                    got = sum(oracles.master_terms(f, bm, 0, _mpf(ell), w))
                    assert abs(got - want) <= mp.mpf(10) ** (10 - mp.mp.dps) * (1 + abs(f(w)))

    @pytest.mark.parametrize("case,b", FAMILIES, ids=FAMILY_IDS)
    def test_zero_exactly_at_the_quantized_eigenvalue(self, case, b):
        for n in (0, 1, 7, 40):
            rec = eigenfunction(case, n, b)
            assert not master_residual_polynomial(rec, 2 * n + 1)
            assert master_residual_polynomial(rec, fr(2 * n + 1) + fr("1/1000"))

    def test_off_eigenvalue_part_is_odd(self):
        # (ell'^2 - ell^2) enters as 2s (ell'^2 - ell^2) p(W)
        rec = eigenfunction("B", 2, fr("3/2"))
        d = fr(5) + fr("1/1000")
        want = 2 * (d * d - 25) * RationalPolynomial([0, 1]) * rec.poly.compose(
            RationalPolynomial([-fr("7/4"), 0, 1]))
        assert master_residual_polynomial(rec, d) == want

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=12), max_size=5),
           st.fractions(min_value=-20, max_value=20, max_denominator=30),
           st.sampled_from(FAMILIES))
    def test_odd_in_s_for_any_polynomial_part(self, coeffs, ell, family):
        case, b = family
        rec = dataclasses.replace(eigenfunction(case, 1, b), poly=RationalPolynomial(coeffs))
        big_p = master_residual_polynomial(rec, ell)
        assert big_p.reflect() == -big_p

    @pytest.mark.parametrize("case,b", [("A", None)] + [
        ("B", fr(b)) for b in ("-1/2", "3/2", "73/10", "0", "3")],
        ids=FAMILY_IDS + ["B0", "B3"])
    def test_equals_the_composition_chain(self, case, b):
        # P by a chain of small products and a reflection, the oracle of the
        # closed-form factors
        for n in range(41):
            rec = eigenfunction(case, n, b)
            shift = rec.prefactor_shift()
            s = RationalPolynomial([0, 1])
            w = s * s - shift
            p = RationalPolynomial([1]) if rec.poly is None else rec.poly
            t = (2 * (shift - fr("1/4")) + 4 * w + w * (2 * s - 1)) * p.compose(w + 2 * s + 1)
            for ell in (fr(2 * n + 1), fr(2 * n + 1) + fr("1/1000"), fr("7/3")):
                want = 2 * s * (2 * w - 1 + ell ** 2) * p.compose(w) - (t - t.reflect())
                got = master_residual_polynomial(rec, ell)
                assert type(got) is RationalPolynomial
                assert got == want and hash(got) == hash(want), (n, ell)

    def test_symbolic_record_is_refused(self):
        with pytest.raises(ValueError):
            master_residual_polynomial(eigenfunction("B", 2), 5)

    def test_composes_once_per_record(self, monkeypatch):
        # p(W) is the one composition; p(W+) is its unit shift
        calls = []
        compose = RationalPolynomial.compose

        def counted(p, inner):
            calls.append(inner)
            return compose(p, inner)

        monkeypatch.setattr(RationalPolynomial, "compose", counted)
        records = [eigenfunction(case, n, b) for case, b in FAMILIES for n in (0, 1, 7)]
        for rec in records:
            master_residual_polynomial(rec, 2 * rec.n + 1)
        assert len(calls) == len(records)


class TestSecondSolution:
    def test_h0_closed_form_shape(self):
        u, h = second_solution(0, fr(2), 8)
        # (z^2-1/4)^2 h0 must be affine in z^2 (pure inverse-square part
        # plus an admixture of the rational base solution)
        vals = [(z * z - fr("1/4")) ** 2 * h(z) for z in h.points()]
        second = [vals[k + 2] - 2 * vals[k + 1] + vals[k] for k in range(len(vals) - 2)]
        assert all(s == second[0] for s in second)

    @pytest.mark.parametrize("n", range(5))
    def test_three_point_relation_exact(self, n):
        u, h = second_solution(n, fr(2), 8)
        for k in range(1, 7):
            assert residual_g("A", h, 2 * n + 1, fr(2) + k) == 0

    @pytest.mark.parametrize("n", range(5))
    def test_casoratian_nonzero(self, n):
        _, h = second_solution(n, fr(2), 8)
        for k in range(7):
            assert casoratian(n, h, fr(2) + k) != 0

    def test_first_order_ratio_exact(self):
        for n in range(4):
            u, _ = second_solution(n, fr(2), 8)
            g = g_callable("A", n)
            for k in range(1, 6):
                z = fr(2) + k
                lhs = (u(z + 1) - u(z)) * (2 * z + 1) * (2 * z + 3) ** 2 * g(z + 1)
                rhs = (u(z) - u(z - 1)) * (2 * z - 1) * (2 * z - 3) ** 2 * g(z - 1)
                assert lhs == rhs

    def test_anchor_gauge(self):
        u, h = second_solution(2, fr(2), 6)
        assert u(fr(2)) == 0 and h(fr(2)) == 0

    def test_lattice_pole_detection(self):
        with pytest.raises(LatticePole):
            second_solution(0, fr("1/2"), 6)
        with pytest.raises(LatticePole):
            second_solution(1, fr("-3/2"), 6)  # hits 2x-1 = 0 on the lattice

    def test_length_validation(self):
        with pytest.raises(ValueError):
            second_solution(1, fr(2), 3)

    def test_float_anchor(self):
        # a float anchor is read at its exact value: the lattice stays exact
        u, h = second_solution(1, 2.25, 6)
        assert u.anchor == h.anchor == fr("9/4")
        assert all(type(v) is Fraction for v in u.values + h.values)
        for k in range(1, 5):
            assert residual_g("A", h, 3, fr("9/4") + k) == 0


class TestConjectureScan:
    def test_recovers_quantized_eigenvalue(self):
        rep = conjecture_scan(1.5, 0.0, 1, 1)
        assert abs(rep.ell1_sq - 9.0) <= 1e-8
        assert rep.residual <= 1e-10

    def test_scalar_case(self):
        rep = conjecture_scan(0.0, 0.0, 0, 0)
        assert abs(rep.ell1_sq - 1.0) <= 1e-8
        assert rep.residual <= 1e-10

    def test_degree_above_n(self):
        rep = conjecture_scan(0.0, 0.0, 1, 4)
        assert abs(rep.ell1_sq - 9.0) <= 1e-7

    def test_exploratory_m_nonzero(self):
        rep = conjecture_scan(1.0, 0.5, 1, 6)
        assert rep.residual >= 0.0 and math.isfinite(rep.ell1_sq)

    def test_thin_svd_gives_the_full_svd_reports(self, monkeypatch):
        # the scan reads only vh and the singular values, which the thin SVD
        # returns bit for bit; the exploratory scan runs all its iterations
        scans = [(b, 0.0, n, n) for b in (0.0, 1.5) for n in range(4)]
        scans += [(1.0, 0.5, 1, 6), (1.5, 0.0, 1, 1), (0.0, 0.0, 0, 0), (0.0, 0.0, 1, 4)]
        thin = [conjecture_scan(*args) for args in scans]
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, full_matrices=True: svd(a, full_matrices=True))
        assert [conjecture_scan(*args) for args in scans] == thin
        assert not thin[8].converged and thin[8].iterations == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_scan(0.0, 0.0, 3, 1)
        with pytest.raises(IllConditioned):
            conjecture_scan(0.0, 0.0, 1, 3, grid=[1.0, 2.0])
