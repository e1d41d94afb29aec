"""Exactness, Pochhammer, terminating/convergent hypergeometric sums."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritywilson.errors import DenominatorPole, NoConvergence
from paritywilson.numcore import (
    BParamPolynomial,
    RationalPolynomial,
    frac_to_str,
    hyp_2f1_series,
    hyp_pfq_series,
    hyp_pfq_terminating,
    pochhammer,
    poly_eval,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(rationals, rationals)
def test_rational_add_round_trip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda q: q != 0))
def test_rational_mul_round_trip(a, b):
    assert (a * b) / b == a


def test_pochhammer_examples():
    assert pochhammer(2, 3) == 24
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(-2, 3) == 0  # terminates hypergeometric series


@given(rationals, st.integers(min_value=0, max_value=50))
@settings(max_examples=60)
def test_pochhammer_recurrence(a, k):
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


def test_pochhammer_negative_order():
    with pytest.raises(ValueError):
        pochhammer(1, -1)


class TestTerminatingPFQ:
    def test_half_z_collapses_to_one(self):
        # (1/2 - z)_k = 0 for k >= 1 at z = 1/2
        z = Fraction(1, 2)
        val = hyp_pfq_terminating(
            [-2, 5, Fraction(1, 2) - z, Fraction(1, 2) + z], [1, 2, 2], 1, 2)
        assert val == 1

    def test_zero_numerator_parameter(self):
        assert hyp_pfq_terminating([0, 3, 7], [2, 5], 1, 0) == 1

    def test_z_one_matches_table_value(self):
        # 12/5 * 4F3 at z=1 equals the degree-3 z-space value 1 + 7/2 + 117/80
        z = Fraction(1)
        val = hyp_pfq_terminating(
            [-2, 5, Fraction(1, 2) - z, Fraction(1, 2) + z], [1, 2, 2], 1, 2)
        assert Fraction(12, 5) * val == 1 + Fraction(7, 2) + Fraction(117, 80)

    def test_denominator_pole(self):
        with pytest.raises(DenominatorPole):
            hyp_pfq_terminating([-3, 2], [-1], 1, 3)

    def test_termination_required(self):
        with pytest.raises(ValueError):
            hyp_pfq_terminating([Fraction(1, 2), 2], [1], 1, 10)
        with pytest.raises(ValueError):
            hyp_pfq_terminating([-5, 2], [1], 1, 3)

    def test_complex_inputs(self):
        val = hyp_pfq_terminating([-2, 1.5 + 0.5j], [2.0], 1.0, 2)
        k0, k1 = 1, (-2) * (1.5 + 0.5j) / 2
        k2 = (-2) * (-1) * (1.5 + 0.5j) * (2.5 + 0.5j) / (2 * 3 * 2)
        assert abs(val - (k0 + k1 + k2)) < 1e-14


class TestGauss2F1:
    def test_t_zero(self):
        val, err = hyp_2f1_series(0.3, 1.7, 2.2, 0.0)
        assert val == 1.0 and err < 1e-12

    def test_geometric(self):
        val, err = hyp_2f1_series(1.0, 1.0, 1.0, 0.5)
        assert abs(val - 2.0) <= err + 1e-12

    def test_radius_enforced(self):
        with pytest.raises(ValueError):
            hyp_2f1_series(1.0, 1.0, 2.0, 1.0)

    def test_denominator_pole(self):
        with pytest.raises(DenominatorPole):
            hyp_2f1_series(0.5, 0.7, -2.0, 0.1)

    def test_no_convergence_cap(self):
        with pytest.raises(NoConvergence):
            hyp_2f1_series(1.0, 1.0, 1.0, 0.9, tol=1e-15, max_terms=5)

    def test_error_bound_honest_against_high_precision_oracle(self):
        # oracle: 200-term direct summation at 32 digits
        import random
        rng = random.Random(20240817)
        mp.mp.dps = 32
        for _ in range(100):
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(0.5, 3.5)
            t = rng.uniform(-0.3, 0.3)
            val, bound = hyp_2f1_series(a, b, c, t, tol=1e-13)
            term = mp.mpf(1)
            total = mp.mpf(0)
            for k in range(200):
                total += term
                term *= mp.mpf(a + k) * (b + k) / ((c + k) * (k + 1)) * t
            assert abs(val - complex(total)) <= bound + 1e-16

    def test_specific_value_against_oracle(self):
        val, bound = hyp_2f1_series(0.5, 1.5, 2.0, -0.1)
        ref = complex(mp.hyp2f1(0.5, 1.5, 2.0, -0.1))
        assert abs(val - ref) <= bound + 1e-15

    def test_terminating_numerator_stops_before_denominator_pole(self):
        val, _ = hyp_2f1_series(-2.0, 1.0, -3.0, 0.2)
        want = 1 + (2 / 3) * 0.2 + (1 / 3) * 0.04
        assert abs(val - want) < 1e-14


def test_hyp_pfq_series_denominator_pole():
    with pytest.raises(DenominatorPole):
        hyp_pfq_series([0.5, 1.0], [-1.0, 2.0], 0.2)


def test_hyp_pfq_series_matches_2f1():
    v1, _ = hyp_pfq_series([0.5, 1.5], [2.0], -0.2)
    v2, _ = hyp_2f1_series(0.5, 1.5, 2.0, -0.2)
    assert abs(v1 - v2) < 1e-14


class TestPolyEval:
    def test_seed_polynomial(self):
        p = RationalPolynomial([Fraction(-3, 4), 1])
        assert poly_eval(p, Fraction(1)) == Fraction(1, 4)

    def test_zero_polynomial(self):
        assert poly_eval(RationalPolynomial([]), 17.5) == 0
        assert poly_eval(RationalPolynomial([]), Fraction(3)) == 0

    def test_degree_one_table_entry(self):
        p = RationalPolynomial([Fraction(3, 4), 1])
        assert poly_eval(p, Fraction(1)) == Fraction(7, 4)


coeff_lists = st.lists(rationals, min_size=0, max_size=6)


@given(coeff_lists, coeff_lists)
def test_polynomial_add_round_trip(a, b):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    assert (p + q) - q == p


@given(coeff_lists, coeff_lists)
@settings(max_examples=40)
def test_polynomial_mul_degree(a, b):
    p, q = RationalPolynomial(a), RationalPolynomial(b)
    if p and q:
        assert (p * q).degree == p.degree + q.degree
    else:
        assert not (p * q)


def test_polynomial_normalization_strips_zeros():
    p = RationalPolynomial([1, 2, 0, 0])
    assert p.degree == 1 and p.coeffs == (Fraction(1), Fraction(2))
    assert not RationalPolynomial([0, 0])


def test_polynomial_shift_and_reflect():
    p = RationalPolynomial([0, 0, 1])  # u^2
    assert p.shift_variable(Fraction(1)) == RationalPolynomial([1, 2, 1])
    q = RationalPolynomial([1, 1])
    assert q.reflect() == RationalPolynomial([1, -1])


def test_bparam_polynomial_substitution_and_scalars():
    b = RationalPolynomial([0, 1])
    p = BParamPolynomial([b * Fraction(1, 2) + Fraction(1, 4), RationalPolynomial([1])])
    at2 = p.substitute_b(Fraction(2))
    assert at2 == RationalPolynomial([Fraction(5, 4), 1])
    scaled = p * Fraction(2)
    assert scaled.coeffs[0] == b + Fraction(1, 2)
    # a polynomial in B acts as a scalar, not as a squared-variable factor
    bp = p * b
    assert bp.degree == p.degree


def test_frac_serialization():
    assert frac_to_str(Fraction(-3, 4)) == "-3/4"
    assert frac_to_str(Fraction(8)) == "8"
