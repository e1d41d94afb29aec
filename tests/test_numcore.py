"""Exactness, terminating/convergent hypergeometric sums."""

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
    _three_term,
    frac_to_str,
    hyp_2f1_series,
    hyp_pfq_series,
    hyp_pfq_terminating,
    poly_eval,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@given(rationals, rationals)
def test_rational_add_round_trip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda q: q != 0))
def test_rational_mul_round_trip(a, b):
    assert (a * b) / b == a


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
    assert p.compose(RationalPolynomial([1, 1])) == RationalPolynomial([1, 2, 1])
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


# -- the integer grid against a naive reference ------------------------------
# A polynomial is a dict {(power of u, power of B): Fraction} of its nonzero
# coefficients; every operation below is the schoolbook one on Fractions.

nonzero = rationals.filter(bool)


def grids(symbolic: bool):
    keys = st.tuples(st.integers(0, 4), st.integers(0, 3 if symbolic else 0))
    return st.dictionaries(keys, nonzero, max_size=8)


def build(d: dict, symbolic: bool):
    rows = 1 + max((i for i, _ in d), default=-1)
    if not symbolic:
        return RationalPolynomial([d.get((i, 0), 0) for i in range(rows)])
    width = 1 + max((j for _, j in d), default=0)
    return BParamPolynomial([RationalPolynomial([d.get((i, j), 0) for j in range(width)])
                             for i in range(rows)])


def read(p) -> dict:
    """The reference dict of p, through its ``coeffs`` view."""
    if isinstance(p, BParamPolynomial):
        return {(i, j): c for i, row in enumerate(p.coeffs)
                for j, c in enumerate(row.coeffs) if c}
    return {(i, 0): c for i, c in enumerate(p.coeffs) if c}


def ref_add(x: dict, y: dict, sign=1) -> dict:
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def ref_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for (i, j), a in x.items():
        for (k, m), b in y.items():
            out[i + k, j + m] = out.get((i + k, j + m), 0) + a * b
    return {k: v for k, v in out.items() if v}


def ref_scale(x: dict, q) -> dict:
    return {k: v * q for k, v in x.items() if v * q}


def ref_compose(x: dict, inner: dict) -> dict:
    out, power = {}, {(0, 0): Fraction(1)}
    for i in range(1 + max((i for i, _ in x), default=-1)):
        row = {(0, j): v for (k, j), v in x.items() if k == i}
        out = ref_add(out, ref_mul(row, power))
        power = ref_mul(power, inner)
    return out


def ref_at_b(x: dict, b) -> dict:
    out: dict = {}
    for (i, j), v in x.items():
        out[i, 0] = out.get((i, 0), 0) + v * b ** j
    return {k: v for k, v in out.items() if v}


def check(result, want: dict, symbolic: bool):
    assert read(result) == want
    assert result == build(want, symbolic)
    assert hash(result) == hash(build(want, symbolic))
    assert isinstance(result, BParamPolynomial) == symbolic


@pytest.mark.parametrize("symbolic", [False, True])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_ring_operations_match_reference(symbolic, data):
    x, y = data.draw(grids(symbolic)), data.draw(grids(symbolic))
    p, q = build(x, symbolic), build(y, symbolic)
    check(p, x, symbolic)
    check(p + q, ref_add(x, y), symbolic)
    check(p - q, ref_add(x, y, -1), symbolic)
    check(-p, ref_scale(x, -1), symbolic)
    check(p * q, ref_mul(x, y), symbolic)


@pytest.mark.parametrize("symbolic", [False, True])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_scalar_operations_match_reference(symbolic, data):
    x = data.draw(grids(symbolic))
    a, c = data.draw(rationals), data.draw(nonzero)
    n = data.draw(st.integers(-5, 5))
    p = build(x, symbolic)
    check(p * a, ref_scale(x, a), symbolic)
    check(a * p, ref_scale(x, a), symbolic)
    check(p * n, ref_scale(x, n), symbolic)
    check(p / c, ref_scale(x, 1 / c), symbolic)
    check(p + a, ref_add(x, {(0, 0): a} if a else {}), symbolic)
    check(a - p, ref_add({(0, 0): a} if a else {}, x, -1), symbolic)


# -- grid products against a naive double loop --------------------------------
# A dense matrix [power of u][power of B] of Fractions, zero entries included,
# so that grids of every width meet, and rows and columns of zeros occur.

def matrices(width: int):
    entry = st.one_of(st.just(Fraction(0)), rationals)
    return st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6)


def from_matrix(m, symbolic: bool):
    if symbolic:
        return BParamPolynomial([RationalPolynomial(row) for row in m])
    return RationalPolynomial([row[0] for row in m])


def naive_product(x, y) -> dict:
    """The schoolbook product of two matrices, entry by entry on Fractions."""
    out: dict = {}
    for i, row in enumerate(x):
        for j, a in enumerate(row):
            for k, other in enumerate(y):
                for m, b in enumerate(other):
                    out[i + k, j + m] = out.get((i + k, j + m), 0) + a * b
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("symbolic", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_grid_product_matches_naive_double_loop(symbolic, data):
    wa, wb = (data.draw(st.integers(1, 5)) for _ in range(2)) if symbolic else (1, 1)
    x, y = data.draw(matrices(wa)), data.draw(matrices(wb))
    p, q = from_matrix(x, symbolic), from_matrix(y, symbolic)
    want = naive_product(x, y)
    check(p * q, want, symbolic)
    assert p * q == q * p
    assert hash(p * q) == hash(q * p)


@given(st.lists(rationals, min_size=1, max_size=8), st.lists(rationals, min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_outer_product_of_a_b_row_and_a_u_column(row, column):
    # beside a BParamPolynomial a plain RationalPolynomial is one row in B,
    # so a u-column of constants times it is an outer product
    b_row = RationalPolynomial(row)
    u_column = BParamPolynomial(column)
    want = naive_product([[c] for c in column], [row])
    for product in (u_column * b_row, b_row * u_column):
        check(product, want, True)


# -- the fused three-term step against the product route ---------------------
# The step every recurrence table takes, (u + a) p1 - c p2, against the
# generic route: the linear factor, two products and one difference, each
# reduced on its own.

def scalars(symbolic: bool, width: int):
    """A rational, or beside a BParamPolynomial a row in B of ``width``
    entries; zero entries (and a zero scalar) included."""
    entry = st.one_of(st.just(Fraction(0)), rationals)
    if not symbolic:
        return entry
    return st.lists(entry, min_size=width, max_size=width).map(RationalPolynomial)


def assert_same_grid(got, want):
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want)
    assert (got._c, got._w, got._den) == (want._c, want._w, want._den)


@pytest.mark.parametrize("symbolic", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_three_term_step_matches_the_product_route(symbolic, data):
    w1, w2, wa, wc = (data.draw(st.integers(1, 3)) for _ in range(4)) if symbolic else (1,) * 4
    p1 = from_matrix(data.draw(matrices(w1)), symbolic)
    p2 = from_matrix(data.draw(matrices(w2)), symbolic)  # often zero
    a, c = data.draw(scalars(symbolic, wa)), data.draw(scalars(symbolic, wc))
    cls = type(p1)
    # the corrected tables subtract c = gamma, the printed ones add gamma
    for c_n in (c, -c):
        assert_same_grid(_three_term(p1, a, p2, c_n), cls([a, 1]) * p1 - p2 * c_n)


@pytest.mark.parametrize("symbolic", [False, True])
def test_three_term_step_with_a_zero_second_polynomial(symbolic):
    cls = BParamPolynomial if symbolic else RationalPolynomial
    a = RationalPolynomial([Fraction(1, 3), -2]) if symbolic else Fraction(1, 3)
    p1 = cls([Fraction(-3, 4), 1])
    for c in (Fraction(0), Fraction(5, 7)):
        assert_same_grid(_three_term(p1, a, cls([]), c), cls([a, 1]) * p1)
    assert_same_grid(_three_term(cls([]), a, p1, Fraction(2)), p1 * -2)
    assert not _three_term(cls([]), a, cls([]), Fraction(2))


@pytest.mark.parametrize("symbolic", [False, True])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_substitutions_match_reference(symbolic, data):
    x, inner = data.draw(grids(symbolic)), data.draw(grids(symbolic))
    p = build(x, symbolic)
    check(p.compose(build(inner, symbolic)), ref_compose(x, inner), symbolic)
    check(p.reflect(), {(i, j): (-1) ** i * v for (i, j), v in x.items()}, symbolic)
    check(p.odd_part(), {(i, j): v for (i, j), v in x.items() if i % 2}, symbolic)
    a = data.draw(rationals)
    shift = ref_add({(1, 0): Fraction(1)}, {(0, 0): a} if a else {})
    check(p.compose(type(p)([a, 1])), ref_compose(x, shift), symbolic)
    if symbolic:
        # a shift by a polynomial in B, and B set to a rational
        r = data.draw(grids(True).map(lambda d: {(0, j): v for (i, j), v in d.items() if i == 0}))
        b_shift = RationalPolynomial([r.get((0, j), 0) for j in range(4)])
        check(p.compose(BParamPolynomial([b_shift, 1])),
              ref_compose(x, ref_add({(1, 0): Fraction(1)}, r)), True)
        b = data.draw(rationals)
        check(p.substitute_b(b), ref_at_b(x, b), False)


@pytest.mark.parametrize("symbolic", [False, True])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_evaluation_matches_reference(symbolic, data):
    x = data.draw(grids(symbolic))
    p = build(x, symbolic)
    u = data.draw(rationals)
    at_u: dict = {}
    for (i, j), v in x.items():
        at_u[j] = at_u.get(j, 0) + v * u ** i
    if symbolic:
        assert poly_eval(p, u) == RationalPolynomial([at_u.get(j, 0) for j in range(4)])
        return
    assert poly_eval(p, u) == at_u.get(0, 0) and type(poly_eval(p, u)) is Fraction
    uf = data.draw(st.floats(-50, 50))
    cs = [x.get((i, 0), Fraction(0)) for i in range(p.degree + 1)]
    want = 0.0 * uf
    for k, c in enumerate(reversed(cs)):
        want = float(c) if k == 0 else want * uf + float(c)
    got = poly_eval(p, uf)
    assert type(got) is float and (got == want or (got != got and want != want))
    first = p.float_coeffs()
    assert first == tuple(float(c) for c in cs)
    assert p.float_coeffs() is first  # kept on the polynomial
    assert RationalPolynomial([]).float_coeffs() == ()


@pytest.mark.parametrize("symbolic", [False, True])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_coefficient_view_types(symbolic, data):
    p = build(data.draw(grids(symbolic)), symbolic)
    assert type(p.coeffs) is tuple and len(p.coeffs) == p.degree + 1
    assert not p.coeffs or p.coeffs[-1]
    if symbolic:
        assert all(type(c) is RationalPolynomial for c in p.coeffs)
        assert all(type(q) is Fraction for c in p.coeffs for q in c.coeffs)
    else:
        assert all(type(c) is Fraction for c in p.coeffs)
    assert p.leading == (p.coeffs[-1] if p.coeffs else 0)
    assert all(p.coefficient(k) == c for k, c in enumerate(p.coeffs))


class TestEqualityHashAndMixedArithmetic:
    def test_constants_equal_and_hash_like_their_rationals(self):
        for value in (3, Fraction(-7, 4), 0):
            for p in (RationalPolynomial([value]), BParamPolynomial([value])):
                assert p == value and hash(p) == hash(value)
        assert RationalPolynomial([1]) == BParamPolynomial([1])
        assert hash(RationalPolynomial([1])) == hash(BParamPolynomial([1]))

    def test_plain_polynomial_beside_a_symbolic_one_is_a_polynomial_in_b(self):
        b = RationalPolynomial([0, 1])
        as_b = BParamPolynomial([b])
        assert b == as_b and hash(b) == hash(as_b)
        assert b != BParamPolynomial([0, 1])  # u, not B
        p = BParamPolynomial([b * Fraction(1, 2), 1])
        q = RationalPolynomial([1, 1])  # 1 + B here
        assert q * p == p * q == BParamPolynomial([q * b * Fraction(1, 2), q])
        assert q + p == p + q == BParamPolynomial([b * Fraction(3, 2) + 1, 1])
        assert q - p == -(p - q)
        assert RationalPolynomial([1, 1]) - BParamPolynomial([1]) == BParamPolynomial([b])

    def test_compose_reads_a_plain_argument_in_u(self):
        p = BParamPolynomial([RationalPolynomial([0, 1]), 1])  # B + u
        got = p.compose(RationalPolynomial([1, 1]))  # u -> u + 1
        assert got == BParamPolynomial([RationalPolynomial([1, 1]), 1])

    @given(grids(True), grids(True))
    @settings(max_examples=15, deadline=None)
    def test_equal_values_hash_equal(self, x, y):
        p, q = build(x, True), build(y, True)
        r = (p + q) - q
        assert r == p and hash(r) == hash(p)
        s = (p * 3) / 3
        assert s == p and hash(s) == hash(p)

    @given(grids(True), grids(False))
    @settings(max_examples=15, deadline=None)
    def test_cancelled_b_columns_are_stripped(self, x, y):
        p, q = build(x, True), build(y, True)  # q is free of B
        r = (p + q) - p
        assert r == q and hash(r) == hash(q)

    def test_floats_are_not_exact_operands(self):
        for p in (RationalPolynomial([1, 2]), BParamPolynomial([1, 2])):
            for op in (lambda: p * 0.5, lambda: p + 0.5, lambda: p / 0.5):
                with pytest.raises(TypeError):
                    op()
        assert RationalPolynomial([3]) != 3.0

    def test_coefficients_of_a_symbolic_polynomial_live_in_b(self):
        with pytest.raises(TypeError):
            BParamPolynomial([BParamPolynomial([1])])
        with pytest.raises(TypeError):
            BParamPolynomial([1, 2]).float_coeffs()
