"""Family construction routes, recurrence adjudication, measures, norms,
generating functions."""

import math
import os
import pickle
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritywilson import expand, spectral, verify, wilson
from paritywilson.errors import DegenerateFamily
from paritywilson.numcore import BParamPolynomial, RationalPolynomial, poly_eval
from paritywilson.wilson import (
    WilsonFamily,
    alternating_reflect,
    family_weight,
    generating_function_check,
    monic_from_hypergeometric,
    monic_from_recurrence,
    norm_closed_form,
    printed_norm_rhs,
    recurrence_discrepancy_report,
    standard_recurrence_terms,
)
from paritywilson.expand import inner_product, stieltjes_monic_table

CASE_A = WilsonFamily.case_a()
CASE_B_SYM = WilsonFamily.case_b()
CASE_B_32 = WilsonFamily.case_b(Fraction(3, 2))


def fr(s):
    return Fraction(s)


def fraction_4f3(case: str, n: int) -> dict:
    """{(power of u, power of B): coefficient} of the monic 4F3 member of
    degree n, term by term on Fractions: pref * sum_k r_k tail_k
    prod_{j<k} (u + (j+1/2)^2), with r_k from the term ratio and, in
    symbolic Case B, tail_k = prod_{j=k+1..n} (j^2 - 1 - B)."""
    def times(p, q):
        out: dict = {}
        for (i, j), a in p.items():
            for (k, m), b in q.items():
                out[i + k, j + m] = out.get((i + k, j + m), 0) + a * b
        return out

    f = math.factorial
    if case == "A":  # (-n)_k (n+3)_k / ((1)_k (2)_k^2 k!)
        terms = [Fraction((-1) ** n * f(n + 2) * f(n) * f(n + 1) ** 2, f(2 * n + 2))]
        ratios = [Fraction((k - n) * (k + n + 3), (k + 1) ** 2 * (k + 2) ** 2) for k in range(n)]
    else:  # (-n)_k (n+1)_k / ((1)_k k!)
        terms = [Fraction((-1) ** n * f(n) ** 2, f(2 * n))]
        ratios = [Fraction((k - n) * (k + n + 1), (k + 1) ** 2) for k in range(n)]
    for q in ratios:
        terms.append(terms[-1] * q)
    total: dict = {}
    for k, r in enumerate(terms):
        term = {(0, 0): r}
        for j in range(k):
            term = times(term, {(0, 0): Fraction(2 * j + 1, 2) ** 2, (1, 0): Fraction(1)})
        if case == "B":
            for j in range(k + 1, n + 1):
                term = times(term, {(0, 0): Fraction(j * j - 1), (0, 1): Fraction(-1)})
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    return {key: v for key, v in total.items() if v}


class TestHypergeometricRoute:
    @pytest.mark.parametrize("n", range(13))
    def test_matches_the_fraction_sum(self, n):
        # the integer Horner scheme against the plain sum of its terms
        a = monic_from_hypergeometric(CASE_A, n)
        assert {(i, 0): c for i, c in enumerate(a.coeffs) if c} == fraction_4f3("A", n)
        b = monic_from_hypergeometric(CASE_B_SYM, n)
        assert {(i, j): c for i, row in enumerate(b.coeffs)
                for j, c in enumerate(row.coeffs) if c} == fraction_4f3("B", n)

    def test_case_a_seeds(self):
        assert monic_from_hypergeometric(CASE_A, 0) == RationalPolynomial([1])
        assert monic_from_hypergeometric(CASE_A, 1) == RationalPolynomial([fr("-3/4"), 1])

    def test_case_a_degree_two(self):
        # derived by exact expansion; equals the degree-3 z-space member at
        # reflected argument
        assert monic_from_hypergeometric(CASE_A, 2) == RationalPolynomial(
            [fr("117/80"), fr("-7/2"), 1])

    def test_case_b_symbolic_seed(self):
        p1 = monic_from_hypergeometric(CASE_B_SYM, 1)
        assert p1.coeffs[0] == RationalPolynomial([fr("1/4"), fr("1/2")])
        assert p1.coeffs[1] == RationalPolynomial([1])

    def test_case_b_reflected_degree_two(self):
        g2 = alternating_reflect(monic_from_hypergeometric(CASE_B_SYM, 2), 2)
        assert g2.coeffs[0] == RationalPolynomial([fr("-3/16"), fr("-1/4"), fr("1/6")])
        assert g2.coeffs[1] == RationalPolynomial([fr("1/2"), -1])
        assert g2.coeffs[2] == RationalPolynomial([1])

    def test_degenerate_numeric_b_rejected(self):
        with pytest.raises(DegenerateFamily):
            monic_from_hypergeometric(WilsonFamily.case_b(0), 1)
        with pytest.raises(DegenerateFamily):
            monic_from_hypergeometric(WilsonFamily.case_b(3), 2)
        # degeneracy only bites once n reaches the integer root
        assert monic_from_hypergeometric(WilsonFamily.case_b(3), 1)


class TestRecurrenceRoute:
    @pytest.mark.parametrize("family", [CASE_A, CASE_B_SYM, CASE_B_32,
                                        WilsonFamily.case_b(Fraction(-1, 2))])
    def test_corrected_matches_hypergeometric_exactly(self, family):
        table = monic_from_recurrence(family, 10)
        for n in range(11):
            if family.case == "B" and family.b is not None:
                want = monic_from_hypergeometric(CASE_B_SYM, n).substitute_b(family.b)
            else:
                want = monic_from_hypergeometric(family, n)
            assert table[n] == want

    def test_symbolic_case_b_degree_40_matches_hypergeometric_exactly(self):
        assert monic_from_recurrence(CASE_B_SYM, 40)[40] == monic_from_hypergeometric(CASE_B_SYM, 40)

    @pytest.mark.parametrize("family, n", [(CASE_A, 150), (CASE_B_SYM, 60)],
                             ids=["A-150", "B-symbolic-60"])
    def test_matches_hypergeometric_past_the_benchmark_sizes(self, family, n):
        top, oracle = monic_from_recurrence(family, n)[n], monic_from_hypergeometric(family, n)
        assert top == oracle and hash(top) == hash(oracle)
        assert (top._c, top._w, top._den) == (oracle._c, oracle._w, oracle._den)

    def test_substituted_symbolic_table_matches_numeric_routes_at_73_10(self):
        b = Fraction(73, 10)
        numeric = monic_from_recurrence(WilsonFamily.case_b(b), 20)
        symbolic = monic_from_recurrence(CASE_B_SYM, 20)
        for n in (0, 1, 7, 20):
            assert symbolic[n].substitute_b(b) == numeric[n]
        assert numeric[20] == monic_from_hypergeometric(WilsonFamily.case_b(b), 20)
        assert symbolic[20].substitute_b(b) == monic_from_hypergeometric(CASE_B_SYM, 20).substitute_b(b)

    @pytest.mark.parametrize("n_max", [0, 1, 2])
    def test_unknown_form_is_refused_before_any_table(self, n_max):
        # the seeds used to come back for n_max <= 1 whatever the form
        with pytest.raises(ValueError, match="^unknown recurrence form 'bogus'$"):
            monic_from_recurrence(CASE_A, n_max, form="bogus")

    def test_unknown_case_is_refused(self):
        # a lowercase tag used to fail later, inside the recurrence
        for case in ("a", "b", None):
            with pytest.raises(ValueError, match=f"^unknown case {case!r}: "
                                                 "expected 'A' or 'B'$"):
                WilsonFamily(case)

    @pytest.mark.parametrize("family", [CASE_A, CASE_B_SYM])
    def test_monic(self, family):
        table = monic_from_recurrence(family, 10)
        for n in range(11):
            assert table[n].leading == 1
            assert table[n].degree == n

    def test_b_zero_seed(self):
        table = monic_from_recurrence(WilsonFamily.case_b(0), 1)
        assert table[1] == RationalPolynomial([fr("1/4"), 1])

    def test_rederivation_from_standard_recurrence_case_a(self):
        # independent re-derivation: monic recurrence terms from the
        # normalized-recurrence products A_{n-1} C_n at (1/2,1/2,3/2,3/2)
        def a_std(k):
            return Fraction((k + 3) * (k + 1) * (k + 2) ** 2, (2 * k + 3) * (2 * k + 4))

        def c_std(k):
            return Fraction(k * (k + 1) ** 2 * (k + 2), (2 * k + 2) * (2 * k + 3))

        for n in range(2, 12):
            beta, gamma = standard_recurrence_terms(CASE_A, n)
            assert -beta == a_std(n - 1) + c_std(n - 1) - Fraction(1, 4)
            assert gamma == a_std(n - 2) * c_std(n - 1)

    @pytest.mark.parametrize("b", [-0.5, 1.5, 7.3])
    def test_rederivation_from_standard_recurrence_case_b(self, b):
        s = math.sqrt(b + 1)
        a, bb, c, d = 0.5, 0.5, 0.5 - s, 0.5 + s

        def a_std(k):
            return ((k + a + bb + c + d - 1) * (k + a + bb) * (k + a + c) * (k + a + d)
                    / ((2 * k + a + bb + c + d - 1) * (2 * k + a + bb + c + d)))

        def c_std(k):
            return (k * (k + bb + c - 1) * (k + bb + d - 1) * (k + c + d - 1)
                    / ((2 * k + a + bb + c + d - 2) * (2 * k + a + bb + c + d - 1)))

        fam = WilsonFamily.case_b(Fraction(b))
        for n in range(2, 10):
            beta, gamma = standard_recurrence_terms(fam, n)
            want_beta = -(a_std(n - 1) + c_std(n - 1) - 0.25)
            want_gamma = a_std(n - 2) * c_std(n - 1)
            assert abs(float(beta) - want_beta) < 1e-11 * max(1, abs(want_beta))
            assert abs(float(gamma) - want_gamma) < 1e-11 * max(1, abs(want_gamma))

    @pytest.mark.parametrize("b", [None, "symbolic", "-1/2", "0", "3/2", "7/3", "73/10", 0.3])
    def test_terms_equal_the_generic_expressions(self, b):
        # both term functions build each term from integers by one constructor;
        # the generic Fraction and polynomial expressions are their oracle, in
        # value, type and grid (the printed terms are adjudication artifacts)
        if b is None:
            family, value = CASE_A, None
        elif b == "symbolic":
            family, value = CASE_B_SYM, RationalPolynomial([0, 1])
        else:
            family = WilsonFamily.case_b(Fraction(b))
            value = family.b
        for n in range(81):
            for got, want in ((standard_recurrence_terms(family, n), oracles.standard_terms(value, n)),
                              (wilson.printed_recurrence_terms(family, n),
                               oracles.printed_terms(value, n))):
                assert len(got) == len(want)
                for x, y in zip(got, want):
                    assert type(x) is type(y) and x == y and hash(x) == hash(y), n
                    if isinstance(y, RationalPolynomial):
                        assert (x._c, x._w, x._den) == (y._c, y._w, y._den), n


@pytest.fixture
def cold_tables(monkeypatch):
    """An empty prefix store for the test's duration: the monic tables and
    the eigenfunction tables of ``spectral`` share it."""
    monkeypatch.setattr(wilson, "_PREFIXES", {})


def _cold(family, n_max, form="corrected"):
    saved = wilson._PREFIXES
    wilson._PREFIXES = {}
    try:
        return monic_from_recurrence(family, n_max, form)
    finally:
        wilson._PREFIXES = saved


class TestTableCache:
    @pytest.mark.parametrize("plain_first", [True, False])
    def test_b_is_exact_whichever_family_builds_first(self, cold_tables, plain_first):
        plain, exact = WilsonFamily("B", 0), WilsonFamily.case_b(0)
        assert plain == exact and hash(plain) == hash(exact)
        assert type(plain.b) is Fraction
        order = (plain, exact) if plain_first else (exact, plain)
        first, second = (monic_from_recurrence(f, 4) for f in order)
        assert first == second
        assert all(type(c) is Fraction for p in first for c in p.coeffs)
        assert first[2].coeffs == (fr("-3/16"), fr("-1/2"), 1)

    def test_served_from_longer_and_extended_from_shorter(self, cold_tables):
        cold4, cold9 = _cold(CASE_B_32, 4), _cold(CASE_B_32, 9)
        assert type(cold4) is tuple and type(cold9) is tuple
        assert monic_from_recurrence(CASE_B_32, 9) == cold9
        assert monic_from_recurrence(CASE_B_32, 4) == cold4  # served
        wilson._PREFIXES.clear()
        assert monic_from_recurrence(CASE_B_32, 4) == cold4
        assert monic_from_recurrence(CASE_B_32, 9) == cold9  # extended
        assert len(wilson._PREFIXES[(CASE_B_32, "corrected")]) == 10

    @pytest.mark.parametrize("printed_first", [True, False])
    def test_forms_never_share_entries(self, cold_tables, printed_first):
        forms = ("printed", "corrected") if printed_first else ("corrected", "printed")
        tables = {form: monic_from_recurrence(CASE_A, 5, form) for form in forms}
        assert tables["printed"] == _cold(CASE_A, 5, "printed")
        assert tables["corrected"] == _cold(CASE_A, 5)
        assert tables["printed"][2] != tables["corrected"][2]
        assert set(wilson._PREFIXES) == {(CASE_A, "printed"), (CASE_A, "corrected")}

    @pytest.mark.parametrize("n_max", [2, 3, 12])
    def test_unknown_form_raises(self, cold_tables, n_max):
        monic_from_recurrence(CASE_A, 12)
        with pytest.raises(ValueError):
            monic_from_recurrence(CASE_A, n_max, form="bogus")
        assert (CASE_A, "bogus") not in wilson._PREFIXES

    def test_concurrent_interleaved_degrees(self, cold_tables):
        start = threading.Barrier(4, timeout=30)

        def build(offset):
            start.wait()
            return [monic_from_recurrence(CASE_B_32, n) for n in range(offset, 16, 4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(build, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        oracle = [monic_from_hypergeometric(CASE_B_32, n) for n in range(16)]
        for offset, tables in enumerate(results):
            for n, table in zip(range(offset, 16, 4), tables):
                assert list(table) == oracle[: n + 1]
        # a shorter table published last would have replaced the longest
        assert len(wilson._PREFIXES[(CASE_B_32, "corrected")]) == 16

    def test_concurrent_norm_parts_read_the_pochhammer_prefix(self, monkeypatch):
        # the norm-part step reads the Pochhammer prefix while other threads
        # extend it, from a cold store in each of 20 rounds: every thread
        # finishes, every value is the serial one, and no key is ever given a
        # tuple that is not longer than the one it held
        family = WilsonFamily.case_b(Fraction(73, 10))
        monkeypatch.setattr(wilson, "_PREFIXES", {})
        serial = [(wilson._pochhammer_pairs(family, 40 - n), norm_closed_form(family, n))
                  for n in range(41)]

        class Store(dict):
            def __setitem__(self, key, value):
                if len(value) <= len(self.get(key, ())):
                    not_longer.append((key, len(self[key]), len(value)))
                super().__setitem__(key, value)

        not_longer = []
        start = threading.Barrier(4, timeout=30)

        def interleaved(offset):
            start.wait()
            return [(wilson._pochhammer_pairs(family, 40 - n), norm_closed_form(family, n))
                    for n in range(offset, 41, 4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(20):
                    store = Store()
                    monkeypatch.setattr(wilson, "_PREFIXES", store)
                    results = list(pool.map(interleaved, range(4), timeout=60))
                    for offset, got in enumerate(results):
                        assert got == serial[offset::4], offset
                    assert len(store[(family, "pochhammer")]) == 41
                    assert len(store[(family, "norm parts")]) == 41
        finally:
            sys.setswitchinterval(interval)
        assert not_longer == []
        prods = store[(family, "pochhammer")]
        assert all(prods[j] == prods[j - 1] * (j * j - 1 - family.b) for j in range(1, 41))

    @pytest.mark.parametrize("b", [3, 3.0 + 4e-13], ids=["exact", "float"])
    def test_an_integer_s_is_refused_also_after_a_pickle_round_trip(self, b):
        # s = 2, exactly or within 1e-12: the integer s is found once, at
        # construction, and again by the family a pickle rebuilds
        family = WilsonFamily.case_b(b)
        assert family.integer_s() == 2
        for fam in (family, pickle.loads(pickle.dumps(family))):
            for call in (lambda: expand._recurrence(fam, 2), lambda: family_weight(fam),
                         lambda: norm_closed_form(fam, 0), lambda: norm_closed_form(fam, 5)):
                with pytest.raises(DegenerateFamily,
                                   match=r"sqrt\(B\+1\) = 2 is a positive integer"):
                    call()

    def test_recurrence_check_does_not_read_the_cache_as_oracle(self, monkeypatch):
        wrong = list(_cold(CASE_A, 10))
        wrong[5] = wrong[5] + RationalPolynomial([1])
        monkeypatch.setattr(wilson, "_PREFIXES", {(CASE_A, "corrected"): tuple(wrong)})
        results = []
        verify.check_recurrence(results)
        status = {r.check_id: r.status for r in results}
        assert status["recurrence-corrected-match"] == "fail"
        assert status["recurrence-corrected-match-b"] == "pass"

    def test_verdict_identical_on_cold_and_warm_cache(self, cold_tables):
        cold = repr(verify.run_suites().results)
        assert (CASE_B_SYM, "reflected") in wilson._PREFIXES  # built cold
        assert repr(verify.run_suites().results) == cold

    @pytest.mark.parametrize("b", [0, 0.5, Fraction(3, 2), Fraction(73, 10)])
    def test_equal_families_hash_alike(self, b):
        family = WilsonFamily.case_b(b)
        others = [WilsonFamily("B", b), WilsonFamily("B", Fraction(b))]
        if Fraction(float(b)) == b:  # a float B is its exact binary value
            others.append(WilsonFamily.case_b(float(b)))
        for other in others:
            assert other == family and hash(other) == hash(family)
        assert WilsonFamily.case_b(Fraction(b) + 1) != family

    @pytest.mark.parametrize("family", [CASE_A, CASE_B_SYM] + [
        WilsonFamily.case_b(fr(b)) for b in ("-1/2", "3/2", "73/10", "0", "3")],
        ids=lambda family: family.label())
    def test_tables_equal_the_product_route(self, cold_tables, family):
        # every table the fused step builds, against the generic route:
        # T_n = (u + a_n) T_{n-1} - c_n T_{n-2} as the linear factor, two
        # products and one difference
        cls = BParamPolynomial if family.symbolic else RationalPolynomial
        b = RationalPolynomial([0, 1]) if family.symbolic else family.b or 0

        def product_route(p0, p1, terms):
            polys = [p0, p1]
            for n in range(2, 41):
                a, c = terms(n)
                polys.append(cls([a, 1]) * polys[n - 1] - polys[n - 2] * c)
            return polys

        def printed(n):
            beta, gamma, sign = wilson.printed_recurrence_terms(family, n)
            return beta, -sign * gamma

        def reflected(n):
            beta, gamma = standard_recurrence_terms(family, n)
            return b + fr("1/4") - beta, gamma

        seeds = cls([1]), cls([fr("-3/4") if family.case == "A" else b / 2 + fr("1/4"), 1])
        reflected_seeds = cls([1]), cls([reflected(1)[0], 1])
        want = {"corrected": product_route(*seeds, lambda n: standard_recurrence_terms(family, n)),
                "printed": product_route(*seeds, printed),
                "reflected": product_route(*reflected_seeds, reflected)}
        got = {"corrected": monic_from_recurrence(family, 40),
               "printed": monic_from_recurrence(family, 40, "printed"),
               "reflected": spectral._reflected_table(family, 40)}
        for kind, table in got.items():
            assert len(table) == 41
            for p, q in zip(table, want[kind]):
                assert type(p) is type(q) and p == q and hash(p) == hash(q), (kind, p.degree)

    def test_hash_is_made_again_in_a_new_process(self):
        # a str hash is salted per process, so a stored hash must not travel
        code = ("import pickle, sys; from fractions import Fraction; "
                "from paritywilson.wilson import WilsonFamily; "
                "f = pickle.loads(sys.stdin.buffer.read()); "
                "assert hash(f) == hash(WilsonFamily('B', Fraction(73, 10))), 'stale hash'; "
                "assert {f: 1}[WilsonFamily.case_b(Fraction(73, 10))] == 1")
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              input=pickle.dumps(WilsonFamily.case_b(Fraction(73, 10))))
        assert done.returncode == 0, done.stderr.decode()


class TestAdjudication:
    def test_printed_case_a_table_value(self):
        printed = monic_from_recurrence(CASE_A, 2, form="printed")
        assert printed[2] == RationalPolynomial([fr("57/20"), fr("-15/4"), 1])
        assert printed[2] != monic_from_hypergeometric(CASE_A, 2)

    def test_case_a_report(self):
        rep = recurrence_discrepancy_report(CASE_A)
        assert rep.first_table_mismatch == 2
        assert rep.printed_entry == RationalPolynomial([fr("57/20"), fr("-15/4"), 1])
        assert rep.oracle_entry == RationalPolynomial([fr("117/80"), fr("-7/2"), 1])
        # the printed recurrence applied at n=1 also contradicts its own seed
        assert rep.seed_consistency_mismatch_at_n1
        assert rep.recurrence_p1 == RationalPolynomial([-1, 1])

    def test_case_b_report_fails_at_n1(self):
        rep = recurrence_discrepancy_report(CASE_B_SYM)
        assert rep.seed_consistency_mismatch_at_n1
        # recurrence at n=1 gives x^2 - B/2 + 3/4 against the seed x^2 + B/2 + 1/4
        assert rep.recurrence_p1.coeffs[0] == RationalPolynomial([fr("3/4"), fr("-1/2")])
        assert "shifted" in rep.note


class TestMeasure:
    def test_weight_positive_and_decaying(self):
        for family in (CASE_A, CASE_B_32, WilsonFamily.case_b(Fraction(73, 10))):
            w = family_weight(family)
            xs = np.array([0.1, 0.5, 1.0, 3.0, 7.0])
            assert np.all(w.evaluate(xs) > 0)
            ratio = w.evaluate(np.array([21.0]))[0] / w.evaluate(np.array([20.0]))[0]
            # exponential rate 2*pi, modulo the slowly-varying polynomial factor
            assert abs(math.log(ratio) + 2 * math.pi) < 0.3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [113.2, 120.0, 200.0, 300.0])
    def test_case_b_density_past_cosh_overflow(self, x):
        # cosh(2 pi x) overflows past x ~ 113; the density must neither warn
        # nor leave the mpmath value (below the smallest normal double,
        # only in absolute terms)
        family = WilsonFamily.case_b(Fraction(73, 10))
        got = family_weight(family).evaluate(np.array([x]))[0]
        with mpmath.workdps(40):
            mx = mpmath.mpf(x)
            want = float(4 * mpmath.pi ** 2 * mx * mpmath.tanh(mpmath.pi * mx)
                         / (mpmath.cos(2 * mpmath.pi * family.s_value())
                            + mpmath.cosh(2 * mpmath.pi * mx)))
        assert got >= 0
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)

    def test_case_b_density_bits_where_cosh_is_finite(self):
        family = CASE_B_32
        xs = np.array([0.0, 0.1, 1.0, 20.0, 75.0, 113.0])
        c = math.cos(2.0 * math.pi * family.s_value())
        direct = 4.0 * np.pi ** 2 * xs * np.tanh(np.pi * xs) / (c + np.cosh(2.0 * np.pi * xs))
        assert np.array_equal(family_weight(family).evaluate(xs), direct)

    def test_case_a_norms(self):
        assert norm_closed_form(CASE_A, 0) == fr("2/3")
        assert norm_closed_form(CASE_A, 1) == fr("2/5")
        assert norm_closed_form(CASE_A, 2) == fr("288/175")

    def test_case_a_norm_is_recurrence_product(self):
        acc = norm_closed_form(CASE_A, 0)
        for n in range(1, 9):
            _, gamma = standard_recurrence_terms(CASE_A, n + 1)
            acc *= gamma
            assert norm_closed_form(CASE_A, n) == acc

    def test_printed_norm_table_disagrees_for_positive_n(self):
        assert printed_norm_rhs(CASE_A, 0) == norm_closed_form(CASE_A, 0)
        for n in range(1, 7):
            printed, true = printed_norm_rhs(CASE_A, n), norm_closed_form(CASE_A, n)
            assert printed != true
            # the deviation factor
            assert printed == true * Fraction(
                math.factorial(n + 2) ** 2, 2 * math.factorial(2 * n + 2))

    def test_case_b_mass_points(self):
        w = family_weight(CASE_B_32)
        s = CASE_B_32.s_value()
        assert len(w.point_masses) == 2
        for j, pm in enumerate(w.point_masses):
            assert abs(pm.t - (s - 0.5 - j)) < 1e-14
            assert abs(pm.mass - 2 * math.pi ** 2 * pm.t / math.sin(math.pi * s) ** 2) < 1e-10
            assert pm.y == -pm.t * pm.t
        assert len(family_weight(WilsonFamily.case_b(Fraction(-1, 2))).point_masses) == 1
        assert len(family_weight(WilsonFamily.case_b(Fraction(73, 10))).point_masses) == 3

    @pytest.mark.parametrize("b", [Fraction(-1, 2), Fraction(3, 2), Fraction(73, 10)])
    def test_masses_solve_orthogonality(self, b):
        # independent oracle: masses recovered from the orthogonality
        # conditions <P_0, P_k> = 0 must match the closed form
        family = WilsonFamily.case_b(b)
        weight = family_weight(family)
        table = monic_from_recurrence(family, len(weight.point_masses))
        from oracles import integrate
        from paritywilson.expand import auto_cutoff

        k_count = len(weight.point_masses)
        rows, rhs = [], []
        for k in range(1, k_count + 1):
            poly = table[k]
            coeffs = poly.float_coeffs()

            def f(x, c=coeffs):
                u = x * x
                acc = np.zeros_like(u)
                for cc in reversed(c):
                    acc = acc * u + cc
                return weight.evaluate(x) * acc
            cont, _ = integrate(f, auto_cutoff(2 * k), growth_degree=2 * k)
            rows.append([float(poly_eval(poly, pm.y)) for pm in weight.point_masses])
            rhs.append(-float(np.real(cont)))
        solved = np.linalg.solve(np.array(rows), np.array(rhs))
        for pm, m_solved in zip(weight.point_masses, solved):
            assert abs(pm.mass - m_solved) < 1e-8 * pm.mass

    def test_case_b_norm_past_the_float_range_is_named(self):
        # the exact part leaves the float range first (B(3/2) at 69, B(7.3)
        # at 70), or the float product with the reflection factor does
        assert norm_closed_form(CASE_B_32, 68) == 8.392865305465899e+303
        for b, n in (("3/2", 69), ("73/10", 69), ("73/10", 70), ("-1/2", 200)):
            family = WilsonFamily.case_b(fr(b))
            with pytest.raises(OverflowError, match=rf"^{re.escape(family.label())} norm of "
                                                    rf"degree {n} exceeds the float range$"):
                norm_closed_form(family, n)

    def test_degenerate_norms_rejected(self):
        with pytest.raises(DegenerateFamily):
            family_weight(WilsonFamily.case_b(0))
        with pytest.raises(DegenerateFamily):
            WilsonFamily.case_b(-1)
        assert norm_closed_form(CASE_A, 0) == fr("2/3")
        assert not family_weight(CASE_A).point_masses

    @pytest.mark.parametrize("family,n", [(CASE_A, 3), (CASE_B_32, 3)])
    def test_quadrature_matches_closed_norms(self, family, n):
        table = monic_from_recurrence(family, n)
        val, err = inner_product(family, table[n], table[n])
        want = float(norm_closed_form(family, n))
        assert abs(float(np.real(val)) - want) <= 1e-8 * want


class TestThreeRouteAgreement:
    def test_stieltjes_case_a(self):
        st_table = stieltjes_monic_table(CASE_A, 10)
        exact = monic_from_recurrence(CASE_A, 10)
        for n in range(11):
            want = np.array(exact[n].float_coeffs())
            got = st_table[n]
            rel = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
            assert rel < 1e-8, (n, rel)

    def test_stieltjes_case_b(self):
        # B(73/10) has three point masses
        for family, n_max in ((CASE_B_32, 6), (WilsonFamily.case_b(Fraction(73, 10)), 10)):
            st_table = stieltjes_monic_table(family, n_max)
            exact = monic_from_recurrence(family, n_max)
            for n in range(n_max + 1):
                want = np.array(exact[n].float_coeffs())
                rel = np.max(np.abs(st_table[n] - want) / np.maximum(1.0, np.abs(want)))
                assert rel < 1e-8, (family.label(), n, rel)


class TestGeneratingFunctions:
    FAMILIES = [CASE_A] + [WilsonFamily.case_b(fr(b)) for b in ("-1/2", "3/2", "73/10")]

    def test_t_zero_reduces_to_leading_prefactor(self):
        # at t = 0 each identity is its degree-0 coefficient: c_0 P_0 = RHS(x, 0)
        for family in (CASE_A, CASE_B_32):
            assert generating_function_check(family, 0) == (None, None, None)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label())
    def test_every_identity_holds_to_degree_twenty_five(self, family):
        assert generating_function_check(family, 25) == (None, None, None)

    def test_case_a_first_identity(self):
        # well past the extended cap of verify
        assert generating_function_check(CASE_A, 40)[0] is None

    def test_case_b_identities(self):
        # one, five and ten point masses
        for b in ("1/100", "20", "100"):
            family = WilsonFamily.case_b(fr(b))
            assert generating_function_check(family, 12) == (None, None, None), b

    def test_printed_forms_fail(self):
        # identity 2 is correct as printed
        assert generating_function_check(CASE_A, 25, form="printed") == (1, None, 0)

    def test_degenerate_b_rejected(self):
        with pytest.raises(DegenerateFamily):
            generating_function_check(WilsonFamily.case_b(3), 5)

    def test_symbolic_b_is_refused(self):
        with pytest.raises(ValueError, match="^generating functions need a numeric B$"):
            generating_function_check(CASE_B_SYM, 5)

    @pytest.mark.parametrize("family", [CASE_A, CASE_B_32], ids=lambda f: f.label())
    def test_unknown_form_is_refused(self, family):
        with pytest.raises(ValueError, match="^unknown recurrence form 'bogus'$"):
            generating_function_check(family, 5, form="bogus")


def _closed_form(family, ident, form, x):
    """The paper's right side RHS(x, t) as a function of t, in mpmath: the
    products of two 2F1 in -t, or the 3F2 in 4t/(1+t)^2 (a 4F3 with one
    parameter cancelled).  The factor sin(pi s)/(pi s) of Case B identities 2
    and 3 multiplies both sides and is left out, as the library leaves it."""
    y = 1j * x
    hyp2f1, hyp3f2 = mpmath.hyp2f1, mpmath.hyp3f2
    if family.case == "A":
        if ident == 1:
            c = 1 if form == "printed" else 3
            return lambda t: hyp2f1(0.5 + y, 0.5 + y, 1, -t) * hyp2f1(1.5 - y, 1.5 - y, c, -t)
        if ident == 2:
            return lambda t: hyp2f1(0.5 + y, 1.5 + y, 2, -t) * hyp2f1(0.5 - y, 1.5 - y, 2, -t)
        scale = 1 if form == "printed" else 2
        return lambda t: scale / (1 + t) ** 3 * hyp3f2(1.5, 0.5 + y, 0.5 - y, 1, 2,
                                                      4 * t / (1 + t) ** 2)
    s = mpmath.sqrt(mpmath.mpf(family.b.numerator) / family.b.denominator + 1)
    if ident == 1:
        return lambda t: hyp2f1(0.5 + y, 0.5 + y, 1, -t) * hyp2f1(0.5 - s - y, 0.5 + s - y, 1, -t)
    if ident == 2:
        return lambda t: (hyp2f1(0.5 + y, 0.5 - s + y, 1 - s, -t)
                          * hyp2f1(0.5 - y, 0.5 + s - y, 1 + s, -t))
    return lambda t: hyp3f2(0.5, 0.5 + y, 0.5 - y, 1 - s, 1 + s, 4 * t / (1 + t) ** 2) / (1 + t)


@pytest.mark.parametrize("family, ident, form", [
    (CASE_A, 1, "corrected"), (CASE_A, 2, "corrected"), (CASE_A, 3, "corrected"),
    (CASE_A, 1, "printed"), (CASE_A, 3, "printed"),
    *[(WilsonFamily.case_b(fr(b)), ident, "corrected")
      for b in ("3/2", "73/10") for ident in (1, 2, 3)],
], ids=lambda v: v.label() if isinstance(v, WilsonFamily) else str(v))
def test_right_sides_match_the_taylor_coefficients_of_the_closed_forms(family, ident, form):
    # [t^n] of each closed form by mpmath.taylor at 40 digits, against the
    # library's value at the node y = ix = -(n + 1/2) (identity 1: also
    # n + 1/2), where no Pochhammer of the first factor vanishes; the library's
    # a + b t reads t = q sqrt(B+1).  This pins the transcription of the right
    # sides, independently of the tables.
    with mpmath.workdps(40):
        t_unit = 1 if family.case == "A" else family.b.denominator * mpmath.sqrt(
            mpmath.mpf(family.b.numerator) / family.b.denominator + 1)
        for n, (_, d, sums) in enumerate(wilson._genfun_rhs(family, ident, form, 12)):
            for (a, b), y in zip(sums[n], (-(n + 0.5), n + 0.5)):
                want = mpmath.taylor(_closed_form(family, ident, form, -1j * y), 0, n)[n]
                got = (a + b * t_unit) / mpmath.mpf(d)
                assert abs(got - want) <= mpmath.mpf(10) ** -30 * max(1, abs(want)), (n, y)


@given(st.fractions(min_value=-3, max_value=3, max_denominator=8))
@settings(max_examples=25, deadline=None)
def test_terminating_pfq_equals_horner_on_tables(z):
    # exact-arithmetic identity between the hypergeometric route and the
    # tabulated polynomials, over random rational arguments
    from oracles import hyp_pfq_terminating
    for n in range(1, 5):
        pref = Fraction(
            math.factorial(n - 1) * math.factorial(n) ** 2 * math.factorial(n + 1),
            math.factorial(2 * n))
        val = pref * hyp_pfq_terminating(
            [1 - n, n + 2, Fraction(1, 2) - z, Fraction(1, 2) + z], [1, 2, 2],
            Fraction(1), n - 1)
        g = alternating_reflect(monic_from_hypergeometric(CASE_A, n - 1), n - 1)
        assert val == poly_eval(g, z * z)
