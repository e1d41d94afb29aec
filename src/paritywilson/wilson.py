"""Two specialized monic Wilson polynomial families.

Case A fixes the four parameters at (1/2, 1/2, 3/2, 3/2); Case B at
(1/2, 1/2, 1/2-s, 1/2+s) with s = sqrt(B+1), where B may be numeric or a
symbolic indeterminate.  Each family is constructed by independent routes
(terminating hypergeometric expansion, three-term recurrence) that must
agree exactly, and carries its orthogonality measure and closed-form norms.
Its generating functions are checked as exact identities, one power of t
at a time, with the right sides built from the weight's parameters alone.

The source text's printed recurrences, its Case A norm table, and two of
its Case A generating identities are internally inconsistent with its own
polynomial tables; this module implements the corrected forms (re-derived
from the standard monic Wilson recurrence / generating functions) and keeps
the printed forms available behind ``form="printed"`` so the discrepancies
are regression-tested artifacts rather than silent fixes.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable

import numpy as np

from .errors import DegenerateFamily
from .numcore import (
    BParamPolynomial,
    RationalPolynomial,
    _mul_add,
    _three_term,
    _widen,
    poly_eval,
)

CASE_A = "A"
CASE_B = "B"
TWO_PI = 2.0 * math.pi

_B_SYMBOL = RationalPolynomial([0, 1])  # the indeterminate B


def _check_case(case: str) -> None:
    """Refuse a case tag other than CASE_A and CASE_B."""
    if case not in (CASE_A, CASE_B):
        raise ValueError(f"unknown case {case!r}: expected {CASE_A!r} or {CASE_B!r}")


@dataclass(frozen=True)
class WilsonFamily:
    """Parameter bundle: case tag plus the Case B parameter value.

    ``b`` is None for Case A and for the symbolic Case B mode (polynomials
    with coefficients polynomial in B), and is otherwise stored as the
    exact Fraction of the value given.  Numeric Case B requires B > -1;
    sqrt(B+1) a positive integer is allowed at construction (polynomials are
    fine there) but rejected by weights, norms, and prefactor-normalized
    constructions.
    """

    case: str
    b: Fraction | None = None

    def __post_init__(self):
        _check_case(self.case)
        # equal families hash alike and share cached tables, so an int or
        # float B must build the same exact tables as its Fraction
        if self.b is not None and not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", Fraction(self.b))
        # hashed once: a family keys every table and cache lookup; the
        # integer s, found once, is checked by every weight, norm and float table
        object.__setattr__(self, "_hash", hash((self.case, self.b)))
        object.__setattr__(self, "_integer_s", self.integer_s())

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # a str hash differs between processes
        return WilsonFamily, (self.case, self.b)

    @staticmethod
    def case_a() -> "WilsonFamily":
        return WilsonFamily(CASE_A)

    @staticmethod
    def case_b(b=None) -> "WilsonFamily":
        if b is None:
            return WilsonFamily(CASE_B, None)
        family = WilsonFamily(CASE_B, b)
        if family.b <= -1:
            raise DegenerateFamily(f"Case B requires B > -1, got {float(family.b)}")
        return family

    @property
    def symbolic(self) -> bool:
        return self.case == CASE_B and self.b is None

    def s_value(self) -> float:
        """sqrt(B+1) for numeric Case B."""
        if self.case != CASE_B or self.b is None:
            raise ValueError("s is defined for numeric Case B only")
        return math.sqrt(float(self.b) + 1.0)

    def integer_s(self) -> int | None:
        """The integer k >= 1 with sqrt(B+1) == k, exactly or to within
        1e-12, if any."""
        if self.case != CASE_B or self.b is None:
            return None
        p, q = self.b.numerator, self.b.denominator
        if p + q <= 0:  # B <= -1: no real s
            return None
        if q == 1 and math.isqrt(p + 1) ** 2 == p + 1:  # B + 1 a square integer
            return math.isqrt(p + 1)
        s = self.s_value()
        k = round(s)
        if k >= 1 and abs(s - k) < 1e-12:
            return k
        return None

    def require_nondegenerate(self, n: int | None = None) -> None:
        """Reject sqrt(B+1) in Z+ (optionally only when <= n)."""
        k = self._integer_s
        if k is not None and (n is None or k <= n):
            raise DegenerateFamily(
                f"sqrt(B+1) = {k} is a positive integer; Gamma factors degenerate")

    def label(self) -> str:
        if self.case == CASE_A:
            return "A"
        return "B(symbolic)" if self.symbolic else f"B({float(self.b)})"


# ---------------------------------------------------------------------------
# construction route 1: terminating hypergeometric expansion
# ---------------------------------------------------------------------------

def _hypergeometric(n: int, symbolic: bool):
    """The monic member of degree n by its terminating 4F3 form, pref * sum_k
    c_k tail_k prod_{j<k} (4u + (2j+1)^2) with c_0 = 1 and the term ratio
    c_{k+1}/c_k = num_k/den_k, as Horner's scheme in u on one integer grid:
    H_n = 1, H_k = d_k tail_k + num_k (4u + (2k+1)^2) H_{k+1} with
    d_k = den_k d_{k+1}, and the sum H_0/d_0 reduced once with pref.

    Case A: the monic normalizer (-1)^n (n+2)!/(2n+2)! times
    W_n = n!((n+1)!)^2 4F3(...), 4^k c_k = (-n)_k (n+3)_k / ((1)_k (2)_k^2 k!),
    tail_k = 1.  Symbolic Case B: (1-s)_k (1+s)_k pairs into
    prod_{j=1..k} (j^2 - 1 - B), so the expansion is polynomial in B with no
    square roots anywhere; 4^k c_k = (-n)_k (n+1)_k / ((1)_k k!), and the row
    in B tail_k = prod_{j=k+1..n} (j^2 - 1 - B) is built in the same loop.  Row
    i of H_k has B-degree at most n-k-i: the grid takes tail_k's width n-k+1."""
    acc, tail, den, width = [1], [1], 1, 1
    for k in range(n - 1, -1, -1):
        if symbolic:
            tail = _mul_add(tail, [(k + 1) ** 2 - 1, -1], 1, (), 0)
            r = Fraction((k - n) * (k + n + 1), 4 * (k + 1) ** 2)
        else:
            r = Fraction((k - n) * (k + n + 3), 4 * (k + 1) ** 2 * (k + 2) ** 2)
        den *= r.denominator
        acc, width = _widen(acc, width, len(tail)), len(tail)
        linear = [r.numerator * (2 * k + 1) ** 2] + [0] * (width - 1) + [4 * r.numerator]
        acc = _mul_add(acc, linear, width, tail, den)
    f = math.factorial
    pref = (Fraction((-1) ** n * f(n) ** 2, f(2 * n)) if symbolic
            else Fraction((-1) ** n * f(n + 2) * f(n) * f(n + 1) ** 2, f(2 * n + 2)))
    return (BParamPolynomial if symbolic else RationalPolynomial)._make(
        [x * pref.numerator for x in acc], width, den * pref.denominator)


def monic_from_hypergeometric(family: WilsonFamily, n: int):
    """Monic family member of degree n in the squared variable, by exact
    expansion of the terminating 4F3 form.

    Case B with numeric B raises DegenerateFamily when sqrt(B+1) is in
    {1..n} (the prefactor Pochhammer of the printed normalized form
    vanishes); the symbolic route has no restriction.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if family.case == CASE_A:
        return _hypergeometric(n, False)
    sym = _hypergeometric(n, True)
    if family.symbolic:
        return sym
    family.require_nondegenerate(n)
    return sym.substitute_b(family.b)


# ---------------------------------------------------------------------------
# construction route 2: three-term recurrence (corrected and printed forms)
# ---------------------------------------------------------------------------

def _terms_in_b(family: WilsonFamily, beta0: int, sign: int, m: int, k: int, d: int):
    """((beta0 + 2 sign B) / 4, k (m - B)^2 / d) from integers, each by one
    constructor: a Fraction at numeric B = p/q, a grid in B for symbolic B
    (d < 0 only where k = 0, so a grid's denominator stays positive)."""
    if family.symbolic:
        return (RationalPolynomial._make([beta0, 2 * sign], 1, 4),
                RationalPolynomial._make([k * m * m, -2 * k * m, k], 1, d))
    p, q = family.b.numerator, family.b.denominator
    return Fraction(beta0 * q + 2 * sign * p, 4 * q), Fraction(k * (m * q - p) ** 2, d * q * q)


def standard_recurrence_terms(family: WilsonFamily, n: int):
    """(beta_n, gamma_n) of P_n = (u + beta_n) P_{n-1} - gamma_n P_{n-2},
    re-derived from the standard monic Wilson recurrence coefficients
    A_{n-1} C_n for this family's parameters.

    Each term is one constructor on integers: a Fraction (Case A, numeric
    B) or a grid in B (symbolic B); s only ever enters through s^2 = B + 1.
    """
    if family.case == CASE_A:
        return Fraction(1 - 2 * n * (n + 1), 4), Fraction(
            (n - 1) ** 2 * n ** 2 * (n + 1) ** 2, 4 * (2 * n - 1) * (2 * n + 1))
    return _terms_in_b(family, 1 - 2 * n * (n - 1), 1, n * n - 2 * n, (n - 1) ** 2,
                       4 * (2 * n - 3) * (2 * n - 1))


def printed_recurrence_terms(family: WilsonFamily, n: int):
    """(beta_n, gamma_n, sign) exactly as printed in the source appendix
    tables: P_n = (u + beta_n) P_{n-1} + sign * gamma_n * P_{n-2}, each term
    built from integers as in :func:`standard_recurrence_terms`."""
    if family.case == CASE_A:
        return Fraction(-n * (n + 1), 2), Fraction(
            (n - 1) ** 2 * n ** 2 * (n + 1) ** 2, 4 * (2 * n - 1) * (2 * n + 1)), +1
    return (*_terms_in_b(family, 2 * n * (n + 1) - 1, -1, n * n - 1, n * n,
                         4 * (2 * n - 1) * (2 * n + 1)), +1)


def _seeds(family: WilsonFamily):
    """P_0 and P_1 as printed: 1, and u - 3/4 (Case A) or u + B/2 + 1/4."""
    cls = BParamPolynomial if family.symbolic else RationalPolynomial
    b = _B_SYMBOL if family.symbolic else family.b
    return cls([1]), cls([Fraction(-3, 4) if family.case == CASE_A else b / 2 + Fraction(1, 4), 1])


# every sequence the library caches as a growing prefix, by (family, kind):
# the exact recurrence tables ("corrected", "printed", "reflected"), the
# "pochhammer" pairs and "norm parts" of numeric Case B, the "float
# recurrence" rows of ``expand`` and, under (None, "lgamma"), its log-gamma
# terms; a key only ever gets a longer tuple
_PREFIXES: dict = {}
_PREFIXES_LOCK = threading.Lock()


def _prefix(key, n: int, first: Callable, step: Callable) -> tuple:
    """Entries 0..n at least of the sequence under ``key``: the cached
    prefix, or first(), run on by appending step(entries so far).  A longer
    prefix is built outside the lock, so a step may read another key's
    prefix, and published under it as a new tuple, unless another caller
    published one at least as long: no caller sees a partial prefix."""
    seq = _PREFIXES.get(key) or first()
    if len(seq) <= n:
        seq = list(seq)
        while len(seq) <= n:
            seq.append(step(seq))
        seq = tuple(seq)
        with _PREFIXES_LOCK:
            if len(seq) > len(_PREFIXES.get(key, ())):
                _PREFIXES[key] = seq
    return seq


def _recurrence_table(key: tuple[WilsonFamily, str], n_max: int, seeds: Callable,
                      terms: Callable) -> tuple:
    """T_0..T_{n_max} of the table under ``key``: the two seeds() run on by
    T_n = (u + a_n) T_{n-1} - c_n T_{n-2}, (a_n, c_n) = terms(n), from the
    cached prefix."""
    return _prefix(key, n_max, seeds, lambda polys: _three_term(
        polys[-1], (ac := terms(len(polys)))[0], polys[-2], ac[1]))[: n_max + 1]


def monic_from_recurrence(family: WilsonFamily, n_max: int, form: str = "corrected") -> tuple:
    """Build P_0..P_{n_max} from the printed seeds and the three-term
    recurrence.  Returns them as a tuple of RationalPolynomial (numeric B
    or Case A) or BParamPolynomial (symbolic Case B).

    form="corrected" uses the re-derived standard terms and must agree with
    :func:`monic_from_hypergeometric` exactly; form="printed" applies the
    appendix tables verbatim (seeds honored, recurrence from n=2) and is the
    input to the discrepancy detector.  Tables are cached per (family, form)
    in the prefix store.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if form not in ("corrected", "printed"):
        raise ValueError(f"unknown recurrence form {form!r}")

    def terms(n):
        if form == "corrected":
            return standard_recurrence_terms(family, n)
        beta, gamma, sign = printed_recurrence_terms(family, n)
        return beta, -sign * gamma
    return _recurrence_table((family, form), n_max, lambda: _seeds(family), terms)


@dataclass(frozen=True)
class RecurrenceDiscrepancyReport:
    """Regression-tested record of the printed-vs-corrected recurrence split."""

    case: str
    first_table_mismatch: int | None
    printed_entry: object
    oracle_entry: object
    seed_consistency_mismatch_at_n1: bool
    recurrence_p1: object
    printed_seed_p1: object
    note: str


def recurrence_discrepancy_report(family: WilsonFamily, n_max: int = 4) -> RecurrenceDiscrepancyReport:
    """Compare the printed recurrence against the hypergeometric oracle.

    Also applies the printed recurrence at n=1 (with P_{-1} = 0) and checks
    it against the printed seed, which is where the Case B inconsistency
    first shows.
    """
    printed = monic_from_recurrence(family, n_max, form="printed")
    first = None
    printed_entry = oracle_entry = None
    for n in range(n_max + 1):
        if family.case == CASE_A:
            oracle = monic_from_hypergeometric(family, n)
        else:
            oracle = _hypergeometric(n, True)
            if not family.symbolic:
                oracle = oracle.substitute_b(family.b)
        if printed[n] != oracle:
            first, printed_entry, oracle_entry = n, printed[n], oracle
            break
    p0, p1 = _seeds(family)
    rec_p1 = type(p0)([printed_recurrence_terms(family, 1)[0], 1]) * p0
    note = ("printed Case B terms coincide with the recurrence satisfied by the "
            "reflected family (u -> -u, index shifted by one) in the linear "
            "coefficient and in the magnitude of the second coefficient, but "
            "with the opposite sign on the second term; printed Case A terms "
            "additionally drop the +1/4 in the linear coefficient."
            if family.case == CASE_B else
            "printed Case A recurrence differs from the corrected one by the "
            "missing +1/4 in the linear coefficient and by the sign of the "
            "second term.")
    return RecurrenceDiscrepancyReport(
        case=family.case,
        first_table_mismatch=first,
        printed_entry=printed_entry,
        oracle_entry=oracle_entry,
        seed_consistency_mismatch_at_n1=(rec_p1 != p1),
        recurrence_p1=rec_p1,
        printed_seed_p1=p1,
        note=note,
    )


# ---------------------------------------------------------------------------
# orthogonality measure and norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointMass:
    """Discrete component of the Case B measure: mass at x = i*t, i.e. at
    squared argument y = -t^2 < 0."""

    t: float
    y: float
    mass: float


@dataclass(frozen=True)
class WeightFunction:
    """Orthogonality measure: continuous density on (0, inf) plus (Case B
    with sqrt(B+1) > 1/2) finitely many point masses at negative squared
    argument.  The density decays like exp(-2*pi*x)."""

    family: WilsonFamily
    evaluate: Callable[[np.ndarray], np.ndarray]
    point_masses: tuple[PointMass, ...] = ()


def _sinh_over_cosh_cubed(x):
    """sinh(pi x) / cosh(pi x)^3, written as 4 q (1 - q) / (1 + q)^3 with
    q = exp(-2 pi |x|) so that it neither overflows (cosh^3 does past
    x ~ 75) nor cancels near 0."""
    x = np.asarray(x, dtype=float)
    q = np.exp(-TWO_PI * np.abs(x))
    return np.sign(x) * 4.0 * q * -np.expm1(-TWO_PI * np.abs(x)) / (1.0 + q) ** 3


def _case_a_weight(x):
    x = np.asarray(x, dtype=float)
    return (np.pi ** 2 / 4.0) * x * (1.0 + 4.0 * x * x) ** 2 * _sinh_over_cosh_cubed(x)


def family_weight(family: WilsonFamily) -> WeightFunction:
    """The orthogonality measure of the family (Case B must be numeric and
    nondegenerate)."""
    if family.case == CASE_A:
        return WeightFunction(family, _case_a_weight)
    if family.symbolic:
        raise ValueError("weights need a numeric B")
    family.require_nondegenerate()
    s = family.s_value()
    cos2pis = math.cos(2.0 * math.pi * s)

    def w(x, _c=cos2pis):
        x = np.asarray(x, dtype=float)
        arg = 2.0 * np.pi * x
        num = 4.0 * np.pi ** 2 * x * np.tanh(np.pi * x)
        # where cosh overflows (2 pi |x| > ~710.5), use
        # 1/(c + cosh a) = 2q / (1 + 2cq + q^2) with q = exp(-|a|) instead
        with np.errstate(over="ignore"):
            cosh = np.cosh(arg)
        q = np.exp(-np.abs(arg))
        return np.where(np.isinf(cosh), 2.0 * num * q / (1.0 + q * (2.0 * _c + q)),
                        num / (_c + cosh))

    masses = []
    sin2 = math.sin(math.pi * s) ** 2
    j = 0
    while s - 0.5 - j > 1e-14:
        t = s - 0.5 - j
        masses.append(PointMass(t=t, y=-t * t, mass=2.0 * math.pi ** 2 * t / sin2))
        j += 1
    return WeightFunction(family, w, tuple(masses))


def _pochhammer_pairs(family: WilsonFamily, n: int) -> Fraction:
    """(1-s)_n (1+s)_n = prod_{j=1..n} (j^2 - 1 - B), s = sqrt(B+1), exactly:
    the family's cached prefix products."""
    return _prefix((family, "pochhammer"), n, lambda: (Fraction(1),),
                   lambda prods: prods[-1] * (len(prods) ** 2 - 1 - family.b))[n]


def norm_closed_form(family: WilsonFamily, n: int):
    """Closed-form squared norm <P_n, P_n> under the family measure.

    Case A: exact rational, (n!)^3 [(n+1)!]^3 [(n+2)!]^2 / [(2n+1)!(2n+3)!]
    (the re-derived value; the printed table is available from
    :func:`printed_norm_rhs` and disagrees for n >= 1).
    Case B: the printed closed form, with every Gamma ratio rewritten via
    Pochhammer products and the reflection identity: its exact part
    n!^4 ((1-s)_n (1+s)_n)^2 / ((2n)! (2n+1)!), rounded once into the
    family's cached prefix (inf past the float range), times the
    reflection factor twice.  A norm is never derived from the recurrence,
    which it verifies.  A Case B norm past the float range raises
    OverflowError, naming the family and the degree.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    f = math.factorial
    if family.case == CASE_A:
        return Fraction(f(n) ** 3 * f(n + 1) ** 3 * f(n + 2) ** 2, f(2 * n + 1) * f(2 * n + 3))
    if family.symbolic:
        raise ValueError("norms need a numeric B")
    family.require_nondegenerate()

    def part(parts):  # the next exact part, reading the Pochhammer prefix
        k = len(parts)
        try:  # float() of the exact part overflows first, or the product below does
            exact = Fraction(f(k) ** 4, f(2 * k) * f(2 * k + 1)) * _pochhammer_pairs(family, k) ** 2
            return float(exact)
        except OverflowError:
            return math.inf
    s = family.s_value()
    refl = math.pi * s / math.sin(math.pi * s)  # Gamma(1-s)Gamma(1+s)
    norm = _prefix((family, "norm parts"), n, tuple, part)[n] * refl * refl
    if norm == math.inf:
        raise OverflowError(f"{family.label()} norm of degree {n} exceeds the float range")
    return norm


def printed_norm_rhs(family: WilsonFamily, n: int):
    """The source text's norm right-hand side, verbatim.

    For Case A this disagrees with the actual norms for n >= 1 (it equals
    the true norm times (n+2)!^2 / (2 (2n+2)!)); kept as the discrepancy
    detector's reference.  For Case B it coincides with
    :func:`norm_closed_form`.
    """
    if family.case == CASE_A:
        return Fraction(
            math.factorial(n) ** 2 * math.factorial(n + 1) ** 4 * math.factorial(n + 2) ** 4,
            math.factorial(2 * n + 2) ** 2 * math.factorial(2 * n + 3))
    return norm_closed_form(family, n)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _genfun_rhs(family: WilsonFamily, identity_id: int, form: str, n_max: int):
    """Identity ``identity_id`` from the weight's parameters alone: yields,
    for n = 0..n_max, (c_n, d, sums) such that the identity at degree n reads
    c_n P_n(-y^2) = [t^n] RHS(y) = a / d for every (a, b) in sums[j]: the
    values at the node y = ix = -(j + 1/2) and, for identity 1 only, at
    y = j + 1/2, j = 0..n.  A pair (a, b) of ints stands for a + b t, with
    t = q sqrt(B+1) at B = p/q (t^2 = q (p + q)); b can be nonzero only in
    Case B identity 2, where it must vanish.

    Both sides have degree at most 2n in y, and the left side is even.  So
    is the right side of identities 2 and 3: it reads y only through
    (1/2 + y)_k (1/2 - y)_k, or y -> -y swaps its two 2F1 factors (in Case B
    identity 2 together with s -> -s, so that a is even in y and b odd).
    Their n + 1 nodes have distinct y^2, and identity 1 has 2n + 2 distinct
    y, so agreement certifies degree n for every x.

    Write v = 1/2 + y, an integer at the nodes: every Pochhammer (h +- y)_k
    of the paper's parameters is then a product of integers.  The 2F1
    products (identities 1, 2) give [t^n] = (-1)^n sum_k alpha_k beta_{n-k}; identity 3 expands
    (4t/(1+t)^2)^k / (1+t)^e by [t^n] = 4^k (-1)^(n-k) C(n+k+e-1, n-k).
    Each alpha_k (beta_k) is a weight in k, hoisted over one denominator,
    times the product over i < k of factor(i, v).  Case B reads 1/(1 -+ s)_k
    as (1 +- s)_k / pi_k, with pi_k = (1-s)_k (1+s)_k rational in B.
    form="printed" keeps the two Case A misprints: denominator parameter 1
    for 3 in identity 1, and identity 3 without its overall factor 2.
    """
    f = math.factorial
    mul, lift, beta, e, t2 = operator.mul, int, None, None, 0
    if family.case == CASE_A:
        if identity_id == 1:
            d = 1 if form == "printed" else 3
            c = lambda n: Fraction(2 * f(2 * n + 2), f(n) ** 2 * f(n + 2) ** 2)
            alpha = lambda k: Fraction(1, f(k) ** 2), lambda i, v: (v + i) ** 2
            beta = lambda k: Fraction(f(d - 1), f(k) * f(k + d - 1)), lambda i, v: (2 - v + i) ** 2
        elif identity_id == 2:
            c = lambda n: Fraction(f(2 * n + 2), f(n) * f(n + 1) ** 2 * f(n + 2))
            alpha = lambda k: Fraction(1, f(k) * f(k + 1)), lambda i, v: (v + i) * (v + 1 + i)
            beta = lambda k: Fraction(1, f(k) * f(k + 1)), lambda i, v: (1 - v + i) * (2 - v + i)
        else:
            scale, e = (1 if form == "printed" else 2), 3
            c = lambda n: Fraction(f(2 * n + 2), f(n) ** 2 * f(n + 1) ** 2)
            alpha = (lambda k: Fraction(scale * f(2 * k + 1), 4 ** k * f(k) ** 3 * f(k + 1)),
                     lambda i, v: (v + i) * (1 - v + i))
    else:
        p, q = family.b.numerator, family.b.denominator
        pi = functools.partial(_pochhammer_pairs, family)
        c = lambda n: Fraction(f(2 * n), f(n) ** 2) / (f(n) ** 2 if identity_id == 1 else pi(n))
        if identity_id == 1:
            alpha = lambda k: Fraction(1, f(k) ** 2), lambda i, v: (v + i) ** 2
            beta = (lambda k: Fraction(1, f(k) ** 2 * q ** k),
                    lambda i, v: q * ((1 - v + i) ** 2 - 1) - p)
        elif identity_id == 2:
            t2 = q * (p + q)

            def mul(x, y):
                (x0, x1), (y0, y1) = x, y
                return x0 * y0 + t2 * x1 * y1, x0 * y1 + x1 * y0

            def lift(w):
                return w, 0
            # (v)_k (v-s)_k (1+s)_k and (1-v)_k (1-v+s)_k (1-s)_k, each s-factor
            # times q: the factors w (q w - t) (q (1+i) + t), w = v + i, and
            # w (q w + t) (q (1+i) - t), w = 1 - v + i, multiplied out
            weight = lambda k: 1 / (f(k) * pi(k) * q ** (2 * k))
            alpha = weight, lambda i, v: ((v + i) * (q * q * (v + i) * (1 + i) - t2),
                                          q * (v + i) * (v - 1))
            beta = weight, lambda i, v: ((1 - v + i) * (q * q * (1 - v + i) * (1 + i) - t2),
                                         q * (1 - v + i) * v)
        else:
            e = 1
            alpha = (lambda k: Fraction(f(2 * k), 4 ** k * f(k) ** 2) / pi(k),
                     lambda i, v: (v + i) * (1 - v + i))

    def hoisted(weight):  # (w_k * den for k <= n_max, den)
        ws = [weight(k) for k in range(n_max + 1)]
        den = math.lcm(*(w.denominator for w in ws))
        return [lift(w.numerator * (den // w.denominator)) for w in ws], den

    def weighted(w, factor, v: int):
        """w_k prod_{i<k} factor(i, v) for k <= n_max: a list of ints, or two
        lists (the parts a and b of a + b t)."""
        out = list(map(mul, w, accumulate(map(factor, range(n_max), repeat(v)), mul,
                                          initial=lift(1))))
        return out if lift is int else ([a for a, _ in out], [b for _, b in out])

    def dot(x, z) -> int:
        return sum(map(operator.mul, x, z))

    width = 2 if identity_id == 1 else 1  # nodes per j: v = -j, then j + 1
    vs = [v for j in range(n_max + 1) for v in (-j, j + 1)[:width]]
    wa, den = hoisted(alpha[0])
    xs = [weighted(wa, alpha[1], v) for v in vs]
    if beta is not None:
        wb, den_b = hoisted(beta[0])
        den *= den_b
        zs = [weighted(wb, beta[1], v) for v in vs]
    for n in range(n_max + 1):  # sum_k x_k z_{n-k} is dot(x, z[n::-1])
        at_nodes = xs[:(n + 1) * width]
        if beta is None:
            g = [4 ** k * (-1) ** (n - k) * math.comb(n + k + e - 1, n - k) for k in range(n + 1)]
            sums = [(dot(x, g), 0) for x in at_nodes]
        elif lift is int:
            sums = [(dot(x, z[n::-1]), 0) for x, z in zip(at_nodes, zs)]
        else:
            sums = [(dot(xa, za[n::-1]) + t2 * dot(xb, zb[n::-1]),
                     dot(xa, zb[n::-1]) + dot(xb, za[n::-1]))
                    for (xa, xb), (za, zb) in zip(at_nodes, zs)]
        yield (c(n), den if beta is None else (-1) ** n * den,
               [sums[i:i + width] for i in range(0, len(sums), width)])


def generating_function_check(family: WilsonFamily, identity_id: int, n_max: int,
                              form: str = "corrected") -> int | None:
    """The first degree n <= n_max at which generating identity
    ``identity_id`` fails, or None when it holds at every degree.

    Each identity reads sum_n c_n P_n(x^2) t^n = RHS(x, t).  With y = ix,
    c_n P_n(-y^2) and [t^n] RHS(y) are polynomials of degree at most 2n in y,
    compared at the nodes y = -+(j + 1/2), j <= n, that certify degree n for
    every x (see :func:`_genfun_rhs`, which reads only the weight's
    parameters).  The left side reads the cached exact table, once per
    y^2; both sides run on integers.

    identity_id is 1..3 per family (Case A: the two 2F1-product identities
    and the quadratic-argument 4F3 identity; Case B: the 2F1 product, the
    split-parameter 2F1 product, and the 4F3 form).  form="printed" keeps
    the two Case A misprints (wrong denominator parameter in identity 1,
    missing factor 2 in identity 3) for the discrepancy detector.
    """
    if identity_id not in (1, 2, 3):
        raise ValueError("identity_id must be 1, 2, or 3")
    if form not in ("corrected", "printed"):
        raise ValueError(f"unknown recurrence form {form!r}")
    if family.case == CASE_B:
        if family.b is None:
            raise ValueError("generating functions need a numeric B")
        family.require_nondegenerate()
    table = monic_from_recurrence(family, n_max)
    nodes = [Fraction(-(2 * j + 1) ** 2, 4) for j in range(n_max + 1)]  # -y^2
    for n, (c, d, sums) in enumerate(_genfun_rhs(family, identity_id, form, n_max)):
        left, right = c.numerator * d, c.denominator
        for u, values in zip(nodes, sums):
            v = poly_eval(table[n], u)
            lhs, scale = left * v.numerator, right * v.denominator
            for a, b in values:
                if b or a * scale != lhs:
                    return n
    return None


# ---------------------------------------------------------------------------
# pairing between the difference-equation tables and the monic families
# ---------------------------------------------------------------------------

def alternating_reflect(p, parity: int):
    """(-1)^parity * p(-u): maps between the monic family and the printed
    difference-equation eigenfunction tables (which live at reflected
    squared argument)."""
    out = p.reflect()
    return out if parity % 2 == 0 else -out
