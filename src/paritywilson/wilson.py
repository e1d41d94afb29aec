"""Two specialized monic Wilson polynomial families.

Case A fixes the four parameters at (1/2, 1/2, 3/2, 3/2); Case B at
(1/2, 1/2, 1/2-s, 1/2+s) with s = sqrt(B+1), where B may be numeric or a
symbolic indeterminate.  Each family is constructed by independent routes
(terminating hypergeometric expansion, three-term recurrence) that must
agree exactly, and carries its orthogonality measure and closed-form norms.

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
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DegenerateFamily
from .numcore import (
    BParamPolynomial,
    RationalPolynomial,
    _mul_add,
    _three_term,
    _widen,
    hyp_pfq_series,
    poly_eval,
)

CASE_A = "A"
CASE_B = "B"
TWO_PI = 2.0 * math.pi
_GENFUN_TOL = 1e-10  # absolute part of a generating-function check's budget

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

@dataclass(frozen=True)
class GenFunReport:
    family: str
    identity_id: int
    form: str
    x: float
    t: float
    n_terms: int
    lhs: complex
    rhs: complex
    abs_diff: float
    truncation_bound: float
    tol: float
    passed: bool


@functools.lru_cache(maxsize=1024)
def _lhs_coefficient(family: WilsonFamily, identity_id: int, n: int) -> float:
    f = math.factorial
    if family.case == CASE_A:
        if identity_id == 1:
            return float(Fraction(2 * f(2 * n + 2), f(n) ** 2 * f(n + 2) ** 2))
        if identity_id == 2:
            return float(Fraction(f(2 * n + 2), f(n) * f(n + 1) ** 2 * f(n + 2)))
        return float(Fraction(f(2 * n + 2), f(n) ** 2 * f(n + 1) ** 2))
    if identity_id == 1:
        return float(Fraction(f(2 * n), f(n) ** 4))
    # identities 2 and 3 share the left side; Gamma(n+1±s) rewritten via
    # Pochhammer pairs (exact polynomial in B) and the reflection identity
    s = family.s_value()
    prod = _pochhammer_pairs(family, n)
    return float(Fraction(f(2 * n), f(n) ** 2) / prod) * math.sin(math.pi * s) / (math.pi * s)


def _rhs_value(family: WilsonFamily, identity_id: int, x: float, t: float,
               form: str, tol: float):
    if family.case == CASE_A:
        ix = 1j * x
        if identity_id == 1:
            c2 = 1.0 if form == "printed" else 3.0
            v1, e1 = hyp_pfq_series([0.5 + ix, 0.5 + ix], [1.0], -t, tol)
            v2, e2 = hyp_pfq_series([1.5 - ix, 1.5 - ix], [c2], -t, tol)
            return v1 * v2, abs(v1) * e2 + abs(v2) * e1
        if identity_id == 2:
            v1, e1 = hyp_pfq_series([0.5 + ix, 1.5 + ix], [2.0], -t, tol)
            v2, e2 = hyp_pfq_series([0.5 - ix, 1.5 - ix], [2.0], -t, tol)
            return v1 * v2, abs(v1) * e2 + abs(v2) * e1
        scale = 1.0 if form == "printed" else 2.0
        arg = 4 * t / (1 + t) ** 2
        v, e = hyp_pfq_series([1.5, 2.0, 0.5 + ix, 0.5 - ix], [1.0, 2.0, 2.0], arg, tol)
        pref = scale / (1 + t) ** 3
        return pref * v, abs(pref) * e
    s = family.s_value()
    ix = 1j * x
    if identity_id == 1:
        v1, e1 = hyp_pfq_series([0.5 + ix, 0.5 + ix], [1.0], -t, tol)
        v2, e2 = hyp_pfq_series([0.5 - s - ix, 0.5 + s - ix], [1.0], -t, tol)
        return v1 * v2, abs(v1) * e2 + abs(v2) * e1
    if identity_id == 2:
        pref = math.sin(math.pi * s) / (math.pi * s)
        v1, e1 = hyp_pfq_series([0.5 + ix, 0.5 - s + ix], [1.0 - s], -t, tol)
        v2, e2 = hyp_pfq_series([0.5 - ix, 0.5 + s - ix], [1.0 + s], -t, tol)
        return pref * v1 * v2, abs(pref) * (abs(v1) * e2 + abs(v2) * e1)
    pref = math.sin(math.pi * s) / (math.pi * (1 + t) * s)
    arg = 4 * t / (1 + t) ** 2
    v, e = hyp_pfq_series([0.5, 1.0, 0.5 + ix, 0.5 - ix], [1.0, 1.0 - s, 1.0 + s], arg, tol)
    return pref * v, abs(pref) * e


def generating_function_check(family: WilsonFamily, identity_id: int, x: float, t: float,
                              n_terms: int = 25, form: str = "corrected") -> GenFunReport:
    """Compare the truncated polynomial generating sum against its closed
    hypergeometric right-hand side.

    identity_id is 1..3 per family (Case A: the two 2F1-product identities
    and the quadratic-argument 4F3 identity; Case B: the 2F1 product, the
    split-parameter 2F1 product, and the 4F3 form).  form="printed" keeps
    the two Case A misprints (wrong denominator parameter in identity 1,
    missing factor 2 in identity 3) for the discrepancy detector.  Needs
    |t| <= 0.3, and for identity 3 t > -(3 - 2*sqrt(2)) so that its 4F3
    argument 4t/(1+t)^2 stays in the unit disk; other t raise ValueError.
    """
    if identity_id not in (1, 2, 3):
        raise ValueError("identity_id must be 1, 2, or 3")
    if abs(t) > 0.3:
        raise ValueError("generating-function check is restricted to |t| <= 0.3")
    if identity_id == 3 and abs(4 * t / (1 + t) ** 2) >= 1:
        raise ValueError(f"identity 3 needs t > -(3 - 2*sqrt(2)): at t = {t} its 4F3 "
                         f"argument 4t/(1+t)^2 = {4 * t / (1 + t) ** 2} leaves the unit disk")
    if form not in ("corrected", "printed"):
        raise ValueError(f"unknown recurrence form {form!r}")
    if family.case == CASE_B:
        if family.b is None:
            raise ValueError("generating functions need a numeric B")
        family.require_nondegenerate()
    table = monic_from_recurrence(family, n_terms, form="corrected")
    lhs = 0.0 + 0.0j
    mags: list[float] = []
    u = float(x * x)
    for n in range(n_terms + 1):
        term = complex(_lhs_coefficient(family, identity_id, n)
                       * poly_eval(table[n], u) * t ** n)
        lhs += term
        mags.append(abs(term))
    ratios = [mags[i + 1] / mags[i] for i in range(len(mags) - 1) if mags[i] > 0 and mags[i + 1] > 0]
    rho = min(0.95, max(max(ratios[-3:], default=abs(t)), abs(t)) * 1.5) if ratios else 0.5
    trunc = (mags[-1] if mags[-1] > 0 else max(mags[-3:])) * rho / (1.0 - rho)
    rhs, rhs_err = _rhs_value(family, identity_id, x, t, form, _GENFUN_TOL * 1e-3)
    diff = abs(lhs - rhs)
    budget = _GENFUN_TOL + trunc + rhs_err
    return GenFunReport(family.case, identity_id, form, x, t, n_terms,
                        lhs, rhs, diff, trunc, _GENFUN_TOL, diff <= budget)


# ---------------------------------------------------------------------------
# pairing between the difference-equation tables and the monic families
# ---------------------------------------------------------------------------

def alternating_reflect(p, parity: int):
    """(-1)^parity * p(-u): maps between the monic family and the printed
    difference-equation eigenfunction tables (which live at reflected
    squared argument)."""
    out = p.reflect()
    return out if parity % 2 == 0 else -out
