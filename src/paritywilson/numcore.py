"""Exact rational/polynomial arithmetic and hypergeometric series evaluation.

Substrate for every other module: arbitrary-precision rationals (stdlib
``fractions.Fraction``), dense polynomials in one (squared) variable whose
coefficients may themselves be polynomials in a second symbol, Pochhammer
symbols, terminating p+1Fp sums evaluated exactly, and convergent 2F1 / pFq
partial sums with reported error bounds.

Polynomials are stored in the squared variable throughout (every printed
table is even), so callers pass u = x*x or u = z*z already squared.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import DenominatorPole, NoConvergence

Rational = Union[int, Fraction]
Scalar = Union[int, float, complex, Fraction]


def frac_to_str(q: Fraction) -> str:
    """Serialize a rational as "p/q" (just "p" for integers)."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def ensure_finite(z: complex) -> complex:
    """Reject NaN/Inf escaping a floating-point operation."""
    if not (cmath.isfinite(z) if isinstance(z, complex) else -float("inf") < z < float("inf")):
        raise ArithmeticError(f"non-finite value {z!r}")
    return z


class RationalPolynomial:
    """Dense univariate polynomial with exact coefficients.

    ``coeffs[k]`` multiplies the k-th power of the variable.  Coefficients
    are Fractions, or RationalPolynomials in a second symbol (see
    :class:`BParamPolynomial`).  Trailing zero coefficients are stripped, so
    the zero polynomial has an empty coefficient tuple and is falsy.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [self._coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _coerce(c):
        if isinstance(c, (int, str)):
            return Fraction(c)
        return c

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree in the stored variable; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.leading == 1

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------
    def _wrap(self, coeffs):
        return type(self)(coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._wrap([other])
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return self._wrap([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalPolynomial) else self._wrap([-Fraction(other)]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if not self.coeffs or not other.coeffs:
                return self._wrap([])
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return self._wrap(out)
        return self._wrap([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._wrap([c / scalar for c in self.coeffs])

    def shift_variable(self, a):
        """Compose with the affine substitution u -> u + a (exact)."""
        x_plus_a = self._wrap([a, 1])
        return self.compose(x_plus_a)

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """Horner composition self(inner(u))."""
        result = self._wrap([])
        for c in reversed(self.coeffs):
            result = result * inner + self._wrap([c])
        return result

    def reflect(self) -> "RationalPolynomial":
        """Substitution u -> -u."""
        return self._wrap([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    # -- evaluation / export -------------------------------------------------
    def __call__(self, u):
        return poly_eval(self, u)

    def float_coeffs(self) -> tuple:
        return tuple(float(c) for c in self.coeffs)


class BParamPolynomial(RationalPolynomial):
    """Polynomial in the squared variable whose coefficients are polynomials
    in the family parameter B (stored as :class:`RationalPolynomial` in B).

    Plain RationalPolynomials (and ints/Fractions) act as B-space scalars
    on this type: they multiply coefficientwise and add into the constant
    term, they do not convolve in the squared variable.
    """

    __slots__ = ()

    @staticmethod
    def _coerce(c):
        if isinstance(c, BParamPolynomial):
            raise TypeError("coefficients of a BParamPolynomial must live in the B symbol")
        if isinstance(c, RationalPolynomial):
            return c
        return RationalPolynomial([Fraction(c)])

    def __mul__(self, other):
        if isinstance(other, BParamPolynomial):
            return super().__mul__(other)
        if isinstance(other, (RationalPolynomial, int, Fraction)):
            return self._wrap([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) or (
                isinstance(other, RationalPolynomial) and not isinstance(other, BParamPolynomial)):
            other = self._wrap([other])
        return super().__add__(other)

    __radd__ = __add__

    def substitute_b(self, b) -> RationalPolynomial:
        """Evaluate every coefficient at B = b (exact for rational b;
        floats enter through their exact binary value)."""
        bq = b if isinstance(b, Fraction) else Fraction(b)
        return RationalPolynomial([poly_eval(c, bq) for c in self.coeffs])

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.leading == RationalPolynomial([1])


def poly_eval(p: RationalPolynomial, u):
    """Horner evaluation of p at u (u is already the squared variable).

    Exact for Fraction input, complex/float otherwise; the zero polynomial
    evaluates to 0.
    """
    if not p.coeffs:
        return Fraction(0) if isinstance(u, (int, Fraction)) else 0.0 * u
    acc = None
    for c in reversed(p.coeffs):
        cval = c
        acc = cval if acc is None else acc * u + cval
    return acc


def pochhammer(a, k: int):
    """Rising factorial a(a+1)...(a+k-1); 1 for k = 0.

    Works for exact rationals, floats, complex values, and mpmath types.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    result = Fraction(1) if isinstance(a, (int, Fraction)) else 1.0
    for i in range(k):
        result = result * (a + i)
    return result


def _nonpositive_int(a) -> int | None:
    """Return m >= 0 with a == -m when a is a nonpositive integer, else None."""
    if isinstance(a, (int, Fraction)):
        q = Fraction(a)
        if q.denominator == 1 and q <= 0:
            return -int(q)
        return None
    if isinstance(a, complex):
        if a.imag != 0:
            return None
        a = a.real
    if isinstance(a, float) and a <= 0 and a == int(a):
        return -int(a)
    return None


def hyp_pfq_terminating(num_params: Sequence, den_params: Sequence, arg, terminate_at: int):
    """Terminating generalized hypergeometric sum.

    One numerator parameter must be a nonpositive integer -m with
    m <= terminate_at; the sum has m+1 Pochhammer-ratio terms and is exact
    when all inputs are rational.

    Raises DenominatorPole if a denominator Pochhammer factor vanishes
    before the series terminates.
    """
    ms = [m for m in (_nonpositive_int(a) for a in num_params) if m is not None]
    if not ms:
        raise ValueError("no nonpositive-integer numerator parameter; series does not terminate")
    m = min(ms)
    if m > terminate_at:
        raise ValueError(f"termination index {m} exceeds terminate_at={terminate_at}")
    for d in den_params:
        q = _nonpositive_int(d)
        if q is not None and q < m:
            raise DenominatorPole(f"denominator parameter {d} vanishes at term {q + 1} <= {m}")
    exact = all(isinstance(v, (int, Fraction)) for v in (*num_params, *den_params, arg))
    if exact:
        arg = Fraction(arg)
    total = Fraction(0) if exact else 0.0 * (1 + 0j)
    term = Fraction(1) if exact else 1.0 + 0j
    for k in range(m + 1):
        total = total + term
        if k == m:
            break
        ratio = arg / (k + 1)
        for a in num_params:
            ratio = ratio * (a + k)
        for d in den_params:
            ratio = ratio / (d + k)
        term = term * ratio
    return total


def _series_sum(term_ratio: Callable[[int], complex], tol: float, max_terms: int):
    """Sum 1 + t1 + t1*t2 + ... with ratio term_{k+1}/term_k = term_ratio(k).

    Stops after three consecutive terms below tol; returns (value, bound)
    where bound is a geometric-tail estimate plus a roundoff allowance.
    """
    total = 1.0 + 0j
    term = 1.0 + 0j
    abs_total = 1.0
    small = 0
    ratios: list[float] = []
    for k in range(max_terms):
        r = term_ratio(k)
        term = term * r
        if term == 0:  # numerator hit a nonpositive integer: series terminated
            return total, abs_total * 1e-15
        total += term
        abs_total += abs(term)
        ratios.append(abs(r))
        if abs(term) < tol:
            small += 1
            if small >= 3:
                rho = max(ratios[-3:])
                rho = min(max(rho * 1.5, 1e-6), 0.97)
                tail = abs(term) * rho / (1.0 - rho)
                bound = tail + abs_total * 1e-15
                return total, bound
        else:
            small = 0
    raise NoConvergence(f"series did not settle within {max_terms} terms")


def hyp_2f1_series(a, b, c, t, tol: float = 1e-14, max_terms: int = 10000):
    """Gauss 2F1 by direct partial summation for |t| < 1.

    Returns (value, error_bound); the bound is the geometric tail estimate
    after three consecutive sub-tolerance terms plus a roundoff allowance.
    """
    if abs(t) >= 1:
        raise ValueError("hyp_2f1_series requires |t| < 1")
    q = _nonpositive_int(c)
    if q is not None:
        mterm = _nonpositive_int(a)
        mterm2 = _nonpositive_int(b)
        m = min(x for x in (mterm, mterm2, 10 ** 9) if x is not None)
        if q < m:
            raise DenominatorPole(f"2F1 denominator parameter {c} is a nonpositive integer")
    return _series_sum(lambda k: (a + k) * (b + k) / ((c + k) * (1 + k)) * t, tol, max_terms)


def hyp_pfq_series(num_params: Sequence, den_params: Sequence, t, tol: float = 1e-14,
                   max_terms: int = 10000):
    """Convergent pFq partial sum for |t| < 1 (with p = q+1), same stopping
    rule and error bound as :func:`hyp_2f1_series`.  No analytic
    continuation is attempted."""
    if abs(t) >= 1:
        raise ValueError("hyp_pfq_series requires |t| < 1")
    for d in den_params:
        if _nonpositive_int(d) is not None:
            raise DenominatorPole(f"denominator parameter {d} is a nonpositive integer")

    def ratio(k: int):
        r = t / (1 + k)
        for a in num_params:
            r = r * (a + k)
        for d in den_params:
            r = r / (d + k)
        return r

    return _series_sum(ratio, tol, max_terms)
