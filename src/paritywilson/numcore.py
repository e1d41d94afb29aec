"""Exact rational/polynomial arithmetic and hypergeometric series evaluation.

Substrate for every other module: arbitrary-precision rationals (stdlib
``fractions.Fraction``), dense polynomials in one (squared) variable whose
coefficients may themselves be polynomials in a second symbol, terminating
p+1Fp sums evaluated exactly, and convergent 2F1 / pFq partial sums with
reported error bounds.

Polynomials are stored in the squared variable throughout (every printed
table is even), so callers pass u = x*x or u = z*z already squared.

An exact polynomial is one flat grid of Python ints, indexed by [power of
u][power of B], over one common denominator; a polynomial in u alone has
B-width 1.  The grid is canonical: trailing zero rows and columns are
stripped, gcd(content, den) = 1 and den > 0, so ``==`` and ``hash``
compare grids.  Sums, products, scalar multiples, composition, shifts,
reflection, substitution of B and evaluation at a rational run on the
integers and reduce by the content once per result.  ``coeffs`` is a view
built on each read: reduced Fractions, or polynomials in B.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import DenominatorPole, NoConvergence


def frac_to_str(q: Fraction) -> str:
    """Serialize a rational as "p/q" (just "p" for integers)."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- integer coefficient grids -------------------------------------------
# A grid is a flat sequence of ints, row-major in [power of u][power of B],
# with w entries per row; its value is the grid over a common denominator.

def _widen(c, w: int, width: int):
    """Grid c (rows of w entries) padded with zero columns to ``width``."""
    if w == width:
        return c
    pad = [0] * (width - w)
    out: list = []
    for k in range(0, len(c), w):
        out.extend(c[k:k + w])
        out.extend(pad)
    return out


def _lincomb(a, wa: int, fa: int, b, wb: int, fb: int):
    """fa*a + fb*b on the wider of the two row widths."""
    w = max(wa, wb)
    a, b = _widen(a, wa, w), _widen(b, wb, w)
    if len(a) < len(b):
        a, b, fa, fb = b, a, fb, fa
    out = list(a) if fa == 1 else [x * fa for x in a]
    for k, y in enumerate(b):
        if y:
            out[k] += y * fb
    return out, w


def _conv(a, wa: int, b, wb: int):
    """Product of two grids: a convolution along both axes.  b, widened
    once to the product's row width, takes one contiguous pass per nonzero
    entry of a, the narrower grid (the shorter one when the widths tie)."""
    if not a or not b:
        return [], 1
    if (wa, len(a)) > (wb, len(b)):
        a, wa, b, wb = b, wb, a, wa
    w = wa + wb - 1
    b = _widen(b, wb, w)[:len(b) // wb * w - wa + 1]  # the last row unpadded
    nb = len(b)
    out = [0] * (nb + (len(a) // wa - 1) * w + wa - 1)
    for k, x in enumerate(a):
        if x:
            base = k // wa * w + k % wa
            out[base:base + nb] = [o + x * y for o, y in zip(out[base:base + nb], b)]
    return out, w


def _canonical(c, w: int, den: int):
    """(c, w, den) with trailing zero rows and columns stripped and the
    content reduced, so that gcd(content, den) = 1 (den is always > 0)."""
    n = len(c)
    while n and not any(c[n - w:n]):
        n -= w
    if not n:
        return (), 1, 1
    c = c[:n]
    if w > 1 and not any(c[w - 1::w]):
        used = w - 1
        while used > 1 and not any(c[used - 1::w]):
            used -= 1
        c = [x for k, x in enumerate(c) if k % w < used]
        w = used
    g = math.gcd(den, *c)
    if g != 1:
        c = [x // g for x in c]
        den //= g
    return tuple(c), w, den


def _operand(x, symbolic: bool):
    """The grid (c, w, den) of a polynomial or rational operand, else None.

    In symbolic arithmetic (one operand a BParamPolynomial) a plain
    RationalPolynomial is a polynomial in B, i.e. one row of the grid.
    """
    if isinstance(x, RationalPolynomial):
        if symbolic and not isinstance(x, BParamPolynomial):
            return x._c, len(x._c) or 1, x._den
        return x._c, x._w, x._den
    if isinstance(x, (int, Fraction)):
        return ((x.numerator,) if x else ()), 1, x.denominator
    return None


def _three_term(p1, a, p2, c):
    """(u + a) p1 - c p2, the step of every recurrence table, for p1, p2 of
    one class and rationals a, c (polynomials in B beside BParamPolynomials):
    one contiguous pass per nonzero entry of u + a and of c into one grid
    over the common denominator, reduced once."""
    (ra, wa, da), (rc, wc, dc) = (_operand(x, isinstance(p1, BParamPolynomial)) for x in (a, c))
    den = math.lcm(p1._den * da, p2._den * dc)
    f1, f2 = den // p1._den, den // p2._den
    w = max(p1._w + wa - 1, p2._w + wc - 1)
    out = [0] * (max(len(p1._c) // p1._w + 1, len(p2._c) // p2._w) * w)
    # u + a as one flat row: a at B-powers 0.., then u, one grid row down
    for p, row in ((p1, [x * (f1 // da) for x in ra] + [0] * (w - len(ra)) + [f1]),
                   (p2, [-x * (f2 // dc) for x in rc])):
        q = _widen(p._c, p._w, w)[:len(p._c) // p._w * w - w + p._w]  # last row unpadded
        for i, x in enumerate(row):
            if x:
                out[i:i + len(q)] = [o + x * y for o, y in zip(out[i:i + len(q)], q)]
    return type(p1)._make(out, w, den)


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Held as an integer grid over one common denominator (see the module
    docstring).  ``coeffs[k]`` multiplies the k-th power of the variable;
    it is a tuple of reduced Fractions built on each read, without trailing
    zeros, so the zero polynomial has an empty tuple and is falsy.
    """

    __slots__ = ("_c", "_w", "_den", "_floats")

    def __init__(self, coeffs: Iterable = ()):
        qs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(q.denominator for q in qs))
        self._c, self._w, self._den = _canonical(
            [q.numerator * (den // q.denominator) for q in qs], 1, den)

    @classmethod
    def _make(cls, c, w: int, den: int):
        p = object.__new__(cls)
        p._c, p._w, p._den = _canonical(c, w, den)
        return p

    @classmethod
    def _raw(cls, c: tuple, w: int, den: int):
        """From a grid that is already canonical."""
        p = object.__new__(cls)
        p._c, p._w, p._den = c, w, den
        return p

    def _entry(self, k: int):
        return Fraction(self._c[k], self._den)

    # -- structure ---------------------------------------------------------
    @property
    def coeffs(self) -> tuple:
        return tuple(self._entry(k) for k in range(self.degree + 1))

    @property
    def degree(self) -> int:
        """Degree in the stored variable; -1 for the zero polynomial."""
        return len(self._c) // self._w - 1

    @property
    def leading(self):
        return self._entry(self.degree) if self._c else Fraction(0)

    def coefficient(self, k: int):
        return self._entry(k) if 0 <= k <= self.degree else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def _pair(self, other):
        """(result class, own grid, other grid), or None for a foreign type."""
        symbolic = isinstance(self, BParamPolynomial) or isinstance(other, BParamPolynomial)
        theirs = _operand(other, symbolic)
        if theirs is None:
            return None
        return (BParamPolynomial if symbolic else RationalPolynomial,
                _operand(self, symbolic), theirs)

    def __eq__(self, other) -> bool:
        pair = self._pair(other)
        return NotImplemented if pair is None else pair[1] == pair[2]

    def __hash__(self):
        # a constant hashes like its Fraction, a polynomial like its grid
        # with a plain RationalPolynomial read as a row in B, as == reads it
        c, w, den = _operand(self, True)
        if len(c) <= 1:
            return hash(Fraction(c[0], den)) if c else 0
        return hash((c, w, den))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------
    def _combine(self, other, own_sign: int, other_sign: int):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        cls, (a, wa, da), (b, wb, db) = pair
        g = math.gcd(da, db)
        c, w = _lincomb(a, wa, own_sign * (db // g), b, wb, other_sign * (da // g))
        return cls._make(c, w, da // g * db)

    def __add__(self, other):
        return self._combine(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, 1, -1)

    def __rsub__(self, other):
        return self._combine(other, -1, 1)

    def __neg__(self):
        return self._raw(tuple(-x for x in self._c), self._w, self._den)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        cls, (a, wa, da), (b, wb, db) = pair
        c, w = _conv(a, wa, b, wb)
        return cls._make(c, w, da * db)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(scalar))

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """self(inner(u)), with inner a polynomial in u: Horner's rule on the
        integer grids, sum_k c_k inner^k den_inner^(d-k), reduced once."""
        if not isinstance(inner, RationalPolynomial):
            inner = RationalPolynomial([inner])
        cls = (BParamPolynomial if isinstance(self, BParamPolynomial)
               or isinstance(inner, BParamPolynomial) else RationalPolynomial)
        c, w = self._c, self._w
        if not c or not inner:
            return cls._make(c[:w], w, self._den)
        acc, wacc, scale = list(c[-w:]), w, 1
        for k in range(len(c) - 2 * w, -1, -w):
            scale *= inner._den
            acc, wacc = _conv(acc, wacc, inner._c, inner._w)
            for j, x in enumerate(c[k:k + w]):
                if x:
                    acc[j] += x * scale
        return cls._make(acc, wacc, self._den * scale)

    def reflect(self) -> "RationalPolynomial":
        """Substitution u -> -u."""
        w = self._w
        return self._raw(tuple(-x if k // w % 2 else x for k, x in enumerate(self._c)),
                         w, self._den)

    def odd_part(self) -> "RationalPolynomial":
        """(p(u) - p(-u))/2: the odd powers of u."""
        w = self._w
        return self._make([x if k // w % 2 else 0 for k, x in enumerate(self._c)], w, self._den)

    # -- evaluation / export -------------------------------------------------
    def __call__(self, u):
        return poly_eval(self, u)

    def float_coeffs(self) -> tuple:
        """float(c) for every coefficient (integer true division rounds the
        exact quotient once, as ``float`` of the reduced Fraction does),
        computed on the first call and kept on the polynomial."""
        if not hasattr(self, "_floats"):
            self._floats = tuple(x / self._den for x in self._c)
        return self._floats


class BParamPolynomial(RationalPolynomial):
    """Polynomial in the squared variable whose coefficients are polynomials
    in the family parameter B: the same grid, with B-degree > 0 allowed.

    ``coeffs`` reads each coefficient as a :class:`RationalPolynomial` in B.
    Arithmetic with a plain RationalPolynomial reads that polynomial as a
    polynomial in B (so multiplying by one scales coefficientwise); the
    argument of :meth:`compose` is a polynomial in the squared variable.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()):
        rows = []
        for c in coeffs:
            if isinstance(c, BParamPolynomial):
                raise TypeError("coefficients of a BParamPolynomial must live in the B symbol")
            rows.append(c if isinstance(c, RationalPolynomial) else RationalPolynomial([c]))
        den = math.lcm(*(r._den for r in rows))
        w = max((len(r._c) for r in rows), default=1) or 1
        grid: list = []
        for r in rows:
            grid.extend(x * (den // r._den) for x in r._c)
            grid.extend([0] * (w - len(r._c)))
        self._c, self._w, self._den = _canonical(grid, w, den)

    def _entry(self, k: int) -> RationalPolynomial:
        w = self._w
        return RationalPolynomial._make(self._c[k * w:(k + 1) * w], 1, self._den)

    def float_coeffs(self) -> tuple:
        raise TypeError("a polynomial in B has no float coefficients; substitute B first")

    def substitute_b(self, b) -> RationalPolynomial:
        """Evaluate every coefficient at B = b (exact for rational b;
        floats enter through their exact binary value)."""
        q = Fraction(b)
        w, c = self._w, self._c
        powers = [q.numerator ** j * q.denominator ** (w - 1 - j) for j in range(w)]
        rows = [sum(x * y for x, y in zip(c[k:k + w], powers)) for k in range(0, len(c), w)]
        return RationalPolynomial._make(rows, 1, self._den * q.denominator ** (w - 1))


def _horner(cs, u):
    """Horner's rule over cs (lowest power first, nonempty), in whatever
    arithmetic cs and u carry."""
    it = reversed(cs)
    acc = next(it)
    for c in it:
        acc = acc * u + c
    return acc


def poly_eval(p: RationalPolynomial, u):
    """Horner evaluation of p at u (u is already the squared variable).

    Exact at rational u, on the integer grid with one reduction (a
    BParamPolynomial gives a RationalPolynomial in B).  At a float u the
    scheme runs over the kept ``float_coeffs()``, at any other u (complex,
    mpmath) over the exact coefficients.  The zero polynomial evaluates to 0.
    """
    if isinstance(u, (int, Fraction)):
        a, b = u.numerator, u.denominator
        c, w = p._c, p._w
        acc, scale = [0] * w, 1
        for k in range(len(c) - w, -1, -w):
            if w == 1:  # a polynomial in u alone: plain ints, no row lists
                acc[0] = acc[0] * a + c[k] * scale
            else:
                acc = [x * a + y * scale for x, y in zip(acc, c[k:k + w])]
            if k:
                scale *= b
        if isinstance(p, BParamPolynomial):
            return RationalPolynomial._make(acc, 1, p._den * scale)
        return Fraction(acc[0], p._den * scale)
    if not p:
        return 0.0 * u
    if isinstance(u, float) and not isinstance(p, BParamPolynomial):
        return _horner(p.float_coeffs(), u)
    return _horner(p.coeffs, u)


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
