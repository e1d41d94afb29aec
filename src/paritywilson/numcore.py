"""Exact rational/polynomial arithmetic.

Substrate for every other module: arbitrary-precision rationals (stdlib
``fractions.Fraction``) and dense polynomials in one (squared) variable
whose coefficients may themselves be polynomials in a second symbol.

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
from itertools import accumulate, chain, repeat
from typing import Iterable


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


def _mul_add(a, b, w: int, c, f: int):
    """a*b + f*c for grids a, b, c of one row width w, b nonzero (its last
    row may stop after its last nonzero entry) and c no longer than a: the
    Horner step of ``compose`` and of the hypergeometric tables, and with c
    empty the product, with b a scalar the sum.  a takes one contiguous
    pass per nonzero entry of b, the first of which makes the grid.  The
    width must hold the product: what an entry of b's last row shifts past
    the end is zero."""
    n, out = len(a) + (len(b) - 1) // w * w, None
    for k, y in enumerate(b):
        if y and out is None:
            out = [0] * k + [y * x for x in a]
            out[n:] = [0] * (n - len(out))
        elif y:
            out[k:k + len(a)] = [o + y * x for o, x in zip(out[k:k + len(a)], a)]
    for k, x in enumerate(c):
        if x:
            out[k] += f * x
    return out


def _unit_shift(c):
    """The width-1 grid of p(u + 1) from p's grid c, by Ruffini's rule at u = 1:
    one running sum per degree.  Unimodular, so a canonical grid stays so."""
    rest, out = list(reversed(c)), []
    while rest:
        rest = list(accumulate(rest))
        out.append(rest.pop())
    return tuple(out)


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
    one comprehension over the output, whose entries sum their shifted products
    u p1, a p1, c p2 (three over Q, six over Q[B], a pass per six if a or c is
    wider), each read lazily from its operand's grid, reduced once."""
    (ra, wa, da), (rc, wc, dc) = (_operand(x, isinstance(p1, BParamPolynomial)) for x in (a, c))
    den = math.lcm(p1._den * da, p2._den * dc)
    f1, f2 = den // p1._den, den // p2._den
    w = max(p1._w + wa - 1, p2._w + wc - 1)
    n = max(len(p1._c) // p1._w + 1, len(p2._c) // p2._w) * w
    q1, q2 = (_widen(p._c, p._w, w) for p in (p1, p2))
    # (multiplier, shifted grid) per product, u p1 being p1 one row down: i
    # zeros, the grid, then zeros, which the comprehension cuts at n entries
    cols = [(x, chain(repeat(0, i), q, repeat(0)))
            for x, i, q in [(f1, w, q1)] + [(x * (f1 // da), i, q1) for i, x in enumerate(ra)]
            + [(-x * (f2 // dc), i, q2) for i, x in enumerate(rc)]]
    cols += [(0, repeat(0))] * (-len(cols) % 3)
    out = None
    for k in range(0, len(cols), 6):
        (x1, c1), (x2, c2), (x3, c3), *more = cols[k:k + 6]
        if more:
            (x4, c4), (x5, c5), (x6, c6) = more
            part = [x1 * y1 + x2 * y2 + x3 * y3 + x4 * y4 + x5 * y5 + x6 * y6
                    for _, y1, y2, y3, y4, y5, y6 in zip(range(n), c1, c2, c3, c4, c5, c6)]
        else:
            part = [x1 * y1 + x2 * y2 + x3 * y3 for _, y1, y2, y3 in zip(range(n), c1, c2, c3)]
        out = part if out is None else [x + y for x, y in zip(out, part)]
    return type(p1)._make(out, w, den)


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Held as an integer grid over one common denominator (see the module
    docstring).  ``coeffs[k]`` multiplies the k-th power of the variable;
    it is a tuple of reduced Fractions built on each read, without trailing
    zeros, so the zero polynomial has an empty tuple and is falsy.
    """

    __slots__ = ("_c", "_w", "_den", "_floats", "_hash")

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
        # kept from the first call, a grid being immutable; a constant hashes like
        # its Fraction, a polynomial like its grid (a plain one read as a row in B)
        if not hasattr(self, "_hash"):
            c, w, den = _operand(self, True)
            self._hash = hash((Fraction(c[0], den) if c else 0) if len(c) <= 1 else (c, w, den))
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------
    def _combine(self, other, own_sign: int, other_sign: int):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        cls, (a, wa, da), (b, wb, db) = pair
        g, w = math.gcd(da, db), max(wa, wb)
        fa, fb = own_sign * (db // g), other_sign * (da // g)
        a, b = _widen(a, wa, w), _widen(b, wb, w)
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        return cls._make(_mul_add(a, [fa], w, b, fb), w, da // g * db)

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
        if not a or not b:
            return cls._raw((), 1, 1)
        if (wa, len(a)) < (wb, len(b)):  # one pass per entry of the narrower grid
            a, wa, b, wb = b, wb, a, wa
        w = wa + wb - 1
        return cls._make(_mul_add(_widen(a, wa, w), _widen(b, wb, w), w, (), 0), w, da * db)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(scalar))

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """self(inner(u)), with inner a polynomial in u (not a scalar): Horner's
        rule on the integer grids, sum_k c_k inner^k den_inner^(d-k), one
        ``_mul_add`` per step on the result's row width, reduced once."""
        if not isinstance(inner, RationalPolynomial):
            raise TypeError("compose takes a polynomial; poly_eval evaluates at a scalar")
        cls = (BParamPolynomial if isinstance(self, BParamPolynomial)
               or isinstance(inner, BParamPolynomial) else RationalPolynomial)
        c, w = self._c, self._w
        if not c or not inner:
            return cls._make(c[:w], w, self._den)
        width = w + (len(c) // w - 1) * (inner._w - 1)
        b = _widen(inner._c, inner._w, width)
        acc, scale = _widen(c[-w:], w, width), 1
        for k in range(len(c) - 2 * w, -1, -w):
            scale *= inner._den
            acc = _mul_add(acc, b, width, c[k:k + w], scale)
        return cls._make(acc, width, self._den * scale)

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
    """Horner's rule over cs (lowest power first, nonempty)."""
    it = reversed(cs)
    acc = next(it)
    for c in it:
        acc = acc * u + c
    return acc


def poly_eval(p: RationalPolynomial, u):
    """Horner evaluation of p at u (u is already the squared variable).

    Exact at rational u, on the integer grid with one reduction (a
    BParamPolynomial gives a RationalPolynomial in B).  At a float u the
    scheme runs over the kept ``float_coeffs()``; any other u (complex, an
    array) is a TypeError.  The zero polynomial evaluates to 0.
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
    if not isinstance(u, float):
        raise TypeError(f"poly_eval takes a rational or a float, got {type(u).__name__}")
    return _horner(p.float_coeffs(), u) if p else 0.0 * u
