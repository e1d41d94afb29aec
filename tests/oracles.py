"""Independent oracles for the tests; this module imports nothing from
``paritywilson``.

``integrate`` is a fixed rule on (0, inf) that shares nothing with the
library's measure: uniform panels of width 1/4 on [0, X] (X chosen by the
caller), the 20- and 41-point Gauss-Legendre rules on every panel (the
measure uses 24 and 48 points on graded, adaptively split panels), and an
analytic tail bound beyond X from the upper incomplete gamma function in
mpmath.  ``master_terms`` is the master three-point equation in mpmath at
the working precision, the high-precision reference of the library's float
residual and of its exact quantization certificate.  ``basis_coefficients``
expands a polynomial in a monic family by Horner in the family basis, a
route independent of the library's peel off the exact table.
``recurrence_values`` is the float recurrence one degree at a time, the
reference of the library's batched loop.  ``hyp_pfq_terminating`` is the
terminating p+1Fp sum in Fractions, the route of the 4F3 forms beside the
tables.  ``standard_terms`` and ``printed_terms`` are the recurrence terms
by generic Fraction and polynomial operations, the reference of the
library's terms built from integers.  The panel rules are numpy's
``leggauss``, not the library's own port of its algorithm.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

PANEL_WIDTH = 0.25
COARSE, FINE = np.polynomial.legendre.leggauss(20), np.polynomial.legendre.leggauss(41)
PROBES = (0.7, 0.85, 1.0)  # tail-envelope probes, as fractions of X


def tail(f, x_max: float, growth_degree: int, decay_rate: float) -> float:
    """C * Gamma(p+1, lam X) / lam^(p+1), which bounds the integral of
    C x^p e^{-lam x} over (X, inf), with C = 2 max |f(x)| / (x^p e^{-lam x})
    over the probes."""
    probes = [k * x_max for k in PROBES]
    values = np.asarray(f(np.array(probes)))
    p, lam = growth_degree, mpmath.mpf(decay_rate)
    c = 2 * max(abs(complex(v)) * mpmath.exp(lam * x) / mpmath.mpf(x) ** p
                for x, v in zip(probes, values))
    return float(c * mpmath.gammainc(p + 1, lam * x_max) / lam ** (p + 1))


def integrate(f, x_max: float, growth_degree: int = 0, decay_rate: float = 2 * math.pi):
    """(value, bar) of the integral of f over (0, inf): the fine rule on
    [0, x_max], and a bar that is the summed |fine - coarse| per panel,
    plus the tail bound, plus 1e-15 * sum |w f| * sqrt(panels).  ``f``
    takes a numpy array and may return complex values; it must decay no
    slower than x^growth_degree e^{-decay_rate x} beyond the probes."""
    panels = max(1, math.ceil(x_max / PANEL_WIDTH))
    edges = np.linspace(0.0, x_max, panels + 1)
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    sums = []
    for nodes, weights in (COARSE, FINE):
        w = half * weights
        fx = np.asarray(f((lo + half * (nodes + 1.0)).ravel())).reshape(w.shape)
        sums.append(((w * fx).sum(axis=1), np.abs(w * fx).sum()))
    (coarse, _), (fine, magnitude) = sums
    bar = (np.abs(fine - coarse).sum() + tail(f, x_max, growth_degree, decay_rate)
           + 1e-15 * magnitude * math.sqrt(panels))
    return fine.sum(), float(bar)


def master_terms(f, b, m, ell1, w):
    """The three terms of LHS minus RHS of the master equation in W at
    (B, M, W) = (b, m, w), in mpmath: the f(W) term with the eigenvalue
    part, and the terms at the shifted arguments W + 1 +- r, r =
    sqrt(1 + 4B + 4W).  Their sum is the residual; ``f`` is a callable of
    an mpmath W."""
    b, m, ell1, w = (mpmath.mpmathify(v) for v in (b, m, ell1, w))
    r = mpmath.sqrt(1 + 4 * b + 4 * w)
    coupling = m / (b + w)
    c_plus = 2 * b + 4 * w + (w - coupling) * (r - 1)
    c_minus = -2 * b - 4 * w + (w - coupling) * (r + 1)
    return ((2 * (w + coupling) - (1 - ell1 * ell1)) * f(w),
            c_plus * f(w + 1 + r) / r, c_minus * f(w + 1 - r) / r)


def basis_coefficients(coeffs, terms):
    """The exact a_k with sum_j coeffs[j] u^j = sum_k a_k P_k for the monic
    family P_n = (u + beta_n) P_{n-1} - gamma_n P_{n-2}, terms[n - 1] =
    (beta_n, gamma_n) for n = 1..len(coeffs) at least: Horner in the family
    basis, using u P_k = P_{k+1} - beta_{k+1} P_k + gamma_{k+1} P_{k-1}, on
    integer numerators over a denominator, both divided by their gcd after
    every step."""
    ell = math.lcm(*(t.denominator for pair in terms for t in pair))
    beta, gamma = ([t.numerator * (ell // t.denominator) for t in col] for col in zip(*terms))
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    a, d = [], 1  # a_k = a[k] / (den * d)
    for c in map(Fraction, reversed(coeffs)):
        a = [up + mid + down for up, mid, down in zip(
            [0] + [ell * x for x in a], [-b * x for b, x in zip(beta, a)] + [0],
            [g * x for g, x in zip(gamma[1:], a[1:])] + [0, 0])]
        d *= ell
        a[0] += c.numerator * (den // c.denominator) * d
        g = math.gcd(d, *a)
        a, d = [x // g for x in a], d // g
    return [Fraction(x, den * d) for x in a] or [Fraction(0)]


def recurrence_values(beta, root, n_max: int, u) -> np.ndarray:
    """P_k(u) / scale_k for k = 0..n_max, one degree at a time: row n is
    ((u + beta[n-1]) row_{n-1} - root[n-1] row_{n-2}) / root[n], with the
    float recurrence terms beta_n and sqrt(gamma_n) at index n - 1."""
    u = np.asarray(u, dtype=float)
    values = np.empty((n_max + 1,) + u.shape)
    values[0] = 1.0
    for n in range(1, n_max + 1):
        row = np.add(u, beta[n - 1], out=values[n, ...])
        row *= values[n - 1]
        if n >= 2:
            row -= root[n - 1] * values[n - 2]
        row /= root[n]
    return values


def hyp_pfq_terminating(num_params, den_params, arg, terminate_at: int) -> Fraction:
    """The terminating p+1Fp sum over Fractions (rational inputs only).  One
    numerator parameter must be a nonpositive integer -m with m <=
    terminate_at, else ValueError; the sum has m + 1 Pochhammer-ratio terms,
    so a denominator parameter -q with q < m divides by zero."""
    num, den = [Fraction(a) for a in num_params], [Fraction(d) for d in den_params]
    stops = [-int(a) for a in num if a.denominator == 1 and a <= 0]
    if not stops:
        raise ValueError("no nonpositive-integer numerator parameter; series does not terminate")
    m = min(stops)
    if m > terminate_at:
        raise ValueError(f"termination index {m} exceeds terminate_at={terminate_at}")
    total = term = Fraction(1)
    for k in range(m):
        term *= Fraction(arg) / (k + 1) * math.prod(a + k for a in num)
        term /= math.prod(d + k for d in den)
        total += term
    return total


def standard_terms(b, n: int):
    """(beta_n, gamma_n) of the corrected monic recurrence P_n = (u + beta_n)
    P_{n-1} - gamma_n P_{n-2}, by generic operations: ``b`` is None for Case
    A, else B as a Fraction or as a polynomial indeterminate (anything with
    ring operations with ints and Fractions)."""
    if b is None:
        return -Fraction(n * (n + 1), 2) + Fraction(1, 4), Fraction(
            (n - 1) ** 2 * n ** 2 * (n + 1) ** 2, 4 * (2 * n - 1) * (2 * n + 1))
    root = (n * n - 2 * n) - b
    return (b * Fraction(1, 2) + (Fraction(1, 4) - Fraction(n * (n - 1), 2)),
            root * root * Fraction((n - 1) ** 2, 4 * (2 * n - 3) * (2 * n - 1)))


def printed_terms(b, n: int):
    """(beta_n, gamma_n, sign) as printed in the source's appendix tables, P_n
    = (u + beta_n) P_{n-1} + sign gamma_n P_{n-2}, by generic operations on
    ``b`` as in ``standard_terms``."""
    if b is None:
        return -Fraction(n * (n + 1), 2), Fraction(
            (n - 1) ** 2 * n ** 2 * (n + 1) ** 2, 4 * (2 * n - 1) * (2 * n + 1)), +1
    root = b - (n - 1) * (n + 1)
    return (b * Fraction(-1, 2) + (Fraction(n * (n + 1), 2) - Fraction(1, 4)),
            root * root * Fraction(n ** 2, 4 * (2 * n - 1) * (2 * n + 1)), +1)
