"""Difference-equation eigenvalue problems for the boost decomposition.

The master three-point functional equation in the invariant W (with scalar
parameters B and M) quantizes ell_1 = 2n+1 when its solution, a prefactor
exp(i*pi*sqrt(W+B+1/4)) times a polynomial, is required to be pole-free.
This module builds the eigenpairs exactly for the two solved parameter
regimes (B = M = 0, and M = 0 with free B), evaluates residuals of the
master equation (in floats, and exactly at M = 0 as a polynomial in
s = sqrt(W+B+1/4)) and of its z-space reduction, constructs exact second
solutions on unit lattices by reduction of order, and runs the
exploratory least-squares eigenvalue scan for M != 0.

Square roots always take the principal nonnegative real branch; arguments
with negative radicand are rejected (DomainPole), never continued.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DomainPole, IllConditioned, LatticePole
from .numcore import BParamPolynomial, RationalPolynomial, _unit_shift, poly_eval
from .wilson import (
    CASE_A,
    CASE_B,
    WilsonFamily,
    _check_case,
    _recurrence_table,
    alternating_reflect,
    monic_from_recurrence,
    standard_recurrence_terms,
)

_SCAN_MAX_ITER = 200  # alternating solves before the conjecture scan gives up
_SCAN_TOL = 1e-14  # relative change of mu that ends the alternation


def eigenvalue(n: int) -> tuple[int, Fraction]:
    """(ell_1, alpha) for the n-th eigenpair: ell_1 = 2n+1 and
    alpha = (ell_1^2 - 1)/3, both exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ell1 = 2 * n + 1
    return ell1, Fraction(ell1 * ell1 - 1, 3)


def g_polynomial(case: str, n: int, b=None):
    """Polynomial part of the n-th z-space eigenfunction, in u = z^2.

    Case A: g_1 = 1, g_2 = z^2 + 3/4, ... (g_n pairs with the monic family
    member of degree n-1 at reflected argument); n = 0 is the rational
    exception 1/(z^2 - 1/4) and returns None.
    Case B: degree n; symbolic in B when b is None.
    """
    _check_case(case)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if case == CASE_A:  # g_n pairs with P_{n-1}
        table = monic_from_recurrence(WilsonFamily.case_a(), max(n - 1, 0))
        return alternating_reflect(table[n - 1], n - 1) if n else None
    poly = alternating_reflect(monic_from_recurrence(WilsonFamily.case_b(), n)[n], n)
    return poly if b is None else poly.substitute_b(b)


def g_callable(case: str, n: int, b=None) -> Callable:
    """The n-th z-space eigenfunction as a callable of z (exact for exact z)."""
    poly = g_polynomial(case, n, b)
    if poly is None:  # Case A n=0 rational exception
        def g0(z):
            den = z * z - Fraction(1, 4) if isinstance(z, (int, Fraction)) else z * z - 0.25
            if not den:
                raise DomainPole("z = +-1/2 is a pole of the n=0 eigenfunction")
            return 1 / den
        return g0
    return lambda z: poly_eval(poly, z * z)


@dataclass(frozen=True)
class EigenpairRecord:
    """One eigenpair of the master equation at M = 0.

    ``poly`` holds the polynomial part of f in the invariant W (None for
    the Case A n=0 record, whose z-space solution is the rational exception
    and whose f is the bare prefactor).  ``prefactor`` is a descriptor of
    the common exponential factor.
    """

    n: int
    case: str
    b: Fraction | None
    ell1: int
    alpha: Fraction
    poly: RationalPolynomial | BParamPolynomial | None
    prefactor: str
    rational_g: bool = False

    def prefactor_shift(self) -> Fraction:
        """f's prefactor is exp(i*pi*sqrt(W + shift))."""
        if self.case == CASE_A:
            return Fraction(1, 4)
        if self.b is None:
            raise ValueError("symbolic record has no numeric prefactor shift")
        return self.b + Fraction(1, 4)

    def as_callable(self) -> Callable:
        """f as a function of a float W: exp(i*pi*sqrt(W+shift)) times the
        polynomial part, evaluated by ``poly_eval``."""
        shift_f = float(self.prefactor_shift())

        def f(w):
            rad = w + shift_f
            if rad < 0:
                raise DomainPole("negative radicand in prefactor")
            part = 1.0 if self.poly is None else poly_eval(self.poly, w)
            return cmath.exp(1j * math.pi * math.sqrt(rad)) * part
        return f


def _reflected_table(family: WilsonFamily, n_max: int) -> tuple:
    """R_0..R_{n_max}, R_k(W) = (-1)^k P_k(-W - c) with c = B + 1/4 (1/4 in
    Case A), one cached table per family: f_n = R_n in Case B, W R_{n-1} in
    Case A.  At u = -W - c the monic recurrence gives
    R_k = (W + c - beta_k) R_{k-1} - gamma_k R_{k-2}, one product with a
    linear polynomial per degree instead of a Taylor shift of g_k.
    """
    c = (RationalPolynomial([0, 1]) if family.symbolic else family.b or 0) + Fraction(1, 4)
    cls = BParamPolynomial if family.symbolic else RationalPolynomial

    def terms(k):
        beta, gamma = standard_recurrence_terms(family, k)
        return c - beta, gamma
    return _recurrence_table((family, "reflected"), n_max,
                             lambda: (cls([1]), cls([terms(1)[0], 1])), terms)


def eigenfunction(case: str, n: int, b=None) -> EigenpairRecord:
    """The n-th eigenpair of the master equation at M = 0.

    Case A (B = M = 0, b unread): f_0 is the bare prefactor; for n >= 1 the
    polynomial part is W times a monic degree n-1 polynomial in W.  Case B:
    b=None keeps the coefficients symbolic in B.  Each B has its own exact
    table, so integer sqrt(B+1) (e.g. B = 0) yields the smooth limiting
    polynomial rather than an error; degeneracy is enforced where
    norms/prefactor normalizations are actually needed."""
    _check_case(case)
    ell1, alpha = eigenvalue(n)
    if case == CASE_A:
        poly = (_reflected_table(WilsonFamily.case_a(), n - 1)[n - 1] * RationalPolynomial([0, 1])
                if n else None)
        return EigenpairRecord(n, CASE_A, None, ell1, alpha, poly, "exp(i*pi*sqrt(W+1/4))",
                               rational_g=not n)
    family = WilsonFamily(CASE_B, b)
    if b is not None and family.b <= -1:
        raise DomainPole("Case B needs B > -1")
    return EigenpairRecord(n, CASE_B, family.b, ell1, alpha, _reflected_table(family, n)[n],
                           "exp(i*pi*sqrt(W+B+1/4))")


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------

def residual_g(case: str, g, ell1, z, b=None):
    """LHS minus RHS of the z-space three-point relation at z.

    ``g`` is a callable of z, such as ``g_callable`` builds from the
    polynomial part (a polynomial lives in z^2, so it is refused rather
    than called at z).  Exact for exact inputs.  The Case B form divides by
    2z, so z = 0 raises DomainPole.
    """
    _check_case(case)
    if isinstance(g, RationalPolynomial):
        raise TypeError("residual_g takes a callable of z; g_callable builds one")
    gm, g0, gp = g(z - 1), g(z), g(z + 1)
    if case == CASE_A:
        lhs = ((2 * z + 1) * (2 * z + 3) ** 2 * gp
               - 4 * z * (2 * z - 1) * (2 * z + 1) * g0
               + (2 * z - 1) * (2 * z - 3) ** 2 * gm)
        return lhs - 8 * z * (ell1 * ell1 - 1) * g0
    if not z:
        raise DomainPole("the Case B relation divides by 2z; z = 0 is excluded")
    if b is None:
        raise ValueError("Case B residual needs a numeric b")
    quarter = Fraction(1, 4) if isinstance(z, (int, Fraction)) and isinstance(b, (int, Fraction)) else 0.25
    threequarter = 3 * quarter
    d = z * z - b - quarter
    e = 3 * z * z - b - threequarter
    lhs = (2 * d * g0
           - (e + 2 * z * d) / (2 * z) * gp
           + (e - 2 * z * d) / (2 * z) * gm)
    return lhs - (1 - ell1 * ell1) * g0


def residual_master(f: Callable, b, m, ell1, w):
    """LHS minus RHS of the master three-point equation in W at (B, M, W) =
    (b, m, w) with eigenvalue parameter ell1, in float arithmetic.

    ``f`` is a callable of W evaluated at W and the two shifted arguments
    W + 1 +- sqrt(1+4B+4W).  Any parameter other than an int or a float
    (a Fraction, an mpmath mpf) is a TypeError, not silently rounded.
    Raises DomainPole when B+W = 0 or the shift radicand is nonpositive.
    """
    for value in (b, m, ell1, w):
        if not isinstance(value, (int, float)):
            raise TypeError(f"residual_master works in floats, got {type(value).__name__}")
    if b + w == 0:
        raise DomainPole("B + W = 0 is a pole of the M-coupling term")
    rad = 1 + 4 * b + 4 * w
    if rad <= 0:
        raise DomainPole("nonpositive radicand 1 + 4B + 4W")
    r = math.sqrt(rad)
    coupling = m / (b + w)
    c_plus = 2 * b + 4 * w + (w - coupling) * (r - 1)
    c_minus = -2 * b - 4 * w + (w - coupling) * (r + 1)
    fw = f(w)
    lhs = (2 * (w + coupling) * fw
           + (c_plus * f(w + 1 + r) + c_minus * f(w + 1 - r)) / r)
    return lhs - (1 - ell1 * ell1) * fw


def master_residual_polynomial(rec: EigenpairRecord, ell1) -> RationalPolynomial:
    """The exact P with residual_master(f, B, 0, ell1, W) = exp(i*pi*s)
    P(s) / (2s) at s = sqrt(W+B+1/4) >= 1, for rec's f and a rational ell1.

    There W+1 +- 2s = (s +- 1)^2 - B - 1/4, so both shifted prefactors are
    -exp(i*pi*s) and P = 2s (2W - 1 + ell1^2) p(W) - c+ p(W+) - c- p(W-)
    with c+- = +-(2B + 4W) + W(2s -+ 1).  Reflection s -> -s maps c+ to
    -c- and W+ to W-, so with t = c+ p(W+) the shifted terms are
    t(s) - t(-s), twice t's odd part: P is odd in s for every p and ell1.
    One composition E = p(W), W = s^2 - B - 1/4, gives p(W+) = E(s + 1) by a
    unit shift of its grid; c+ and the lead are integer grids.  Needs a numeric B.
    """
    sn, sd = rec.prefactor_shift().as_integer_ratio()
    kn, kd = ((2 * Fraction(ell1) ** 2 - 2) * sd - 4 * sn).as_integer_ratio()  # sd * lead's [s]
    p = RationalPolynomial([1]) if rec.poly is None else rec.poly
    e = p.compose(RationalPolynomial._make((-sn, 0, sd), 1, sd))
    t = (RationalPolynomial._make((-2 * sn - sd, -4 * sn, 6 * sd, 4 * sd), 1, 2 * sd)
         * RationalPolynomial._raw(_unit_shift(e._c), 1, e._den))
    lead = RationalPolynomial._make((0, kn, 0, 4 * sd * kd), 1, sd * kd)
    return lead * e - 2 * t.odd_part()


def default_w_grid(b: float, count: int = 10, step: float = 0.5) -> tuple[float, ...]:
    """W grid keeping every shifted argument on the principal branch:
    sqrt(W+B+1/4) >= 1 requires W >= 3/4 - B, so the grid starts at
    max(1/2, 3/4 - B + 1/2)."""
    start = max(0.5, 0.75 - b + 0.5)
    return tuple(start + step * k for k in range(count))


# ---------------------------------------------------------------------------
# second solutions by reduction of order (Case A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeFunction:
    """Values on the unit lattice anchor, anchor+1, ..."""

    anchor: Fraction
    values: tuple

    def points(self):
        return tuple(self.anchor + k for k in range(len(self.values)))

    def __call__(self, z):
        k = z - self.anchor
        kk = int(k)
        if k != kk or not (0 <= kk < len(self.values)):
            raise KeyError(f"{z} is not on the stored lattice")
        return self.values[kk]


def second_solution(n: int, z0=Fraction(2), length: int = 8):
    """Second, non-polynomial solution of the Case A z-space relation at
    eigenvalue 2n+1, by reduction of order on the lattice z0, z0+1, ...

    The anchor is read as ``Fraction(z0)`` (a float at its exact value).
    The free additive constant and overall scale are fixed by u(z0) = 0 and
    a unit numerator in the first-order step, so h = g*u is determined only
    up to an admixture of g; tests compare residuals and Casoratians.
    Returns (u, h) as LatticeFunctions of Fractions.
    """
    if length < 4:
        raise ValueError("length must be at least 4")
    z0 = Fraction(z0)
    g = g_callable(CASE_A, n)
    pts = [z0 + k for k in range(length)]
    for x in pts + [z0 - 1]:
        for factor in (2 * x - 3, 2 * x - 1, 2 * x + 1):
            if not factor:
                raise LatticePole(f"denominator factor vanishes at lattice point {x}")
    gvals = {}
    for x in [z0 - 1] + pts:
        if n == 0 and x * x == Fraction(1, 4):
            raise LatticePole(f"rational eigenfunction pole at lattice point {x}")
        gx = g(x)
        if not gx:
            raise LatticePole(f"base solution vanishes at lattice point {x}")
        gvals[x] = gx
    uvals = [Fraction(0)]
    for k in range(1, length):
        x = z0 + k
        step = 1 / ((2 * x - 3) ** 2 * (2 * x - 1) ** 3 * (2 * x + 1) ** 2
                    * gvals[x - 1] * gvals[x])
        uvals.append(uvals[-1] + step)
    hvals = [gvals[z0 + k] * uvals[k] for k in range(length)]
    return (LatticeFunction(z0, tuple(uvals)), LatticeFunction(z0, tuple(hvals)))


def casoratian(n: int, h: LatticeFunction, z):
    """g_n(z) h(z+1) - g_n(z+1) h(z): nonzero certifies independence."""
    g = g_callable(CASE_A, n)
    return g(z) * h(z + 1) - g(z + 1) * h(z)


# ---------------------------------------------------------------------------
# conjecture scan: least-squares eigenvalue recovery for the full equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    b: float
    m: float
    n: int
    degree: int
    ell1_sq: float
    residual: float
    iterations: int
    converged: bool
    grid: tuple


def conjecture_scan(b: float, m: float, n: int, degree: int,
                    grid: Sequence[float] | None = None) -> ScanReport:
    """Fit exp(i*pi*sqrt(W+B+1/4)) times a degree-``degree`` polynomial in W
    to the master equation over a W grid, minimizing jointly over the
    coefficients and ell_1^2 by alternating linear solves (the equation is
    linear in each separately).

    For M = 0 this must recover ell_1^2 = (2n+1)^2; for M != 0 the report
    is exploratory output.
    """
    if degree < n:
        raise ValueError("degree must be at least n")
    ws = np.asarray(grid if grid is not None else default_w_grid(b, count=20), dtype=float)
    if ws.size < degree + 2:
        raise IllConditioned("grid has fewer points than unknowns")
    shift = b + 0.25

    def pref(w):
        return np.exp(1j * np.pi * np.sqrt(w + shift))

    rad = 1.0 + 4.0 * b + 4.0 * ws
    if np.any(rad <= 0) or np.any(ws + b == 0) or np.any(ws + shift < 0):
        raise DomainPole("grid leaves the admissible domain")
    r = np.sqrt(rad)
    wp, wm = ws + 1 + r, ws + 1 - r
    if np.any(wp + shift < 0) or np.any(wm + shift < 0):
        raise DomainPole("shifted argument leaves the principal branch domain")
    coupling = m / (b + ws)
    c_plus = 2 * b + 4 * ws + (ws - coupling) * (r - 1)
    c_minus = -2 * b - 4 * ws + (ws - coupling) * (r + 1)

    powers = np.arange(degree + 1)
    fmat = pref(ws)[:, None] * ws[:, None] ** powers[None, :]
    lmat = (2 * (ws + coupling)[:, None] * fmat
            + ((c_plus * pref(wp))[:, None] * wp[:, None] ** powers[None, :]
               + (c_minus * pref(wm))[:, None] * wm[:, None] ** powers[None, :]) / r[:, None])
    scale = np.max(np.abs(fmat), axis=0)
    if np.any(scale == 0) or not np.all(np.isfinite(lmat)):
        raise IllConditioned("degenerate basis on the scan grid")
    fmat = fmat / scale
    lmat = lmat / scale

    mu = 1.0 - float((2 * n + 1) ** 2)  # mu = 1 - ell1^2
    coeff = None
    iters = 0
    converged = False
    for iters in range(1, _SCAN_MAX_ITER + 1):
        _, svals, vh = np.linalg.svd(lmat - mu * fmat)
        coeff = vh[-1].conj()
        fa = fmat @ coeff
        la = lmat @ coeff
        denom = np.vdot(fa, fa).real
        if denom < 1e-300:
            raise IllConditioned("normal equations singular in the mu update")
        mu_new = (np.vdot(fa, la).real) / denom
        if abs(mu_new - mu) <= _SCAN_TOL * (1.0 + abs(mu)):
            mu = mu_new
            converged = True
            break
        mu = mu_new
    resid = float(np.linalg.norm((lmat - mu * fmat) @ coeff) / math.sqrt(ws.size))
    return ScanReport(b=b, m=m, n=n, degree=degree, ell1_sq=1.0 - mu,
                      residual=resid, iterations=iters, converged=converged,
                      grid=tuple(ws.tolist()))
