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
``inner_product_row`` is the batch certification of (rows, panels) sums
on one (1, panels) row, as the library's inner products once ran it, on
the arrays of a library measure: the bit-for-bit reference of their
per-row rule in Python floats; ``log_tail_bound`` is the tail bound it
reads, one lgamma call per term.  ``vector_generators``,
``spin_generators``, ``invariants``, ``algebra_audit`` and
``n0_extraction`` build and audit the Lorentz generators entry by entry and
one generator index at a time: the bit-for-bit reference of the library's
stacked forms.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

PANEL_WIDTH = 0.25
COARSE, FINE = np.polynomial.legendre.leggauss(20), np.polynomial.legendre.leggauss(41)
PROBES = (0.7, 0.85, 1.0)  # tail-envelope probes, as fractions of X
EPSILON = 2.3e-16  # the library's certification constants
ROUNDOFF = 100.0 * EPSILON
REL_TOL, ABS_TOL, PANEL_ORDER = 1e-10, 1e-13, 24
TWO_PI = 2.0 * math.pi


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


def log_tail_bound(c: float, p: int, lam: float, x: float) -> float:
    """C * integral_x^inf t^p e^{-lam t} dt for integer p, summed in
    logarithms with one lgamma call per term."""
    if c <= 0.0:
        return 0.0
    log_x = math.log(x) if x > 0.0 else -math.inf
    logs = [math.lgamma(p + 1) - math.lgamma(p - k + 1) - (k + 1) * math.log(lam)
            + ((p - k) * log_x if k < p else 0.0) for k in range(p + 1)]
    top = max(logs)
    e = math.log(c) - lam * x + top + math.log(sum(math.exp(v - top) for v in logs))
    return math.inf if e > 709.0 else math.exp(e)


def _growth_constant(probes, values, p: int, lam: float) -> float:
    c = 0.0
    for probe, v in zip(probes, values):
        v = abs(complex(v))
        if v > 0.0 and probe > 0.0:
            e = math.log(v) - p * math.log(probe) + lam * probe
            c = max(c, math.inf if e > 709.0 else math.exp(e))
    return 2.0 * c


def _certify(measure, coarse, fine, magnitude, probes, growth_degrees, at_masses, error):
    """(values, error estimates) of the rows of per-panel coarse and fine
    sums, all rows at once: numpy reductions, then lists."""
    totals = fine.sum(axis=-1)
    errs, mags = np.abs(fine - coarse).sum(axis=-1).tolist(), magnitude.tolist()
    budgets = [max(ABS_TOL, REL_TOL * size, ROUNDOFF * mag)
               if size == size and mag == mag else math.nan
               for size, mag in zip(np.abs(totals).tolist(), mags)]
    at = measure.x[-3 * PANEL_ORDER:][:3].tolist()
    tails = [log_tail_bound(_growth_constant(at, v, p, TWO_PI), p, TWO_PI, measure.x_max)
             for v, p in zip(probes.tolist(), growth_degrees)]
    missed = [r for r, (err, tail, budget) in enumerate(zip(errs, tails, budgets)) if not (
        err <= 0.5 * budget and tail <= 0.25 * budget)]
    if missed:
        i = missed[0]
        raise error(
            f"{measure.family.label()} measure at degree bound {measure.degree}: row {i} "
            f"(growth degree {growth_degrees[i]}) misses its budget {budgets[i]:.3e}, "
            f"err {errs[i]:.3e} against budget/2 {0.5 * budgets[i]:.3e}, tail "
            f"{tails[i]:.3e} against budget/4 {0.25 * budgets[i]:.3e} "
            f"({len(missed)} of {len(errs)} rows miss theirs); {measure.panels} panels, "
            f"x_max {measure.x_max:.6g}")
    errs = [err + tail + mag * (1e-15 * math.sqrt(measure.panels) + EPSILON * p)
            for err, tail, mag, p in zip(errs, tails, mags, growth_degrees)]
    values = totals.tolist()
    if at_masses is not None and measure.masses:
        values = [complex(v) for v in values]
        factors = [f.tolist() if f.ndim == 2 else [f.tolist()] * len(values)
                   for f in map(np.asarray, at_masses)]
        for r, row in enumerate(zip(*factors)):
            for j, pm in enumerate(measure.masses):
                term = pm.mass
                for f in row:
                    term = term * complex(f[j])
                values[r] += term
                errs[r] += 1e-15 * abs(term)
    return np.array(values), np.array(errs)


def inner_product_row(measure, a: np.ndarray, b: np.ndarray, error=ArithmeticError):
    """(value, error estimate) of <p, q> from the float basis rows ``a`` and
    ``b`` of p and q under ``measure``, read through its arrays and its
    Gram: the quadratic forms of the Gram under each rule, certified as one
    (1, panels) row of ``_certify``.  A row that misses its budget raises
    ``error`` with the library's text."""
    k = PANEL_ORDER
    gram, absolute = measure._gram
    probe = slice(-3 * k, -3 * k + 3)
    probe_a = a @ measure.values[:a.size, probe]
    probe_b = measure.density[probe] * (b @ measure.values[:b.size, probe])
    coarse, fine = gram[:, :, :a.size, :b.size] @ b @ a
    magnitude = np.abs(a) @ absolute[:a.size, :b.size] @ np.abs(b)
    [val], [err] = _certify(
        measure, coarse[None], fine[None], magnitude[None], (probe_a * probe_b)[None],
        [2 * (a.size + b.size - 2)],
        (a @ measure.mass_values[:a.size], b @ measure.mass_values[:b.size]), error)
    return val, err


LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_j, _i, _k] = -1.0


def vector_generators():
    """(boosts, rotations, parity) of the 4x4 vector representation, entry by
    entry and one generator index at a time."""
    metric = np.diag([1.0, -1.0, -1.0, -1.0])

    def gen(mu, nu):
        out = np.zeros((4, 4), dtype=complex)
        for alpha in range(4):
            for beta in range(4):
                out[alpha, beta] = 1j * (metric[mu, alpha] * (nu == beta)
                                         - metric[nu, alpha] * (mu == beta))
        return out

    rotations = [0.5 * sum(LEVI_CIVITA[i, j, k] * gen(j + 1, k + 1)
                           for j in range(3) for k in range(3)) for i in range(3)]
    return [gen(0, i) for i in (1, 2, 3)], rotations, metric.astype(complex)


def spin_generators(j1: Fraction, j2: Fraction):
    """(boosts, rotations, parity) of (j1, j2), doubled to (j1,j2)+(j2,j1)
    when j1 != j2, entry by entry and one generator index at a time."""
    def spin(j):
        d = int(2 * j) + 1
        ms = [j - k for k in range(d)]
        sp = np.zeros((d, d), dtype=complex)
        for k in range(1, d):
            sp[k - 1, k] = math.sqrt(float((j - ms[k]) * (j + ms[k] + 1)))
        sm = sp.conj().T
        return (sp + sm) / 2, (sp - sm) / (2j), np.diag([float(m) for m in ms]).astype(complex)

    def generators(j1, j2):
        d1, d2 = int(2 * j1) + 1, int(2 * j2) + 1
        a_ops = [np.kron(s, np.eye(d2, dtype=complex)) for s in spin(j1)]
        b_ops = [np.kron(np.eye(d1, dtype=complex), s) for s in spin(j2)]
        return [-1j * (a - b) for a, b in zip(a_ops, b_ops)], [a + b for a, b in zip(a_ops, b_ops)]

    d1, d2 = int(2 * j1) + 1, int(2 * j2) + 1
    swap = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for a in range(d1):
        for b in range(d2):
            swap[b * d1 + a, a * d2 + b] = 1.0
    boosts, rotations = generators(j1, j2)
    if j1 == j2:
        return boosts, rotations, (-1) ** int(2 * j1) * swap
    boosts2, rotations2 = generators(j2, j1)
    z = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    return ([np.block([[x, z], [z, y]]) for x, y in zip(boosts, boosts2)],
            [np.block([[x, z], [z, y]]) for x, y in zip(rotations, rotations2)],
            np.block([[z, swap.conj().T], [swap, z]]))


def _comm(x, y):
    return x @ y - y @ x


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def invariants(k, l):
    """(W, A, M) = (K.K, L.L, K.L), summed one generator at a time."""
    return (sum(x @ x for x in k), sum(x @ x for x in l),
            sum(x @ y for x, y in zip(k, l)))


def algebra_audit(k, l, p) -> dict[str, float]:
    """The max-entry residual of each audited relation, keyed and ordered
    as the library's, one index pair (i, j) and one t at a time."""
    eps = LEVI_CIVITA
    w, a, m = invariants(k, l)
    b, m_sq = a - w, m @ m
    res = {}
    res["rot-rot"] = max(
        _maxabs(_comm(l[i], l[j]) - 1j * sum(eps[i, j, t] * l[t] for t in range(3)))
        for i in range(3) for j in range(3))
    res["boost-rot"] = max(
        _maxabs(_comm(k[i], l[j]) - 1j * sum(eps[i, j, t] * k[t] for t in range(3)))
        for i in range(3) for j in range(3))
    res["boost-boost"] = max(
        _maxabs(_comm(k[i], k[j]) + 1j * sum(eps[i, j, t] * l[t] for t in range(3)))
        for i in range(3) for j in range(3))
    res["invariants-commute"] = max(_maxabs(_comm(w, a)), _maxabs(_comm(a, m)),
                                    _maxabs(_comm(m, w)))
    for name, inv in (("w", w), ("a", a)):
        res[f"{name}-boost"] = max(
            _maxabs(_comm(inv, k[i])
                    + 2j * sum(eps[i, j, t] * l[j] @ k[t] for j in range(3) for t in range(3))
                    + 2 * k[i])
            for i in range(3))
    for name, inv, gens in (("w-rot", w, l), ("a-rot", a, l), ("m-boost", m, k),
                            ("m-rot", m, l), ("b-boost", b, k), ("b-rot", b, l)):
        res[name] = max(_maxabs(_comm(inv, g)) for g in gens)
    res["b-parity"] = _maxabs(_comm(b, p))
    res["m-pseudoscalar"] = _maxabs(p @ m @ p + m)
    res["parity-boost-anticommute"] = max(_maxabs(_comm(p, x) + 2 * x @ p) for x in k)
    res["parity-rot-commute"] = max(_maxabs(_comm(p, x)) for x in l)
    res["parity-squared"] = _maxabs(p @ p - np.eye(len(p)))
    ops = [b, m_sq, w, p]
    res["commuting-set"] = max(_maxabs(_comm(ops[i], ops[j]))
                               for i in range(4) for j in range(i + 1, 4))
    return res


def n0_extraction(k, p):
    """(n0, residual against -(4/3) W P, against +(4/3) W P, traceless
    residual) from all nine commutators -i[N1^j, K^i], N1^j = 2i K^j P."""
    n1 = [2j * x @ p for x in k]
    tensor = [[-1j * _comm(n1[j], k[i]) for j in range(3)] for i in range(3)]
    n0 = (tensor[0][0] + tensor[1][1] + tensor[2][2]) / 3.0
    target = (4.0 / 3.0) * invariants(k, k)[0] @ p
    return (n0, _maxabs(n0 + target), _maxabs(n0 - target),
            _maxabs(sum(tensor[i][i] for i in range(3)) - 3.0 * n0))
