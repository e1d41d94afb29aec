"""Semi-infinite quadrature and weighted expansions in the monic families.

``discrete_measure`` is the one quadrature mechanism of the expansions: a
shared discretization of each family measure, on which inner products,
basis projections, all three routes to the parity-reconstruction
coefficients c_n, the weighted-L2 reconstruction residuals and the
Stieltjes orthogonalization become weighted dot products.

There is one quadrature configuration, the module constants REL_TOL,
ABS_TOL, PANEL_ORDER and MAX_PANELS, and one measure per (family, degree
bound), the bound rounded up to a power of two (at least 8), so that no
result depends on which calls ran before it.  Its cutoff is always the
automatic, tail-checked one of ``_cutoff``.  Its panels are chosen by the
adaptive panel loop, started from panels graded towards the origin and
refined to the roundoff floor, on the family's hardest polynomial
integrand w * sum_k P_k^2 / ||P_k||^2 (k up to the bound); each refinement
round (the tail probes with the Case B point masses, the starting panels,
one split) evaluates the integrand in one call.  The measure holds the
PANEL_ORDER- and 2*PANEL_ORDER-point Gauss-Legendre weights of every panel
(a rule computed here), the Case B point masses, and the density and the
values of P_0..P_bound at the nodes, the probes and the masses, as the
panel loop and the last probe round evaluated them, once per point: the
values run forward in float through the three-term recurrence
(``family_values``, one table of terms per family).  Polynomials are
expanded exactly in the family basis, peeled off the cached exact table,
so an inner product of two is a quadratic form of the measure's per-panel
Gram of those values, built on the first inner product; a callable
integrand goes through ``project``, which reads it at a Case B point mass
x = i t as f(1j * t).
Every integral takes the continuous and the discrete part together and
returns its own error estimate: the per-panel difference of the two
rules, the analytic tail bound beyond the cutoff and a roundoff
allowance, checked in floats after two numpy sums per row by one per-row
rule, which ``sums`` applies to each of its rows and an inner product to
its one.  An integral that misses its budget raises ``NoConvergence``
with one text, naming its error and its tail against the budget.  A
measure whose panel loop exceeds MAX_PANELS or meets a non-finite
integrand raises it too.

Convergence of the reconstruction series is only ever tested in the
weighted L2 sense of the continued variable; no operator-level or
pointwise claim is made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NoConvergence
from .numcore import RationalPolynomial
from .wilson import (
    CASE_A,
    CASE_B,
    TWO_PI,
    PointMass,
    WilsonFamily,
    _check_case,
    _prefix,
    _sinh_over_cosh_cubed,
    family_weight,
    monic_from_recurrence,
    norm_closed_form,
    printed_norm_rhs,
    standard_recurrence_terms,
)

EPSILON = 2.3e-16
# relative roundoff floor of a panel sum: near-zero integrals of
# large-magnitude integrands (orthogonality cross terms) cannot do better
ROUNDOFF = 100.0 * EPSILON
# an integral's budget is max(ABS_TOL, REL_TOL |value|, roundoff floor)
REL_TOL = 1e-10
ABS_TOL = 1e-13
PANEL_ORDER = 24  # each panel's coarse rule; its fine rule has twice the points
MAX_PANELS = 4000
MEASURE_MIN_DEGREE = 8
MEASURE_PANEL_WIDTH = 8.0
PROBES = (0.7, 0.85, 1.0)  # tail-envelope probes, as fractions of the cutoff


@functools.lru_cache(maxsize=None)
def _nodes(order: int):
    """The order-point Gauss-Legendre rule (order >= 3) by numpy's ``leggauss``
    algorithm, step for step: companion-matrix eigenvalues (Golub & Welsch
    1969), one Newton step, symmetrized weights scaled to sum to 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    off = np.arange(1, order) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    top = [0.0] * order + [1.0]  # L_order; L_order' sums (2k+1) L_k over k = order-1, order-3, ...
    df = _legendre(x, [(order - k) % 2 * (2.0 * k + 1) for k in range(order)])
    x -= _legendre(x, top) / df
    fm = _legendre(x, top[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    for array in (x, w):
        array.flags.writeable = False  # cached
    return x, w


def _legendre(x: np.ndarray, c: list) -> np.ndarray:
    """sum_k c[k] L_k(x), len(c) >= 3, by Clenshaw as numpy's ``legval`` runs it."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _exp(e: float) -> float:
    return math.inf if e > 709.0 else math.exp(e)


def tail_bound(c: float, growth_degree: int, decay_rate: float, x: float) -> float:
    """Exact bound C * integral_x^inf t^p e^{-lam t} dt for integer p,
    summed in logarithms so that large p and x cannot overflow."""
    if c <= 0.0:
        return 0.0
    top, log_sum = _tail_logs(growth_degree, decay_rate, x)
    return _exp(math.log(c) - decay_rate * x + top + log_sum)


@functools.lru_cache(maxsize=1024)
def _tail_logs(p: int, lam: float, x: float) -> tuple[float, float]:
    """The part of tail_bound that does not depend on C: the largest term
    log and the log of the sum of the terms relative to it."""
    lg = _prefix((None, "lgamma"), p, tuple, lambda lg: math.lgamma(len(lg) + 1))  # log j!
    log_x = math.log(x) if x > 0.0 else -math.inf
    log_lam = math.log(lam)
    logs = [lg[p] - lg[p - k] - (k + 1) * log_lam + ((p - k) * log_x if k < p else 0.0)
            for k in range(p + 1)]
    top = max(logs)
    return top, math.log(sum(math.exp(v - top) for v in logs))


def _growth_constant(probes, values, growth_degree: int, decay_rate: float) -> float:
    """2 max |f(probe)| / (probe^p e^{-lam probe}), in logarithms."""
    c = 0.0
    for probe, v in zip(probes, values):
        v = abs(complex(v))
        if v > 0.0 and probe > 0.0:
            c = max(c, _exp(math.log(v) - growth_degree * math.log(probe) + decay_rate * probe))
    return 2.0 * c


def auto_cutoff(poly_degree_in_x: int) -> float:
    """Cutoff heuristic for weight-times-polynomial integrands: the weight
    decays like e^{-2 pi x} while a degree-d polynomial in x grows like
    x^d, so max(15, (d+6) ln(10)/(2 pi) + 5) keeps the tail below 1e-16
    relative."""
    return max(15.0, (poly_degree_in_x + 6) * math.log(10.0) / TWO_PI + 5.0)


def _cutoff(f, decay_rate: float, growth_degree: int) -> float:
    """The first X of auto_cutoff, +5, +10, ... (or the first past 300)
    whose tail bound beyond X (integrand <= C x^p e^{-decay*x}, C measured
    at the probes) is below ABS_TOL/4."""
    x_max = auto_cutoff(growth_degree)
    while True:
        probes = [k * x_max for k in PROBES]
        c = _growth_constant(probes, np.asarray(f(np.array(probes))), growth_degree, decay_rate)
        tail = tail_bound(c, growth_degree, decay_rate, x_max)
        if tail < 0.25 * ABS_TOL or x_max > 300.0:
            return x_max
        x_max += 5.0


def _adaptive_panels(f, x_max: float, edges: np.ndarray) -> list:
    """The adaptive panel loop of the measure build: starting from the
    panels between ``edges``, the panel with the largest |fine - coarse| is
    halved until the summed differences are within half the budget
    max(ABS_TOL, roundoff floor).  Returns [err, lo, hi, value] per panel,
    by lo.  Each round evaluates f in one call, on the coarse and fine
    nodes of all starting panels, then of both halves of the split panel;
    a non-finite value raises at once, naming the first one in panel
    order.  An f returning (integrand, *arrays), such as the measure
    build's (integrand, value rows, densities), has each panel's block of
    every array's last axis appended to its entry, in order."""
    k = PANEL_ORDER
    (xc, wc), (xf, wf) = _nodes(k), _nodes(2 * k)
    rule = np.concatenate((xc, xf))

    def panels_on(lo, hi):
        xm = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * rule
        fx, rows = f(xm.ravel()), [()] * len(lo)
        if isinstance(fx, tuple):  # (integrand, *arrays): each panel keeps its blocks
            fx, *kept = fx
            rows = list(zip(*(np.split(array, len(lo), axis=-1) for array in kept)))
        fx = np.asarray(fx).reshape(xm.shape)
        bad = np.argwhere(~np.isfinite(fx))
        if bad.size:
            p, j = bad[0]
            raise NoConvergence(
                f"non-finite integrand at x = {xm[p, j]:.6g} on panel "
                f"[{lo[p]:.6g}, {hi[p]:.6g}], cutoff {x_max:.6g}")
        out = []
        for a, b, row, kept in zip(lo, hi, fx, rows):  # own slices: pairwise sums keep their bits
            coarse = 0.5 * (b - a) * np.sum(wc * row[:k])
            fine = 0.5 * (b - a) * np.sum(wf * row[k:])
            out.append([abs(fine - coarse), a, b, fine, *kept])
        return out

    panels = panels_on(edges[:-1], edges[1:])
    while True:
        err_sum = sum(p[0] for p in panels)
        budget = max(ABS_TOL, ROUNDOFF * sum(abs(p[3]) for p in panels))
        if err_sum <= 0.5 * budget:
            break
        panels.sort(key=lambda p: (-p[0], p[1]))
        if len(panels) >= MAX_PANELS:
            worst, lo, hi = panels[0][:3]
            raise NoConvergence(
                f"adaptive quadrature exceeded {MAX_PANELS} panels: err_sum "
                f"{err_sum:.3e} against budget/2 {0.5 * budget:.3e} (budget "
                f"{budget:.3e}, total {abs(sum(p[3] for p in panels)):.3e}); worst panel "
                f"[{lo:.6g}, {hi:.6g}] with err {worst:.3e}, cutoff {x_max:.6g}")
        _, lo, hi = panels.pop(0)[:3]
        mid = 0.5 * (lo + hi)
        panels += panels_on(np.array([lo, mid]), np.array([mid, hi]))
    panels.sort(key=lambda p: p[1])
    return panels


# ---------------------------------------------------------------------------
# the families in float: one evaluator, the three-term recurrence
# ---------------------------------------------------------------------------

def _recurrence(family: WilsonFamily, n_max: int) -> tuple:
    """(beta_n, sqrt(gamma_n), scale_{n-1}) for n = 1..n_max+1 as three
    read-only float arrays, from the family's cached prefix of rows: the
    exact (beta_n, gamma_n) of P_n = (u + beta_n) P_{n-1} - gamma_n P_{n-2}
    (gamma_1 multiplies P_{-1} = 0) rounded once, and scale_{n-1} =
    sqrt(gamma_2 ... gamma_n), the sequential product np.cumprod forms (inf
    past the float range, Case A from n = 116)."""
    if family.case == CASE_B:
        family.require_nondegenerate(n_max)
    if family.symbolic:
        raise ValueError("float evaluation needs a numeric B")

    def step(rows):  # the row of n = len(rows) + 1
        beta, gamma = standard_recurrence_terms(family, len(rows) + 1)
        root = math.sqrt(float(gamma))
        return float(beta), root, rows[-1][2] * root if rows else 1.0
    rows = _prefix((family, "float recurrence"), n_max, tuple, step)[: n_max + 1]
    table = np.array(list(zip(*rows)))
    table.flags.writeable = False  # cached rows, shared by every caller
    return tuple(table)


def family_values(family: WilsonFamily, n_max: int, u):
    """P_0..P_{n_max} at the squared abscissae ``u`` in float, run forward
    through the three-term recurrence (Gautschi 2004, sec. 2.1), which
    stays well conditioned where Horner on the monomial coefficients loses
    digits.  Rows are written in place (every u + beta_n in one call); the
    operations are elementwise, so a value does not depend on the shape of u.

    Returns (values, scale): P_k(u) = scale[k] * values[k], with scale[k] =
    sqrt(gamma_2 ... gamma_{k+1}), the norm ratio ||P_k|| / ||P_0|| of a
    positive measure, so the rows stay of unit order where the measure
    lives.
    """
    beta, root, scale = _recurrence(family, n_max)
    root = root.tolist()
    u = np.asarray(u, dtype=float)
    values = np.empty((n_max + 1,) + u.shape)
    values[0] = 1.0
    np.add(beta[:n_max].reshape((-1,) + (1,) * u.ndim), u, out=values[1:])  # every u + beta_n
    scratch, before, last = np.empty(u.shape), None, values[0, ...]
    for n in range(1, n_max + 1):
        row = values[n, ...]  # a view, also for 0-d u
        row *= last
        if n >= 2:
            row -= np.multiply(before, root[n - 1], scratch)
        row /= root[n]
        before, last = last, row
    return values, scale


@functools.lru_cache(maxsize=1024)
def _basis_row(family: WilsonFamily, poly: RationalPolynomial) -> np.ndarray:
    """float(a_k) * scale_k, read-only, for the exact a_k with
    poly = sum_k a_k P_k: the coefficients of poly against the scaled value
    rows.  The a_k are peeled off the cached exact table from the top
    degree down on integer grids: a_k is the remainder's u^k coefficient,
    one correctly rounded division, and the remainder drops a_k P_k, so a
    member of the table costs one subtraction."""
    rest, den = list(poly._c), poly._den
    degree = max(len(rest) - 1, 0)
    scale = _recurrence(family, degree)[2]
    if np.isinf(scale[degree]):
        raise NoConvergence(f"{family.label()} polynomial of degree {degree}: the basis "
                            f"scale overflows at degree {int(np.argmax(np.isinf(scale)))}")
    table, a = monic_from_recurrence(family, degree), [0.0] * (degree + 1)
    for k in range(len(rest) - 1, -1, -1):
        top = rest.pop()
        if top:
            a[k], member = top / den, table[k]
            h = math.gcd(top, member._den)
            up, down = member._den // h, top // h  # rest - a_k P_k over den * up
            rest = [x * up - down * y for x, y in zip(rest, member._c)]
            den *= up
    row = np.array(a) * scale
    row.flags.writeable = False  # cached
    return row


# ---------------------------------------------------------------------------
# the shared discrete measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A family measure discretized for polynomial integrands of degree up
    to 2 * ``degree`` in the squared variable.

    The points ``x`` come in blocks of 3 * PANEL_ORDER: per panel the
    PANEL_ORDER coarse nodes, then the 2 * PANEL_ORDER fine nodes.  A last
    block holds the tail-envelope probes 0.7, 0.85 and 1 times ``x_max``
    (padded with ``x_max``) and has zero weight.  ``weights`` (one row per
    block) are the Gauss-Legendre weights scaled to each panel, without
    the density; ``density`` is the continuous density at ``x``, and
    ``values[k]`` is P_k / scale[k] there; ``mass_values[k, j]`` is
    P_k / scale[k] at the Case B point mass ``masses[j]``.
    """

    family: WilsonFamily
    degree: int
    x_max: float
    x: np.ndarray
    weights: np.ndarray
    density: np.ndarray
    values: np.ndarray
    scale: np.ndarray
    masses: tuple[PointMass, ...]
    mass_values: np.ndarray

    @property
    def panels(self) -> int:
        return self.weights.shape[0] - 1

    def fine_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, weights times density) of the fine rule on all panels."""
        k = PANEL_ORDER
        blocks = slice(0, self.panels), slice(k, 3 * k)
        x = self.x.reshape(-1, 3 * k)[blocks]
        return x.ravel(), (self.weights[blocks] * self.density.reshape(-1, 3 * k)[blocks]).ravel()

    def sums(self, rows: np.ndarray, growth_degrees, factor: np.ndarray,
             row_scale: np.ndarray | None = None, at_masses: tuple | None = None):
        """Certified integrals of the integrands row * factor * row_scale,
        each row sampled at ``x`` (the density included in ``factor`` or the
        rows where it belongs), plus the point-mass terms: ``at_masses`` is
        the integrand at the masses as factors f_1, f_2, ... of shape (masses,)
        or (rows, masses), and mass j adds (mass_j * f_1[r, j]) * f_2[r, j]
        ... to row r in scalar arithmetic.  ``None`` leaves the masses out.
        Returns (values, error estimates) from ``_certify``."""
        k = PANEL_ORDER
        rows = np.atleast_2d(rows).reshape(-1, self.weights.shape[0], 3 * k)
        w = self.weights * factor.reshape(-1, 3 * k)
        coarse = np.einsum("rpk,pk->rp", rows[..., :k], w[:, :k])
        fine = np.einsum("rpk,pk->rp", rows[..., k:], w[:, k:])
        magnitude = np.einsum("rpk,pk->r", np.abs(rows[..., k:]), np.abs(w[:, k:]))
        probes = rows[:, -1, :3] * factor[-3 * k:][:3]
        if row_scale is not None:
            coarse, fine = coarse * row_scale[:, None], fine * row_scale[:, None]
            magnitude = magnitude * np.abs(row_scale)
            probes = probes * row_scale[:, None]
        totals = fine.sum(axis=-1)
        factors = [None] * len(totals)
        if at_masses is not None and self.masses:
            factors = zip(*(f.tolist() if f.ndim == 2 else [f.tolist()] * len(totals)
                            for f in map(np.asarray, at_masses)))
        # numpy's |total| (its complex abs rounds unlike Python's)
        values, errs = zip(*self._certify(zip(
            totals.tolist(), np.abs(totals).tolist(), np.abs(fine - coarse).sum(axis=-1).tolist(),
            magnitude.tolist(), probes.tolist(), growth_degrees, factors)))
        return np.array(values), np.array(errs)

    def _certify(self, rows) -> list:
        """[(value, error estimate)] of the integrals given per row in Python
        floats as (total, size, err, magnitude, probes, growth degree,
        factors): the fine-rule sum, numpy's |total|, the summed per-panel
        |fine - coarse|, the sum of |weight * integrand| over the fine nodes
        (the roundoff scale: on panels this wide |panel value| cancels for
        oscillating integrands), the integrand at the tail probes and the
        mass factors of ``sums``, or None.  The estimate is err, plus the
        tail bound for the growth degree, plus a roundoff allowance that also
        covers the recurrence values, whose relative error grows about
        linearly with the degree (EPSILON per unit of growth degree), plus
        1e-15 |term| per mass term.  The continuous part of every row must
        meet its budget max(ABS_TOL, REL_TOL |total|, roundoff floor): err at
        most half of it and the tail at most a quarter; otherwise
        NoConvergence names the first row that misses it and counts those
        that do."""
        out, missed = [], []
        at = [k * self.x_max for k in PROBES]
        for r, (total, size, err, mag, probes, p, factors) in enumerate(rows):
            budget = (max(ABS_TOL, REL_TOL * size, ROUNDOFF * mag)
                      if size == size and mag == mag else math.nan)  # nan stays nan
            tail = tail_bound(_growth_constant(at, probes, p, TWO_PI), p, TWO_PI, self.x_max)
            if not (err <= 0.5 * budget and tail <= 0.25 * budget):
                missed.append((r, p, budget, err, tail))
                continue
            err = err + tail + mag * (1e-15 * math.sqrt(self.panels) + EPSILON * p)
            if factors is not None and self.masses:
                total = complex(total)
                for j, pm in enumerate(self.masses):
                    term = pm.mass
                    for f in factors:
                        term = term * complex(f[j])
                    total += term
                    err += 1e-15 * abs(term)
            out.append((total, err))
        if missed:
            r, p, budget, err, tail = missed[0]
            raise NoConvergence(
                f"{self.family.label()} measure at degree bound {self.degree}: row {r} (growth "
                f"degree {p}) misses its budget {budget:.3e}, err {err:.3e} against budget/2 "
                f"{0.5 * budget:.3e}, tail {tail:.3e} against budget/4 {0.25 * budget:.3e} "
                f"({len(missed)} of {len(out) + len(missed)} rows miss theirs); "
                f"{self.panels} panels, x_max {self.x_max:.6g}")
        return out

    @functools.cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, A), built on first use: G[r, p, k, l] sums values[k] * (weights
        * density * values[l]) over panel p's coarse (r = 0) or fine (r = 1)
        nodes, A[k, l] sums the absolute values of the two factors over all
        fine nodes.  The first product is folded in before the second:
        values[k] * values[l] overflows at high degree."""
        k, n = PANEL_ORDER, self.panels
        v = self.values.reshape(self.values.shape[0], -1, 3 * k)[:, :n]
        vw = v * (self.weights[:n] * self.density.reshape(-1, 3 * k)[:n])
        gram = np.stack([v[..., rule].transpose(1, 0, 2) @ vw[..., rule].transpose(1, 2, 0)
                         for rule in (slice(k), slice(k, None))])
        absolute = np.tensordot(np.abs(v[..., k:]), np.abs(vw[..., k:]), axes=([1, 2], [1, 2]))
        for array in (gram, absolute):
            array.flags.writeable = False  # shared by every caller
        return gram, absolute


def _graded_edges(x_max: float) -> np.ndarray:
    """Initial measure panels: widths 1/2, 1, 2, 4, then MEASURE_PANEL_WIDTH.
    The densities' poles and near-poles sit on the imaginary axis within
    about 1/2 of the origin, so the panels there must be as short as their
    distance to it; further out the rules resolve wide panels."""
    edges, width = [0.0], 0.5
    while edges[-1] + width < x_max:
        edges.append(edges[-1] + width)
        width = min(2.0 * width, MEASURE_PANEL_WIDTH)
    return np.array(edges + [x_max])


@functools.lru_cache(maxsize=32)
def _build_measure(family: WilsonFamily, degree: int):
    weight = family_weight(family)
    masses = weight.point_masses
    ends = []  # hardest at the probes and the masses, from the cutoff's last candidate

    def hardest(x, at=()):
        # integrand, value rows at x and then at the squared abscissae ``at``, density at
        # x; rows overflowing past the degree ceiling are the callers' to reject, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            values, _ = family_values(family, degree, np.concatenate((x * x, at)))
            density, rows = weight.evaluate(x), values[:, :x.size]
            return density * np.sum(rows * rows, axis=0), values, density

    def probed(x):
        ends[:] = hardest(x, [pm.y for pm in masses])
        return ends[0]

    try:
        x_max = _cutoff(probed, TWO_PI, 4 * degree)
        panels = _adaptive_panels(hardest, x_max, _graded_edges(x_max))
        bad = np.argwhere(~np.isfinite(ends[1]))[:, 1]  # probes, masses: outside every panel
        if bad.size:
            j = bad[0]
            at = (f"x = {PROBES[j] * x_max:.6g}" if j < 3
                  else f"the point mass x = {masses[j - 3].t:.6g}i")
            raise NoConvergence(f"non-finite value row at {at}, cutoff {x_max:.6g}")
    except NoConvergence as exc:
        raise NoConvergence(f"{family.label()} measure at degree bound {degree}: {exc}") from None
    (xc, wc), (xf, wf) = _nodes(PANEL_ORDER), _nodes(2 * PANEL_ORDER)
    lo = np.array([p[1] for p in panels])[:, None]
    hi = np.array([p[2] for p in panels])[:, None]
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.concatenate((xc, xf))
    pad = np.minimum(np.arange(3 * PANEL_ORDER), 2)  # the probes, padded with the cutoff
    x = np.concatenate((nodes.ravel(), np.multiply(PROBES, x_max)[pad]))
    weights = np.zeros((len(panels) + 1, 3 * PANEL_ORDER))
    weights[:-1] = 0.5 * (hi - lo) * np.concatenate((wc, wf))
    values = np.concatenate([p[4] for p in panels] + [ends[1][:, pad]], axis=1)
    density = np.concatenate([p[5] for p in panels] + [ends[2][pad]])
    mass_values = np.ascontiguousarray(ends[1][:, 3:])
    for array in (x, weights, density, values, mass_values):
        array.flags.writeable = False  # shared by every caller
    return DiscreteMeasure(family=family, degree=degree, x_max=x_max, x=x,
                           weights=weights, density=density, values=values, masses=masses,
                           scale=_recurrence(family, degree)[2],
                           mass_values=mass_values)


def discrete_measure(family: WilsonFamily, degree: int) -> DiscreteMeasure:
    """The shared measure serving polynomial degrees <= ``degree``: cached
    per (family, bound), bound = the power of two >= max(degree, 8) (the 32
    most recently used; a rebuilt measure is identical), its cutoff the
    automatic one of ``_cutoff``.  Raises NoConvergence, naming the family
    and the bound, when its panel loop exceeds MAX_PANELS or meets a
    non-finite integrand (past the degree ceiling, where the value rows
    overflow), or a probe or mass row is non-finite."""
    bound = max(MEASURE_MIN_DEGREE, 1 << max(degree - 1, 0).bit_length())
    return _build_measure(family, bound)


# ---------------------------------------------------------------------------
# inner products under a family measure
# ---------------------------------------------------------------------------

def _on(measure: DiscreteMeasure, f) -> tuple:
    """(values at the measure's points, values at its point masses) of a
    callable of the abscissa; a point mass sits at x = i t, where f is read
    as f(1j * t)."""
    return np.asarray(f(measure.x)), [f(1j * pm.t) for pm in measure.masses]


@functools.lru_cache(maxsize=1024)
def _reads(family: WilsonFamily, bound: int, poly: RationalPolynomial):
    """|a|, then as tuples of Python floats a . values at the tail probes,
    that times the density, and a . mass_values, for the basis row a of
    poly under the measure (family, bound), or its identical rebuild:
    what inner products read."""
    a, measure = _basis_row(family, poly), _build_measure(family, bound)
    probe = slice(-3 * PANEL_ORDER, -3 * PANEL_ORDER + 3)
    at_probes = a @ measure.values[:a.size, probe]
    return (np.abs(a), tuple(at_probes.tolist()),
            tuple((measure.density[probe] * at_probes).tolist()),
            tuple((a @ measure.mass_values[:a.size]).tolist()))


def inner_product(family: WilsonFamily, p: RationalPolynomial, q: RationalPolynomial):
    """<p, q> under the family measure: continuous weighted integral plus
    the Case B point-mass terms, for polynomials in the squared variable.
    With a and b the coefficients of p and q in the scaled family basis
    (exact, rounded once each), the continuous part is the quadratic form
    a^T G b of the measure's panel Gram under each rule, certified as one
    row of ``_certify`` from two numpy sums over the panels; a callable
    integrand goes through ``project``.  Returns (value, error_estimate)
    as numpy scalars."""
    if not (isinstance(p, RationalPolynomial) and isinstance(q, RationalPolynomial)
            and p._w == q._w == 1):
        raise TypeError("inner_product takes polynomials over Q; project takes a callable")
    a, b = _basis_row(family, p), _basis_row(family, q)
    measure = discrete_measure(family, max(a.size, b.size) - 1)
    gram, absolute = measure._gram
    abs_a, probe_a, _, mass_a = _reads(family, measure.degree, p)
    abs_b, _, probe_b, mass_b = _reads(family, measure.degree, q)
    coarse, fine = gram[:, :, :a.size, :b.size] @ b @ a
    total = float(np.add.reduce(fine))
    [(val, err)] = measure._certify([(
        total, abs(total), float(np.add.reduce(np.abs(fine - coarse))),
        float(abs_a @ absolute[:a.size, :b.size] @ abs_b),
        [x * y for x, y in zip(probe_a, probe_b)], 2 * (a.size + b.size - 2), (mass_a, mass_b))])
    return np.array(val)[()], np.float64(err)


# ---------------------------------------------------------------------------
# projections and the parity coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientTable:
    """Expansion coefficients with propagated quadrature error estimates."""

    case: str
    b: Fraction | None
    route: str
    entries: tuple[tuple[int, complex, float], ...]

    def _entry(self, n: int) -> tuple[int, complex, float]:
        if not 0 <= n < len(self.entries):  # entries are n = 0..n_max in order
            raise KeyError(n)
        return self.entries[n]

    def coefficient(self, n: int) -> complex:
        return self._entry(n)[1]

    def error(self, n: int) -> float:
        return self._entry(n)[2]


def _basis_rows(measure: DiscreteMeasure, n_max: int, factor: np.ndarray,
                growth: Callable[[int], int], factor_at_masses=None):
    """(values, errors) of the integrals of factor * P_n for n = 0..n_max,
    ``factor`` sampled at the measure's points and, unless None, given at
    its point masses."""
    rows, scale = slice(n_max + 1), measure.scale[: n_max + 1]
    at_masses = None if factor_at_masses is None else (
        factor_at_masses, scale[:, None] * measure.mass_values[rows])
    return measure.sums(measure.values[rows], [growth(n) for n in range(n_max + 1)],
                        factor, scale, at_masses)


def project(f_target, family: WilsonFamily, n_max: int) -> CoefficientTable:
    """Orthogonal-projection coefficients <F, P_n>/<P_n, P_n> for
    n = 0..n_max under the family measure, all numerators from one pass
    over the shared measure.  F is a callable of the abscissa, analytic
    where the measure lives: called on the array of nodes, and at each Case
    B point mass x = i t on the complex scalar 1j * t.  A polynomial goes
    through ``inner_product``.  Denominators use the closed-form norms."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if isinstance(f_target, RationalPolynomial):
        raise TypeError("project takes a callable; inner_product takes polynomials")
    measure = discrete_measure(family, n_max)
    at_x, at_masses = _on(measure, f_target)
    nums = _basis_rows(measure, n_max, measure.density * at_x, lambda n: 2 * n, at_masses)
    entries = []
    for n, (num, err) in enumerate(zip(*nums)):
        norm = float(norm_closed_form(family, n))
        entries.append((n, complex(num) / norm, err / abs(norm)))
    return CoefficientTable(family.case, family.b, "projection", tuple(entries))


def parity_target(case: str) -> Callable:
    """The target F of the reconstruction identity of each case, a callable
    of the abscissa: vectorized over real arrays, and analytic, so that a
    Case B point mass reads it at x = i t."""
    _check_case(case)
    if case == CASE_A:
        return lambda x: -4.0 * (np.exp(-np.pi * x) + 1j) / (1.0 + 4.0 * x * x)
    return lambda x: np.exp(-np.pi * x) + 0j


def _case_a_moment(x):
    """The Case A closed-formula integrand without its polynomial:
    x (1 + 4x^2) sinh(pi x) / cosh(pi x)^3 (e^{-pi x} + i)."""
    return x * (1.0 + 4.0 * x * x) * _sinh_over_cosh_cubed(x) * (np.exp(-np.pi * x) + 1j)


def parity_coefficients(family: WilsonFamily, n_max: int,
                        route: str = "closed_form") -> CoefficientTable:
    """The reconstruction coefficients c_n.

    Case A: c_0 = -i exactly (fixed analytically at the half-integer point
    of the identity, never by quadrature); c_n for n >= 1 from the closed
    quadrature formula paired with the degree n-1 family member.  The
    "closed_form" route uses the corrected norm constants; "printed" keeps
    the source text's constants (wrong for n >= 2; the detector's
    reference).  Case B: all c_n from the closed formula under the full
    measure; "printed" drops the point-mass terms (continuous integral
    only, as literally printed).  "projection" computes both cases by
    generic orthogonal projection of the reconstruction target.  Each route
    takes all its integrals in one pass over the shared measure.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if family.case == CASE_B:
        if family.b is None:
            raise ValueError("parity coefficients need a numeric B")
        family.require_nondegenerate()
    offset = 1 if family.case == CASE_A else 0  # c_0 = -i; c_n pairs with P_{n-offset}
    entries = [(0, -1j, 0.0)] * offset
    if route == "projection":
        proj = project(parity_target(family.case), family, max(n_max - offset, 0))
        for k, a, e in proj.entries[: n_max + 1 - offset]:
            entries.append((k + offset, (-1) ** k * a, e))
        return CoefficientTable(family.case, family.b, route, tuple(entries))
    if route not in ("closed_form", "printed"):
        raise ValueError(f"unknown route {route!r}")

    if family.case == CASE_A:
        if n_max >= 1:
            measure = discrete_measure(family, n_max - 1)
            integrals = _basis_rows(measure, n_max - 1, _case_a_moment(measure.x),
                                    lambda k: 2 * k + 3)
            norm = printed_norm_rhs if route == "printed" else norm_closed_form
            for n, (integral, err) in enumerate(zip(*integrals), start=1):
                const = math.pi ** 2 * (-1) ** n / float(norm(family, n - 1))
                entries.append((n, complex(const * integral), abs(const) * err))
    else:
        measure = discrete_measure(family, n_max)
        target = parity_target(CASE_B)  # read at the point masses only
        integrals = _basis_rows(measure, n_max, measure.density * np.exp(-np.pi * measure.x),
                                lambda n: 2 * n + 1,
                                [target(1j * pm.t) for pm in measure.masses]
                                if route == "closed_form" else None)
        for n, (integral, err) in enumerate(zip(*integrals)):
            const = (-1) ** n / float(norm_closed_form(family, n))
            entries.append((n, complex(const * integral), abs(const) * err))
    return CoefficientTable(family.case, family.b, route, tuple(entries))


def reconstruction_residual(family: WilsonFamily, n_trunc: int,
                            table: CoefficientTable | None = None) -> tuple[float, ...]:
    """Weighted-L2 residuals ||F - S_N|| of the reconstruction series for
    every truncation N = 0..n_trunc, under the full family measure.

    Case A pairs c_{n+1} with the degree-n member (the index offset is
    encoded here and in parity_coefficients only); Case B pairs c_n with
    degree n.  All partial sums S_N come from one cumulative sum over the
    shared measure.  The residual sequence of an orthogonal projection is
    nonincreasing up to quadrature error.
    """
    if n_trunc < 0:
        raise ValueError("n_trunc must be nonnegative")
    offset = 1 if family.case == CASE_A else 0
    if table is None:
        table = parity_coefficients(family, n_trunc + offset)
    signed = np.array([(-1) ** n * table.coefficient(n + offset) for n in range(n_trunc + 1)],
                      dtype=complex)
    measure = discrete_measure(family, n_trunc)
    scale = measure.scale[: n_trunc + 1]
    partial = (signed * scale)[:, None] * measure.values[: n_trunc + 1]
    np.cumsum(partial, axis=0, out=partial)
    target_x, target_masses = _on(measure, parity_target(family.case))
    partial -= target_x
    gap = np.asarray(target_masses) - np.cumsum(
        signed[:, None] * (scale[:, None] * measure.mass_values[: n_trunc + 1]), axis=0)
    # scalar abs per entry (object dtype): numpy's vectorized complex abs rounds differently
    integrals, _ = measure.sums(partial.real ** 2 + partial.imag ** 2,
                                [4 * N for N in range(n_trunc + 1)], measure.density,
                                at_masses=(abs(gap.astype(object)) ** 2,))
    return tuple(math.sqrt(max(float(np.real(val)), 0.0)) for val in integrals)


# ---------------------------------------------------------------------------
# numeric orthogonalization (the third construction route)
# ---------------------------------------------------------------------------

def stieltjes_monic_table(family: WilsonFamily, n_max: int) -> list[np.ndarray]:
    """Monic orthogonal polynomials of the family measure built by
    sequential orthogonalization of 1, u, u^2, ... (Stieltjes recurrence
    with quadrature inner products): the measure-level oracle against the
    exact construction routes.  Uses only the nodes, the fine-rule weights
    and the point masses of the shared measure, never its recurrence
    values.  Returns float coefficient arrays."""
    measure = discrete_measure(family, n_max)
    xs, ws = measure.fine_rule()
    # a point mass is one more node, weighted by its mass
    u = np.concatenate((xs * xs, [pm.y for pm in measure.masses]))
    w = np.concatenate((ws, [pm.mass for pm in measure.masses]))

    coeffs = [np.array([1.0])]
    pk = np.ones_like(u)
    pkm1 = np.zeros_like(u)
    nrm_prev = None
    for k in range(n_max):
        nrm = float(np.sum(w * pk * pk))
        a_k = float(np.sum(w * (u * pk) * pk)) / nrm
        b_k = 0.0 if nrm_prev is None else nrm / nrm_prev
        c = np.zeros(k + 2)
        c[1:] += coeffs[k]
        c[: k + 1] -= a_k * coeffs[k]
        if k >= 1:
            c[: k] -= b_k * coeffs[k - 1]
        coeffs.append(c)
        pkm1, pk = pk, (u - a_k) * pk - b_k * pkm1
        nrm_prev = nrm
    return coeffs
