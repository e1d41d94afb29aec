"""Semi-infinite quadrature and weighted expansions in the monic families.

``discrete_measure`` is the one quadrature mechanism of the expansions: a
shared discretization of each family measure, on which inner products,
basis projections, all three routes to the parity-reconstruction
coefficients c_n, the weighted-L2 reconstruction residuals and the
Stieltjes orthogonalization become weighted dot products.
The certified adaptive Gauss-Legendre quadrature on (0, inf) for
integrands with exponential decay (adaptive paneling on [0, X] plus an
analytic tail bound) shares its panel loop with the measure build but is
never called by the library: it is the independent oracle the measure is
tested against.

A measure is built once per (family, QuadratureConfig, degree bound), the
bound rounded up to a power of two (at least 8), so that no result depends
on which calls ran before it.  Its panels are chosen by the adaptive panel
loop, started from panels graded towards the origin and refined to the
roundoff floor, on the family's hardest polynomial integrand
w * sum_k P_k^2 / ||P_k||^2 (k up to the bound).  The measure
holds the panel_order- and 2*panel_order-point Gauss-Legendre weights of
every panel, the density at the nodes, the Case B point masses, and the
values of P_0..P_bound at the nodes and the masses, run forward in float
through the three-term recurrence (``family_values``).  Polynomial factors
are expanded exactly in the family basis.  Every integral takes the
continuous and the discrete part together and returns its own error
estimate: the per-panel difference of the two rules, the analytic tail
bound beyond the cutoff and a roundoff allowance.  An integral that
misses its budget raises ``NoConvergence``, as does a measure whose panel
loop exceeds max_panels or meets a non-finite integrand.

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
    _sinh_over_cosh_cubed,
    family_weight,
    norm_closed_form,
    printed_norm_rhs,
    standard_recurrence_terms,
)

EPSILON = 2.3e-16
# relative roundoff floor of a panel sum: near-zero integrals of
# large-magnitude integrands (orthogonality cross terms) cannot do better
ROUNDOFF = 100.0 * EPSILON
MEASURE_MIN_DEGREE = 8
MEASURE_PANEL_WIDTH = 8.0
PROBES = (0.7, 0.85, 1.0)  # tail-envelope probes, as fractions of the cutoff


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the semi-infinite quadrature: the panel loop of the
    shared measures and of the adaptive oracle.

    ``x_max=None`` chooses the cutoff automatically so that the analytic
    tail bound (integrand <= C x^p e^{-decay*x}, C measured near the
    cutoff) falls below the absolute tolerance.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    panel_order: int = 24
    x_max: float | None = None
    max_panels: int = 4000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.panel_order < 3:  # no family measure builds at order 2
            raise ValueError(f"panel_order must be at least 3, got {self.panel_order}")


_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes(order: int):
    if order not in _NODE_CACHE:
        _NODE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _NODE_CACHE[order]


def _exp(e: float) -> float:
    return math.inf if e > 709.0 else math.exp(e)


def tail_bound(c: float, growth_degree: int, decay_rate: float, x: float) -> float:
    """Exact bound C * integral_x^inf t^p e^{-lam t} dt for integer p,
    summed in logarithms so that large p and x cannot overflow."""
    p, lam = growth_degree, decay_rate
    if c <= 0.0:
        return 0.0
    log_x = math.log(x) if x > 0.0 else -math.inf
    logs = [math.lgamma(p + 1) - math.lgamma(p - k + 1) - (k + 1) * math.log(lam)
            + ((p - k) * log_x if k < p else 0.0) for k in range(p + 1)]
    top = max(logs)
    return _exp(math.log(c) - lam * x + top + math.log(sum(math.exp(v - top) for v in logs)))


def _growth_constant(probes, values, growth_degree: int, decay_rate: float) -> float:
    """2 max |f(probe)| / (probe^p e^{-lam probe}), in logarithms."""
    c = 0.0
    for probe, v in zip(probes, values):
        v = abs(complex(v))
        if v > 0.0 and probe > 0.0:
            c = max(c, _exp(math.log(v) - growth_degree * math.log(probe) + decay_rate * probe))
    return 2.0 * c


def _measure_growth_constant(f, x: float, growth_degree: int, decay_rate: float) -> float:
    probes = [k * x for k in PROBES]
    values = [np.asarray(f(np.array([probe])))[0] for probe in probes]
    return _growth_constant(probes, values, growth_degree, decay_rate)


def auto_cutoff(poly_degree_in_x: int) -> float:
    """Cutoff heuristic for weight-times-polynomial integrands: the weight
    decays like e^{-2 pi x} while a degree-d polynomial in x grows like
    x^d, so max(15, (d+6) ln(10)/(2 pi) + 5) keeps the tail below 1e-16
    relative."""
    return max(15.0, (poly_degree_in_x + 6) * math.log(10.0) / TWO_PI + 5.0)


def _cutoff(f, cfg: QuadratureConfig, decay_rate: float, growth_degree: int):
    """(X, tail bound beyond X): X from the config, or the first of
    auto_cutoff, +5, +10, ... whose tail bound is below abs_tol/4."""
    x_max = cfg.x_max
    if x_max is None:
        x_max = auto_cutoff(growth_degree)
        while True:
            c = _measure_growth_constant(f, x_max, growth_degree, decay_rate)
            if tail_bound(c, growth_degree, decay_rate, x_max) < 0.25 * cfg.abs_tol or x_max > 300.0:
                break
            x_max += 5.0
    c = _measure_growth_constant(f, x_max, growth_degree, decay_rate)
    return x_max, tail_bound(c, growth_degree, decay_rate, x_max)


def _adaptive_panels(f, cfg: QuadratureConfig, x_max: float, rel_tol: float,
                     edges: np.ndarray | None = None) -> list:
    """The adaptive panel loop: starting from ``edges`` (default: unit
    panels on [0, x_max]), the panel with the largest |fine - coarse| is
    halved until the summed differences are within half the budget
    max(abs_tol, rel_tol |total|, roundoff floor).  Returns
    [err, lo, hi, value] per panel, by lo.  A non-finite integrand value
    raises at once."""
    def panel(lo, hi):
        vals = []
        for q in (cfg.panel_order, 2 * cfg.panel_order):
            xs, ws = _nodes(q)
            xm = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xs
            fx = np.asarray(f(xm))
            bad = ~np.isfinite(fx)
            if bad.any():
                raise NoConvergence(
                    f"non-finite integrand at x = {xm[bad][0]:.6g} on panel "
                    f"[{lo:.6g}, {hi:.6g}], cutoff {x_max:.6g}")
            vals.append(0.5 * (hi - lo) * np.sum(ws * fx))
        coarse, fine = vals
        return [abs(fine - coarse), lo, hi, fine]

    if edges is None:
        edges = np.linspace(0.0, x_max, int(math.ceil(x_max)) + 1)
    panels = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    while True:
        total = sum(p[3] for p in panels)
        err_sum = sum(p[0] for p in panels)
        budget = max(cfg.abs_tol, rel_tol * abs(total),
                     ROUNDOFF * sum(abs(p[3]) for p in panels))
        if err_sum <= 0.5 * budget:
            break
        panels.sort(key=lambda p: (-p[0], p[1]))
        if len(panels) >= cfg.max_panels:
            worst, lo, hi, _ = panels[0]
            raise NoConvergence(
                f"adaptive quadrature exceeded {cfg.max_panels} panels: err_sum "
                f"{err_sum:.3e} against budget/2 {0.5 * budget:.3e} (budget "
                f"{budget:.3e}, total {abs(total):.3e}); worst panel "
                f"[{lo:.6g}, {hi:.6g}] with err {worst:.3e}, cutoff {x_max:.6g}")
        _, lo, hi, _ = panels.pop(0)
        mid = 0.5 * (lo + hi)
        panels += [panel(lo, mid), panel(mid, hi)]
    panels.sort(key=lambda p: p[1])
    return panels


def integrate_semiinfinite(f: Callable, cfg: QuadratureConfig | None = None,
                           decay_rate: float = TWO_PI,
                           growth_degree: int = 0):
    """Integrate f over (0, inf): adaptive paneling on [0, X] plus a
    certified analytic tail bound beyond X.

    ``f`` must accept a numpy array and may return complex values; the
    caller supplies the decay rate and polynomial growth degree for the
    tail envelope.  Returns (value, error_estimate); the estimate is the
    summed panel differences plus the tail bound plus a roundoff allowance
    and is designed to stay above the true error.
    """
    cfg = cfg or QuadratureConfig()
    x_max, tail = _cutoff(f, cfg, decay_rate, growth_degree)
    panels = _adaptive_panels(f, cfg, x_max, cfg.rel_tol)
    total = sum(p[3] for p in panels)
    err_sum = sum(p[0] for p in panels)
    roundoff = 1e-15 * sum(abs(p[3]) for p in panels) * math.sqrt(len(panels))
    return total, err_sum + tail + roundoff


# ---------------------------------------------------------------------------
# the families in float: one evaluator, the three-term recurrence
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _recurrence_term(family: WilsonFamily, n: int):
    """Exact (beta_n, gamma_n) of P_n = (u + beta_n) P_{n-1} - gamma_n P_{n-2}
    (gamma_1 multiplies P_{-1} = 0)."""
    if family.symbolic:
        raise ValueError("float evaluation needs a numeric B")
    return standard_recurrence_terms(family, n)


@functools.lru_cache(maxsize=None)
def _float_recurrence(family: WilsonFamily, n_max: int):
    """(beta_1..beta_{n+1}, sqrt(gamma_1)..sqrt(gamma_{n+1}), scale_0..scale_n)
    in float, scale_k = sqrt(gamma_2 ... gamma_{k+1}); scale_k is inf past
    the float range (Case A from k = 115)."""
    if family.case == CASE_B:
        family.require_nondegenerate(n_max)
    terms = [_recurrence_term(family, n) for n in range(1, n_max + 2)]
    beta = np.array([float(b) for b, _ in terms])
    root = np.sqrt(np.array([float(g) for _, g in terms]))
    with np.errstate(over="ignore"):
        scale = np.concatenate(([1.0], np.cumprod(root[1:])))
    for array in (beta, root, scale):
        array.flags.writeable = False  # cached
    return beta, root, scale


def family_values(family: WilsonFamily, n_max: int, u):
    """P_0..P_{n_max} at the squared abscissae ``u`` in float, run forward
    through the three-term recurrence (Gautschi 2004, sec. 2.1), which
    stays well conditioned where Horner on the monomial coefficients loses
    digits.

    Returns (values, scale): P_k(u) = scale[k] * values[k], with scale[k] =
    sqrt(gamma_2 ... gamma_{k+1}), the norm ratio ||P_k|| / ||P_0|| of a
    positive measure, so the rows stay of unit order where the measure
    lives.
    """
    beta, root, scale = _float_recurrence(family, n_max)
    u = np.asarray(u, dtype=float)
    values = np.empty((n_max + 1,) + u.shape)
    values[0] = 1.0
    for n in range(1, n_max + 1):
        prev = (u + beta[n - 1]) * values[n - 1]
        if n >= 2:
            prev -= root[n - 1] * values[n - 2]
        values[n] = prev / root[n]
    return values, scale


@functools.lru_cache(maxsize=1024)
def _basis_coefficients(family: WilsonFamily, poly: RationalPolynomial) -> tuple:
    """Exact a_k with poly = sum_k a_k P_k: Horner in the family basis,
    using u P_k = P_{k+1} - beta_{k+1} P_k + gamma_{k+1} P_{k-1}."""
    a: list = []
    for c in reversed(poly.coeffs):
        new = [Fraction(0)] * (len(a) + 1)
        for k, ak in enumerate(a):
            beta, gamma = _recurrence_term(family, k + 1)
            new[k + 1] += ak
            new[k] -= beta * ak
            if k >= 1:
                new[k - 1] += gamma * ak
        new[0] += c
        a = new
    return tuple(a)


def _scaled_basis(family: WilsonFamily, poly: RationalPolynomial) -> np.ndarray:
    """Basis coefficients of poly against the scaled value rows."""
    a = _basis_coefficients(family, poly)
    if not a:
        return np.zeros(1)
    _, _, scale = _float_recurrence(family, len(a) - 1)
    if np.isinf(scale[-1]):
        raise NoConvergence(f"{family.label()} polynomial of degree {len(a) - 1}: the basis "
                            f"scale overflows at degree {int(np.argmax(np.isinf(scale)))}")
    return np.array([float(c) for c in a]) * scale


# ---------------------------------------------------------------------------
# the shared discrete measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """A family measure discretized for polynomial integrands of degree up
    to 2 * ``degree`` in the squared variable.

    The points ``x`` come in blocks of 3 * panel_order: per panel the
    panel_order coarse nodes, then the 2 * panel_order fine nodes.  A last
    block holds the tail-envelope probes 0.7, 0.85 and 1 times ``x_max``
    (padded with ``x_max``) and has zero weight.  ``weights`` (one row per
    block) are the Gauss-Legendre weights scaled to each panel, without
    the density; ``density`` is the continuous density at ``x``, and
    ``values[k]`` is P_k / scale[k] there; ``mass_values[k, j]`` is
    P_k / scale[k] at the Case B point mass ``masses[j]``.
    """

    family: WilsonFamily
    cfg: QuadratureConfig
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
        k = self.cfg.panel_order
        blocks = slice(0, self.panels), slice(k, 3 * k)
        x = self.x.reshape(-1, 3 * k)[blocks]
        return x.ravel(), (self.weights[blocks] * self.density.reshape(-1, 3 * k)[blocks]).ravel()

    def sums(self, rows: np.ndarray, growth_degrees, factor: np.ndarray,
             row_scale: np.ndarray | None = None, at_masses: tuple | None = None):
        """Certified integrals of the integrands row * factor * row_scale,
        each row sampled at ``x`` (the density included in ``factor`` or the
        rows where it belongs), plus the point-mass terms: ``at_masses`` is
        the integrand at the masses as factors f_1, f_2, ... broadcast to
        (rows, masses), and mass j adds (mass_j * f_1[r, j]) * f_2[r, j] ...
        to row r in scalar arithmetic.  ``None`` leaves the masses out.

        Returns (values, error estimates).  The estimate is the summed
        per-panel |fine - coarse|, plus the tail bound for the row's growth
        degree, plus a roundoff allowance that also covers the recurrence
        values, whose relative error grows about linearly with the degree
        (EPSILON per unit of growth degree), plus 1e-15 |term| per mass
        term.  The continuous part of every row must meet its budget
        max(abs_tol, rel_tol |value|, roundoff floor): panel differences at
        most half of it and, with an automatic cutoff, the tail at most a
        quarter; otherwise NoConvergence names the first row that misses
        it.  On panels this wide the roundoff scale is the sum
        of |weight * integrand| over the fine nodes, not of |panel value|,
        which cancels within a panel for oscillating integrands.
        """
        cfg, k = self.cfg, self.cfg.panel_order
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
        total = fine.sum(axis=-1)
        err = np.abs(fine - coarse).sum(axis=-1)
        budget = np.maximum(np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total)),
                            ROUNDOFF * magnitude)
        at = self.x[-3 * k:][:3]
        tails = np.array([tail_bound(_growth_constant(at, v, p, TWO_PI), p, TWO_PI, self.x_max)
                          for v, p in zip(probes, growth_degrees)])
        ok = err <= 0.5 * budget
        if cfg.x_max is None:
            ok &= tails <= 0.25 * budget
        if not ok.all():
            missed = np.flatnonzero(~ok)
            i = missed[0]
            tail = (f", tail {tails[i]:.3e} against budget/4 {0.25 * budget[i]:.3e}"
                    if cfg.x_max is None else "")
            raise NoConvergence(
                f"{self.family.label()} measure at degree bound {self.degree}: row {i} "
                f"(growth degree {growth_degrees[i]}) misses its budget {budget[i]:.3e}, "
                f"err {err[i]:.3e} against budget/2 {0.5 * budget[i]:.3e}{tail} "
                f"({missed.size} of {ok.size} rows miss theirs); {self.panels} panels, "
                f"x_max {self.x_max:.6g}")
        err = err + tails + magnitude * (1e-15 * math.sqrt(self.panels)
                                         + EPSILON * np.asarray(growth_degrees))
        if at_masses is not None and self.masses:
            total = total.astype(complex)
            factors = [np.broadcast_to(f, (total.size, len(self.masses))) for f in at_masses]
            for r, j in np.ndindex(total.size, len(self.masses)):
                term = self.masses[j].mass
                for f in factors:
                    term = term * complex(f[r, j])
                total[r] += term
                err[r] += 1e-15 * abs(term)
        return total, err


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
def _build_measure(family: WilsonFamily, cfg: QuadratureConfig, degree: int):
    weight = family_weight(family)

    def hardest(x):
        # past the degree ceiling the rows overflow; the panel loop then
        # rejects the non-finite values instead of numpy warning about them
        with np.errstate(over="ignore", invalid="ignore"):
            values, _ = family_values(family, degree, x * x)
            return weight.evaluate(x) * np.sum(values * values, axis=0)

    try:
        x_max, _ = _cutoff(hardest, cfg, TWO_PI, 4 * degree)
        panels = _adaptive_panels(hardest, cfg, x_max, rel_tol=0.0,
                                  edges=_graded_edges(x_max))
    except NoConvergence as exc:
        raise NoConvergence(f"{family.label()} measure at degree bound {degree}: {exc}") from None
    (xc, wc), (xf, wf) = _nodes(cfg.panel_order), _nodes(2 * cfg.panel_order)
    lo = np.array([p[1] for p in panels])[:, None]
    hi = np.array([p[2] for p in panels])[:, None]
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.concatenate((xc, xf))
    probes = np.full(3 * cfg.panel_order, x_max)
    probes[:3] = [k * x_max for k in PROBES]
    x = np.concatenate((nodes.ravel(), probes))
    weights = np.zeros((len(panels) + 1, 3 * cfg.panel_order))
    weights[:-1] = 0.5 * (hi - lo) * np.concatenate((wc, wf))
    masses = weight.point_masses
    values, scale = family_values(family, degree, np.concatenate((x * x, [pm.y for pm in masses])))
    values, mass_values = (np.ascontiguousarray(v) for v in np.split(values, [x.size], axis=1))
    density = weight.evaluate(x)
    for array in (x, weights, density, values, mass_values):
        array.flags.writeable = False  # shared by every caller
    return DiscreteMeasure(family=family, cfg=cfg, degree=degree, x_max=x_max, x=x,
                           weights=weights, density=density, values=values,
                           scale=scale, masses=masses, mass_values=mass_values)


def discrete_measure(family: WilsonFamily, degree: int,
                     cfg: QuadratureConfig | None = None) -> DiscreteMeasure:
    """The shared measure serving polynomial degrees <= ``degree``: cached
    per (family, cfg, bound), bound = the power of two >= max(degree, 8)
    (the 32 most recently used; a rebuilt measure is identical).
    Raises NoConvergence, naming the family and the bound, when its panel
    loop exceeds max_panels or meets a non-finite integrand (past the
    degree ceiling, where the value rows overflow)."""
    bound = max(MEASURE_MIN_DEGREE, 1 << max(degree - 1, 0).bit_length())
    return _build_measure(family, cfg or QuadratureConfig(), bound)


# ---------------------------------------------------------------------------
# inner products under a family measure
# ---------------------------------------------------------------------------

class _Factor:
    """One factor of an integrand: a polynomial in the squared variable,
    expanded exactly in the family basis, or a callable of the abscissa
    with its continuation t -> f(i t) to the point masses."""

    def __init__(self, family: WilsonFamily, obj, continuation: Callable | None):
        if isinstance(obj, RationalPolynomial):
            self.coeffs = _scaled_basis(family, obj)
            self.degree = self.coeffs.size - 1
            self.x_degree = 2 * max(obj.degree, 0)
        else:
            self.coeffs, self.degree, self.x_degree = None, 0, 0
            self.function, self.continuation = obj, continuation

    def on(self, measure: DiscreteMeasure) -> tuple:
        """(values at the measure's points, values at its point masses)."""
        if self.coeffs is not None:
            k = self.coeffs.size
            return self.coeffs @ measure.values[:k], self.coeffs @ measure.mass_values[:k]
        if measure.masses and self.continuation is None:
            raise ValueError("callable factor needs values at the point masses "
                             "(its continuation to x = i t)")
        return (np.asarray(self.function(measure.x)),
                [self.continuation(pm.t) for pm in measure.masses])


def inner_product(family: WilsonFamily, p, q, cfg: QuadratureConfig | None = None,
                  p_at_masses: Callable | None = None,
                  q_at_masses: Callable | None = None):
    """<p, q> under the family measure: continuous weighted integral plus
    the Case B point-mass terms.  Polynomial factors are exact in the
    family basis; callable factors must supply their continuation
    t -> f(i t) when masses are present.  Returns (value, error_estimate)."""
    pf, qf = _Factor(family, p, p_at_masses), _Factor(family, q, q_at_masses)
    measure = discrete_measure(family, max(pf.degree, qf.degree), cfg)
    (p_x, p_masses), (q_x, q_masses) = pf.on(measure), qf.on(measure)
    [val], [err] = measure.sums(p_x, [pf.x_degree + qf.x_degree], measure.density * q_x,
                                at_masses=(p_masses, q_masses))
    return val, err


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

    def coefficient(self, n: int) -> complex:
        for k, c, _ in self.entries:
            if k == n:
                return c
        raise KeyError(n)

    def error(self, n: int) -> float:
        for k, _, e in self.entries:
            if k == n:
                return e
        raise KeyError(n)


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


def project(f_target, family: WilsonFamily, n_max: int,
            cfg: QuadratureConfig | None = None,
            f_at_masses: Callable | None = None) -> CoefficientTable:
    """Orthogonal-projection coefficients <F, P_n>/<P_n, P_n> for
    n = 0..n_max under the family measure, all numerators from one pass
    over the shared measure.  Denominators use the closed-form norms."""
    target = _Factor(family, f_target, f_at_masses)
    measure = discrete_measure(family, max(n_max, target.degree), cfg)
    at_x, at_masses = target.on(measure)
    nums = _basis_rows(measure, n_max, measure.density * at_x,
                       lambda n: target.x_degree + 2 * n, at_masses)
    entries = []
    for n, (num, err) in enumerate(zip(*nums)):
        norm = float(norm_closed_form(family, n))
        entries.append((n, complex(num) / norm, err / abs(norm)))
    return CoefficientTable(family.case, family.b, "projection", tuple(entries))


def parity_target(case: str):
    """(vectorized target, continuation t -> F(i t)) for the
    reconstruction identity of each case."""
    if case == CASE_A:
        def f(x):
            return -4.0 * (np.exp(-np.pi * x) + 1j) / (1.0 + 4.0 * x * x)
        return f, None
    return (lambda x: np.exp(-np.pi * x) + 0j), (lambda t: complex(np.exp(-1j * np.pi * t)))


def _case_a_moment(x):
    """The Case A closed-formula integrand without its polynomial:
    x (1 + 4x^2) sinh(pi x) / cosh(pi x)^3 (e^{-pi x} + i)."""
    return x * (1.0 + 4.0 * x * x) * _sinh_over_cosh_cubed(x) * (np.exp(-np.pi * x) + 1j)


def parity_coefficients(family: WilsonFamily, n_max: int,
                        cfg: QuadratureConfig | None = None,
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
    if family.case == CASE_B:
        if family.b is None:
            raise ValueError("parity coefficients need a numeric B")
        family.require_nondegenerate()
    if route == "projection":
        f_target, f_masses = parity_target(family.case)
        proj = project(f_target, family, n_max if family.case == CASE_B else max(n_max - 1, 0),
                       cfg, f_at_masses=f_masses)
        entries = []
        for n in range(n_max + 1):
            if family.case == CASE_A:
                if n == 0:
                    entries.append((0, -1j, 0.0))
                else:
                    a, e = proj.coefficient(n - 1), proj.error(n - 1)
                    entries.append((n, (-1) ** (n - 1) * a, e))
            else:
                a, e = proj.coefficient(n), proj.error(n)
                entries.append((n, (-1) ** n * a, e))
        return CoefficientTable(family.case, family.b, route, tuple(entries))
    if route not in ("closed_form", "printed"):
        raise ValueError(f"unknown route {route!r}")

    entries = []
    if family.case == CASE_A:
        entries.append((0, -1j, 0.0))
        if n_max >= 1:
            measure = discrete_measure(family, n_max - 1, cfg)
            integrals = _basis_rows(measure, n_max - 1, _case_a_moment(measure.x),
                                    lambda k: 2 * k + 3)
            norm = printed_norm_rhs if route == "printed" else norm_closed_form
            for n, (integral, err) in enumerate(zip(*integrals), start=1):
                const = math.pi ** 2 * (-1) ** n / float(norm(family, n - 1))
                entries.append((n, complex(const * integral), abs(const) * err))
    else:
        measure = discrete_measure(family, n_max, cfg)
        _, target_masses = _Factor(family, *parity_target(CASE_B)).on(measure)
        integrals = _basis_rows(measure, n_max, measure.density * np.exp(-np.pi * measure.x),
                                lambda n: 2 * n + 1,
                                target_masses if route == "closed_form" else None)
        for n, (integral, err) in enumerate(zip(*integrals)):
            const = (-1) ** n / float(norm_closed_form(family, n))
            entries.append((n, complex(const * integral), abs(const) * err))
    return CoefficientTable(family.case, family.b, route, tuple(entries))


def reconstruction_residual(family: WilsonFamily, n_trunc: int,
                            cfg: QuadratureConfig | None = None,
                            table: CoefficientTable | None = None) -> tuple[float, ...]:
    """Weighted-L2 residuals ||F - S_N|| of the reconstruction series for
    every truncation N = 0..n_trunc, under the full family measure.

    Case A pairs c_{n+1} with the degree-n member (the index offset is
    encoded here and in parity_coefficients only); Case B pairs c_n with
    degree n.  All partial sums S_N come from one cumulative sum over the
    shared measure.  The residual sequence of an orthogonal projection is
    nonincreasing up to quadrature error.
    """
    if table is None:
        table = parity_coefficients(family, n_trunc + (1 if family.case == CASE_A else 0), cfg)
    offset = 1 if family.case == CASE_A else 0
    signed = np.array([(-1) ** n * table.coefficient(n + offset) for n in range(n_trunc + 1)],
                      dtype=complex)
    measure = discrete_measure(family, n_trunc, cfg)
    scale = measure.scale[: n_trunc + 1]
    partial = (signed * scale)[:, None] * measure.values[: n_trunc + 1]
    np.cumsum(partial, axis=0, out=partial)
    target_x, target_masses = _Factor(family, *parity_target(family.case)).on(measure)
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
    u = xs * xs
    mass_u = np.array([pm.y for pm in measure.masses])
    mass_w = np.array([pm.mass for pm in measure.masses])

    def ip(fvals, gvals, fm, gm):
        out = float(np.sum(ws * fvals * gvals))
        if mass_u.size:
            out += float(np.sum(mass_w * fm * gm))
        return out

    coeffs = [np.array([1.0])]
    pk = np.ones_like(u)
    pk_m = np.ones_like(mass_u)
    pkm1 = np.zeros_like(u)
    pkm1_m = np.zeros_like(mass_u)
    nrm_prev = None
    for k in range(n_max):
        nrm = ip(pk, pk, pk_m, pk_m)
        a_k = ip(u * pk, pk, mass_u * pk_m, pk_m) / nrm
        b_k = 0.0 if nrm_prev is None else nrm / nrm_prev
        pnew = (u - a_k) * pk - b_k * pkm1
        pnew_m = (mass_u - a_k) * pk_m - b_k * pkm1_m
        c = np.zeros(k + 2)
        c[1:] += coeffs[k]
        c[: k + 1] -= a_k * coeffs[k]
        if k >= 1:
            c[: k] -= b_k * coeffs[k - 1]
        coeffs.append(c)
        pkm1, pkm1_m, pk, pk_m = pk, pk_m, pnew, pnew_m
        nrm_prev = nrm
    return coeffs
