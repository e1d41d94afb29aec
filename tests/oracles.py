"""Independent oracles for the tests; this module imports nothing from
``paritywilson``.

``integrate`` is a fixed rule on (0, inf) that shares nothing with the
library's measure: uniform panels of width 1/4 on [0, X] (X chosen by the
caller), the 20- and 41-point Gauss-Legendre rules on every panel (the
measure uses 24 and 48 points on graded, adaptively split panels), and an
analytic tail bound beyond X from the upper incomplete gamma function in
mpmath.  ``master_terms`` is the master three-point equation in mpmath at
the working precision, the high-precision reference of the library's float
residual and of its exact quantization certificate.
"""

import math

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
