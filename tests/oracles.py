"""Independent quadrature oracle for the tests.

A fixed rule on (0, inf) that shares nothing with the library's measure:
uniform panels of width 1/4 on [0, X] (X chosen by the caller), the
20- and 41-point Gauss-Legendre rules on every panel (the measure uses 24
and 48 points on graded, adaptively split panels), and an analytic tail
bound beyond X from the upper incomplete gamma function in mpmath.  This
module imports nothing from ``paritywilson``.
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
