"""Finite-dimensional matrix realizations of the boost-rotation algebra.

Builds the defining 4x4 representation and the standard (j1, j2) ladder
representations (doubled to (j1,j2)+(j2,j1) when j1 != j2 so that parity
acts), then machine-verifies the commutation relations among the boosts
K^i, rotations L^i, the invariants W = K.K, A = L.L, m = K.L, B = A - W,
M = m^2, and the parity matrix.

Conventions are back-solved from the commutator contract
    [L^i, L^j] = i eps^{ijk} L^k,   [K^i, L^j] = i eps^{ijk} K^k,
    [K^i, K^j] = -i eps^{ijk} L^k,
with eps the standard Levi-Civita symbol (eps^{123} = +1), metric
(+,-,-,-), and parity commuting with rotations while anticommuting with
boosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSpin

EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_j, _i, _k] = -1.0

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class LorentzRep:
    """Generator matrices of one finite-dimensional representation."""

    label: str
    dim: int
    boosts: tuple[np.ndarray, np.ndarray, np.ndarray]
    rotations: tuple[np.ndarray, np.ndarray, np.ndarray]
    parity: np.ndarray


@dataclass(frozen=True)
class DerivedOperators:
    """The operator products built from one representation."""

    w: np.ndarray   # K.K
    a: np.ndarray   # L.L
    m: np.ndarray   # K.L
    b: np.ndarray   # A - W
    m_sq: np.ndarray


def derived_operators(rep: LorentzRep) -> DerivedOperators:
    w = sum(k @ k for k in rep.boosts)
    a = sum(l @ l for l in rep.rotations)
    m = sum(k @ l for k, l in zip(rep.boosts, rep.rotations))
    return DerivedOperators(w=w, a=a, m=m, b=a - w, m_sq=m @ m)


def build_vector_rep() -> LorentzRep:
    """The 4x4 defining representation with metric (+,-,-,-), parity
    diag(1,-1,-1,-1), K^i the boost block and L^i the rotation block."""
    def gen(mu, nu):
        out = np.zeros((4, 4), dtype=complex)
        for alpha in range(4):
            for beta in range(4):
                out[alpha, beta] = 1j * (METRIC[mu, alpha] * (nu == beta)
                                         - METRIC[nu, alpha] * (mu == beta))
        return out

    boosts = tuple(gen(0, i) for i in (1, 2, 3))
    rotations = tuple(
        0.5 * sum(EPS[i, j, k] * gen(j + 1, k + 1) for j in range(3) for k in range(3))
        for i in range(3))
    parity = np.diag([1.0, -1.0, -1.0, -1.0]).astype(complex)
    return LorentzRep("vector", 4, boosts, rotations, parity)


def _spin_matrices(j: Fraction):
    """Standard angular-momentum matrices for one su(2) factor, Hermitian,
    with the third component diagonal (j, j-1, ..., -j)."""
    d = int(2 * j) + 1
    ms = [j - k for k in range(d)]
    s3 = np.diag([float(m) for m in ms]).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        m = ms[k]
        sp[k - 1, k] = math.sqrt(float((j - m) * (j + m + 1)))
    sm = sp.conj().T
    return ((sp + sm) / 2, (sp - sm) / (2j), s3)


def _swap_matrix(d1: int, d2: int) -> np.ndarray:
    """Matrix of v (x) w -> w (x) v from C^{d1} (x) C^{d2} to C^{d2} (x) C^{d1}."""
    out = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for a in range(d1):
        for b in range(d2):
            out[b * d1 + a, a * d2 + b] = 1.0
    return out


def _check_half_integer(j) -> Fraction:
    jq = Fraction(j)
    if jq < 0 or (2 * jq).denominator != 1:
        raise InvalidSpin(f"spin must be a nonnegative half-integer, got {j}")
    return jq


def _generators(j1: Fraction, j2: Fraction):
    """(boosts, rotations) on C^{2j1+1} (x) C^{2j2+1}: L = A + B and
    K = -i(A - B) from the su(2) triples A of j1 and B of j2."""
    d1, d2 = int(2 * j1) + 1, int(2 * j2) + 1
    a_ops = [np.kron(s, np.eye(d2, dtype=complex)) for s in _spin_matrices(j1)]
    b_ops = [np.kron(np.eye(d1, dtype=complex), s) for s in _spin_matrices(j2)]
    return ([-1j * (a - b) for a, b in zip(a_ops, b_ops)],
            [a + b for a, b in zip(a_ops, b_ops)])


def build_spin_rep(j1, j2) -> LorentzRep:
    """Representation labeled by the half-integer pair (j1, j2): two
    commuting su(2) triples with L = A + B and K = -i(A - B).

    For j1 = j2 parity is (-1)^{2j} times the tensor-factor swap (the sign
    makes the spin-l component carry parity (-1)^l, matching the vector
    representation at j = 1/2); for j1 != j2 parity lives on the doubled
    space (j1,j2)+(j2,j1) as the block swap.
    """
    j1 = _check_half_integer(j1)
    j2 = _check_half_integer(j2)
    d1, d2 = int(2 * j1) + 1, int(2 * j2) + 1
    boost, rot = _generators(j1, j2)
    if j1 == j2:
        parity = (-1) ** int(2 * j1) * _swap_matrix(d1, d2)
        return LorentzRep(f"({j1},{j2})", d1 * d2, tuple(boost), tuple(rot), parity)
    # doubled space: block-diagonal generators, off-diagonal parity
    boost2, rot2 = _generators(j2, j1)
    z = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    rot_full = tuple(np.block([[r1, z], [z, r2]]) for r1, r2 in zip(rot, rot2))
    boost_full = tuple(np.block([[k1, z], [z, k2]]) for k1, k2 in zip(boost, boost2))
    tau = _swap_matrix(d1, d2)
    parity = np.block([[z, tau.conj().T], [tau, z]])
    return LorentzRep(f"({j1},{j2})+({j2},{j1})", 2 * d1 * d2, boost_full, rot_full, parity)


def _comm(x, y):
    return x @ y - y @ x


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def algebra_audit(rep: LorentzRep) -> dict[str, float]:
    """Max-entry residual of every verified operator relation.

    Report-only: all residuals should sit at rounding level (<= 1e-12 for
    dimensions up to 16) in a correctly built representation.
    """
    k, l, p = rep.boosts, rep.rotations, rep.parity
    ops = derived_operators(rep)
    res: dict[str, float] = {}
    res["rot-rot"] = max(
        _maxabs(_comm(l[i], l[j]) - 1j * sum(EPS[i, j, t] * l[t] for t in range(3)))
        for i in range(3) for j in range(3))
    res["boost-rot"] = max(
        _maxabs(_comm(k[i], l[j]) - 1j * sum(EPS[i, j, t] * k[t] for t in range(3)))
        for i in range(3) for j in range(3))
    res["boost-boost"] = max(
        _maxabs(_comm(k[i], k[j]) + 1j * sum(EPS[i, j, t] * l[t] for t in range(3)))
        for i in range(3) for j in range(3))
    res["invariants-commute"] = max(_maxabs(_comm(ops.w, ops.a)),
                                    _maxabs(_comm(ops.a, ops.m)),
                                    _maxabs(_comm(ops.m, ops.w)))
    for name, inv in (("w", ops.w), ("a", ops.a)):
        res[f"{name}-boost"] = max(
            _maxabs(_comm(inv, k[i])
                    + 2j * sum(EPS[i, j, t] * l[j] @ k[t] for j in range(3) for t in range(3))
                    + 2 * k[i])
            for i in range(3))
    res["w-rot"] = max(_maxabs(_comm(ops.w, l[i])) for i in range(3))
    res["a-rot"] = max(_maxabs(_comm(ops.a, l[i])) for i in range(3))
    res["m-boost"] = max(_maxabs(_comm(ops.m, k[i])) for i in range(3))
    res["m-rot"] = max(_maxabs(_comm(ops.m, l[i])) for i in range(3))
    res["b-boost"] = max(_maxabs(_comm(ops.b, k[i])) for i in range(3))
    res["b-rot"] = max(_maxabs(_comm(ops.b, l[i])) for i in range(3))
    res["b-parity"] = _maxabs(_comm(ops.b, p))
    res["m-pseudoscalar"] = _maxabs(p @ ops.m @ p + ops.m)
    res["parity-boost-anticommute"] = max(_maxabs(_comm(p, k[i]) + 2 * k[i] @ p)
                                          for i in range(3))
    res["parity-rot-commute"] = max(_maxabs(_comm(p, l[i])) for i in range(3))
    res["parity-squared"] = _maxabs(p @ p - np.eye(rep.dim))
    pairs = {"b": ops.b, "m2": ops.m_sq, "w": ops.w, "parity": p}
    names = list(pairs)
    res["commuting-set"] = max(
        _maxabs(_comm(pairs[x], pairs[y]))
        for idx, x in enumerate(names) for y in names[idx + 1:])
    return res


@dataclass(frozen=True)
class SpinZeroExtraction:
    """Double-boost-commutator extraction of the new spin-0 component.

    residual_consistent measures the extraction against -(4/3) K.K P, the
    form consistent with the master-equation derivation (setting the
    expansion function to 1 there yields exactly this); residual_printed
    measures it against the opposite-signed form as literally printed in
    the source text, and is nonzero in every representation: the printed
    sign is a misprint, kept here as a regression-tested detector.
    """

    n0: np.ndarray
    residual_consistent: float
    residual_printed_sign: float
    traceless_residual: float


def n0_extraction(rep: LorentzRep) -> SpinZeroExtraction:
    """Extract the spin-0 part of the second boost commutator of parity.

    N1^j = 2i K^j P; the tensor -i[N1^j, K^i] splits into a traceless
    spin-2 part plus delta^{ij} times the new spin-0 component N0, so N0
    is one third of the trace.
    """
    k, p = rep.boosts, rep.parity
    n1 = [2j * kj @ p for kj in k]
    tensor = [[-1j * _comm(n1[j], k[i]) for j in range(3)] for i in range(3)]
    n0 = (tensor[0][0] + tensor[1][1] + tensor[2][2]) / 3.0
    target = (4.0 / 3.0) * derived_operators(rep).w @ p
    spin2_trace = sum(tensor[i][i] for i in range(3)) - 3.0 * n0
    return SpinZeroExtraction(
        n0=n0,
        residual_consistent=_maxabs(n0 + target),
        residual_printed_sign=_maxabs(n0 - target),
        traceless_residual=_maxabs(spin2_trace),
    )
