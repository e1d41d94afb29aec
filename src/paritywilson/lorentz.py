"""Finite-dimensional matrix realizations of the boost-rotation algebra.

Builds the defining 4x4 representation and the standard (j1, j2) ladder
representations (doubled to (j1,j2)+(j2,j1) when j1 != j2 so that parity
acts), then machine-verifies the commutation relations among the boosts
K^i, rotations L^i, the invariants W = K.K, A = L.L, m = K.L, B = A - W,
M = m^2, and the parity matrix.  The audits hold the boosts and rotations
as (3, d, d) stacks and write each relation as one array expression:
commutators by broadcast ``@``, eps^{ijk} contracted by ``np.einsum``.
``LorentzRep`` publishes the generators as tuples of (d, d) arrays.

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
    """W, A and M as stacked products summed over the generator index."""
    k, l = np.stack(rep.boosts), np.stack(rep.rotations)
    w, a, m = (np.sum(x @ y, axis=0) for x, y in ((k, k), (l, l), (k, l)))
    return DerivedOperators(w=w, a=a, m=m, b=a - w, m_sq=m @ m)


def build_vector_rep() -> LorentzRep:
    """The 4x4 defining representation with metric (+,-,-,-), parity
    diag(1,-1,-1,-1), K^i the boost block and L^i the rotation block."""
    # gen[mu, nu] = i (g^{mu alpha} delta^{nu beta} - g^{nu alpha} delta^{mu beta})
    outer = np.einsum("ma,nb->mnab", METRIC, np.eye(4))
    gen = 1j * (outer - outer.transpose(1, 0, 2, 3))
    rotations = 0.5 * np.einsum("ijk,jkab->iab", EPS, gen[1:, 1:])
    parity = np.diag([1.0, -1.0, -1.0, -1.0]).astype(complex)
    return LorentzRep("vector", 4, tuple(gen[0, 1:]), tuple(rotations), parity)


def _spin_matrices(j: Fraction) -> np.ndarray:
    """The (3, d, d) stack of standard angular-momentum matrices for one su(2)
    factor, Hermitian, with the third component diagonal (j, j-1, ..., -j)."""
    ms = [j - k for k in range(int(2 * j) + 1)]
    s3 = np.diag([float(m) for m in ms]).astype(complex)
    sp = np.diag([math.sqrt(float((j - m) * (j + m + 1))) for m in ms[1:]], 1).astype(complex)
    sm = sp.conj().T
    return np.stack(((sp + sm) / 2, (sp - sm) / (2j), s3))


def _swap_matrix(d1: int, d2: int) -> np.ndarray:
    """Matrix of v (x) w -> w (x) v from C^{d1} (x) C^{d2} to C^{d2} (x) C^{d1}:
    its row b d1 + a is the identity's row a d2 + b."""
    return np.eye(d1 * d2, dtype=complex)[np.arange(d1 * d2).reshape(d1, d2).T.ravel()]


def _check_half_integer(j) -> Fraction:
    jq = Fraction(j)
    if jq < 0 or (2 * jq).denominator != 1:
        raise InvalidSpin(f"spin must be a nonnegative half-integer, got {j}")
    return jq


def _generators(j1: Fraction, j2: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """(boosts, rotations) on C^{2j1+1} (x) C^{2j2+1} as (3, d, d) stacks:
    L = A + B and K = -i(A - B) from the su(2) triples A of j1 and B of j2."""
    d1, d2 = int(2 * j1) + 1, int(2 * j2) + 1
    a = np.kron(_spin_matrices(j1), np.eye(d2, dtype=complex))
    b = np.kron(np.eye(d1, dtype=complex), _spin_matrices(j2))
    return -1j * (a - b), a + b


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
    z = np.zeros((2, 3, d1 * d2, d1 * d2), dtype=complex)
    boost, rot = np.block([[np.stack((boost, rot)), z], [z, np.stack(_generators(j2, j1))]])
    tau = _swap_matrix(d1, d2)
    parity = np.block([[z[0, 0], tau.conj().T], [tau, z[0, 0]]])
    return LorentzRep(f"({j1},{j2})+({j2},{j1})", 2 * d1 * d2, tuple(boost), tuple(rot),
                      parity)


def _comm(x, y):
    return x @ y - y @ x


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def algebra_audit(rep: LorentzRep) -> dict[str, float]:
    """Max-entry residual of every verified operator relation.

    One array expression per relation: [X^i, Y^j] broadcast to a (3, 3, d, d)
    array, eps^{ijt} contracted by einsum.  Report-only: all residuals should
    sit at rounding level (<= 1e-12 for dimensions up to 16) in a correctly
    built representation.
    """
    k, l, p = np.stack(rep.boosts), np.stack(rep.rotations), rep.parity
    ops = derived_operators(rep)
    eps_k, eps_l = (np.einsum("ijt,tab->ijab", EPS, x) for x in (k, l))
    eps_lk = np.einsum("ijt,jtab->iab", EPS, l[:, None] @ k)  # eps^{ijt} L^j K^t
    invariants = np.stack((ops.w, ops.a, ops.m))
    commuting = np.stack((ops.b, ops.m_sq, ops.w, p))
    x, y = np.triu_indices(len(commuting), 1)
    res: dict[str, float] = {}
    res["rot-rot"] = _maxabs(_comm(l[:, None], l) - 1j * eps_l)
    res["boost-rot"] = _maxabs(_comm(k[:, None], l) - 1j * eps_k)
    res["boost-boost"] = _maxabs(_comm(k[:, None], k) + 1j * eps_l)
    res["invariants-commute"] = _maxabs(_comm(invariants, np.roll(invariants, -1, axis=0)))
    res["w-boost"] = _maxabs(_comm(ops.w, k) + 2j * eps_lk + 2 * k)
    res["a-boost"] = _maxabs(_comm(ops.a, k) + 2j * eps_lk + 2 * k)
    res["w-rot"] = _maxabs(_comm(ops.w, l))
    res["a-rot"] = _maxabs(_comm(ops.a, l))
    res["m-boost"] = _maxabs(_comm(ops.m, k))
    res["m-rot"] = _maxabs(_comm(ops.m, l))
    res["b-boost"] = _maxabs(_comm(ops.b, k))
    res["b-rot"] = _maxabs(_comm(ops.b, l))
    res["b-parity"] = _maxabs(_comm(ops.b, p))
    res["m-pseudoscalar"] = _maxabs(p @ ops.m @ p + ops.m)
    res["parity-boost-anticommute"] = _maxabs(_comm(p, k) + 2 * k @ p)
    res["parity-rot-commute"] = _maxabs(_comm(p, l))
    res["parity-squared"] = _maxabs(p @ p - np.eye(rep.dim))
    res["commuting-set"] = _maxabs(_comm(commuting[x], commuting[y]))
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
    is one third of the trace: only the diagonal -i[N1^i, K^i] is formed.
    """
    k, p = np.stack(rep.boosts), rep.parity
    diagonal = -1j * _comm(2j * k @ p, k)
    trace = diagonal[0] + diagonal[1] + diagonal[2]  # np.sum would turn -0.0 into 0.0
    n0 = trace / 3.0
    target = (4.0 / 3.0) * np.sum(k @ k, axis=0) @ p  # W, as derived_operators forms it
    return SpinZeroExtraction(
        n0=n0,
        residual_consistent=_maxabs(n0 + target),
        residual_printed_sign=_maxabs(n0 - target),
        traceless_residual=_maxabs(trace - 3.0 * n0),
    )
