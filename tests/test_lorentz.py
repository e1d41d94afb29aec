"""Matrix audits of the boost-rotation algebra and the parity extraction."""

from fractions import Fraction

import numpy as np
import pytest

import oracles
from paritywilson import lorentz, verify
from paritywilson.errors import InvalidSpin
from paritywilson.lorentz import (
    LorentzRep,
    algebra_audit,
    build_spin_rep,
    build_vector_rep,
    derived_operators,
    n0_extraction,
)

TOL = 1e-12


def reps_under_audit():
    return [
        build_vector_rep(),
        build_spin_rep(Fraction(1, 2), Fraction(1, 2)),
        build_spin_rep(1, 0),
        build_spin_rep(1, 1),
        build_spin_rep(Fraction(3, 2), 0),
    ]


# the audit relations reading >= 1e-4 after 1e-3 is added to entry (0, 1) of
# one boost, rotation or the parity, keyed by (field, index)
_BOOST_VEC = "b-boost b-rot boost-boost boost-rot w-boost w-rot"
_ROT_VEC = ("a-boost a-rot b-boost b-parity b-rot boost-boost boost-rot commuting-set "
            "invariants-commute m-boost m-pseudoscalar m-rot parity-rot-commute rot-rot "
            "w-boost w-rot")
_BOOST_10 = ("a-boost b-boost b-parity b-rot boost-boost boost-rot commuting-set "
             "parity-boost-anticommute w-boost w-rot")
_ROT_10 = ("a-boost a-rot b-boost b-parity b-rot boost-boost boost-rot commuting-set "
           "m-boost m-pseudoscalar m-rot parity-rot-commute rot-rot w-boost")
CORRUPTED_FLAGS = {
    "vector": {
        ("boosts", 0): _BOOST_VEC,
        ("boosts", 1): _BOOST_VEC + " invariants-commute m-boost m-rot",
        ("boosts", 2): _BOOST_VEC + " invariants-commute m-boost m-rot",
        ("rotations", 0): ("a-rot boost-boost boost-rot m-boost m-pseudoscalar m-rot "
                           "parity-rot-commute rot-rot w-rot"),
        ("rotations", 1): _ROT_VEC,
        ("rotations", 2): _ROT_VEC,
        ("parity", 0): "commuting-set parity-boost-anticommute parity-rot-commute",
    },
    "(1,0)+(0,1)": {
        ("boosts", 0): _BOOST_10 + " m-boost m-pseudoscalar m-rot",
        ("boosts", 1): _BOOST_10 + " m-boost m-pseudoscalar m-rot",
        ("boosts", 2): _BOOST_10,
        ("rotations", 0): _ROT_10,
        ("rotations", 1): _ROT_10,
        ("rotations", 2): _ROT_10,
        ("parity", 0): ("m-pseudoscalar parity-boost-anticommute parity-rot-commute "
                        "parity-squared"),
    },
}


def corrupted(rep, field, i):
    """``rep`` with 1e-3 added to entry (0, 1) of generator ``field``[i]
    (the parity for field "parity", i = 0)."""
    parts = {"boosts": list(rep.boosts), "rotations": list(rep.rotations),
             "parity": [rep.parity]}
    parts[field][i] = parts[field][i].copy()
    parts[field][i][0, 1] += 1e-3
    return LorentzRep(f"{rep.label} {field}[{i}]+1e-3", rep.dim, tuple(parts["boosts"]),
                      tuple(parts["rotations"]), parts["parity"][0])


def comm(a, b):
    return a @ b - b @ a


class TestVectorRep:
    def test_parity_commutes_with_rotations(self):
        rep = build_vector_rep()
        for l in rep.rotations:
            assert np.max(np.abs(comm(rep.parity, l))) < TOL

    def test_parity_boost_commutator(self):
        rep = build_vector_rep()
        for k in rep.boosts:
            assert np.max(np.abs(comm(rep.parity, k) + 2 * k @ rep.parity)) < TOL

    def test_boost_boost_closes_on_rotation(self):
        rep = build_vector_rep()
        k1, k2 = rep.boosts[0], rep.boosts[1]
        assert np.max(np.abs(comm(k1, k2) + 1j * rep.rotations[2])) < TOL


class TestAudit:
    @pytest.mark.parametrize("rep", reps_under_audit(), ids=lambda r: r.label)
    def test_all_relations_hold(self, rep):
        assert rep.dim <= 16
        audit = algebra_audit(rep)
        worst = max(audit.values())
        assert worst <= TOL, sorted(audit.items(), key=lambda kv: -kv[1])[:3]

    def test_corruption_detected(self):
        rep = build_vector_rep()
        bad_k = [m.copy() for m in rep.boosts]
        bad_k[0][0, 1] += 1e-3
        bad = LorentzRep(rep.label, rep.dim, tuple(bad_k), rep.rotations, rep.parity)
        assert max(algebra_audit(bad).values()) >= 1e-4

    @pytest.mark.parametrize("label, field, i", [
        (label, field, i) for label, flags in CORRUPTED_FLAGS.items() for field, i in flags])
    def test_each_relation_flags_its_corruptions(self, label, field, i):
        # a relation that reads zero for the wrong reason (x commuted with
        # itself, a dropped index) changes which relations a corruption flags
        rep = {"vector": build_vector_rep(), "(1,0)+(0,1)": build_spin_rep(1, 0)}[label]
        bad = corrupted(rep, field, i)
        flagged = {name for name, value in algebra_audit(bad).items() if value >= 1e-4}
        assert flagged == set(CORRUPTED_FLAGS[label][field, i].split())

    def test_every_relation_is_flagged_by_some_corruption(self):
        flagged = {name for flags in CORRUPTED_FLAGS.values() for names in flags.values()
                   for name in names.split()}
        assert flagged == set(algebra_audit(build_vector_rep()))

    def test_rotations_hermitian(self):
        for rep in reps_under_audit():
            for l in rep.rotations:
                assert np.max(np.abs(l - l.conj().T)) < TOL

    def test_parity_squares_to_identity(self):
        for rep in reps_under_audit():
            assert np.max(np.abs(rep.parity @ rep.parity - np.eye(rep.dim))) < TOL


def _bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestIndexLoopReference:
    SPINS = [(Fraction(a, 2), Fraction(b, 2)) for a in range(4) for b in range(4)]

    @pytest.mark.parametrize("j1, j2", SPINS, ids=str)
    def test_spin_rep_generators(self, j1, j2):
        rep = build_spin_rep(j1, j2)
        boosts, rotations, parity = oracles.spin_generators(j1, j2)
        assert _bits(rep.boosts + rep.rotations + (rep.parity,)) \
            == _bits(boosts + rotations + [parity])
        assert type(rep.boosts) is tuple and type(rep.rotations) is tuple

    def test_vector_rep_generators(self):
        rep = build_vector_rep()
        boosts, rotations, parity = oracles.vector_generators()
        assert _bits(rep.boosts + rep.rotations + (rep.parity,)) \
            == _bits(boosts + rotations + [parity])

    @pytest.mark.parametrize("rep", [
        build_vector_rep(), corrupted(build_vector_rep(), "boosts", 0),
        *(build_spin_rep(j1, j2) for j1, j2 in SPINS)], ids=lambda r: r.label)
    def test_invariants_audit_and_extraction(self, rep):
        k, l, p = list(rep.boosts), list(rep.rotations), rep.parity
        ops = derived_operators(rep)
        w, a, m = oracles.invariants(k, l)
        assert _bits([ops.w, ops.a, ops.m, ops.b, ops.m_sq]) \
            == _bits([w, a, m, a - w, m @ m])
        assert list(algebra_audit(rep).items()) == list(oracles.algebra_audit(k, l, p).items())
        ext = n0_extraction(rep)
        n0, *residuals = oracles.n0_extraction(k, p)
        assert _bits([ext.n0]) == _bits([n0])
        assert [ext.residual_consistent, ext.residual_printed_sign,
                ext.traceless_residual] == residuals


class TestSpinContent:
    def test_half_half_rotation_spectrum(self):
        rep = build_spin_rep(Fraction(1, 2), Fraction(1, 2))
        eigs = sorted(np.linalg.eigvalsh(rep.rotations[2]).round(12))
        assert eigs == [-1.0, 0.0, 0.0, 1.0]

    def test_invariants_scalar_on_irreducibles(self):
        # Schur: the scalar invariants reduce to multiples of the identity
        # on each irreducible block; values recorded, not asserted against
        # any label formula
        for rep, b_val in ((build_spin_rep(1, 0), 4.0),
                           (build_spin_rep(Fraction(1, 2), Fraction(1, 2)), 3.0)):
            ops = derived_operators(rep)
            eye = np.eye(rep.dim)
            assert np.max(np.abs(ops.b - ops.b[0, 0] * eye)) < 1e-12
            assert abs(ops.b[0, 0] - b_val) < 1e-12  # recorded observation
            assert np.max(np.abs(ops.m_sq - ops.m_sq[0, 0] * eye)) < 1e-12

    def test_vector_matches_half_half_parity_trace(self):
        # diag(1,-1,-1,-1) and the signed swap agree up to basis change
        vec = build_vector_rep()
        hh = build_spin_rep(Fraction(1, 2), Fraction(1, 2))
        assert abs(np.trace(vec.parity) - np.trace(hh.parity)) < TOL

    def test_invalid_spin(self):
        with pytest.raises(InvalidSpin):
            build_spin_rep(0.3, 0)
        with pytest.raises(InvalidSpin):
            build_spin_rep(-1, 0)


class TestSpinZeroExtraction:
    @pytest.mark.parametrize("rep", reps_under_audit(), ids=lambda r: r.label)
    def test_consistent_sign_and_traceless(self, rep):
        ext = n0_extraction(rep)
        assert ext.residual_consistent <= TOL
        assert ext.traceless_residual <= TOL

    @pytest.mark.parametrize("rep", reps_under_audit()[:2], ids=lambda r: r.label)
    def test_printed_sign_detector_fires(self, rep):
        # the opposite-signed target from the source text differs by
        # (8/3) K.K P, an O(1) matrix in every representation here
        assert n0_extraction(rep).residual_printed_sign >= 1.0

    def test_lorentz_suite_forms_the_derived_operators_once_per_rep(self, monkeypatch):
        # the extraction reads W alone and forms it itself; only the audits of
        # the three representations and the corrupted one call derived_operators
        calls = []

        def counted(rep):
            calls.append(rep.label)
            return derived_operators(rep)

        monkeypatch.setattr(lorentz, "derived_operators", counted)
        verify.check_lorentz([])
        assert len(calls) == 4, calls
