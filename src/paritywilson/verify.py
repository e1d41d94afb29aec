"""The one-shot verification suite.

Every acceptance criterion is a group of checks; each check carries a
stable id, the anchor label of the identity it verifies, a measured value,
and its threshold.  The CLI ``verify`` subcommand and the acceptance test
module both run these functions, so there is a single source of truth for
what "verified" means.

Two reconstruction-drop checks are expected to fail: the demanded 1000x
residual drop by truncation 12 is unattainable for these targets (the
series converge, but only algebraically; see the measured values the
checks report).  They are still run and reported honestly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expand, lorentz, spectral, wilson
from .numcore import RationalPolynomial, hyp_pfq_terminating, poly_eval
from .wilson import CASE_A, CASE_B, WilsonFamily

B_VALUES = (Fraction(-1, 2), Fraction(3, 2), Fraction(73, 10))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    status: str  # "pass" | "fail" | "info"
    measured: float | str
    threshold: float | str
    note: str = ""


@dataclass
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)
    elapsed: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0


def _check(results, check_id, anchor, ok, measured, threshold, note=""):
    results.append(CheckResult(check_id, anchor, "pass" if ok else "fail",
                               measured, threshold, note))


# frozen printed tables (constant term first, in the squared variable)
Z_TABLE_A = {
    1: ["1"],
    2: ["3/4", "1"],
    3: ["117/80", "7/2", "1"],
    4: ["2385/448", "1957/112", "37/4", "1"],
    5: ["55575/1792", "2011/16", "747/8", "19", "1"],
}
F_TABLE_A = {
    0: None,
    1: ["0", "1"],
    2: ["0", "1", "1"],
    3: ["0", "12/5", "4", "1"],
    4: ["0", "72/7", "156/7", "10", "1"],
    5: ["0", "480/7", "176", "108", "20", "1"],
}
# Case B entries: list of B-polynomials (each constant term first)
Z_TABLE_B = {
    0: [["1"]],
    1: [["-1/4", "-1/2"], ["1"]],
    2: [["-3/16", "-1/4", "1/6"], ["1/2", "-1"], ["1"]],
    3: [["-117/320", "-63/160", "2/5", "-1/20"],
        ["47/80", "-57/20", "3/5"],
        ["13/4", "-3/2"],
        ["1"]],
}
F_TABLE_B = {
    0: [["1"]],
    1: [["0", "1/2"], ["1"]],
    2: [["0", "1/2", "1/6"], ["1", "1"], ["1"]],
    3: [["0", "6/5", "19/20", "1/20"], ["12/5", "22/5", "3/5"], ["4", "3/2"], ["1"]],
}


def _poly_matches(poly, table_entry) -> bool:
    if table_entry is None or poly is None:
        return table_entry is poly
    if isinstance(table_entry[0], list):
        return list(poly.coeffs) == [RationalPolynomial(cs) for cs in table_entry]
    return list(poly.coeffs) == [Fraction(c) for c in table_entry]


def check_tables(results: list[CheckResult]) -> None:
    ok = all(_poly_matches(spectral.g_polynomial(CASE_A, n), Z_TABLE_A[n])
             for n in range(1, 6))
    _check(results, "tables-z-family-a", "eq-29", ok, "exact" if ok else "mismatch", "exact")
    ok = all(_poly_matches(spectral.eigenfunction(CASE_A, n).poly, F_TABLE_A[n])
             for n in range(6))
    _check(results, "tables-f-family-a", "eq-33", ok, "exact" if ok else "mismatch", "exact")
    ok = all(_poly_matches(spectral.g_polynomial(CASE_B, n), Z_TABLE_B[n])
             for n in range(4))
    _check(results, "tables-z-family-b", "eq-52", ok, "exact" if ok else "mismatch", "exact")
    ok = all(_poly_matches(spectral.eigenfunction(CASE_B, n).poly, F_TABLE_B[n])
             for n in range(4))
    _check(results, "tables-f-family-b", "eq-54", ok, "exact" if ok else "mismatch", "exact")
    ok = all(spectral.eigenfunction(CASE_B, n, 0).poly ==
             (spectral.eigenfunction(CASE_A, n).poly or RationalPolynomial([1]))
             for n in range(7))
    _check(results, "tables-b-zero-crosscheck", "eq-54", ok,
           "exact" if ok else "mismatch", "exact",
           note="B=0 member equals the B=M=0 member, index for index")


def check_hypergeometric_prefactors(results: list[CheckResult]) -> None:
    ok = True
    for n in range(1, 6):
        pref = Fraction(math.factorial(n - 1) * math.factorial(n) ** 2 * math.factorial(n + 1),
                        math.factorial(2 * n))
        for z in (Fraction(1), Fraction(5, 2)):
            val = pref * hyp_pfq_terminating(
                [1 - n, n + 2, Fraction(1, 2) - z, Fraction(1, 2) + z],
                [1, 2, 2], Fraction(1), n - 1)
            g = spectral.g_polynomial(CASE_A, n)
            ok = ok and val == poly_eval(g, z * z)
    _check(results, "hypergeometric-prefactor-a", "eq-31", ok,
           "exact" if ok else "mismatch", "exact")
    fam = WilsonFamily.case_b(Fraction(3, 2))
    s = fam.s_value()
    worst = 0.0
    for n in range(5):
        pref = float(Fraction(math.factorial(n) ** 2, math.factorial(2 * n))
                     * wilson._pochhammer_pairs(fam, n))
        g = spectral.g_polynomial(CASE_B, n, fam.b)
        for z in (Fraction(1), Fraction(5, 2)):
            val = pref * hyp_pfq_terminating(
                [-n, n + 1, 0.5 - float(z), 0.5 + float(z)],
                [1.0, 1.0 - s, 1.0 + s], 1.0, n)
            ref = float(poly_eval(g, z * z))
            worst = max(worst, abs(complex(val) - ref) / max(1.0, abs(ref)))
    _check(results, "hypergeometric-prefactor-b", "eq-51", worst <= 1e-10, worst, 1e-10)


def check_recurrence(results: list[CheckResult]) -> None:
    fam = WilsonFamily.case_a()
    rep = wilson.recurrence_discrepancy_report(fam, 2)
    printed = rep.printed_entry
    want = RationalPolynomial([Fraction(57, 20), Fraction(-15, 4), 1])
    ok = rep.first_table_mismatch == 2 and printed == want
    _check(results, "recurrence-printed-mismatch", "eq-A3", ok,
           "no mismatch" if printed is None else str([str(c) for c in printed.coeffs]),
           "x^4 - 15/4 x^2 + 57/20",
           note="printed recurrence output disagrees with the hypergeometric oracle")
    tab = wilson.monic_from_recurrence(fam, 10)
    ok = all(tab[n] == wilson.monic_from_hypergeometric(fam, n) for n in range(11))
    _check(results, "recurrence-corrected-match", "eq-A3", ok,
           "exact" if ok else "mismatch", "exact")
    famb = WilsonFamily.case_b()
    rep = wilson.recurrence_discrepancy_report(famb)
    _check(results, "recurrence-printed-mismatch-b", "eq-B3",
           rep.seed_consistency_mismatch_at_n1, "mismatch at n=1", "mismatch at n=1",
           note=rep.note)
    tabb = wilson.monic_from_recurrence(famb, 10)
    ok = all(tabb[n] == wilson.monic_from_hypergeometric(famb, n) for n in range(11))
    _check(results, "recurrence-corrected-match-b", "eq-B3", ok,
           "exact" if ok else "mismatch", "exact")


def check_quantization(results: list[CheckResult], n_max: int = 8,
                       threshold_scale: float = 1.0) -> None:
    # |master residual| at M = 0 is |P(s)|/(2s) on the grid of s >= 1, with P
    # exact and odd: Q(s^2), Q the halved odd coefficients of P's grid, exact
    # at each point; ell1 -> ell1 + 1/1000 adds exactly ((ell1 + 1/1000)^2 - ell1^2) p(W)
    tol = 1e-11 * threshold_scale
    for case, b in ((CASE_A, None), (CASE_B, B_VALUES[0]),
                    (CASE_B, B_VALUES[1]), (CASE_B, B_VALUES[2])):
        ws = [Fraction(w) for w in spectral.default_w_grid(float(b or 0), count=10)]
        sigmas = [w + Fraction(1, 4) + (b or 0) for w in ws]  # s^2 = W + B + 1/4
        worst = 0.0
        worst_pert = math.inf
        for n in range(n_max + 1):
            rec = spectral.eigenfunction(case, n, b)
            ell = Fraction(2 * n + 1)
            big_p = spectral.master_residual_polynomial(rec, ell)
            q = RationalPolynomial._make(big_p._c[1::2], 1, 2 * big_p._den)
            res = [q(x) for x in sigmas]
            dn, dd = ((ell + Fraction(1, 1000)) ** 2 - ell ** 2).as_integer_ratio()
            p = RationalPolynomial([1]) if rec.poly is None else rec.poly
            worst = max(worst, *(abs(float(r)) for r in res))
            # r + (dn/dd) p(w) as one int quotient, rounded once as float(Fraction) is
            worst_pert = min(worst_pert, max(
                abs(r.numerator * dd * v.denominator + dn * v.numerator * r.denominator)
                / (r.denominator * dd * v.denominator) for r, v in zip(res, map(p, ws))))
        tag = "a" if case == CASE_A else f"b{float(b)}"
        _check(results, f"eigen-quantization-{tag}",
               "eq-24" if case == CASE_A else "eq-47",
               worst <= tol, worst, tol,
               note=f"n <= {n_max}, ell1 = 2n+1, 10-point grid")
        _check(results, f"eigen-sensitivity-{tag}", "eq-28",
               worst_pert >= 1e-8, worst_pert, 1e-8,
               note="ell1 perturbed by 1e-3 must break the residual")
    ok = all(spectral.eigenvalue(n) == (2 * n + 1, Fraction(4 * n * (n + 1), 3))
             for n in range(12))
    _check(results, "eigenvalue-alpha", "eq-3", ok, "exact" if ok else "mismatch", "exact")


def check_consistency_chain(results: list[CheckResult]) -> None:
    # master residual vs the z-space residual after the exact substitutions,
    # checked off-eigenvalue so both sides are O(1)
    worst = 0.0
    for n in range(6):
        g = spectral.g_callable(CASE_A, n)
        f = spectral.eigenfunction(CASE_A, n).as_callable()
        ell = 2 * n + 1 + 0.37
        for k in range(20):
            z = 1.3 + 0.45 * k
            w = z * z - 0.25
            lhs = spectral.residual_master(f, 0.0, 0.0, ell, w)
            rg = spectral.residual_g(CASE_A, g, ell, z)
            rhs = -np.exp(1j * np.pi * z) * (z * z - 0.25) / (8 * z) * rg
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _check(results, "consistency-chain-a", "eq-27", worst <= 1e-12, worst, 1e-12,
           note="master equation at B=M=0 reproduces the z-space relation "
                "through the exact substitutions")
    worst = 0.0
    b = Fraction(3, 2)
    for n in range(6):
        g = spectral.g_callable(CASE_B, n, b)
        f = spectral.eigenfunction(CASE_B, n, b).as_callable()
        ell = 2 * n + 1 + 0.37
        for k in range(20):
            z = 1.3 + 0.45 * k
            w = z * z - float(b) - 0.25
            lhs = spectral.residual_master(f, float(b), 0.0, ell, w)
            rg = spectral.residual_g(CASE_B, g, ell, z, b=float(b))
            rhs = np.exp(1j * np.pi * z) * rg
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _check(results, "consistency-chain-b", "eq-50", worst <= 1e-12, worst, 1e-12)


def check_orthogonality(results: list[CheckResult], n_max: int = 6,
                        threshold_scale: float = 1.0) -> None:
    tol = 1e-8 * threshold_scale
    families = [(WilsonFamily.case_a(), "a", "eq-A2",
                 f"norms include the n=0 value 2/3; corrected closed form, n <= {n_max}")]
    families += [(WilsonFamily.case_b(b), f"b{float(b)}", "eq-B2",
                  "full measure: continuous density plus point masses") for b in B_VALUES]
    for fam, tag, anchor, note in families:
        tab = wilson.monic_from_recurrence(fam, n_max)
        norms = [float(wilson.norm_closed_form(fam, n)) for n in range(n_max + 1)]
        worst_diag, worst_cross = 0.0, 0.0
        for n in range(n_max + 1):
            for m in range(n, n_max + 1):
                val, _ = expand.inner_product(fam, tab[n], tab[m])
                val = float(np.real(val))
                if n == m:
                    worst_diag = max(worst_diag, abs(val - norms[n]) / norms[n])
                else:
                    worst_cross = max(worst_cross, abs(val) / math.sqrt(norms[n] * norms[m]))
        ok = worst_diag <= tol and worst_cross <= tol
        _check(results, f"orthogonality-norms-{tag}", anchor, ok,
               max(worst_diag, worst_cross), tol, note=note)
        if fam.case == CASE_A:
            printed_dev = min(
                abs(float(wilson.printed_norm_rhs(fam, n)) - norms[n]) / norms[n]
                for n in range(1, n_max + 1))
            _check(results, "norm-printed-mismatch-a", "eq-A2", printed_dev >= 0.1,
                   printed_dev, 0.1,
                   note="printed norm table disagrees with quadrature/recurrence for n >= 1")


def check_generating_functions(results: list[CheckResult]) -> None:
    xs, ts = (0.3, 0.9), (0.05, 0.1, 0.2)
    fam_a = WilsonFamily.case_a()
    fam_b = WilsonFamily.case_b(Fraction(3, 2))
    for fam, tag in ((fam_a, "a"), (fam_b, "b")):
        worst = 0.0
        ok = True
        for ident in (1, 2, 3):
            for x in xs:
                for t in ts:
                    rep = wilson.generating_function_check(fam, ident, x, t, n_terms=25)
                    ok = ok and rep.passed
                    worst = max(worst, rep.abs_diff)
        _check(results, f"genfun-{tag}", "eq-A4" if tag == "a" else "eq-B5",
               ok, worst, "1e-10 + truncation bound",
               note="all three identities on the (x,t) grid, N=25")
    bad1 = wilson.generating_function_check(fam_a, 1, 0.5, 0.1, form="printed")
    bad3 = wilson.generating_function_check(fam_a, 3, 0.5, 0.1, form="printed")
    ok = (not bad1.passed) and (not bad3.passed)
    _check(results, "genfun-printed-mismatch", "eq-A4", ok,
           f"{bad1.abs_diff:.3e}, {bad3.abs_diff:.3e}", "> 1e-10",
           note="printed first/third identities fail as printed "
                "(denominator parameter, overall factor 2)")


def check_reconstruction(results: list[CheckResult], n_trunc: int = 12) -> None:
    fam_a = WilsonFamily.case_a()
    fam_b = WilsonFamily.case_b(Fraction(3, 2))
    tab_a = expand.parity_coefficients(fam_a, n_trunc + 1)
    tab_b = expand.parity_coefficients(fam_b, n_trunc)
    ok = tab_a.coefficient(0) == -1j and tab_a.error(0) == 0.0
    _check(results, "reconstruction-c0", "eq-42", ok, str(tab_a.coefficient(0)), "-1j",
           note="fixed analytically, never by quadrature")
    for fam, tab, tag in ((fam_a, tab_a, "a"), (fam_b, tab_b, "b")):
        proj = expand.parity_coefficients(fam, 6, route="projection")
        worst = 0.0
        ok = True
        for n in range(7):
            d = abs(tab.coefficient(n) - proj.coefficient(n))
            budget = 2.0 * (tab.error(n) + proj.error(n)) + 1e-13
            ok = ok and d <= budget
            worst = max(worst, d)
        _check(results, f"reconstruction-dual-route-{tag}",
               "eq-45" if tag == "a" else "eq-59", ok, worst,
               "2x summed error estimates", note="closed formula vs generic projection")
        res = expand.reconstruction_residual(fam, n_trunc, table=tab)
        mono = all(res[i + 1] <= res[i] * (1 + 1e-8) + 1e-10 for i in range(len(res) - 1))
        _check(results, f"reconstruction-monotone-{tag}",
               "eq-44" if tag == "a" else "eq-58", mono,
               "nonincreasing" if mono else "increases", "nonincreasing",
               note="orthogonal projection property, within quadrature error")
        drop = res[0] / res[-1]
        _check(results, f"reconstruction-drop-{tag}",
               "eq-44" if tag == "a" else "eq-58", drop >= 1e3, drop, 1e3,
               note="EXPECTED FAIL: the residual decays only algebraically "
                    "(target singular at the continued support edge); "
                    "a 1000x drop needs truncation ~1e5, see ledger")
    # printed-constant detectors
    printed_a = expand.parity_coefficients(fam_a, 4, route="printed")
    ok = True
    for n in range(2, 5):
        ratio = printed_a.coefficient(n) / tab_a.coefficient(n)
        want = float(Fraction(2 * math.factorial(2 * n), math.factorial(n + 1) ** 2))
        ok = ok and abs(ratio - want) <= 1e-6 * abs(want)
    _check(results, "coefficient-printed-mismatch-a", "eq-45", ok,
           "ratio = corrected/printed norm", "(n+1)!^2 / (2 (2n)!) on the norm",
           note="printed constants inherit the printed norm-table misprint")
    printed_b = expand.parity_coefficients(fam_b, 3, route="printed")
    weight = wilson.family_weight(fam_b)
    ok = True
    polys = wilson.monic_from_recurrence(fam_b, 3)
    for n in range(4):
        missing = sum(pm.mass * complex(np.exp(-1j * np.pi * pm.t))
                      * float(poly_eval(polys[n], pm.y))
                      for pm in weight.point_masses)
        missing *= (-1) ** n / float(wilson.norm_closed_form(fam_b, n))
        d = abs((tab_b.coefficient(n) - printed_b.coefficient(n)) - missing)
        ok = ok and d <= 1e-10 * max(1.0, abs(missing))
    _check(results, "coefficient-printed-mismatch-b", "eq-59", ok,
           "delta equals the point-mass contribution", "exact",
           note="the printed continuous-only integral omits the discrete part "
                "of the orthogonality measure")


def check_second_solution(results: list[CheckResult]) -> None:
    worst_ok = True
    caso_ok = True
    ratio_ok = True
    for n in range(5):
        u, h = spectral.second_solution(n, Fraction(2), 8)
        ell = 2 * n + 1
        for k in range(1, 7):
            z = Fraction(2) + k
            if spectral.residual_g(CASE_A, h, ell, z) != 0:
                worst_ok = False
        for k in range(6):
            if not spectral.casoratian(n, h, Fraction(2) + k):
                caso_ok = False
        # first-order ratio relation, exactly on the lattice
        g = spectral.g_callable(CASE_A, n)
        for k in range(1, 6):
            z = Fraction(2) + k
            lhs = (u(z + 1) - u(z)) * ((2 * z + 1) * (2 * z + 3) ** 2 * g(z + 1))
            rhs = (u(z) - u(z - 1)) * ((2 * z - 1) * (2 * z - 3) ** 2 * g(z - 1))
            if lhs != rhs:
                ratio_ok = False
    _check(results, "second-solution-residual", "eq-39", worst_ok,
           "exact zero" if worst_ok else "nonzero", "<= 1e-10",
           note="three-point relation at interior lattice points, exact arithmetic")
    _check(results, "second-solution-casoratian", "eq-35", caso_ok,
           "nonzero" if caso_ok else "zero", "nonzero")
    _check(results, "second-solution-ratio", "eq-35", ratio_ok,
           "exact" if ratio_ok else "violated", "exact")
    u, h = spectral.second_solution(0, Fraction(2), 8)
    vals = [(z * z - Fraction(1, 4)) ** 2 * h(z) for z in h.points()]
    second_diffs = [vals[k + 2] - 2 * vals[k + 1] + vals[k] for k in range(len(vals) - 2)]
    # (z^2-1/4)^2 h0 affine in z^2 <=> h0 = A/(z^2-1/4)^2 + C g0; the lattice
    # second difference in z of an affine function of z^2 is constant
    third_diffs = [second_diffs[k + 1] - second_diffs[k] for k in range(len(second_diffs) - 1)]
    ok = all(d == 0 for d in third_diffs)
    _check(results, "second-solution-h0-form", "eq-38", ok,
           "affine in z^2" if ok else "not affine", "affine in z^2",
           note="h0 proportional to (z^2-1/4)^{-2} up to an admixture of the "
                "rational base solution")


def check_lorentz(results: list[CheckResult], threshold_scale: float = 1.0) -> None:
    tol = 1e-12 * threshold_scale
    reps = (lorentz.build_vector_rep(), lorentz.build_spin_rep(Fraction(1, 2), Fraction(1, 2)),
            lorentz.build_spin_rep(1, 0))
    worst = 0.0
    for rep in reps:
        worst = max(worst, max(lorentz.algebra_audit(rep).values()))
    _check(results, "lorentz-audit", "eq-10", worst <= tol, worst, tol,
           note="all commutator relations, three representations")
    worst_cons = worst_trace = 0.0
    worst_printed = math.inf
    for rep in reps:
        ext = lorentz.n0_extraction(rep)
        worst_cons = max(worst_cons, ext.residual_consistent)
        worst_trace = max(worst_trace, ext.traceless_residual)
        worst_printed = min(worst_printed, ext.residual_printed_sign)
    _check(results, "lorentz-n0", "eq-8", worst_cons <= tol and worst_trace <= tol,
           max(worst_cons, worst_trace), tol,
           note="spin-0 extraction matches -(4/3) K.K P with traceless spin-2 part")
    _check(results, "lorentz-n0-printed-sign", "eq-8", worst_printed >= 1.0,
           worst_printed, 1.0,
           note="the sign as printed is inconsistent with the extraction "
                "(and with the master-equation derivation); detector must fire")
    rep = lorentz.build_vector_rep()
    bad_k = [m.copy() for m in rep.boosts]
    bad_k[0][0, 1] += 1e-3
    bad = lorentz.LorentzRep(rep.label, rep.dim, tuple(bad_k), rep.rotations, rep.parity)
    sens = max(lorentz.algebra_audit(bad).values())
    _check(results, "lorentz-corruption-sensitivity", "eq-10", sens >= 1e-4, sens, 1e-4,
           note="a 1e-3 entry perturbation must be detected")


def check_scan(results: list[CheckResult]) -> None:
    worst_mu, worst_res = 0.0, 0.0
    for b in (0.0, 1.5):
        for n in range(4):
            rep = spectral.conjecture_scan(b, 0.0, n, n)
            worst_mu = max(worst_mu, abs(rep.ell1_sq - (2 * n + 1) ** 2))
            worst_res = max(worst_res, rep.residual)
    ok = worst_mu <= 1e-8 and worst_res <= 1e-10
    _check(results, "scan-recovery", "eq-28", ok, worst_mu, 1e-8,
           note="M=0 scan recovers the quantized eigenvalues; "
                f"residual <= {worst_res:.2e}")
    rep = spectral.conjecture_scan(1.0, 0.5, 1, 6)
    results.append(CheckResult(
        "scan-exploratory", "eq-23", "info",
        f"ell1^2 = {rep.ell1_sq:.10g}, residual = {rep.residual:.3e}",
        "report-only",
        note="M != 0 is unsolved; exploratory output for the eigenvalue "
             "persistence conjecture"))


SUITES = {
    "tables": (check_tables, check_hypergeometric_prefactors),
    "recurrence": (check_recurrence,),
    "quantization": (check_quantization, check_consistency_chain),
    "orthogonality": (check_orthogonality,),
    "genfun": (check_generating_functions,),
    "reconstruction": (check_reconstruction,),
    "second-solution": (check_second_solution,),
    "lorentz": (check_lorentz,),
    "scan": (check_scan,),
}

# checks whose failure is the documented, expected outcome of a defective
# stated threshold (see the ledger): reported as fail, listed here so the
# acceptance tests can mark them as such
EXPECTED_FAILURES = ("reconstruction-drop-a", "reconstruction-drop-b")


def select_suites(names=None) -> list[str]:
    """The suites to run, in order (all for none or ["all"]); refuses an unknown name."""
    selected = list(SUITES) if not names or names == ["all"] else list(names)
    unknown = [name for name in selected if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}")
    return selected


def run_suites(names=None, extended: bool = False,
               threshold_scale: float = 1.0) -> VerificationReport:
    """Run the named suites (all by default) and collect the report.

    ``extended`` lifts the standard caps (higher n everywhere);
    ``threshold_scale`` scales tolerance-based thresholds, which exists so
    the exit-code contract can be exercised (a tiny scale must fail).
    """
    report = VerificationReport()
    for name in select_suites(names):
        start = time.perf_counter()
        for fn in SUITES[name]:
            kwargs = {}
            if fn is check_quantization:
                kwargs = {"n_max": 40 if extended else 8,
                          "threshold_scale": threshold_scale}
            elif fn is check_orthogonality:
                kwargs = {"n_max": 20 if extended else 6,
                          "threshold_scale": threshold_scale}
            elif fn is check_reconstruction:
                kwargs = {"n_trunc": 24 if extended else 12}
            elif fn is check_lorentz:
                kwargs = {"threshold_scale": threshold_scale}
            fn(report.results, **kwargs)
        report.elapsed[name] = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# traceability: every in-scope identity anchor maps to the checks that
# exercise it (the machine-readable coverage table)
# ---------------------------------------------------------------------------

TRACEABILITY: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("eq-3", ("eigenvalue-alpha",), "eigenvalue-to-label relation"),
    ("eq-6", ("lorentz-n0",), "first boost commutator of parity"),
    ("eq-7", ("lorentz-n0",), "tensor split of the second commutator"),
    ("eq-8", ("lorentz-n0", "lorentz-n0-printed-sign"),
     "sign adjudicated against the extraction and the master equation"),
    ("eq-9", ("lorentz-audit",), "boost/rotation vectors"),
    ("eq-10", ("lorentz-audit", "lorentz-corruption-sensitivity"), "commutator contract"),
    ("eq-11", ("lorentz-audit",), "invariant operator products"),
    ("eq-12", ("lorentz-audit",), "mutual commutation of the invariants"),
    ("eq-13", ("lorentz-audit",), "invariant-generator commutators"),
    ("eq-14", ("lorentz-audit",), "difference invariant"),
    ("eq-15", ("lorentz-audit",), "difference invariant commutes with generators"),
    ("eq-16", ("lorentz-audit",), "difference invariant commutes with parity"),
    ("eq-17", ("lorentz-audit",), "pseudoscalar conjugation"),
    ("eq-18", ("lorentz-audit",), "squared pseudoscalar"),
    ("eq-19", ("lorentz-audit",), "full commuting set"),
    ("eq-20", (), "out-of-scope (power-series ansatz; conceptual step)"),
    ("eq-21", (), "out-of-scope (derivation); consequences covered by eq23-residual"),
    ("eq-22", ("eigenvalue-alpha",), "eigenvalue condition; folded into the label relation"),
    ("eq-23", ("eigen-quantization-a", "eigen-quantization-b1.5", "scan-recovery",
               "scan-exploratory"), "master difference-equation eigenvalue problem"),
    ("eq-24", ("eigen-quantization-a", "consistency-chain-a"), "B=M=0 reduction"),
    ("eq-25", ("consistency-chain-a",), "independent-variable substitution"),
    ("eq-26", ("consistency-chain-a",), "dependent-variable substitution"),
    ("eq-27", ("consistency-chain-a", "second-solution-residual"), "z-space relation"),
    ("eq-28", ("eigen-sensitivity-a", "scan-recovery"), "eigenvalue quantization"),
    ("eq-29", ("tables-z-family-a",), "printed z-space eigenfunction table"),
    ("eq-30", ("hypergeometric-prefactor-a",), "pairing with the monic family"),
    ("eq-31", ("hypergeometric-prefactor-a",), "terminating hypergeometric form"),
    ("eq-32", ("tables-f-family-a", "eigen-quantization-a"), "eigenfunction assembly"),
    ("eq-33", ("tables-f-family-a",), "printed eigenfunction table"),
    ("eq-34", ("second-solution-residual",), "second-solution ansatz"),
    ("eq-35", ("second-solution-ratio", "second-solution-casoratian"),
     "first-order ratio relation"),
    ("eq-36", ("second-solution-ratio",), "first-order step"),
    ("eq-37", ("second-solution-residual",), "lattice summation"),
    ("eq-38", ("second-solution-h0-form",), "closed-form lowest second solution"),
    ("eq-39", ("second-solution-residual", "second-solution-casoratian"),
     "second solutions for higher members"),
    ("eq-40", ("reconstruction-monotone-a",),
     "formal operator series; tested only in weighted L2"),
    ("eq-41", ("reconstruction-c0",), "scalar reconstruction identity"),
    ("eq-42", ("reconstruction-c0",), "leading coefficient"),
    ("eq-43", ("reconstruction-monotone-a",), "coefficient relation on the z side"),
    ("eq-44", ("reconstruction-monotone-a", "reconstruction-drop-a"),
     "continued reconstruction identity"),
    ("eq-45", ("reconstruction-dual-route-a", "coefficient-printed-mismatch-a"),
     "coefficient quadrature formula (corrected constants)"),
    ("eq-46", ("eigen-quantization-a", "reconstruction-monotone-a"),
     "decomposition statement; witnessed by quantization plus reconstruction"),
    ("eq-47", ("eigen-quantization-b1.5", "consistency-chain-b"), "M=0 reduction"),
    ("eq-48", ("consistency-chain-b",), "independent-variable substitution"),
    ("eq-49", ("consistency-chain-b",), "dependent-variable substitution"),
    ("eq-50", ("consistency-chain-b",), "z-space relation with free B"),
    ("eq-51", ("hypergeometric-prefactor-b",), "terminating hypergeometric form"),
    ("eq-52", ("tables-z-family-b",), "printed z-space table"),
    ("eq-53", ("tables-f-family-b",), "eigenfunction assembly"),
    ("eq-54", ("tables-f-family-b", "tables-b-zero-crosscheck"),
     "printed eigenfunction table"),
    ("eq-55", ("reconstruction-monotone-b",), "operator reconstruction series"),
    ("eq-56", ("reconstruction-monotone-b",), "scalar reconstruction identity"),
    ("eq-57", ("reconstruction-monotone-b",), "z-side expansion"),
    ("eq-58", ("reconstruction-monotone-b", "reconstruction-drop-b"),
     "continued reconstruction identity"),
    ("eq-59", ("reconstruction-dual-route-b", "coefficient-printed-mismatch-b"),
     "coefficient formula (full measure)"),
    ("eq-A1", ("tables-z-family-a", "hypergeometric-prefactor-a"), "monic normalization"),
    ("eq-A2", ("orthogonality-norms-a", "norm-printed-mismatch-a"),
     "orthogonality and norms (corrected right-hand side)"),
    ("eq-A3", ("recurrence-printed-mismatch", "recurrence-corrected-match"),
     "recurrence adjudication"),
    ("eq-A4", ("genfun-a", "genfun-printed-mismatch"), "generating functions"),
    ("eq-B1", ("tables-z-family-b", "hypergeometric-prefactor-b"), "monic normalization"),
    ("eq-B2", ("orthogonality-norms-b-0.5", "orthogonality-norms-b1.5",
               "orthogonality-norms-b7.3"), "orthogonality with the point-mass measure"),
    ("eq-B3", ("recurrence-printed-mismatch-b", "recurrence-corrected-match-b"),
     "recurrence adjudication"),
    ("eq-B4", ("genfun-b",), "generating function"),
    ("eq-B5", ("genfun-b",), "generating functions"),
)

REQUIRED_ANCHORS = tuple(
    [f"eq-{k}" for k in (3, *range(6, 20), *range(23, 60))]
    + [f"eq-A{k}" for k in range(1, 5)] + [f"eq-B{k}" for k in range(1, 6)])
