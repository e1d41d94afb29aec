"""Acceptance gate: every criterion at its stated tolerance.

Each criterion runs through the same check functions as the CLI verify
suite and prints one status line.  Criterion 6 includes two sub-checks
(>= 1000x residual drop by truncation 12) that are mathematically
unattainable for these targets; they are implemented as stated and marked
strict-xfail with the measured drops, so the suite alerts if they ever
start passing.  Everything else must be green.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import paritywilson
from paritywilson import expand, spectral, verify, wilson
from paritywilson.numcore import RationalPolynomial
from paritywilson.wilson import CASE_A, WilsonFamily


def _run_checks(*fns, **kwargs):
    results = []
    for fn in fns:
        fn(results, **kwargs) if kwargs else fn(results)
    return results


def _report(criterion: str, results, expected_fail=()):
    hard = [r for r in results if r.status == "fail" and r.check_id not in expected_fail]
    status = "PASS" if not hard else "FAIL"
    print(f"[criterion {criterion}] {status} "
          f"({len(results)} checks, {len(hard)} unexpected failures)")
    for r in results:
        if r.status == "fail" and r.check_id not in expected_fail:
            print(f"    FAILED {r.check_id}: measured={r.measured} threshold={r.threshold}")
    assert not hard


def test_criterion_1_exact_table_reproduction():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_tables)
    assert time.perf_counter() - t0 < 1.0
    _report("1 exact tables", results)


def test_criterion_2_recurrence_adjudication():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_recurrence)
    assert time.perf_counter() - t0 < 1.0
    _report("2 recurrence adjudication", results)


def test_criterion_3_eigenvalue_quantization():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_quantization)
    elapsed = time.perf_counter() - t0
    print(f"  quantization elapsed: {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0
    _report("3 quantization", results)


def test_quantization_holds_past_forty_digits():
    # a 40-digit sampler loses the n = 24 eigenpairs to cancellation
    # (residuals 380 to 6e4); the exact certificate is 0 for every family
    results = _run_checks(verify.check_quantization, n_max=24)
    _report("3 quantization, n <= 24", results)
    assert [r.measured for r in results if r.check_id.startswith("eigen-quantization-")] \
        == [0.0] * 4


def test_extended_quantization_cap():
    report = verify.run_suites(["quantization"], extended=True)
    assert report.results and all(r.status == "pass" for r in report.results)
    assert "n <= 40" in report.results[0].note


@pytest.mark.parametrize("power", [0, "leading"], ids=["constant", "leading"])
def test_quantization_fails_on_a_perturbed_coefficient(monkeypatch, power):
    # one coefficient of the n = 3 eigenpolynomial moved by 1e-6 must fail
    # every family's quantization check
    exact = spectral.eigenfunction

    def perturbed(case, n, b=None):
        rec = exact(case, n, b)
        if n != 3:
            return rec
        k = rec.poly.degree if power == "leading" else power
        bump = RationalPolynomial([0] * k + [Fraction(1, 10 ** 6)])
        return dataclasses.replace(rec, poly=rec.poly + bump)

    monkeypatch.setattr(spectral, "eigenfunction", perturbed)
    results = _run_checks(verify.check_quantization)
    failed = sorted(r.check_id for r in results if r.status == "fail")
    assert failed == sorted(f"eigen-quantization-{tag}" for tag in ("a", "b-0.5", "b1.5", "b7.3"))


FAMILIES = (("A", None), *(("B", b) for b in verify.B_VALUES))


@pytest.mark.parametrize("power", [0, "leading"], ids=["constant", "leading"])
def test_perturbed_quantization_reads_the_halved_odd_coefficients(monkeypatch, power):
    # with the n = 3 polynomial moved by 1e-6, each eigen-quantization row
    # reads, to the bit, max |Q(s^2)| on its grid with Q = P's odd
    # coefficients halved, built here from P.coeffs
    exact = spectral.eigenfunction

    def perturbed(case, n, b=None):
        rec = exact(case, n, b)
        if n != 3:
            return rec
        k = rec.poly.degree if power == "leading" else power
        return dataclasses.replace(rec, poly=rec.poly + RationalPolynomial(
            [0] * k + [Fraction(1, 10 ** 6)]))

    monkeypatch.setattr(spectral, "eigenfunction", perturbed)
    measured = [r.measured for r in _run_checks(verify.check_quantization)
                if r.check_id.startswith("eigen-quantization-")]
    want = []
    for case, b in FAMILIES:
        big_p = spectral.master_residual_polynomial(perturbed(case, 3, b), 7)
        q = RationalPolynomial(big_p.coeffs[1::2]) / 2
        want.append(max(abs(float(q(Fraction(w) + Fraction(1, 4) + (b or 0))))
                        for w in spectral.default_w_grid(float(b or 0), count=10)))
    assert all(want) and measured == want


def test_sensitivity_matches_a_second_polynomial_at_the_perturbed_eigenvalue():
    # the closed form (ell'^2 - ell^2) p(W) against P rebuilt at ell' = 2n+1 +
    # 1/1000 and read as P(s) = E(s^2) + s O(s^2) on the same grid
    results = _run_checks(verify.check_quantization, n_max=12)
    measured = [r.measured for r in results if r.check_id.startswith("eigen-sensitivity-")]
    rebuilt = []
    for case, b in FAMILIES:
        shift = Fraction(1, 4) + (b or 0)
        sigmas = [Fraction(w) + shift for w in spectral.default_w_grid(float(b or 0), count=10)]
        worst = math.inf
        for n in range(13):
            cs = spectral.master_residual_polynomial(spectral.eigenfunction(case, n, b),
                                                     2 * n + 1 + Fraction(1, 1000)).coeffs
            even, odd = RationalPolynomial(cs[0::2]), RationalPolynomial(cs[1::2])
            worst = min(worst, max(abs(float(even(q)) / (2 * math.sqrt(q)) + float(odd(q) / 2))
                                   for q in sigmas))
        rebuilt.append(worst)
    assert measured == rebuilt


@pytest.mark.parametrize("n_max", [0, 5])
def test_quantization_builds_one_polynomial_per_eigenpair(monkeypatch, n_max):
    calls = []
    build = spectral.master_residual_polynomial

    def counted(rec, ell1):
        calls.append((rec.case, rec.b, rec.n))
        return build(rec, ell1)

    monkeypatch.setattr(spectral, "master_residual_polynomial", counted)
    verify.check_quantization([], n_max=n_max)
    assert len(calls) == len(set(calls)) == 4 * (n_max + 1)


def test_runtime_needs_no_mpmath():
    # mpmath is a test dependency only: with its import blocked the CLI
    # imports and the default verdict is unchanged
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import paritywilson.cli\n"
        "from paritywilson import verify\n"
        "report = verify.run_suites()\n"
        "assert sys.modules['mpmath'] is None\n"
        "assert len(report.results) == 49, len(report.results)\n"
        "assert sorted(r.check_id for r in report.failed) == sorted(verify.EXPECTED_FAILURES)\n"
    )
    src = os.path.dirname(os.path.dirname(paritywilson.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_runtime_leaves_numpy_polynomial_unimported():
    # the measures' Gauss-Legendre rule is computed in the library, so the
    # verdict and the expansions import no numpy.polynomial
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from paritywilson import expand, verify, wilson\n"
        "report = verify.run_suites()\n"
        "assert len(report.results) == 49, len(report.results)\n"
        "for family in (wilson.WilsonFamily.case_a(), wilson.WilsonFamily.case_b(Fraction(3, 2))):\n"
        "    table = expand.parity_coefficients(family, 13)\n"
        "    expand.reconstruction_residual(family, 12, table=table)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(paritywilson.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_criterion_4_orthogonality_and_norms():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_orthogonality)
    elapsed = time.perf_counter() - t0
    print(f"  orthogonality elapsed: {elapsed:.2f}s (budget 10s)")
    assert elapsed < 10.0
    _report("4 orthogonality/norms", results)


def test_extended_orthogonality_cap():
    # --extended checks orthogonality to n = 20 in Case A and all three B
    report = verify.run_suites(["orthogonality"], extended=True)
    assert report.results and all(r.status == "pass" for r in report.results)
    assert "n <= 20" in report.results[0].note


def test_the_printed_norm_row_states_its_misprint_exactly(monkeypatch):
    def row():
        [r] = [r for r in _run_checks(verify.check_orthogonality)
               if r.check_id == "norm-printed-mismatch-a"]
        return r.status, r.measured, r.threshold
    assert row() == ("pass", "exact", "exact")
    # printed = true (n+2)!^2 / (2 (2n+2)!) must hold exactly, and a factor
    # 1 + 1e-30 on one printed norm breaks it
    printed = wilson.printed_norm_rhs
    monkeypatch.setattr(wilson, "printed_norm_rhs", lambda family, n: (
        printed(family, n) * (1 + Fraction(1, 10 ** 30)) if n == 4 else printed(family, n)))
    assert row() == ("fail", "mismatch", "exact")


def test_criterion_5_generating_functions():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_generating_functions)
    elapsed = time.perf_counter() - t0
    print(f"  generating functions elapsed: {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0
    _report("5 generating functions", results)


def test_generating_functions_fail_on_a_table_entry_perturbed_below_any_float(monkeypatch):
    # a factor 1 + 1e-30 on one coefficient of the Case A P_7 fails all three
    # identities at n = 7, and nothing else
    table = list(wilson.monic_from_recurrence(WilsonFamily.case_a(), 16))
    coeffs = list(table[7].coeffs)
    coeffs[3] *= 1 + Fraction(1, 10 ** 30)
    table[7] = RationalPolynomial(coeffs)
    exact = wilson.monic_from_recurrence
    monkeypatch.setattr(wilson, "monic_from_recurrence", lambda family, n_max: (
        tuple(table[:n_max + 1]) if family.case == CASE_A else exact(family, n_max)))
    rows = {r.check_id: r for r in _run_checks(verify.check_generating_functions)}
    assert (rows["genfun-a"].status, rows["genfun-a"].measured) == (
        "fail", "identity 1 at n = 7, identity 2 at n = 7, identity 3 at n = 7")
    assert rows["genfun-b"].status == rows["genfun-printed-mismatch"].status == "pass"


def test_criterion_6_reconstruction():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_reconstruction)
    elapsed = time.perf_counter() - t0
    print(f"  reconstruction elapsed: {elapsed:.2f}s (budget 20s)")
    assert elapsed < 20.0
    for r in results:
        if r.check_id in verify.EXPECTED_FAILURES:
            print(f"  documented defect: {r.check_id} measured drop {r.measured:.3f}x "
                  f"vs stated {r.threshold:.0e}x")
    _report("6 reconstruction", results, expected_fail=verify.EXPECTED_FAILURES)


@pytest.mark.xfail(strict=True,
                   reason="stated 1000x drop by truncation 12 is unattainable: "
                          "the target's poles at the continued support edge force "
                          "algebraic coefficient decay (measured drop ~4x; "
                          "a 1000x drop needs truncation ~1e5); see decisions ledger")
def test_criterion_6_drop_case_a_as_stated():
    res = expand.reconstruction_residual(WilsonFamily.case_a(), 12)
    assert res[0] / res[12] >= 1e3


@pytest.mark.xfail(strict=True,
                   reason="stated 1000x drop by truncation 12 is unattainable "
                          "(measured ~9x; branch point at the support edge); "
                          "see decisions ledger")
def test_criterion_6_drop_case_b_as_stated():
    res = expand.reconstruction_residual(WilsonFamily.case_b(Fraction(3, 2)), 12)
    assert res[0] / res[12] >= 1e3


def test_criterion_7_second_solutions():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_second_solution)
    assert time.perf_counter() - t0 < 1.0
    _report("7 second solutions", results)


def test_criterion_8_lorentz_audits():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_lorentz)
    assert time.perf_counter() - t0 < 1.0
    _report("8 operator-algebra audits", results)


def test_criterion_9_conjecture_scan():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_scan)
    elapsed = time.perf_counter() - t0
    print(f"  scan elapsed: {elapsed:.2f}s (budget 10s)")
    assert elapsed < 10.0
    _report("9 conjecture scan", results)


@pytest.mark.parametrize("converged, text", [
    (True, "converged in 7 iterations"), (False, "not converged after 200 iterations")])
def test_the_exploratory_scan_says_whether_it_converged(monkeypatch, converged, text):
    scan = spectral.conjecture_scan

    def reported(b, m, n, degree, grid=None):  # only the M != 0 scan is exploratory
        rep = scan(b, m, n, degree, grid)
        return dataclasses.replace(rep, iterations=7 if converged else 200,
                                   converged=converged) if m else rep
    monkeypatch.setattr(spectral, "conjecture_scan", reported)
    rows = {r.check_id: r for r in _run_checks(verify.check_scan)}
    assert rows["scan-exploratory"].status == "info"
    assert rows["scan-exploratory"].measured.endswith(", " + text)
    assert rows["scan-recovery"].status == "pass"


def _best_fit_ell1_sq(b, m, degree):
    """The ell1^2 in [4, 10] (step 1/100) that minimizes the scan's residual
    sigma_min(L - mu F) / sqrt(20), mu = 1 - ell1^2, on its default W grid:
    the master equation's pencil rebuilt here from its coefficients."""
    ws = np.array(spectral.default_w_grid(b, count=20))
    r = np.sqrt(1 + 4 * b + 4 * ws)
    wp, wm, coupling = ws + 1 + r, ws + 1 - r, m / (b + ws)
    powers = np.arange(degree + 1)

    def basis(w):  # exp(i pi sqrt(w + B + 1/4)) w^k
        return np.exp(1j * np.pi * np.sqrt(w + b + 0.25))[:, None] * w[:, None] ** powers

    f = basis(ws)
    lmat = (2 * (ws + coupling)[:, None] * f
            + ((2 * b + 4 * ws + (ws - coupling) * (r - 1))[:, None] * basis(wp)
               + (-2 * b - 4 * ws + (ws - coupling) * (r + 1))[:, None] * basis(wm)) / r[:, None])
    scale = np.max(np.abs(f), axis=0)
    grid = np.linspace(4.0, 10.0, 601)
    sigma = [np.linalg.svd((lmat - (1 - e) * f) / scale, compute_uv=False)[-1] for e in grid]
    return float(grid[int(np.argmin(sigma))])


def test_the_exploratory_scan_names_its_value_a_fit_artifact():
    rows = {r.check_id: r for r in _run_checks(verify.check_scan)}
    row = rows["scan-exploratory"]
    assert row.status == "info" and row.threshold == "report-only"
    assert row.note == ("M != 0 is unsolved; ell1^2 is a fit artifact of the W grid and the "
                        "ansatz degree, not an eigenvalue (the minimizer drifts from 8.80 at "
                        "d = 2 to 4.79 at d = 12)")
    # the drift the note quotes; the printed value (d = 6) is where the
    # alternating loop, started at (2n + 1)^2 = 9, stops
    assert round(_best_fit_ell1_sq(1.0, 0.5, 2), 2) == 8.80
    assert round(_best_fit_ell1_sq(1.0, 0.5, 12), 2) == 4.79
    assert row.measured.startswith("ell1^2 = 8.999698832, ")


def test_consistency_chain_supplement():
    # the substitution chain between the master equation and its z-space
    # reductions, part of the quantization criterion's support
    results = _run_checks(verify.check_consistency_chain)
    _report("3b consistency chain", results)


def test_hypergeometric_route_supplement():
    results = _run_checks(verify.check_hypergeometric_prefactors)
    _report("1b hypergeometric prefactors", results)


@pytest.mark.parametrize("target, row", [
    ("prefactor", "hypergeometric-prefactor-b"), ("g", "hypergeometric-prefactor-a")])
def test_exact_prefactor_rows_fail_on_a_perturbation_below_any_float(monkeypatch, target, row):
    # a factor 1 + 1e-30 is invisible to a float comparison; the exact rows
    # must read it: Case B's printed prefactor, or Case A's tabulated g
    bump = 1 + Fraction(1, 10 ** 30)
    if target == "prefactor":
        pairs = verify.wilson._pochhammer_pairs
        monkeypatch.setattr(verify.wilson, "_pochhammer_pairs",
                            lambda family, n: pairs(family, n) * bump)
    else:
        g_polynomial = spectral.g_polynomial
        monkeypatch.setattr(spectral, "g_polynomial", lambda case, n, b=None: (
            g_polynomial(case, n, b) * bump if case == CASE_A else g_polynomial(case, n, b)))
    rows = {r.check_id: r for r in _run_checks(verify.check_hypergeometric_prefactors)}
    assert len(rows) == 2
    for check_id, r in rows.items():
        want = ("fail", "mismatch") if check_id == row else ("pass", "exact")
        assert (r.status, r.measured, r.threshold) == (*want, "exact"), r


def test_full_suite_runtime_budget():
    t0 = time.perf_counter()
    report = verify.run_suites()
    elapsed = time.perf_counter() - t0
    print(f"  full verify suite: {elapsed:.2f}s (budget 60s)")
    assert elapsed < 60.0
    unexpected = [r.check_id for r in report.failed
                  if r.check_id not in verify.EXPECTED_FAILURES]
    assert not unexpected
    # the two documented defects must still be reported as failures
    assert {r.check_id for r in report.failed} == set(verify.EXPECTED_FAILURES)
