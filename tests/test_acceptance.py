"""Acceptance gate: every criterion at its stated tolerance.

Each criterion runs through the same check functions as the CLI verify
suite and prints one status line.  Criterion 6 includes two sub-checks
(>= 1000x residual drop by truncation 12) that are mathematically
unattainable for these targets; they are implemented as stated and marked
strict-xfail with the measured drops, so the suite alerts if they ever
start passing.  Everything else must be green.
"""

import dataclasses
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import paritywilson
from paritywilson import expand, spectral, verify
from paritywilson.numcore import RationalPolynomial
from paritywilson.wilson import WilsonFamily


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


def test_criterion_5_generating_functions():
    t0 = time.perf_counter()
    results = _run_checks(verify.check_generating_functions)
    elapsed = time.perf_counter() - t0
    print(f"  generating functions elapsed: {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0
    _report("5 generating functions", results)


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


def test_consistency_chain_supplement():
    # the substitution chain between the master equation and its z-space
    # reductions, part of the quantization criterion's support
    results = _run_checks(verify.check_consistency_chain)
    _report("3b consistency chain", results)


def test_hypergeometric_route_supplement():
    results = _run_checks(verify.check_hypergeometric_prefactors)
    _report("1b hypergeometric prefactors", results)


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
