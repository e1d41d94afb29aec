"""The benchmark's workloads: fixed-size operations and their oracles.

Every operation returns an ``Outcome``: whether it met its oracle, the
error that enters ``accuracy_digits`` (None when the oracle is exact or
the quantity is not an error), and the measured values that the
determinism and tracing-transparency checks compare.  The sizes are owned
by the benchmark and never depend on the seed; the seed only orders the
operations (and the suites passed to ``verify --suite``).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from paritywilson import cli, expand, verify, wilson
from paritywilson.wilson import WilsonFamily

SUITES = ("tables", "recurrence", "quantization", "orthogonality", "genfun",
          "reconstruction", "second-solution", "lorentz", "scan")
VERIFY_CHECKS = 49
GRAM_N = 12
GRAM_TOL = 1e-8
RECON_N = 24
CLOSED_FORM_N = 40
PROJECTION_N = 24
STIELTJES_N = 12
STIELTJES_TOL = 1e-8
QUANTIZATION_N = 16
ROUTE_N = {"A": 100, "B-symbolic": 40}


@dataclass(frozen=True)
class Outcome:
    ok: bool
    error: float | None
    measured: object
    note: str = ""  # why the oracle was missed, when it says more than ``measured``


def _family(tag: str) -> WilsonFamily:
    return WilsonFamily.case_a() if tag == "A" else WilsonFamily.case_b(Fraction(tag[1:]))


def gram(tag: str) -> Outcome:
    """All-pairs inner products n <= m <= 12 against the closed-form norms
    (the same normalization as ``verify.check_orthogonality``)."""
    fam = _family(tag)
    table = wilson.monic_from_recurrence(fam, GRAM_N)
    norms = [float(wilson.norm_closed_form(fam, n)) for n in range(GRAM_N + 1)]
    worst = 0.0
    for n in range(GRAM_N + 1):
        for m in range(n, GRAM_N + 1):
            val, _ = expand.inner_product(fam, table[n], table[m])
            val = float(np.real(val))
            if n == m:
                dev = abs(val - norms[n]) / norms[n]
            else:
                dev = abs(val) / math.sqrt(norms[n] * norms[m])
            worst = max(worst, dev)
    return Outcome(worst <= GRAM_TOL, worst, worst)


def reconstruction(tag: str) -> Outcome:
    """Residuals for N = 0..24, nonincreasing by the rule
    ``verify.check_reconstruction`` applies."""
    res = expand.reconstruction_residual(_family(tag), RECON_N)
    mono = len(res) == RECON_N + 1 and all(
        res[i + 1] <= res[i] * (1 + 1e-8) + 1e-10 for i in range(len(res) - 1))
    return Outcome(mono, None, list(res))


def dual_route(tag: str) -> Outcome:
    """Closed-form coefficients to n = 40 against generic projection to
    n = 24, within twice the summed error bars plus 1e-13."""
    fam = _family(tag)
    closed = expand.parity_coefficients(fam, CLOSED_FORM_N)
    proj = expand.parity_coefficients(fam, PROJECTION_N, route="projection")
    ok = True
    diffs = []
    for n in range(PROJECTION_N + 1):
        d = abs(closed.coefficient(n) - proj.coefficient(n))
        ok = ok and d <= 2.0 * (closed.error(n) + proj.error(n)) + 1e-13
        diffs.append(d)
    return Outcome(ok, None, diffs)


def stieltjes(tag: str) -> Outcome:
    """Numeric orthogonalization to degree 12 against the exact table."""
    fam = _family(tag)
    numeric = expand.stieltjes_monic_table(fam, STIELTJES_N)
    exact = wilson.monic_from_recurrence(fam, STIELTJES_N)
    worst = 0.0
    for n in range(STIELTJES_N + 1):
        want = np.array(exact[n].float_coeffs())
        got = np.asarray(numeric[n])
        if got.shape != want.shape:
            return Outcome(False, None, f"degree {n}: shape {got.shape} != {want.shape}")
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    return Outcome(worst <= STIELTJES_TOL, worst, worst)


def quantization() -> Outcome:
    """``verify.check_quantization`` at n <= 16: every status must pass; the
    worst quantization residual is the error."""
    results: list = []
    verify.check_quantization(results, n_max=QUANTIZATION_N)
    ok = bool(results) and all(r.status == "pass" for r in results)
    residuals = [r.measured for r in results if r.check_id.startswith("eigen-quantization-")]
    error = max(residuals) if residuals else None
    return Outcome(ok and error is not None, error,
                   [(r.check_id, r.status, r.measured) for r in results])


def routes(tag: str) -> Outcome:
    """Recurrence against hypergeometric expansion: exact equality of the
    top entry."""
    fam = WilsonFamily.case_a() if tag == "A" else WilsonFamily.case_b()
    n = ROUTE_N[tag]
    top = wilson.monic_from_recurrence(fam, n)[n]
    oracle = wilson.monic_from_hypergeometric(fam, n)
    same = top == oracle
    return Outcome(same, None, "exact" if same else "mismatch")


def _verify_suite(order, workdir: str) -> Outcome:
    """One ``paritywilson verify`` through the console-script entry point."""
    out = os.path.join(workdir, "verify.json")
    argv = sys.argv
    sys.argv = ["paritywilson", "verify", "--suite", ",".join(order),
                "--format", "json", "--out", out]
    try:
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = argv
    with open(out, encoding="utf-8") as fh:
        rows = json.load(fh)
    os.remove(out)
    failed = sorted(r["check"] for r in rows if r["status"] == "fail")
    infos = sum(r["status"] == "info" for r in rows)
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, want 1")
    if len(rows) != VERIFY_CHECKS:
        problems.append(f"{len(rows)} checks, want {VERIFY_CHECKS}")
    if failed != sorted(verify.EXPECTED_FAILURES):
        problems.append(f"failed {failed}, want {sorted(verify.EXPECTED_FAILURES)}")
    if infos != 1:
        problems.append(f"{infos} info checks, want 1")
    # accuracy: the worst of the checks that measure an error against a
    # reference (orthogonality against the closed-form norms, quantization
    # residuals), as the other two workloads define it
    errors = [float(r["measured"]) for r in rows
              if r["check"].startswith(("orthogonality-norms-", "eigen-quantization-"))]
    measured = sorted((r["check"], r["status"], r["measured"], r["threshold"]) for r in rows)
    return Outcome(not problems, max(errors) if errors else None, measured, "; ".join(problems))


EXPANSION_OPS = {
    **{f"gram-{tag}": (gram, tag) for tag in ("A", "B-1/2", "B3/2", "B73/10")},
    **{f"reconstruction-{tag}": (reconstruction, tag) for tag in ("A", "B3/2")},
    **{f"dual-route-{tag}": (dual_route, tag) for tag in ("A", "B3/2")},
    **{f"stieltjes-{tag}": (stieltjes, tag) for tag in ("A", "B3/2")},
}
EXACT_OPS = {
    "quantization": (quantization,),
    "routes-A": (routes, "A"),
    "routes-B-symbolic": (routes, "B-symbolic"),
}


def plan(workload: str, seed: int) -> list[str]:
    """The seeded order of one batch: operation names, or suite names for
    ``verify-suite``."""
    names = {"verify-suite": SUITES, "expansion-scale": tuple(EXPANSION_OPS),
             "exact-scale": tuple(EXACT_OPS)}[workload]
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


def operations(workload: str, order: list[str], workdir: str):
    """(name, thunk) pairs of one batch in the planned order."""
    if workload == "verify-suite":
        return [("verify", lambda: _verify_suite(order, workdir))]
    ops = EXPANSION_OPS if workload == "expansion-scale" else EXACT_OPS
    return [(name, (lambda fn=ops[name][0], args=ops[name][1:]: fn(*args))) for name in order]
