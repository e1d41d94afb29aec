"""Command-line interface.

Subcommands: poly, eigen, residual, second-solution, coeffs, reconstruct,
lorentz, scan, verify.  Each subcommand computes a CSV header and rows,
and the JSON object where its JSON shape is not those rows as records;
:func:`_emit`, the one output path, writes either as --format json|csv
to stdout or to --out.  Doubles are printed with 17 significant digits,
rationals as "p/q" strings and coefficient polynomials in B as lists of
them (";"-joined in CSV); CSV quotes a field only when it contains a
comma or a quote.  Identical configurations produce byte-identical
output.  Exit codes: 0 success (verify: no failed check), 1 computation
failure or failed checks, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import pickle
import re
import signal
import sys
import warnings
from fractions import Fraction

from . import expand, lorentz, spectral, verify, wilson
from .errors import ParityWilsonError
from .numcore import RationalPolynomial, frac_to_str
from .wilson import CASE_A, CASE_B, WilsonFamily

OUT_DIR_ENV = "PARITYWILSON_OUT"

_FORMATS = ("json", "csv")


def _format(value: str) -> str:
    if value not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, got {value!r}")
    return value


# the QuadratureConfig fields a flag (--rel-tol, ...) or the config file may set
_QUADRATURE_OPTIONS = {"rel_tol": float, "abs_tol": float, "panel_order": int,
                      "x_max": float, "max_panels": int}
_CONFIG_KEYS = {**_QUADRATURE_OPTIONS, "format": _format, "out_dir": str}


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def load_config(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored.  Values are
    converted and checked as their flags are; an error names the file and
    the line."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val.strip())
                if key in _QUADRATURE_OPTIONS:
                    expand.QuadratureConfig(**{key: values[key]})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _resolve_config(args) -> None:
    """Config-file options where no flag set them; out_dir defaults to $PARITYWILSON_OUT."""
    values = load_config(args.config) if args.config else {}
    args.out_dir = values.pop("out_dir", os.environ.get(OUT_DIR_ENV))
    for key, val in values.items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)


def _quadrature(args) -> expand.QuadratureConfig:
    return expand.QuadratureConfig(**{key: getattr(args, key) for key in _QUADRATURE_OPTIONS
                                      if getattr(args, key) is not None})


def _value(v):
    """JSON form of an output value: rationals as "p/q", a coefficient
    polynomial in B as the list of its coefficients (["0"] when zero)."""
    if isinstance(v, Fraction):
        return frac_to_str(v)
    if isinstance(v, RationalPolynomial):
        return [frac_to_str(c) for c in v.coeffs] or ["0"]
    if isinstance(v, dict):
        return {k: _value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_value(x) for x in v]
    return v


def _cell(v) -> str:
    v = _value(v)
    return ";".join(v) if isinstance(v, list) else str(v)


def _records(header: list[str], rows) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _emit(args, header: list[str], rows, obj=None, text=None) -> None:
    """The one output path: ``header`` and ``rows`` as CSV, or ``obj`` as
    JSON (default: the rows as records), to --out resolved against
    ``args.out_dir``, else to stdout.  ``text`` is verify's report: it is
    printed instead of the data when neither a format nor --out was asked
    for, and beside a --out file."""
    out = args.out and os.path.join(args.out_dir or "", args.out)  # an absolute --out stays
    as_data = text is None or bool(out) or args.format is not None
    if as_data:
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_cell(c) for c in row] for row in rows)
            body = buf.getvalue()
        else:
            body = json.dumps(_value(_records(header, rows) if obj is None else obj),
                              indent=2) + "\n"
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
    if text is not None and (out or not as_data):
        sys.stdout.write(text)


def _family_from_args(args) -> WilsonFamily:
    if args.case == CASE_A:
        return WilsonFamily.case_a()
    if getattr(args, "symbolic", False):
        return WilsonFamily.case_b()
    if args.b is None:
        raise ValueError("case B needs --b (or --symbolic where supported)")
    return WilsonFamily.case_b(Fraction(args.b))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_poly(args) -> int:
    family = _family_from_args(args)
    table = wilson.monic_from_recurrence(family, args.n, form=args.form)
    entries = [[n, list(table[n].coeffs)] for n in range(args.n + 1)]
    rows = [[n, power, c] for n, coeffs in entries for power, c in enumerate(coeffs)]
    _emit(args, ["n", "power", "coeff"], rows,
          {"case": family.case, "B": family.b, "form": args.form,
           "entries": _records(["n", "coeffs"], entries)})
    return 0


def _cmd_eigen(args) -> int:
    family = _family_from_args(args)
    rec = spectral.eigenfunction(family.case, args.n, family.b)
    coeffs = list(rec.poly.coeffs) if rec.poly is not None else None
    obj = {"ell1": rec.ell1, "alpha": rec.alpha, "poly": coeffs}
    if rec.case == CASE_B:
        obj["B"] = rec.b
    obj["prefactor"] = rec.prefactor
    if rec.rational_g:
        obj["z_space_part"] = "1/(z^2 - 1/4)"
    _emit(args, ["power", "coeff"], list(enumerate(coeffs or [])), obj)
    return 0


def _cmd_residual(args) -> int:
    family = _family_from_args(args)
    b = family.b
    ell1 = args.ell1 if args.ell1 is not None else 2 * args.n + 1
    if args.space == "z":
        g = spectral.g_callable(family.case, args.n, b)
        bf = None if b is None else float(b)
        header = ["z", "re", "im", "abs"]

        def residual(z):
            return spectral.residual_g(family.case, g, ell1, z, b=bf)
    else:
        f = spectral.eigenfunction(family.case, args.n, b).as_callable()
        bf = 0.0 if b is None else float(b)
        header = ["W", "re", "im", "abs"]

        def residual(w):
            return spectral.residual_master(f, bf, args.m, ell1, w)
    rows = []
    for k in range(args.count):
        x = args.start + k * args.step
        val = complex(residual(x))
        rows.append([_fmt_float(v) for v in (x, val.real, val.imag, abs(val))])
    _emit(args, header, rows,
          {"case": family.case, "B": family.b, "n": args.n, "ell1": _fmt_float(ell1),
           "space": args.space, "rows": _records(header, rows)})
    return 0


def _cmd_second_solution(args) -> int:
    u, h = spectral.second_solution(args.n, Fraction(args.z0), args.length)
    g = spectral.g_callable(CASE_A, args.n)
    header = ["z", "g", "u", "h"]
    rows = [[z, g(z), u(z), h(z)] for z in u.points()]
    _emit(args, header, rows, {"n": args.n, "z0": Fraction(args.z0),
                               "length": args.length, "rows": _records(header, rows)})
    return 0


def _cmd_coeffs(args) -> int:
    family = _family_from_args(args)
    table = expand.parity_coefficients(family, args.n_max, _quadrature(args),
                                       route=args.route)
    header = ["n", "re", "im", "err"]
    rows = [[n, _fmt_float(c.real), _fmt_float(c.imag), _fmt_float(e)]
            for n, c, e in table.entries]
    _emit(args, header, rows, {"case": family.case, "B": family.b, "route": args.route,
                               "entries": _records(header, rows)})
    return 0


def _cmd_reconstruct(args) -> int:
    family = _family_from_args(args)
    residuals = expand.reconstruction_residual(family, args.n_max, _quadrature(args))
    header = ["N", "residual"]
    rows = [[n, _fmt_float(r)] for n, r in enumerate(residuals)]
    _emit(args, header, rows, {"case": family.case, "B": family.b,
                               "residuals": _records(header, rows)})
    return 0


def _parse_rep(text: str):
    if text == "vector":
        return lorentz.build_vector_rep()
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("`--rep` expects 'vector' or 'j1,j2'")
    return lorentz.build_spin_rep(Fraction(parts[0]), Fraction(parts[1]))


# spin-0 extraction residuals: CSV relation name and JSON key (a field of
# lorentz.SpinZeroExtraction)
_N0_ROWS = (("n0-consistent", "residual_consistent"),
            ("n0-printed-sign", "residual_printed_sign"),
            ("n0-traceless", "traceless_residual"))


def _cmd_lorentz(args) -> int:
    rep = _parse_rep(args.rep)
    ext = lorentz.n0_extraction(rep)
    header = ["relation", "residual"]
    relations = [[k, _fmt_float(v)] for k, v in lorentz.algebra_audit(rep).items()]
    spin0 = {key: _fmt_float(getattr(ext, key)) for _, key in _N0_ROWS}
    _emit(args, header, relations + [[name, spin0[key]] for name, key in _N0_ROWS],
          {"rep": rep.label, "dim": rep.dim, "relations": _records(header, relations),
           "spin0_extraction": spin0})
    return 0


def _cmd_scan(args) -> int:
    b = float(Fraction(args.b))
    if args.grid_start is None:
        grid = spectral.default_w_grid(b, count=args.grid_count, step=args.grid_step)
    else:
        grid = [args.grid_start + args.grid_step * k for k in range(args.grid_count)]
    rep = spectral.conjecture_scan(b, args.m, args.n, args.degree, grid=grid)
    obj = {"B": _fmt_float(rep.b), "M": _fmt_float(rep.m), "n": rep.n,
           "degree": rep.degree, "ell1_sq": _fmt_float(rep.ell1_sq),
           "residual": _fmt_float(rep.residual), "iterations": rep.iterations,
           "converged": rep.converged}
    _emit(args, ["field", "value"], list(obj.items()), obj)
    return 0


def _verify_report(names: list[str], **options) -> verify.VerificationReport:
    """``verify.run_suites(names, **options)`` on W = min(usable CPUs, suites)
    workers, this process and W - 1 forked children, suite i on worker i mod W
    (fixed, so each worker's work repeats run to run).  What no worker delivers
    this process runs itself, in order, so an error is the serial run's error."""
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1,
                  len(names))

    def reports(worker):  # by position
        return {i: verify.run_suites([names[i]], **options)
                for i in range(worker, len(names), workers)}
    done, children = {}, []  # reports by position; (pid, read end of its pipe)
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns on a fork beside another thread: the only one
                    # here is OpenBLAS's pool, which stops at a fork (pthread_atfork)
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process to be had: its suites are run below
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:  # the child writes nothing but its reports
                try:
                    warnings.simplefilter("error")  # a warning is printed by the parent's run
                    os.write(write_fd, pickle.dumps(reports(worker)))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        with contextlib.suppress(Exception):  # a failing suite runs again below
            done.update(reports(0))
        for _, pipe in children:
            with contextlib.suppress(EOFError, pickle.UnpicklingError):  # a child died
                done.update(pickle.load(pipe))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    parts = [done.get(i) or verify.run_suites([name], **options) for i, name in enumerate(names)]
    return verify.VerificationReport([r for part in parts for r in part.results],
                                     {k: v for part in parts for k, v in part.elapsed.items()})


def _cmd_verify(args) -> int:
    if args.traceability:
        _emit(args, ["anchor", "checks", "note"], verify.TRACEABILITY)
        return 0
    names = verify.select_suites(args.suite.split(",") if args.suite else None)
    report = _verify_report(names, extended=args.extended,
                            threshold_scale=args.threshold_scale)
    rows, lines = [], []
    for r in report.results:
        measured = r.measured if isinstance(r.measured, str) else _fmt_float(r.measured)
        threshold = r.threshold if isinstance(r.threshold, str) else _fmt_float(r.threshold)
        rows.append([r.check_id, r.anchor, r.status, measured, threshold, r.note])
        lines.append(f"[{r.status.upper():4s}] {r.check_id:38s} {r.anchor:7s} "
                     f"measured={measured} threshold={threshold}")
        if r.status == "fail" and r.note:
            lines.append(f"       note: {r.note}")
    for name, secs in report.elapsed.items():
        lines.append(f"# suite {name}: {secs:.2f}s")
    lines.append(f"# {len(report.results)} checks, {len(report.failed)} failed")
    _emit(args, ["check", "anchor", "status", "measured", "threshold", "note"], rows,
          text="\n".join(lines) + "\n")
    return report.exit_code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp, with_quadrature=False):
    sp.add_argument("--format", choices=_FORMATS, default=None)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.add_argument("--config", default=None, help="flat key=value config file")
    if with_quadrature:
        for key, typ in _QUADRATURE_OPTIONS.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=typ, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritywilson",
        description="Verification suite for the monic Wilson polynomial "
                    "families, the boost-decomposition eigenproblems, and "
                    "the operator-algebra audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poly", help="monic family tables")
    sp.add_argument("--case", choices=[CASE_A, CASE_B], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", default=None, help="case B parameter, e.g. 3/2")
    sp.add_argument("--symbolic", action="store_true", help="case B symbolic in B")
    sp.add_argument("--form", choices=["corrected", "printed"], default="corrected")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_poly)

    sp = sub.add_parser("eigen", help="eigenpair records")
    sp.add_argument("--case", choices=[CASE_A, CASE_B], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", default=None)
    sp.add_argument("--symbolic", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_eigen)

    sp = sub.add_parser("residual", help="residual tables")
    sp.add_argument("--case", choices=[CASE_A, CASE_B], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", default=None)
    sp.add_argument("--ell1", type=float, default=None)
    sp.add_argument("--space", choices=["z", "w"], default="z")
    sp.add_argument("--m", type=float, default=0.0, help="M value (w space)")
    sp.add_argument("--start", type=float, default=2.0)
    sp.add_argument("--step", type=float, default=0.5)
    sp.add_argument("--count", type=int, default=10)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_residual)

    sp = sub.add_parser("second-solution", help="reduction-of-order lattice solutions")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--z0", default="2")
    sp.add_argument("--length", type=int, default=8)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_second_solution)

    sp = sub.add_parser("coeffs", help="reconstruction coefficients")
    sp.add_argument("--case", choices=[CASE_A, CASE_B], required=True)
    sp.add_argument("--b", default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=6)
    sp.add_argument("--route", choices=["closed_form", "projection", "printed"],
                    default="closed_form")
    _add_common(sp, with_quadrature=True)
    sp.set_defaults(fn=_cmd_coeffs)

    sp = sub.add_parser("reconstruct", help="weighted-L2 reconstruction residuals")
    sp.add_argument("--case", choices=[CASE_A, CASE_B], required=True)
    sp.add_argument("--b", default=None)
    sp.add_argument("--n-max", dest="n_max", type=int, default=12)
    _add_common(sp, with_quadrature=True)
    sp.set_defaults(fn=_cmd_reconstruct)

    sp = sub.add_parser("lorentz", help="matrix audits of the operator algebra")
    sp.add_argument("--rep", required=True, help="'vector' or 'j1,j2' (e.g. 1/2,1/2)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_lorentz)

    sp = sub.add_parser("scan", help="least-squares eigenvalue scan")
    sp.add_argument("--b", required=True, help="B value, e.g. 1.5 or 3/2")
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--grid-start", dest="grid_start", type=float, default=None)
    sp.add_argument("--grid-step", dest="grid_step", type=float, default=0.5)
    sp.add_argument("--grid-count", dest="grid_count", type=int, default=20)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--suite", default="all",
                    help="comma-separated suite names (default: all); "
                         f"available: {', '.join(verify.SUITES)}")
    sp.add_argument("--extended", action="store_true", help="lift the standard caps")
    sp.add_argument("--threshold-scale", dest="threshold_scale", type=float, default=1.0,
                    help="scale tolerance thresholds (exercises the exit-code contract)")
    sp.add_argument("--traceability", action="store_true",
                    help="emit the anchor-to-check coverage table and exit")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse reads a separate value such as -1/2 as an option, so a
    negative number after an option, ``--z0 -21/2``, becomes
    ``--z0=-21/2``."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run_subcommand(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _resolve_config(args)
        return args.fn(args)
    except (ParityWilsonError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
