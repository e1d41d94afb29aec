"""Command-line interface.

Subcommands: poly, eigen, residual, second-solution, coeffs, reconstruct,
lorentz, scan, verify.  Every subcommand supports --format json|csv and
--out; doubles are printed with 17 significant digits and rationals as
"p/q" strings, so identical configurations produce byte-identical output.
Exit codes: 0 success (verify: no failed check), 1 computation failure or
failed checks, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import expand, lorentz, spectral, verify, wilson
from .errors import ParityWilsonError
from .numcore import BParamPolynomial, RationalPolynomial, frac_to_str
from .wilson import CASE_A, CASE_B, WilsonFamily

OUT_DIR_ENV = "PARITYWILSON_OUT"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _poly_strs(poly) -> list:
    if isinstance(poly, BParamPolynomial):
        return [[frac_to_str(c) for c in coef.coeffs] or ["0"] for coef in poly.coeffs]
    return [frac_to_str(c) for c in poly.coeffs]


@dataclass
class RunConfig:
    """Resolved run options: config-file values overridden by flags."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    panel_order: int = 24
    x_max: float | None = None
    max_panels: int = 4000
    format: str = "json"
    format_requested: bool = False  # by --format or the config file
    out_dir: str | None = None

    def quadrature(self) -> expand.QuadratureConfig:
        return expand.QuadratureConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol,
                                       panel_order=self.panel_order, x_max=self.x_max,
                                       max_panels=self.max_panels)


_CONFIG_KEYS = {"rel_tol": float, "abs_tol": float, "panel_order": int,
                "x_max": float, "max_panels": int, "format": str, "out_dir": str}


def load_config(path: str) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
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
            values[key] = _CONFIG_KEYS[key](val.strip())
    return values


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, val in load_config(args.config).items():
            setattr(cfg, key, val)
            cfg.format_requested |= key == "format"
    for key in ("rel_tol", "abs_tol", "panel_order", "x_max", "max_panels"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "format", None):
        cfg.format = args.format
        cfg.format_requested = True
    if cfg.out_dir is None:
        cfg.out_dir = os.environ.get(OUT_DIR_ENV)
    return cfg


def _emit(text: str, args, cfg: RunConfig) -> None:
    out = getattr(args, "out", None)
    if out:
        if cfg.out_dir and not os.path.isabs(out):
            out = os.path.join(cfg.out_dir, out)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _family_from_args(args) -> WilsonFamily:
    if args.case == CASE_A:
        return WilsonFamily.case_a()
    if getattr(args, "symbolic", False):
        return WilsonFamily.case_b()
    if args.b is None:
        raise ValueError("case B needs --b (or --symbolic where supported)")
    return WilsonFamily.case_b(Fraction(args.b))


def _b_str(family: WilsonFamily):
    return None if family.b is None else frac_to_str(family.b)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_poly(args, cfg: RunConfig) -> int:
    family = _family_from_args(args)
    table = wilson.monic_from_recurrence(family, args.n, form=args.form)
    entries = [{"n": n, "coeffs": _poly_strs(table[n])} for n in range(args.n + 1)]
    if cfg.format == "json":
        _emit(_json({"case": family.case, "B": _b_str(family), "form": args.form,
                     "entries": entries}), args, cfg)
    else:
        rows = []
        for n in range(args.n + 1):
            for power, c in enumerate(table[n].coeffs):
                val = frac_to_str(c) if not isinstance(c, RationalPolynomial) \
                    else ";".join(frac_to_str(x) for x in c.coeffs)
                rows.append([n, power, val])
        _emit(_csv(rows, ["n", "power", "coeff"]), args, cfg)
    return 0


def _cmd_eigen(args, cfg: RunConfig) -> int:
    if args.case == CASE_A:
        rec = spectral.eigenfunction_case_a(args.n)
    else:
        b = None if getattr(args, "symbolic", False) else (
            Fraction(args.b) if args.b is not None else None)
        rec = spectral.eigenfunction_case_b(args.n, b)
    poly = _poly_strs(rec.poly) if rec.poly is not None else None
    obj = {"ell1": rec.ell1, "alpha": frac_to_str(rec.alpha), "poly": poly}
    if rec.case == CASE_B:
        obj["B"] = None if rec.b is None else frac_to_str(rec.b)
    obj["prefactor"] = rec.prefactor
    if rec.rational_g:
        obj["z_space_part"] = "1/(z^2 - 1/4)"
    if cfg.format == "json":
        _emit(_json(obj), args, cfg)
    else:
        rows = [[p, c] for p, c in enumerate(poly or [])]
        _emit(_csv(rows, ["power", "coeff"]), args, cfg)
    return 0


def _cmd_residual(args, cfg: RunConfig) -> int:
    family = _family_from_args(args)
    b = None if family.case == CASE_A else family.b
    ell1 = args.ell1 if args.ell1 is not None else 2 * args.n + 1
    rows = []
    if args.space == "z":
        g = spectral.g_callable(family.case, args.n, b)
        for k in range(args.count):
            z = args.start + k * args.step
            val = complex(spectral.residual_g(family.case, g, ell1, z,
                                              b=None if b is None else float(b)))
            rows.append([_fmt_float(z), _fmt_float(val.real), _fmt_float(val.imag),
                         _fmt_float(abs(val))])
        header = ["z", "re", "im", "abs"]
    else:
        rec = spectral.eigenfunction(family.case, args.n, b)
        f = rec.as_callable()
        bf = 0.0 if b is None else float(b)
        for k in range(args.count):
            w = args.start + k * args.step
            val = complex(spectral.residual_master(f, bf, args.m, ell1, w))
            rows.append([_fmt_float(w), _fmt_float(val.real), _fmt_float(val.imag),
                         _fmt_float(abs(val))])
        header = ["W", "re", "im", "abs"]
    if cfg.format == "json":
        _emit(_json({"case": family.case, "B": _b_str(family), "n": args.n,
                     "ell1": _fmt_float(ell1), "space": args.space,
                     "rows": [dict(zip(header, r)) for r in rows]}), args, cfg)
    else:
        _emit(_csv(rows, header), args, cfg)
    return 0


def _cmd_second_solution(args, cfg: RunConfig) -> int:
    u, h = spectral.second_solution(args.n, Fraction(args.z0), args.length)
    g = spectral.g_callable(CASE_A, args.n)
    pts = u.points()
    if cfg.format == "json":
        obj = {"n": args.n, "z0": frac_to_str(Fraction(args.z0)), "length": args.length,
               "rows": [{"z": frac_to_str(z), "g": frac_to_str(g(z)),
                         "u": frac_to_str(u(z)), "h": frac_to_str(h(z))} for z in pts]}
        _emit(_json(obj), args, cfg)
    else:
        rows = [[_fmt_float(z), _fmt_float(g(z)), _fmt_float(u(z)), _fmt_float(h(z))]
                for z in pts]
        _emit(_csv(rows, ["z", "g", "u", "h"]), args, cfg)
    return 0


def _cmd_coeffs(args, cfg: RunConfig) -> int:
    family = _family_from_args(args)
    table = expand.parity_coefficients(family, args.n_max, cfg.quadrature(),
                                       route=args.route)
    entries = [{"n": n, "re": _fmt_float(c.real), "im": _fmt_float(c.imag),
                "err": _fmt_float(e)} for n, c, e in table.entries]
    if cfg.format == "json":
        _emit(_json({"case": family.case, "B": _b_str(family), "route": args.route,
                     "entries": entries}), args, cfg)
    else:
        rows = [[e["n"], e["re"], e["im"], e["err"]] for e in entries]
        _emit(_csv(rows, ["n", "re", "im", "err"]), args, cfg)
    return 0


def _cmd_reconstruct(args, cfg: RunConfig) -> int:
    family = _family_from_args(args)
    residuals = expand.reconstruction_residual(family, args.n_max, cfg.quadrature())
    if cfg.format == "json":
        _emit(_json({"case": family.case, "B": _b_str(family),
                     "residuals": [{"N": n, "residual": _fmt_float(r)}
                                   for n, r in enumerate(residuals)]}), args, cfg)
    else:
        rows = [[n, _fmt_float(r)] for n, r in enumerate(residuals)]
        _emit(_csv(rows, ["N", "residual"]), args, cfg)
    return 0


def _parse_rep(text: str):
    if text == "vector":
        return lorentz.build_vector_rep()
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("`--rep` expects 'vector' or 'j1,j2'")
    return lorentz.build_spin_rep(Fraction(parts[0]), Fraction(parts[1]))


def _cmd_lorentz(args, cfg: RunConfig) -> int:
    rep = _parse_rep(args.rep)
    audit = lorentz.algebra_audit(rep)
    ext = lorentz.n0_extraction(rep)
    if cfg.format == "json":
        obj = {"rep": rep.label, "dim": rep.dim,
               "relations": [{"relation": k, "residual": _fmt_float(v)}
                             for k, v in audit.items()],
               "spin0_extraction": {
                   "residual_consistent": _fmt_float(ext.residual_consistent),
                   "residual_printed_sign": _fmt_float(ext.residual_printed_sign),
                   "traceless_residual": _fmt_float(ext.traceless_residual)}}
        _emit(_json(obj), args, cfg)
    else:
        rows = [[k, _fmt_float(v)] for k, v in audit.items()]
        rows.append(["n0-consistent", _fmt_float(ext.residual_consistent)])
        rows.append(["n0-printed-sign", _fmt_float(ext.residual_printed_sign)])
        rows.append(["n0-traceless", _fmt_float(ext.traceless_residual)])
        _emit(_csv(rows, ["relation", "residual"]), args, cfg)
    return 0


def _cmd_scan(args, cfg: RunConfig) -> int:
    grid = None
    if args.grid_start is not None:
        grid = [args.grid_start + args.grid_step * k for k in range(args.grid_count)]
    rep = spectral.conjecture_scan(args.b_float, args.m, args.n, args.degree, grid=grid)
    obj = {"B": _fmt_float(rep.b), "M": _fmt_float(rep.m), "n": rep.n,
           "degree": rep.degree, "ell1_sq": _fmt_float(rep.ell1_sq),
           "residual": _fmt_float(rep.residual), "iterations": rep.iterations,
           "converged": rep.converged}
    if cfg.format == "json":
        _emit(_json(obj), args, cfg)
    else:
        _emit(_csv([[k, v] for k, v in obj.items()], ["field", "value"]), args, cfg)
    return 0


def emit_traceability() -> list[dict]:
    """Coverage table: every in-scope identity anchor with its check ids."""
    return [{"anchor": anchor, "checks": list(checks), "note": note}
            for anchor, checks, note in verify.traceability_rows()]


def _cmd_verify(args, cfg: RunConfig) -> int:
    if args.traceability:
        rows = emit_traceability()
        if cfg.format == "json":
            _emit(_json(rows), args, cfg)
        else:
            _emit(_csv([[r["anchor"], ";".join(r["checks"]), r["note"]] for r in rows],
                       ["anchor", "checks", "note"]), args, cfg)
        return 0
    suites = args.suite.split(",") if args.suite else ["all"]
    report = verify.run_suites(suites, extended=args.extended,
                               threshold_scale=args.threshold_scale)
    lines = []
    for r in report.results:
        status = r.status.upper()
        measured = r.measured if isinstance(r.measured, str) else _fmt_float(r.measured)
        threshold = r.threshold if isinstance(r.threshold, str) else _fmt_float(r.threshold)
        lines.append(f"[{status:4s}] {r.check_id:38s} {r.anchor:7s} "
                     f"measured={measured} threshold={threshold}")
        if r.status == "fail" and r.note:
            lines.append(f"       note: {r.note}")
    for name, secs in report.elapsed.items():
        lines.append(f"# suite {name}: {secs:.2f}s")
    n_fail = len(report.failed)
    lines.append(f"# {len(report.results)} checks, {n_fail} failed")
    text = "\n".join(lines) + "\n"
    # JSON goes to --out with the text summary on stdout, or alone to
    # stdout when asked for without --out; otherwise the text report
    out = getattr(args, "out", None)
    as_json = cfg.format == "json" and bool(out or cfg.format_requested)
    if as_json:
        payload = [{"check": r.check_id, "anchor": r.anchor, "status": r.status,
                    "measured": r.measured if isinstance(r.measured, str)
                    else _fmt_float(r.measured),
                    "threshold": r.threshold if isinstance(r.threshold, str)
                    else _fmt_float(r.threshold),
                    "note": r.note} for r in report.results]
        _emit(_json(payload), args, cfg)
    if out or not as_json:
        sys.stdout.write(text)
    return report.exit_code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp, with_quadrature=False):
    sp.add_argument("--format", choices=["json", "csv"], default=None)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    sp.add_argument("--config", default=None, help="flat key=value config file")
    if with_quadrature:
        sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
        sp.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
        sp.add_argument("--panel-order", dest="panel_order", type=int, default=None)
        sp.add_argument("--x-max", dest="x_max", type=float, default=None)
        sp.add_argument("--max-panels", dest="max_panels", type=int, default=None)


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
    sp.add_argument("--b", dest="b_float", type=float, required=True)
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


def run_subcommand(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        return args.fn(args, cfg)
    except (ParityWilsonError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
