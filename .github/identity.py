"""Byte identity of two source trees: CLI output, measure arrays and reprs.

Usage: python .github/identity.py BASE_SRC HEAD_SRC

Runs a fixed list of ``paritywilson`` CLI commands from each ``src``
directory in a fresh process and compares stdout, stderr, exit code and
the ``--out`` files, with only the ``# suite <name>: <seconds>s`` timing
lines and the path of the working directory in stderr masked.  Then hashes (sha256) every array of the shared measures of
four families at bounds 8-64 under the one quadrature configuration, the
Gram included, the Gauss-Legendre node rules of orders 3-129, and the exact
integer grids (class, ``_w``, ``_den``, ``_c``) of the corrected, printed
and reflected recurrence tables (Case A to n = 100, symbolic B and the
three numeric B of ``verify`` to n = 40) and of the quantization
certificates P at n <= 40 (at ell1 = 2n + 1, where P is zero, and at
ell1 + 1/1000), from each tree.  Last come library reprs of the same four
families: ``inner_product`` (value, error and their numpy types) for every
pair of members n <= m <= 40, ``norm_closed_form`` for n <= 70, and
``parity_coefficients`` on its three routes and ``reconstruction_residual``
at n = 5, 12, 24 and 40, each line holding the result or the error raised.  Prints each command or file
that differs, by name, and the first hash or repr line that differs, in
the base tree's order, with both sides and the count of those that do;
exits 1 if any does.  Both trees run on one machine, so there are no
golden files: BLAS rounding may differ between machines, not between the
trees.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    "verify --suite all", "verify --suite all --format json", "verify --suite all --format csv",
    "verify --suite all --extended", "verify --suite all --extended --format json",
    "verify --suite all --extended --format csv",
    # the suites run on forked workers, assigned by position: other orders
    # and counts of suites, and a --out file (compared as a file)
    "verify --suite scan,genfun,tables,lorentz,quantization,second-solution,recurrence,"
    "reconstruction,orthogonality --format json",
    "verify --suite orthogonality,recurrence,second-solution,scan,reconstruction,lorentz,"
    "tables,genfun,quantization --format json",
    "verify --suite lorentz,quantization,reconstruction,genfun,orthogonality,tables,scan,"
    "recurrence,second-solution --format json",
    "verify --suite lorentz,genfun", "verify --suite scan",
    "verify --suite all --format csv --out verify-all.csv",
]
for n in (0, 3, 40):
    COMMANDS.append(f"eigen --case A --n {n}")
    COMMANDS += [f"eigen --case B --n {n} {b}"
                 for b in ("--b=-1/2", "--b 3/2", "--b 73/10", "--symbolic")]
COMMANDS += ["poly --case A --n 40", "poly --case B --n 40 --symbolic"]
# the expansion layer: coefficients and residuals, with the tail bounds in
# their err columns
for family in ("A", "B --b 3/2", "B --b 73/10"):
    COMMANDS += [f"coeffs --case {family} --route closed_form --n-max 40",
                 f"coeffs --case {family} --route projection --n-max 24",
                 f"coeffs --case {family} --route printed"]
COMMANDS += ["reconstruct --case A --n-max 24", "reconstruct --case B --b 3/2 --n-max 24"]
# the coverage table, and the error paths: an unknown suite, case B without
# --b, a degenerate family (sqrt(B + 1) an integer) and --out into a
# directory that does not exist
COMMANDS += ["verify --traceability", "verify --traceability --format csv",
             "verify --suite bogus", "coeffs --case B --n-max 2",
             "reconstruct --case B --b 3 --n-max 4", "eigen --case A --n 1 --out missing/rec.json"]

SUITE_TIME = re.compile(rb"^# suite ([^:\n]*): [0-9.]+s$", re.MULTILINE)

# one line per array or result, its name and its value split by a tab:
# "<family> <bound> <array>", "nodes <order>",
# "grid <table> <family> <n>" or "repr <function> <family> [<route>] <n> [<m>]",
# then a hash or a repr
HASHES = '''
import hashlib
from fractions import Fraction

import numpy as np

from paritywilson import expand, spectral, wilson


def out(*key):
    print(" ".join(map(str, key[:-1])), key[-1], sep="\t")


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


families = [wilson.WilsonFamily.case_a()] + [
    wilson.WilsonFamily.case_b(Fraction(b)) for b in ("-1/2", "3/2", "73/10")]
for family in families:
    for bound in (8, 16, 32, 64):
        m = expand.discrete_measure(family, bound)
        for field in ("x", "weights", "density", "values", "scale", "mass_values"):
            out(family.label(), bound, field, sha(getattr(m, field)))
        out(family.label(), bound, "x_max", float(m.x_max).hex())
        out(family.label(), bound, "gram", sha(*m._gram))
for k in range(3, 130):
    out("nodes", k, sha(*expand._nodes(k)))


def grid_sha(p):
    h = hashlib.sha256(f"{type(p).__name__} {p._w:x} {p._den:x}".encode())
    h.update(" ".join(map(hex, p._c)).encode())
    return h.hexdigest()


for family, n_max in ([(families[0], 100), (wilson.WilsonFamily.case_b(), 40)]
                      + [(family, 40) for family in families[1:]]):
    for kind, table in (("corrected", wilson.monic_from_recurrence(family, n_max)),
                        ("printed", wilson.monic_from_recurrence(family, n_max, "printed")),
                        ("reflected", spectral._reflected_table(family, n_max))):
        for n, p in enumerate(table):
            out("grid", kind, family.label(), n, grid_sha(p))
# P is the zero grid at the eigenvalue; at ell1 + 1/1000 every entry is pinned
for family in families:
    for n in range(41):
        rec = spectral.eigenfunction(family.case, n, family.b)
        for kind, ell1 in (("certificate", 2 * n + 1),
                           ("certificate-perturbed", 2 * n + 1 + Fraction(1, 1000))):
            out("grid", kind, family.label(), n,
                grid_sha(spectral.master_residual_polynomial(rec, ell1)))


def result(call):
    """The repr of each returned value with its type, or the error raised."""
    try:
        values = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr([(type(v).__name__, v.item() if isinstance(v, np.generic) else v)
                 for v in (values if isinstance(values, tuple) else (values,))])


for family in families:
    table = wilson.monic_from_recurrence(family, 40)
    for n in range(41):
        for m in range(n, 41):
            out("repr inner_product", family.label(), n, m,
                result(lambda: expand.inner_product(family, table[n], table[m])))
    for n in range(71):
        out("repr norm_closed_form", family.label(), n,
            result(lambda: wilson.norm_closed_form(family, n)))
# the expansion coefficients and residuals read the float recurrence rows
for family in families:
    for n in (5, 12, 24, 40):
        for route in ("closed_form", "printed", "projection"):
            out("repr parity_coefficients", family.label(), route, n,
                result(lambda: expand.parity_coefficients(family, n, route=route)))
        out("repr reconstruction_residual", family.label(), n,
            result(lambda: expand.reconstruction_residual(family, n)))
'''


def _env(src: Path, out_dir: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src), "PARITYWILSON_OUT": str(out_dir)}


def run_commands(src: Path, work: Path) -> list[tuple[bytes, bytes, int]]:
    """(masked stdout, stderr, exit code) of each command, run in ``work``
    with its --out files going to ``work/files``; the path of ``work`` in
    stderr reads <work>."""
    files = work / "files"
    files.mkdir(parents=True)
    results = []
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "paritywilson.cli", *cmd.split()],
                              cwd=work, env=_env(src, files), capture_output=True)
        results.append((SUITE_TIME.sub(rb"# suite \1: <masked>s", proc.stdout),
                        proc.stderr.replace(bytes(work), b"<work>"), proc.returncode))
    return results


def start_hashes(src: Path, out: Path) -> subprocess.Popen:
    """The hash program on ``src``, in the background, writing to ``out``
    (a file, so that a full pipe never stalls it)."""
    with open(out, "wb") as f:
        return subprocess.Popen([sys.executable, "-c", HASHES], cwd=out.parent,
                                env=_env(src, out.parent), stdout=f, stderr=subprocess.PIPE)


def read_hashes(proc: subprocess.Popen, out: Path) -> dict[str, str]:
    """{line name: hash or repr}, in program order, from a finished hash
    program."""
    _, err = proc.communicate()
    if proc.returncode:
        sys.exit(f"the hashes of {out.stem} failed:\n{err.decode()}")
    return dict(line.split("\t", 1) for line in out.read_text().splitlines())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sides = {"base": Path(argv[0]).resolve(), "head": Path(argv[1]).resolve()}
    for side, src in sides.items():
        if not (src / "paritywilson" / "cli.py").is_file():
            sys.exit(f"{side}: {src} is not a paritywilson src directory")
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        work = {side: Path(tmp, side) for side in sides}
        hashing = {side: start_hashes(src, Path(tmp, f"{side}-hashes.txt"))
                   for side, src in sides.items()}
        runs = {side: run_commands(src, work[side]) for side, src in sides.items()}
        hashes = {side: read_hashes(proc, Path(tmp, f"{side}-hashes.txt"))
                  for side, proc in hashing.items()}
        differs = []
        for cmd, base, head in zip(COMMANDS, runs["base"], runs["head"]):
            differs += [f"differs ({part}): paritywilson {cmd}"
                        for part, b, h in zip(("out", "err", "code"), base, head) if b != h]
        names = sorted({p.name for side in sides for p in (work[side] / "files").iterdir()})
        for name in names:
            base, head = (work[side] / "files" / name for side in sides)
            if not (base.is_file() and head.is_file()
                    and base.read_bytes() == head.read_bytes()):
                differs.append(f"differs (--out file): {name}")
        keys = list(hashes["base"]) + [k for k in hashes["head"] if k not in hashes["base"]]
        changed = [key for key in keys if hashes["base"].get(key) != hashes["head"].get(key)]
        if changed:
            differs.append(f"differs: {changed[0]} (the first of {len(changed)} lines)\n"
                           + "".join(f"  {side}: {hashes[side].get(changed[0], '<missing>')}\n"
                                     for side in sides).rstrip())
    for line in differs:
        print(line)
    reprs = sum(key.startswith("repr ") for key in hashes["head"])
    print(f"{len(COMMANDS)} commands, {len(names)} --out files, "
          f"{len(hashes['head']) - reprs} measure, node and grid hashes and "
          f"{reprs} library reprs compared")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
