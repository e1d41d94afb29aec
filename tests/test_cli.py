"""CLI contract: wire formats, determinism, exit codes, traceability."""

import csv
import json
import os
import re
import subprocess
import sys
import threading
import time
import warnings

import pytest

import paritywilson
from paritywilson import cli, verify
from paritywilson.cli import run_subcommand
from paritywilson.errors import NoConvergence


def run(argv, capsys):
    code = run_subcommand(argv)
    out = capsys.readouterr().out
    return code, out


def test_eigen_wire_format(capsys):
    code, out = run(["eigen", "--case", "A", "--n", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["ell1"] == 5
    assert obj["alpha"] == "8"
    assert obj["poly"] == ["0", "1", "1"]


def test_eigen_case_a_zero_marker(capsys):
    code, out = run(["eigen", "--case", "A", "--n", "0"], capsys)
    obj = json.loads(out)
    assert obj["poly"] is None
    assert obj["z_space_part"] == "1/(z^2 - 1/4)"


def test_poly_contains_seed_coefficient(capsys):
    code, out = run(["poly", "--case", "A", "--n", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "A" and obj["B"] is None
    assert obj["entries"][1]["coeffs"] == ["-3/4", "1"]


def test_poly_case_b_json(capsys):
    code, out = run(["poly", "--case", "B", "--b", "3/2", "--n", "1"], capsys)
    obj = json.loads(out)
    assert obj["B"] == "3/2"
    assert obj["entries"][1]["coeffs"] == ["1", "1"]


def test_poly_symbolic_nested(capsys):
    code, out = run(["poly", "--case", "B", "--symbolic", "--n", "1"], capsys)
    obj = json.loads(out)
    assert obj["entries"][1]["coeffs"][0] == ["1/4", "1/2"]


def test_residual_csv(capsys):
    code, out = run(["residual", "--case", "A", "--n", "2", "--format", "csv",
                     "--count", "3"], capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "z,re,im,abs"
    assert len(lines) == 4
    assert all(line.split(",")[3] == "0" for line in lines[1:])


def test_residual_master_space(capsys):
    code, out = run(["residual", "--case", "B", "--b", "3/2", "--n", "1",
                     "--space", "w", "--start", "2.0", "--count", "4"], capsys)
    obj = json.loads(out)
    assert code == 0
    assert all(float(r["abs"]) < 1e-11 for r in obj["rows"])


def test_second_solution_exact_json(capsys):
    code, out = run(["second-solution", "--n", "0", "--length", "5"], capsys)
    obj = json.loads(out)
    assert obj["rows"][0]["u"] == "0"
    assert obj["rows"][1]["u"] == "1/1680"


def test_second_solution_exact_csv(capsys):
    code, out = run(["second-solution", "--n", "0", "--length", "5", "--format", "csv"],
                    capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    # the same exact lattice values as the JSON, not doubles
    assert [rows[0]["u"], rows[1]["u"]] == ["0", "1/1680"]
    assert rows[1]["z"] == "3"


def test_coeffs_wire_format(capsys):
    code, out = run(["coeffs", "--case", "A", "--n-max", "2"], capsys)
    obj = json.loads(out)
    assert obj["entries"][0] == {"n": 0, "re": "-0", "im": "-1", "err": "0"}
    assert {"n", "re", "im", "err"} == set(obj["entries"][1])


def test_reconstruct_csv(capsys):
    code, out = run(["reconstruct", "--case", "A", "--n-max", "3",
                     "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "N,residual"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == sorted(vals, reverse=True)


def test_lorentz_report(capsys):
    code, out = run(["lorentz", "--rep", "1/2,1/2"], capsys)
    obj = json.loads(out)
    assert obj["dim"] == 4
    assert all(float(r["residual"]) <= 1e-12 for r in obj["relations"])
    assert float(obj["spin0_extraction"]["residual_printed_sign"]) > 1.0


def test_scan_report(capsys):
    code, out = run(["scan", "--b", "0.0", "--n", "1", "--degree", "1"], capsys)
    obj = json.loads(out)
    assert abs(float(obj["ell1_sq"]) - 9.0) < 1e-8


def test_scan_b_takes_a_fraction(capsys):
    argv = ["scan", "--n", "1", "--degree", "1", "--b"]
    assert run_subcommand(argv + ["3/2"]) == 0
    fraction = capsys.readouterr().out
    assert run_subcommand(argv + ["1.5"]) == 0
    assert capsys.readouterr().out == fraction
    assert json.loads(fraction)["B"] == "1.5"


def test_scan_grid_flags_apply_without_grid_start(capsys):
    argv = ["scan", "--b", "0", "--n", "1", "--degree", "1"]
    assert run_subcommand(argv) == 0
    default = capsys.readouterr().out
    assert run_subcommand(argv + ["--grid-count", "20", "--grid-step", "0.5"]) == 0
    assert capsys.readouterr().out == default
    assert run_subcommand(argv + ["--grid-step", "0.25"]) == 0
    assert capsys.readouterr().out != default
    # degree 1 has three unknowns: the coefficients and ell_1^2
    assert run_subcommand(argv + ["--grid-count", "2"]) == 1
    assert "fewer points than unknowns" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path, capsys):
    # each command twice in one process, so the second run reads warm caches
    for name, argv in (("coeffs", ["coeffs", "--case", "B", "--b", "3/2", "--n-max", "3"]),
                       ("verify", ["verify", "--suite", "all", "--format", "json"]),
                       ("reconstruct", ["reconstruct", "--case", "B", "--b", "3/2",
                                        "--n-max", "24"])):
        paths = [tmp_path / f"{name}-{k}.json" for k in range(2)]
        codes = [run_subcommand(argv + ["--out", str(p)]) for p in paths]
        capsys.readouterr()
        assert codes[0] == codes[1] and (name == "verify" or codes[0] == 0), name
        assert paths[0].read_bytes() == paths[1].read_bytes(), name


def test_out_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARITYWILSON_OUT", str(tmp_path))
    code = run_subcommand(["eigen", "--case", "A", "--n", "1", "--out", "rec.json"])
    assert code == 0
    assert json.loads((tmp_path / "rec.json").read_text())["ell1"] == 3
    # --format sets the format under the directory, and an absolute --out stays
    assert run_subcommand(["poly", "--case", "A", "--n", "1", "--format", "csv",
                           "--out", "p1.csv"]) == 0
    assert (tmp_path / "p1.csv").read_text() == "n,power,coeff\n0,0,1\n1,0,-3/4\n1,1,1\n"
    elsewhere = tmp_path / "sub"
    elsewhere.mkdir()
    assert run_subcommand(["eigen", "--case", "A", "--n", "1",
                           "--out", str(elsewhere / "rec.json")]) == 0
    assert json.loads((elsewhere / "rec.json").read_text())["ell1"] == 3


def test_usage_error_exit_code(capsys):
    assert run_subcommand(["no-such-command"]) == 2
    assert run_subcommand([]) == 2
    capsys.readouterr()


def test_computation_failure_exit_code(capsys):
    # sqrt(B+1) integer: degenerate family must fail cleanly
    code = run_subcommand(["coeffs", "--case", "B", "--b", "0", "--n-max", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "degenerate" in err.lower() or "integer" in err.lower()


def test_case_b_requires_b(capsys):
    for argv in (["poly", "--n", "1"], ["eigen", "--n", "1"], ["residual", "--n", "1"],
                 ["coeffs", "--n-max", "1"], ["reconstruct", "--n-max", "1"]):
        assert run_subcommand(argv + ["--case", "B"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "case B needs --b" in captured.err, argv


def test_verify_subset_and_exit_codes(capsys):
    code, out = run(["verify", "--suite", "lorentz"], capsys)
    assert code == 0
    assert "[PASS] lorentz-audit" in out
    # the reconstruction suite holds the two expected failures
    code, out = run(["verify", "--suite", "reconstruction"], capsys)
    assert code == 1
    assert "[FAIL] reconstruction-drop-a" in out


def test_verify_json_goes_to_stdout_without_out(capsys):
    code, out = run(["verify", "--suite", "lorentz", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {r["check"] for r in rows} >= {"lorentz-audit", "lorentz-n0"}
    assert all(r["status"] == "pass" for r in rows)


def test_verify_json_out_file_keeps_text_summary(tmp_path, capsys):
    path = tmp_path / "verify.json"
    code, out = run(["verify", "--suite", "lorentz", "--format", "json",
                     "--out", str(path)], capsys)
    assert code == 0
    assert "[PASS] lorentz-audit" in out and out.rstrip().endswith("0 failed")
    assert json.loads(path.read_text())[0]["check"] == "lorentz-audit"


def test_verify_csv_to_stdout(capsys):
    code, out = run(["verify", "--suite", "lorentz", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert list(rows[0]) == ["check", "anchor", "status", "measured", "threshold", "note"]
    assert rows[0]["check"] == "lorentz-audit" and rows[0]["anchor"] == "eq-10"
    assert all(r["status"] == "pass" for r in rows)
    # this note holds a comma, so the field is quoted
    assert rows[0]["note"] == "all commutator relations, three representations"


def test_verify_csv_out_file_keeps_text_summary(tmp_path, capsys):
    path = tmp_path / "verify.csv"
    code, out = run(["verify", "--suite", "lorentz", "--format", "csv",
                     "--out", str(path)], capsys)
    assert code == 0
    assert "[PASS] lorentz-audit" in out and out.rstrip().endswith("0 failed")
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [r["check"] for r in rows][:2] == ["lorentz-audit", "lorentz-n0"]


def test_eigen_symbolic_csv_joins_b_coefficients(capsys):
    code, out = run(["eigen", "--case", "B", "--symbolic", "--n", "2", "--format", "csv"],
                    capsys)
    assert code == 0
    assert out.splitlines()[:2] == ["power,coeff", "0,0;1/2;1/6"]
    _, poly_out = run(["poly", "--case", "B", "--symbolic", "--n", "2", "--format", "csv"],
                      capsys)
    assert "2,0,-3/16;-1/4;1/6" in poly_out.splitlines()


@pytest.mark.parametrize("argv", [
    ["poly", "--case", "A", "--n", "3"],
    ["poly", "--case", "B", "--symbolic", "--n", "2"],
    ["eigen", "--case", "B", "--symbolic", "--n", "2"],
    ["eigen", "--case", "B", "--b", "3/2", "--n", "2"],
    ["residual", "--case", "B", "--b", "3/2", "--n", "1", "--space", "w", "--count", "3"],
    ["second-solution", "--n", "1", "--length", "4"],
    ["coeffs", "--case", "A", "--n-max", "2"],
    ["reconstruct", "--case", "A", "--n-max", "2"],
    ["lorentz", "--rep", "vector"],
    ["scan", "--b", "0.0", "--n", "1", "--degree", "1"],
    ["verify", "--suite", "lorentz,genfun"],
    ["verify", "--traceability"],
], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_csv_rows_have_the_header_width(argv, capsys):
    code, out = run(argv + ["--format", "csv"], capsys)
    assert code in (0, 1)
    header, *rows = csv.reader(out.splitlines())
    assert rows
    assert all(len(row) == len(header) for row in rows)


def test_verify_unknown_suite(capsys):
    assert run_subcommand(["verify", "--suite", "bogus"]) == 1
    capsys.readouterr()


def test_unknown_suite_is_refused_before_any_suite_runs(monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(verify.SUITES, "orthogonality", (lambda results: calls.append(1),))
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verify.run_suites(["orthogonality", "bogus"])
    assert run_subcommand(["verify", "--suite", "orthogonality,bogus"]) == 1
    assert "unknown suite 'bogus'" in capsys.readouterr().err
    assert calls == []


def test_traceability_complete(capsys):
    code, out = run(["verify", "--traceability"], capsys)
    assert code == 0
    rows = json.loads(out)
    by_anchor = {r["anchor"]: r for r in rows}
    for anchor in verify.REQUIRED_ANCHORS:
        assert anchor in by_anchor, f"missing row for {anchor}"
        assert by_anchor[anchor]["checks"], f"{anchor} has no checks"
    # the explicitly out-of-scope rows still appear, with notes
    assert "out-of-scope" in by_anchor["eq-21"]["note"]


def test_traceability_check_ids_exist(capsys):
    # every check id referenced in the table is produced by the full suite
    referenced = {check for _, checks, _ in verify.TRACEABILITY for check in checks}
    produced = {result.check_id for result in verify.run_suites().results}
    assert referenced <= produced


def test_traceability_cli_output(capsys):
    code, out = run(["verify", "--traceability"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert any(r["anchor"] == "eq-28" for r in rows)


@pytest.mark.parametrize("argv", [
    ["coeffs", "--case", "A", "--n-max", "70"],
    ["reconstruct", "--case", "B", "--b", "3/2", "--n-max", "70"],
], ids=["coeffs_A", "reconstruct_B"])
def test_past_the_measure_ceiling_is_one_error_line(argv, capsys):
    # degree 70 needs the degree-128 measure, whose value rows overflow
    assert run_subcommand(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "degree bound 128" in line


@pytest.mark.parametrize("argv", [
    ["coeffs", "--case", "A", "--n-max", "-1"],
    ["coeffs", "--case", "B", "--b", "3/2", "--n-max", "-1"],
    ["coeffs", "--case", "B", "--b", "3/2", "--n-max", "-2", "--route", "projection"],
    ["reconstruct", "--case", "B", "--b", "3/2", "--n-max", "-3"],
], ids=["coeffs_A", "coeffs_B", "coeffs_B_projection", "reconstruct_B"])
def test_negative_n_max_is_one_error_line(argv, capsys):
    assert run_subcommand(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "must be nonnegative" in line


@pytest.mark.parametrize("argv", [
    [command, "--case", "A", "--n-max", "3", option, "24"]
    for command in ("coeffs", "reconstruct")
    for option in ("--rel-tol", "--abs-tol", "--panel-order", "--x-max", "--max-panels")
] + [["verify", "--suite", "lorentz", "--threshold-scale", "24"],
      ["eigen", "--case", "A", "--n", "1", "--config", "24"]],
    ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_removed_settings_are_usage_errors(argv, capsys):
    # the quadrature settings and the verify thresholds are constants, and
    # --format and $PARITYWILSON_OUT are the one way to set each output setting
    assert run_subcommand(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {argv[-2]} 24" in captured.err


@pytest.mark.parametrize("argv, option, value, key", [
    (["poly", "--case", "B", "--n", "2"], "--b", "-1/2", "B"),
    (["eigen", "--case", "B", "--n", "1"], "--b", "-1/2", "B"),
    (["residual", "--case", "B", "--n", "1", "--count", "3"], "--b", "-1/2", "B"),
    (["coeffs", "--case", "B", "--n-max", "3"], "--b", "-1/2", "B"),
    (["reconstruct", "--case", "B", "--n-max", "3"], "--b", "-1/2", "B"),
    (["second-solution", "--n", "1", "--length", "4"], "--z0", "-21/2", "z0"),
], ids=["poly", "eigen", "residual", "coeffs", "reconstruct", "second-solution"])
def test_negative_b_as_a_separate_argument(argv, option, value, key, capsys):
    # a negative fraction is a value after any option, not only after --b
    assert run_subcommand(argv + [f"{option}={value}"]) == 0
    joined = capsys.readouterr()
    assert f'"{key}": "{value}"' in joined.out
    assert run_subcommand(argv + [option, value]) == 0
    assert capsys.readouterr() == joined


# ---------------------------------------------------------------------------
# verify on forked workers: the serial run's bytes, errors and exit codes
# ---------------------------------------------------------------------------

@pytest.fixture
def three_workers(monkeypatch):
    """Three usable CPUs whatever the machine has, so that the worker paths
    run; afterwards no child of this process is left, reaped or not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _masked(captured):
    return re.sub(r"(?m)^# suite ([^:]*): [0-9.]+s$", r"# suite \1: <masked>s", captured.out)


def _serial(argv, monkeypatch, capsys):
    """Code, stdout (suite times masked) and stderr of the CLI with its
    report from the serial ``verify.run_suites``."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_verify_report", verify.run_suites)
        code = run_subcommand(argv)
    captured = capsys.readouterr()
    return code, _masked(captured), captured.err


def _forked(argv, capsys):
    code = run_subcommand(argv)
    captured = capsys.readouterr()
    return code, _masked(captured), captured.err


@pytest.mark.parametrize("argv", [
    ["--suite", "all"],
    ["--suite", "all", "--format", "json"],
    ["--suite", "all", "--format", "csv"],
    ["--suite", "all", "--extended", "--format", "json"],
    ["--suite", "scan,genfun,tables,lorentz,quantization,second-solution,recurrence,"
                "reconstruction,orthogonality", "--format", "json"],
    ["--suite", "orthogonality,recurrence,second-solution,scan,reconstruction,lorentz,"
                "tables,genfun,quantization", "--format", "json"],
    ["--suite", "lorentz,quantization,reconstruction,genfun,orthogonality,tables,scan,"
                "recurrence,second-solution", "--format", "json"],
    ["--suite", "lorentz,genfun", "--format", "json"],
    ["--suite", "scan", "--format", "json"],
], ids=["text", "json", "csv", "extended-json", "order-1", "order-2", "order-3",
        "two-suites", "one-suite"])
def test_verify_through_workers_equals_serial(argv, three_workers, monkeypatch, capsys):
    argv = ["verify", *argv]
    assert _forked(argv, capsys) == _serial(argv, monkeypatch, capsys)


def test_earliest_failing_suite_is_the_error_whichever_worker_ran_it(
        three_workers, monkeypatch, capsys):
    parent = os.getpid()

    def lorentz(results):
        where = "this process" if os.getpid() == parent else "a child"
        raise NoConvergence(f"lorentz failed in {where}")

    def scan(results):
        raise NoConvergence("scan failed")

    monkeypatch.setitem(verify.SUITES, "lorentz", (lorentz,))
    monkeypatch.setitem(verify.SUITES, "scan", (scan,))
    # lorentz is on a child (position 1), scan on this process (position 3)
    argv = ["verify", "--suite", "tables,lorentz,genfun,scan"]
    expected = (1, "", "error: lorentz failed in this process\n")
    assert _serial(argv, monkeypatch, capsys) == expected
    assert _forked(argv, capsys) == expected


def test_a_child_that_dies_leaves_the_serial_bytes(three_workers, monkeypatch, capsys):
    parent = os.getpid()

    def genfun(results):
        if os.getpid() != parent:
            os._exit(3)
        verify.check_generating_functions(results)

    monkeypatch.setitem(verify.SUITES, "genfun", (genfun,))
    argv = ["verify", "--suite", "lorentz,genfun,scan,genfun", "--format", "csv"]
    assert _forked(argv, capsys) == _serial(argv, monkeypatch, capsys)


def test_interrupt_kills_and_reaps_the_children(three_workers, monkeypatch, capsys):
    parent = os.getpid()

    def lorentz(results):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setitem(verify.SUITES, "lorentz", (lorentz,))
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_subcommand(["verify", "--suite", "lorentz,lorentz,lorentz"])
    assert time.perf_counter() - start < 30
    assert capsys.readouterr() == ("", "")


def test_forking_beside_another_thread_does_not_warn(three_workers, capsys):
    # Python >= 3.12 warns on a fork while another thread runs, as numpy's
    # OpenBLAS pool does in a CLI process
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_subcommand(["verify", "--suite", "lorentz,genfun"])
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert code == 0 and [str(w.message) for w in caught] == []
    capsys.readouterr()


def test_verify_as_a_fresh_process_with_warnings_as_errors():
    src = os.path.dirname(os.path.dirname(paritywilson.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "paritywilson.cli", "verify",
                           "--suite", "all", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1 and proc.stderr == ""
    rows = json.loads(proc.stdout)
    assert len(rows) == 49
    failed = sorted(r["check"] for r in rows if r["status"] == "fail")
    assert failed == sorted(verify.EXPECTED_FAILURES)
