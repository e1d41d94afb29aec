"""CLI contract: wire formats, determinism, exit codes, traceability."""

import csv
import json
import time

import pytest

from paritywilson import verify
from paritywilson.cli import emit_traceability, run_subcommand


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


def test_determinism_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = run_subcommand(["coeffs", "--case", "B", "--b", "3/2",
                               "--n-max", "3", "--out", str(p)])
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_out_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARITYWILSON_OUT", str(tmp_path))
    code = run_subcommand(["eigen", "--case", "A", "--n", "1", "--out", "rec.json"])
    assert code == 0
    assert json.loads((tmp_path / "rec.json").read_text())["ell1"] == 3


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\nrel_tol=1e-9\n")
    code, out = run(["eigen", "--case", "A", "--n", "1", "--config", str(cfg)], capsys)
    assert out.startswith("power,coeff")
    code, out = run(["eigen", "--case", "A", "--n", "1", "--config", str(cfg),
                     "--format", "json"], capsys)
    assert json.loads(out)["ell1"] == 3


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_key=1\n")
    code, _ = run(["eigen", "--case", "A", "--n", "1", "--config", str(cfg)], capsys)
    assert code == 1


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
    assert run_subcommand(["coeffs", "--case", "B", "--n-max", "1"]) == 1
    capsys.readouterr()


def test_verify_subset_and_exit_codes(capsys):
    code, out = run(["verify", "--suite", "lorentz"], capsys)
    assert code == 0
    assert "[PASS] lorentz-audit" in out
    code, _ = run(["verify", "--suite", "lorentz", "--threshold-scale", "1e-20"], capsys)
    assert code == 1


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
    rows = emit_traceability()
    by_anchor = {r["anchor"]: r for r in rows}
    for anchor in verify.REQUIRED_ANCHORS:
        assert anchor in by_anchor, f"missing row for {anchor}"
        assert by_anchor[anchor]["checks"], f"{anchor} has no checks"
    # the explicitly out-of-scope rows still appear, with notes
    assert "out-of-scope" in by_anchor["eq-21"]["note"]


def test_traceability_check_ids_exist(capsys):
    # every check id referenced in the table is produced by the full suite
    produced = verify.registered_check_ids()
    assert verify.all_check_ids() <= produced


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


def test_panel_order_below_three_is_one_error_line(capsys):
    # order 2 cannot build any family measure; it is rejected before the
    # panel loop bisects to max_panels
    t0 = time.perf_counter()
    assert run_subcommand(["coeffs", "--case", "A", "--n-max", "6", "--panel-order", "2"]) == 1
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "panel_order must be at least 3" in line
