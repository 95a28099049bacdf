import json

import numpy as np
import pytest

from ptchain.cli import main

REF_COUPLINGS_7_050 = [0.5703, 0.9731, 0.3089, 0.0883, 0.2039, 1.2075]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_spectrum_csv_schema(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "8", "--gamma", "1.2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,level_index,k_re,k_im,energy_re,energy_im,phase"
    assert len(lines) == 9
    rows = [ln.split(",") for ln in lines[1:]]
    real_rows = [r for r in rows if float(r[5]) == 0.0]
    imag_rows = [r for r in rows if float(r[5]) != 0.0]
    assert len(real_rows) == 6 and len(imag_rows) == 2
    assert all(r[6] == "broken" for r in rows)
    assert sorted(float(r[5]) for r in imag_rows)[0] < 0


def test_spectrum_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "spectrum", "--n", "9", "--gamma", "0.73")
    _, second, _ = run(capsys, "spectrum", "--n", "9", "--gamma", "0.73")
    assert first == second
    assert first.endswith("\n") and "\r" not in first


def test_spectrum_json_meta(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--gamma", "0.3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["n_sites"] == 4
    assert payload["meta"]["command"] == "spectrum"
    assert "version" in payload["meta"] and "tol" in payload["meta"]
    assert len(payload["records"]) == 4


def test_sweep_sorted_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "5", "--gamma-min", "0.1",
                       "--gamma-max", "0.9", "--steps", "3")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    keys = [(float(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 15


def test_sweep_rejects_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--n", "5", "--gamma-min", "0.9",
                       "--gamma-max", "0.1", "--steps", "3")
    assert code == 2
    assert "gamma-min" in err
    code, _, _ = run(capsys, "sweep", "--n", "5", "--gamma-min", "0.1",
                     "--gamma-max", "0.9", "--steps", "1")
    assert code == 2


def test_invalid_n_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "1", "--gamma", "0.5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flag", ["--gamma", "--j"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_input_exits_2(capsys, flag, value):
    args = {"--gamma": "0.5", "--j": "1.0", flag: value}
    code, out, err = run(capsys, "spectrum", "--n", "4",
                         *(x for pair in args.items() for x in pair))
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_json_floats_match_csv(capsys):
    # both formats print floats to 12 significant digits
    _, csv_out, _ = run(capsys, "spectrum", "--n", "9", "--gamma", "0.73")
    _, json_out, _ = run(capsys, "spectrum", "--n", "9", "--gamma", "0.73",
                         "--format", "json")
    lines = csv_out.strip().split("\n")
    header = lines[0].split(",")
    records = json.loads(json_out)["records"]
    assert len(records) == len(lines) - 1 == 9
    floats = 0
    for line, record in zip(lines[1:], records):
        for name, cell in zip(header, line.split(",")):
            if isinstance(record[name], float):
                assert record[name] == float(cell), (name, cell, record[name])
                floats += 1
    assert floats == 9 * 5


def test_spectrum_deep_in_the_broken_phase(capsys):
    # kappa (N+1) exceeds the float range of sinh/cosh here
    code, out, _ = run(capsys, "spectrum", "--n", "1000", "--gamma", "1.5")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert len(rows) == 1000
    assert sum(float(r[5]) != 0.0 for r in rows) == 2
    assert all(r[6] == "broken" for r in rows)


def test_solver_error_exits_1(capsys):
    # metric construction is impossible in the broken phase
    code, _, err = run(capsys, "metric", "--n", "6", "--gamma", "1.5")
    assert code == 1
    assert "PhaseError" in err


def test_phase_command(capsys):
    code, out, _ = run(capsys, "phase", "--n", "7")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "n,j,gamma_c_analytic,gamma_c_numeric,abs_error"
    fields = row.split(",")
    assert float(fields[2]) == pytest.approx(np.sqrt(4 / 3), rel=1e-12)
    assert float(fields[4]) < 1e-6


def test_hermitian_command_matches_couplings(capsys):
    code, out, _ = run(capsys, "hermitian", "--n", "7", "--gamma", "0.50")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,gamma,i,j,lambda"
    assert len(lines) == 13
    mags = sorted(abs(float(ln.split(",")[4])) for ln in lines[1:])
    expected = sorted(np.repeat(REF_COUPLINGS_7_050, 2))
    assert np.max(np.abs(np.array(mags) - expected)) < 2e-4


def test_metric_command_schema(capsys):
    code, out, _ = run(capsys, "metric", "--n", "4", "--gamma", "0.4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,gamma,row,col,value"
    assert len(lines) == 17
    entries = {(int(r[2]), int(r[3])): float(r[4])
               for r in (ln.split(",") for ln in lines[1:])}
    for (r, c), val in entries.items():
        assert entries[(c, r)] == pytest.approx(val, abs=1e-12)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--gamma", "0.2",
                       "--out", str(target))
    assert code == 0 and out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("gamma,level_index")
    assert content.endswith("\n")


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "total_failures,,0"
    assert all(ln.endswith(",pass") for ln in lines[:-1])


def test_verify_past_the_coefficient_overflow(capsys):
    # N = 44 is past N ~ 41, where expanding det(H - E) in coefficients
    # overflows or cancels
    code, out, _ = run(capsys, "verify", "--n-max", "44")
    assert code == 0
    lines = out.strip().split("\n")
    assert "oracle_match_0.5,44,pass" in lines
    assert "oracle_match_1.3,44,pass" in lines
    assert lines[-1] == "total_failures,,0"
