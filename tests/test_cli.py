import hashlib
import json

import numpy as np
import pytest

from ptchain.cli import main

REF_COUPLINGS_7_050 = [0.5703, 0.9731, 0.3089, 0.0883, 0.2039, 1.2075]

# sha256 of stdout for each invocation (exit code 0), recorded with the
# row-dict emitter that formatted every cell through isinstance checks
PINNED_OUTPUT = {
    "spectrum --n 8 --gamma 1.5 --format csv":
        "b42eb2997a41298e452a1c5d930fb4a72bd765b400364d714e1a33ba11ecff04",
    "spectrum --n 8 --gamma 1.5 --format json":
        "d2678c2dd11a2cc696ddf503bf6c0f39a01c3d216b4570adf0b8eb5af1d8d1ec",
    "spectrum --n 9 --gamma 0.73 --j 0.7 --format csv":
        "47780b8dcc61d4984bf835686ece62f0056ddb87ddf68518cb5da01df277b6ff",
    "spectrum --n 9 --gamma 0.73 --j 0.7 --format json":
        "4d99dcddc3acda89fab37f960d19c87f49bb5c3e9de87e7aca9f196046072e98",
    "sweep --n 9 --gamma-min 0.3 --gamma-max 1.6 --steps 5 --format csv":
        "2e601d2bb8cab9ab43c0a92c07848c61acb2826f93327a5f07309f6ba453e621",
    "sweep --n 9 --gamma-min 0.3 --gamma-max 1.6 --steps 5 --format json":
        "d0564b8d14edd53cd8f27a2d4a73f9f5b9d82284f6fe2f12aeccd3f0ee0958b0",
    "phase --n 9 --format csv":
        "0f257f8adabcd964d52f858040e4dd10eac6ddcb79043a726190580581025486",
    "phase --n 9 --format json":
        "6f902dfdd282572379504ac818055f85178144313f499b6bdc7ba4113fc76478",
    "phase --n 8 --j 3 --format csv":
        "25e3fb2553adcdcc1089ba25d3dad9e5bcc0083de5e76ab3dda17d91b32b42db",
    "phase --n 8 --j 3 --format json":
        "87741dd519c327a69ec17f1dfce3b54a89d63152803e5b1b497bcc20b39a9fd3",
    "metric --n 4 --gamma 0.4 --format csv":
        "63f0765d422a51016f98b77696ea9f3d7f557279cc59f41b31fc3de7c27c88be",
    "metric --n 4 --gamma 0.4 --format json":
        "d945fb52634057a4b728eff03fbf601f2d55909ead9b2d06bf2fcc6afd3acb29",
    "hermitian --n 6 --gamma 0.4 --format csv":
        "7fe9340ea646ddc632ddc06f33bb63387a8d201a15af4a37e3e98258fd94fde9",
    "hermitian --n 6 --gamma 0.4 --format json":
        "bc0a75aa4a2d9bd19c3c8f4595b2e5838d4333fa827d53205ce8c341f6203f3d",
    "verify --n-max 8":
        "29b896ad4071709d31db247beefc34bea76fba9bb362c39c09dbd51b7bb0db76",
    # recorded while verify still solved each chain's pipeline twice
    "verify --n-max 20 --j 0.7":
        "1d60a6825aeb6c12a8c5107211f087b2091d2c65202d1815721c71176eec2d7d",
}


# sha256 of stdout for sweeps with gamma = 0, both phases and a step exactly
# at gamma_c (Critical: best-effort roots), recorded with the per-gamma loop
PINNED_SWEEPS = {
    "sweep --n 2 --gamma-min 0 --gamma-max 2 --steps 3 --format csv":
        "34368a3802b8805329e96f906a80c4666790c5acf12bf2c30d72a536db211654",
    "sweep --n 2 --gamma-min 0 --gamma-max 2 --steps 3 --format json":
        "cd91ec36227c6d5987c8f35a4c4767fa41ecf8cd3962e5983e7aecaec4429525",
    "sweep --n 8 --gamma-min 0 --gamma-max 2 --steps 9 --format csv":
        "8382fd08578af07316149c2bd653fb1dafd425197426629100973aa1c8e0e684",
    "sweep --n 8 --gamma-min 0 --gamma-max 2 --steps 9 --format json":
        "72d6f80c7f2f75e15b23068f7f4dd60d3d92c89a594e32f834006861f314f8f2",
    "sweep --n 9 --gamma-min 0 --gamma-max 2.23606797749979 --steps 5 --format csv":
        "3225f6401514551afcda050e8512d349635717ccf4a6c7c5bbd3b349b4a452f0",
    "sweep --n 9 --gamma-min 0 --gamma-max 2.23606797749979 --steps 5 --format json":
        "6647a0674a6f1bcdd4377e39cb943566292b33a57754accf398200185550c148",
    "sweep --n 64 --gamma-min 0 --gamma-max 2 --steps 21 --format csv":
        "3b0c2fb0f726afa6951f656dd2d65dd53bc039ea8138013d42c528b15ed42b06",
    "sweep --n 64 --gamma-min 0 --gamma-max 2 --steps 21 --format json":
        "90f9df6d77e055e8900ad1cc8e96370e4619ab2783a9bbb9c8bcfdd672d3a02d",
    "sweep --n 255 --gamma-min 0 --gamma-max 2.0078585764421075 --steps 21 --format csv":
        "40619f73c7115a05c0e5c278218a37fc0a0f9b09c9d3ff8693fa90f6aa0861d1",
    "sweep --n 255 --gamma-min 0 --gamma-max 2.0078585764421075 --steps 21 --format json":
        "3c44a95b3320a09d99b414defdefb3ac5b36f4c65dc5d8ba25bfa6ed2a245a58",
}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_pinned_output_bytes(capsys):
    # one process, in sequence: the parser is built once and reused, so each
    # subcommand must see no state left by the one before
    for argv, digest in PINNED_OUTPUT.items():
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_pinned_sweep_bytes(capsys):
    for argv, digest in PINNED_SWEEPS.items():
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_sweep_reports_the_first_failing_gamma(capsys):
    # the gamma grid is solved at once, but the error is the first gamma's
    code, out, err = run(capsys, "sweep", "--n", "8", "--gamma-min", "-1",
                         "--gamma-max", "1e200", "--steps", "3")
    assert (code, out, err) == (2, "", "error: gamma must be non-negative and finite, "
                                       "got -1.0\n")
    code, out, err = run(capsys, "sweep", "--n", "8", "--gamma-min", "1",
                         "--gamma-max", "1e200", "--steps", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: DomainError: gamma/J = 5e+199 is above 1e+150")
    assert err.count("\n") == 1


def test_empty_table(capsys):
    # exactly at gamma_c = J for N = 2 the coalesced pair leaves no real root
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--gamma", "1")
    assert (code, out) == (0, "gamma,level_index,k_re,k_im,energy_re,energy_im,phase\n")
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--gamma", "1", "--format", "json")
    assert code == 0 and json.loads(out)["records"] == []


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


def test_phase_rejects_nan_tol(capsys):
    code, out, err = run(capsys, "phase", "--n", "8", "--tol", "nan")
    assert (code, out) == (2, "")
    assert "tol must be positive" in err


def test_phase_rejects_infinite_tol(capsys):
    code, out, err = run(capsys, "phase", "--n", "8", "--tol", "inf")
    assert (code, out) == (2, "")
    assert "tol must be positive and finite" in err


def test_spectrum_past_the_ratio_limit_exits_1(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "8", "--gamma", "1e200")
    assert (code, out) == (1, "")
    assert err.startswith("error: DomainError: ") and err.count("\n") == 1


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
