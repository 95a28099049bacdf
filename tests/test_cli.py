import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ptchain import ChainSpec
from ptchain.bethe import _pair_roots
from ptchain.cli import main

REF_COUPLINGS_7_050 = [0.5703, 0.9731, 0.3089, 0.0883, 0.2039, 1.2075]

# sha256 of stdout for each invocation (exit code 0), recorded with the
# row-dict emitter that formatted every cell through isinstance checks.  The
# JSON pins here and in PINNED_SWEEPS were re-recorded when `meta` lost its
# "tol" entry: each output is the one before less the line `"tol": 1e-10,`.
# The phase pins were re-recorded when the bisection came to run to the float
# where the phase rule flips: gamma_c_numeric now prints the analytic value
# and abs_error 0
PINNED_OUTPUT = {
    "spectrum --n 8 --gamma 1.5 --format csv":
        "b42eb2997a41298e452a1c5d930fb4a72bd765b400364d714e1a33ba11ecff04",
    "spectrum --n 8 --gamma 1.5 --format json":
        "80a53138f41db4f92414f3a04b7551c49eceb3525ce81773e228d06e2824cf70",
    "spectrum --n 9 --gamma 0.73 --j 0.7 --format csv":
        "47780b8dcc61d4984bf835686ece62f0056ddb87ddf68518cb5da01df277b6ff",
    "spectrum --n 9 --gamma 0.73 --j 0.7 --format json":
        "a6b8fcba0c9621c575341d41ac27b647a81cda5efaa809dd5fa9e6278a351e66",
    "sweep --n 9 --gamma-min 0.3 --gamma-max 1.6 --steps 5 --format csv":
        "2e601d2bb8cab9ab43c0a92c07848c61acb2826f93327a5f07309f6ba453e621",
    "sweep --n 9 --gamma-min 0.3 --gamma-max 1.6 --steps 5 --format json":
        "96a9e0190c69b8d79f5b5355d976ceb9f9f8b24ca4567bf2adba4e7c2bf49267",
    "phase --n 9 --format csv":
        "4db02f5f08fb228a3eef2f1b40dada88132c10458665a2ff9ae2b23be7e58e72",
    "phase --n 9 --format json":
        "802c4bfe687dfcb13792b564cd88a0da312f91046ed215b2f9c4e1eeb19e954a",
    "phase --n 8 --j 3 --format csv":
        "488d06d14df9326a46a9c775c828cb06e1c87a69d690af971967d674a0e16ed8",
    "phase --n 8 --j 3 --format json":
        "38cfbac3a92c6a6e40ae34b0b29098f05874c0f36569d3d0d6ae4dbd13d4b755",
    "metric --n 4 --gamma 0.4 --format csv":
        "63f0765d422a51016f98b77696ea9f3d7f557279cc59f41b31fc3de7c27c88be",
    "metric --n 4 --gamma 0.4 --format json":
        "8912a25592a961854af56a74e9f2da28bc9664af3499d4b7cd9f37cd4c16cfc2",
    "hermitian --n 6 --gamma 0.4 --format csv":
        "7fe9340ea646ddc632ddc06f33bb63387a8d201a15af4a37e3e98258fd94fde9",
    "hermitian --n 6 --gamma 0.4 --format json":
        "da8891326dd1a2173d2f417b009bba4ec73cb0cf92aaf472f194b41662e1b4b0",
    "verify --n-max 8":
        "29b896ad4071709d31db247beefc34bea76fba9bb362c39c09dbd51b7bb0db76",
    # recorded while verify still solved each chain's pipeline twice
    "verify --n-max 20 --j 0.7":
        "1d60a6825aeb6c12a8c5107211f087b2091d2c65202d1815721c71176eec2d7d",
}


# sha256 of stdout for sweeps with gamma = 0, both phases and a step at
# gamma_c, recorded with the per-gamma loop; re-recorded when the Critical
# band was dropped, which gave the rows at gamma_c their critical pair.  N = 9
# and 255 were re-recorded when one kappa condition replaced the log form:
# their steps land on the float gamma_c, within 7e-17 of the odd-N boundary,
# where kappa is set by rounding alone.  Both again when the pair became one
# root in t = x^2 with c0 rounded once from the float gamma/J: kappa there
# moved from 38% (N = 9) and 23% (N = 255) off the 60-digit root at that
# float to within 1e-15 of it, which the test checks before the digest.
# N = 255 again when the real levels came from their offsets, E = +-2J sin x,
# not from the rounded k: at gamma = 1.90746564762 the level +-0.41858393190449990
# now prints ...904, as a 60-digit root of R rounds it, not ...905
PINNED_SWEEPS = {
    "sweep --n 2 --gamma-min 0 --gamma-max 2 --steps 3 --format csv":
        "e9a38985321456055f359c4fed97381773f9465b91dd82107de200d76b3517ad",
    "sweep --n 2 --gamma-min 0 --gamma-max 2 --steps 3 --format json":
        "aca3aa13c9f15ae22fe6d9cabd8dc390df38127064ff1fac0e5197a9a7803640",
    "sweep --n 8 --gamma-min 0 --gamma-max 2 --steps 9 --format csv":
        "ba47a636fbf67238a637baba88113922d4ab2d750afe12450ab94a8d688af42a",
    "sweep --n 8 --gamma-min 0 --gamma-max 2 --steps 9 --format json":
        "6725dc27ac89de0ccf7a15b71a2f152cd480f972cc0fe7f5a2da87ef0f41b2fb",
    "sweep --n 9 --gamma-min 0 --gamma-max 2.23606797749979 --steps 5 --format csv":
        "96370ff836c0f39998c6aab4f414b4526a9879cc586b74a02237086fe5778978",
    "sweep --n 9 --gamma-min 0 --gamma-max 2.23606797749979 --steps 5 --format json":
        "5b2b9203020eb2ed567849e50390dd7d6d2aa671b624a08d334eb05f45bda408",
    "sweep --n 64 --gamma-min 0 --gamma-max 2 --steps 21 --format csv":
        "6e55054ca41ad3abe5c934c413b88a874c740955498b7f444fa69a11a3cfbc21",
    "sweep --n 64 --gamma-min 0 --gamma-max 2 --steps 21 --format json":
        "50d2574624e58fbd9a6d02decc89b984a11569a251602dcf456b3ec27328faf3",
    "sweep --n 255 --gamma-min 0 --gamma-max 2.0078585764421075 --steps 21 --format csv":
        "41963bff2c83304b5f6c0066c44ea6eda43b9530e56608b13978f4ba00c09f87",
    "sweep --n 255 --gamma-min 0 --gamma-max 2.0078585764421075 --steps 21 --format json":
        "06bb06e1c3026f24fb6966906e9fd555bf60d8a6ad92fe413cbfc156888c947e",
}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# one id per invocation, so that a run shows every moved pin
@pytest.mark.parametrize("argv", PINNED_OUTPUT)
def test_pinned_output_bytes(capsys, argv):
    # one process, in dict order: the parser is built once and reused, so each
    # subcommand must see no state left by the one before
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUT[argv]


def _critical_pair_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "critical_pair_accuracy.py"
    spec = importlib.util.spec_from_file_location("critical_pair_accuracy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_pairs_are_the_60_digit_roots(argv, csv):
    # a digest pins bits, not physics: before it is read, each gamma's pair
    # level, as printed to 12 digits, is that of the 60-digit root of the
    # pair's condition at that float gamma (J = 1)
    mp = pytest.importorskip("mpmath")
    script = _critical_pair_script()
    _, _, n, _, low, _, high, _, steps, *_ = argv.split()
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    cells = sorted({row[0] for row in rows}, key=float)
    for gamma, cell in zip(np.linspace(float(low), float(high), int(steps)), cells):
        levels = [abs(complex(float(r[4]), float(r[5]))) for r in rows if r[0] == cell]
        t = float(_pair_roots([ChainSpec(int(n), 1.0, float(gamma))])[0])
        with mp.workdps(60):
            root = mp.sqrt(abs(script._reference(int(n), float(gamma), t)))
            want = float(2 * (mp.sinh(root) if t < 0 else mp.sin(root)))
        # the pair's level: the largest imaginary one if broken, else the
        # smallest nonzero one (odd N also holds the zero mode); 0 twice if t = 0
        pair = ([abs(float(r[5])) for r in rows if r[0] == cell and float(r[5])] if t < 0
                else sorted(levels)[:2] if t == 0 else [min(e for e in levels if e)])
        assert max(pair) == pytest.approx(want, rel=1e-11, abs=0.0), gamma


@pytest.mark.parametrize("argv", PINNED_SWEEPS)
def test_pinned_sweep_bytes(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    if argv.endswith("csv"):
        _assert_pairs_are_the_60_digit_roots(argv, out)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SWEEPS[argv]


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


@pytest.mark.parametrize("ends,value", [(("0", "1e400"), "inf"), (("nan", "1"), "nan")],
                         ids=["inf", "nan"])
def test_sweep_names_a_non_finite_end(capsys, ends, value):
    # each end is checked as a gamma before the grid is built: np.linspace
    # warned and turned an inf end into a nan, and a nan end was reported as
    # a bad range
    code, out, err = run(capsys, "sweep", "--n", "8", "--gamma-min", ends[0],
                         "--gamma-max", ends[1], "--steps", "3")
    assert (code, out, err) == (2, "", f"error: gamma must be non-negative and finite, "
                                       f"got {value}\n")


def test_empty_table(capsys):
    # exactly at gamma_c = J for N = 2 no real root is left: the table holds
    # just the coalesced pair, E = 0 twice at k = pi/2
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--gamma", "1")
    assert (code, out) == (0, "gamma,level_index,k_re,k_im,energy_re,energy_im,phase\n"
                              "1,0,1.57079632679,0,0,0,critical\n"
                              "1,1,1.57079632679,0,0,0,critical\n")
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--gamma", "1", "--format", "json")
    records = json.loads(out)["records"]
    assert code == 0 and [r["level_index"] for r in records] == [0, 1]
    assert all(r["energy_re"] == r["energy_im"] == r["k_im"] == 0.0 for r in records)


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
    assert "version" in payload["meta"] and "tol" not in payload["meta"]
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


@pytest.mark.parametrize("argv", [
    "spectrum --n 4 --j 1e308 --gamma 5e307",
    "sweep --n 4 --j 1e308 --gamma-min 0 --gamma-max 1e308 --steps 2",
    "phase --n 4 --j 1e308",
    "hermitian --n 8 --j 1e-310 --gamma 5e-311",
    "verify --n-max 3 --j 1e-310",
    "phase --n 8 --j 1e-320",
    "spectrum --n 4 --j 1e-320 --gamma 5e-321",
])
def test_hopping_outside_the_tested_range_exits_2(capsys, argv):
    # past J = 1e300 the energies overflow, below 1e-300 they and the
    # tolerances in units of J go subnormal: one line naming the hopping
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: hopping must be finite and in [1e-300, 1e+300]")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("j", ["1e6", "1e300"])
def test_phase_ends_at_any_float_spacing(j):
    # the bisection ends once the midpoint is a bracket end, at any float
    # spacing near gamma_c (1.2e-10 at J = 1e6); run in a subprocess with a
    # timeout, a hang fails the test instead of the suite
    root = Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-m", "ptchain.cli", "phase", "--n", "8", "--j", j],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    fields = proc.stdout.splitlines()[1].split(",")
    assert fields[2] == fields[3] == fields[1], fields


def test_out_that_cannot_be_opened_exits_2(capsys, tmp_path):
    # a missing directory and a path that is a directory: one line, no output
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        code, stdout, err = run(capsys, *"spectrum --n 4 --gamma 0.5 --out".split(), str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
        assert str(out) in err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_past_the_ratio_limit_exits_1(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "8", "--gamma", "1e200")
    assert (code, out) == (1, "")
    assert err.startswith("error: DomainError: ") and err.count("\n") == 1


def test_spectrum_past_the_centre_coefficient_limit_exits_1(capsys):
    # (N - 1)(gamma/J)^2 leaves the float range: one line, no OverflowError traceback
    code, out, err = run(capsys, "spectrum", "--n", "1000000001", "--gamma", "1e150")
    assert (code, out) == (1, "")
    assert err.startswith("error: DomainError: N max(1, (gamma/J)^2)") and err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [["--n-max", "1"], ["--n-max", "-3"]])
def test_verify_rejects_bad_arguments_before_any_output(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "spectrum --n 8 --gamma 0.5",
    "sweep --n 8 --gamma-min 0 --gamma-max 1 --steps 2",
    "phase --n 8",
    "metric --n 8 --gamma 0.5",
    "hermitian --n 8 --gamma 0.5",
    "verify",
])
def test_tol_is_not_an_option(capsys, argv):
    # the Bethe solves stop at fixed rules, and phase bisects to the float
    # where the phase rule flips
    with pytest.raises(SystemExit) as stop:
        main([*argv.split(), "--tol", "1e-10"])
    out, err = capsys.readouterr()
    assert (stop.value.code, out) == (2, "")
    assert "unrecognized arguments: --tol 1e-10" in err


def test_verify_past_the_coefficient_overflow(capsys):
    # N = 44 is past N ~ 41, where expanding det(H - E) in coefficients
    # overflows or cancels
    code, out, _ = run(capsys, "verify", "--n-max", "44")
    assert code == 0
    lines = out.strip().split("\n")
    assert "oracle_match_0.5,44,pass" in lines
    assert "oracle_match_1.3,44,pass" in lines
    assert lines[-1] == "total_failures,,0"


def test_verify_reads_the_reciprocal_pairs_from_the_metric(capsys, monkeypatch):
    # columns 0 and 1 of the N = 8 basis turned by 1e-3 leave every stored
    # eps and its pairing as they were, but move the Rayleigh quotients
    from ptchain import cli

    canonical = cli.canonical_basis

    def rotated(w):
        decomp = canonical(w)
        if w.shape[0] != 8:
            return decomp
        c, s = np.cos(1e-3), np.sin(1e-3)
        basis = decomp.basis.copy()
        basis[:, :2] = decomp.basis[:, :2] @ np.array([[c, s], [-s, c]])
        return replace(decomp, basis=basis)

    monkeypatch.setattr(cli, "canonical_basis", rotated)
    code, out, _ = run(capsys, "verify", "--n-max", "8")
    lines = out.splitlines()
    assert code == 1
    assert "metric_reciprocal_pairs,8,FAIL" in lines
    assert "metric_reciprocal_pairs,7,pass" in lines


@pytest.mark.parametrize("n", [8, 9])
def test_phase_at_tiny_j_resolves_gamma_c(capsys, n):
    # the bisection runs to the float spacing at gamma_c: at J = 1e-300 an
    # absolute width would exceed the whole bracket and return its midpoint
    code, out, _ = run(capsys, "phase", "--n", str(n), "--j", "1e-300")
    assert code == 0
    _, _, analytic, _, error = out.splitlines()[1].split(",")
    assert float(error) <= 1e-10 * float(analytic)


@pytest.mark.parametrize("j", ["1e-300", "1e-10", "3", "1e10", "1e300"])
def test_verify_passes_at_every_hopping(capsys, j):
    # energy-scale bounds are in units of J, so no check fails for its scale
    code, out, _ = run(capsys, "verify", "--n-max", "3", "--j", j)
    assert (code, out.splitlines()[-1]) == (0, "total_failures,,0"), out


def test_verify_energy_bounds_shrink_with_j(capsys, monkeypatch):
    # at J = 1e-10 a phase boundary or spectrum off by 1e-3 J must fail: an
    # absolute bound would pass it
    from ptchain import cli

    j = 1e-10
    locate, oracle = cli.locate_critical_gamma, cli.oracle_spectrum
    monkeypatch.setattr(cli, "locate_critical_gamma",
                        lambda n, hopping: locate(n, hopping) + 1e-3 * j)
    monkeypatch.setattr(cli, "oracle_spectrum", lambda spec: oracle(spec) + 1e-3 * j)
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--j", str(j))
    assert code == 1
    failed = {line.split(",")[0] for line in out.splitlines() if line.endswith(",FAIL")}
    assert failed == {"phase_boundary", "oracle_match_0.5", "oracle_match_1.3"}


def test_hermitian_next_to_odd_gamma_c_fails_in_one_line(capsys):
    # 0.999999 gamma_c of N = 9, (1 - 1e-7) gamma_c of N = 65 and (1 - 1e-12)
    # gamma_c of N = 16 return their tables; past the metric's reach, at
    # (1 - 1e-8) gamma_c of N = 9 and (1 - 1e-14) gamma_c of N = 16, valid
    # chains, the metric pipeline fails (a PTChainError, exit 1), but never as
    # a bad argument (exit 2)
    code, out, _ = run(capsys, "hermitian", "--n", "9", "--gamma", "1.11803287072")
    assert code == 0 and out.count("\n") == 1 + 4 * 5
    code, out, _ = run(capsys, "hermitian", "--n", "65", "--gamma", "1.015504699029015")
    assert code == 0 and out.count("\n") == 1 + 32 * 33
    code, out, _ = run(capsys, "hermitian", "--n", "16", "--gamma", "0.999999999999")
    assert code == 0 and out.count("\n") == 1 + 8 * 8
    for n, gamma in [("9", "1.118033977569555"), ("16", "0.99999999999999")]:
        code, out, err = run(capsys, "hermitian", "--n", n, "--gamma", gamma)
        assert (code, out) == (1, "")
        assert err.startswith("error: DegeneracyError: ") and err.count("\n") == 1


def test_hermitian_at_tiny_j(capsys):
    # the gamma floor is in units of J: an absolute 1e-6 would put this chain
    # at 1e4 gamma_c, in the broken phase
    code, out, _ = run(capsys, "hermitian", "--n", "8", "--j", "1e-10", "--gamma", "5e-11")
    assert code == 0
    _, unit, _ = run(capsys, "hermitian", "--n", "8", "--gamma", "0.5")
    for tiny, one in zip(out.splitlines()[1:], unit.splitlines()[1:], strict=True):
        assert tiny.split(",")[2:4] == one.split(",")[2:4]
        assert float(tiny.split(",")[4]) == pytest.approx(1e-10 * float(one.split(",")[4]),
                                                          rel=1e-10, abs=1e-22)


@pytest.mark.parametrize("argv", [
    "spectrum --n 2 --gamma 1", "spectrum --n 8 --gamma 1",
    "spectrum --n 7 --j 0.5 --gamma 0.5773502691896257",
    "spectrum --n 9 --gamma 1.118033988749895", "spectrum --n 9 --gamma 1.1180339887498951",
    "sweep --n 8 --gamma-min 0 --gamma-max 2 --steps 9",
    "sweep --n 9 --gamma-min 0 --gamma-max 2.23606797749979 --steps 5",
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_negative_zero_in_the_output(capsys, argv, fmt):
    # the coalesced pair's minus branch is 0.0 - 0.0: a zero prints as 0, never -0
    code, out, _ = run(capsys, *argv.split(), "--format", fmt)
    assert code == 0
    if fmt == "csv":
        cells = [c for line in out.splitlines()[1:] for c in line.split(",")[:6]]
    else:
        cells = [str(v) for r in json.loads(out)["records"] for v in r.values()]
    assert not [c for c in cells if c.lstrip("-").strip("0.") == "" and c.startswith("-")]
