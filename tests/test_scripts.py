import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _run_script(name, *args):
    return _run_python(str(ROOT / "scripts" / name), *args)


def test_readme_library_quickstart():
    # the python block under "Library quickstart", with warnings as errors
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quickstart\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert block is not None
    _run_python("-W", "error", "-c", block.group(1))


def test_coupling_tables_script():
    proc = _run_script("coupling_tables.py", "--sizes", "7", "8", "--gammas", "0.5")
    resids = re.findall(r"(reflection|spectrum)_resid=(\S+)", proc.stdout)
    assert len(resids) == 4, proc.stdout
    assert all(float(value) <= 1e-8 for _, value in resids), proc.stdout


def test_oracle_scaling_script():
    lines = _run_script("oracle_scaling.py", "--sizes", "8", "16").stdout.splitlines()
    assert lines[0] == ("n,gamma_over_gamma_c,seconds,bethe_distance,eigvals_distance,"
                        "vector_seconds,vector_residual")
    rows = [line.split(",") for line in lines[1:5]]
    assert [(int(row[0]), float(row[1])) for row in rows] == [
        (8, 0.5), (8, 1.5), (16, 0.5), (16, 1.5)], lines
    assert all(float(row[2]) > 0 and float(row[3]) <= 1e-12 and float(row[4]) <= 1e-12
               and float(row[5]) > 0 and 0 <= float(row[6]) <= 8 for row in rows), lines
    slope = r"-?\d+\.\d\d"
    for line, label in zip(lines[5:], ["seconds", "vector_seconds"]):
        assert re.fullmatch(
            rf"slope d\(log {label}\)/d\(log N\) = {slope} unbroken, {slope} broken", line), lines
    assert len(lines) == 7, lines


def test_metric_scaling_script():
    lines = _run_script("metric_scaling.py", "--sizes", "8", "70").stdout.splitlines()
    assert lines[0] == "n,seconds,transform_seconds,eigh_distance"
    rows = [line.split(",") for line in lines[1:3]]
    assert [int(row[0]) for row in rows] == [8, 70], lines
    assert all(float(row[1]) > 0 and float(row[2]) > 0 and float(row[3]) <= 1e-11
               for row in rows), lines
    assert re.fullmatch(r"slope d\(log seconds\)/d\(log N\) = -?\d+\.\d\d", lines[3]), lines
    assert len(lines) == 4, lines


def test_spectrum_scaling_script():
    lines = _run_script("spectrum_scaling.py", "--sizes", "8", "9").stdout.splitlines()
    assert lines[0] == "n,unbroken_seconds,broken_seconds"
    rows = [line.split(",") for line in lines[1:3]]
    assert [int(row[0]) for row in rows] == [8, 9], lines
    assert all(len(row) == 3 and float(row[1]) > 0 and float(row[2]) > 0 for row in rows), lines
    slope = r"-?\d+\.\d\d"
    assert re.fullmatch(rf"slope d\(log seconds\)/d\(log N\) = {slope} unbroken, {slope} broken",
                        lines[3]), lines
    assert len(lines) == 4, lines


def test_critical_pair_accuracy_script():
    # kappa and x0 next to gamma_c within 1e-13 of the 60-digit root at the
    # float gamma/J, in a handful of Newton passes
    lines = _run_script("critical_pair_accuracy.py", "--sizes", "8", "9",
                        "--max-exponent", "6").stdout.splitlines()
    assert lines[0] == "n,j,kappa_rel_err,x0_rel_err,max_passes,total_passes"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(row[0]), float(row[1])) for row in rows] == [
        (n, j) for n in (8, 9) for j in (0.5, 1.0, 3.0)], lines
    for _, _, kappa, x0, most, total in rows:
        assert float(kappa) <= 1e-13 and float(x0) <= 1e-13, lines
        assert 1 <= int(most) <= 10 and int(most) <= int(total) <= 12 * int(most), lines


def test_level_repulsion_sweep_script(tmp_path):
    proc = _run_script("level_repulsion_sweep.py", "--sizes", "8", "9", "--points", "3",
                       "--outdir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["repulsion_n8.csv",
                                                         "repulsion_n9.csv"], proc.stdout
    for n in (8, 9):
        lines = (tmp_path / f"repulsion_n{n}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("gamma,gamma_offset,level_re,level_im,analytic_re,analytic_im,"
                            "coalescence_gap,pt_norm_abs")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 12 and all(len(row) == 8 for row in rows), lines
        assert all(math.isfinite(v) for row in rows for v in row), lines
        assert all(row[6] >= 0 for row in rows), lines


def test_line_count_script(tmp_path):
    lines = _run_script("line_count.py").stdout.splitlines()
    assert lines[0] == "module,raw,code"
    rows = [line.split(",") for line in lines[1:]]
    modules = sorted(p.stem for p in (ROOT / "src" / "ptchain").glob("*.py"))
    assert [row[0] for row in rows] == [*modules, "total"], lines
    counts = [(int(raw), int(code)) for _, raw, code in rows]
    assert all(0 < code < raw for raw, code in counts), lines
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1]))), lines
    # docstrings of the module, a class and a function, a comment-only line
    # and blank lines are left out of `code`; a trailing comment is not
    (tmp_path / "mod.py").write_text(
        '"""Module\n\ndocstring."""\n\nimport math  # kept\n\n\n'
        'class A:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n'
        '        # a comment\n        return math.pi\n', encoding="utf-8")
    lines = _run_script("line_count.py", "--root", str(tmp_path)).stdout.splitlines()
    assert lines == ["module,raw,code", "mod,15,4", "total,15,4"], lines


def test_guard_mutation_script():
    # switching off the n_sites guard of ChainSpec fails test_model.py, and
    # the mutant lives only in a temporary copy
    model = ROOT / "src" / "ptchain" / "model.py"
    before = model.read_bytes()
    lines = _run_script("guard_mutation.py", "--match", "self.n_sites < 2",
                        "--tests", "tests/test_model.py").stdout.splitlines()
    assert len(lines) == 2 and re.fullmatch(r"model\.py:\d+,killed", lines[0]), lines
    assert lines[1] == "0 not killed", lines
    assert model.read_bytes() == before
    # a guard in front of a break: a stop test that never passes runs the
    # one-sided Jacobi out of sweeps
    lines = _run_script("guard_mutation.py", "--match", "np.abs(gram) <= bound",
                        "--tests", "tests/test_metric.py::test_jacobi_identity_and_2x2").stdout.splitlines()
    assert len(lines) == 2 and re.fullmatch(r"metric\.py:\d+,killed", lines[0]), lines
    assert lines[1] == "0 not killed", lines


def test_line_map_script():
    # on test_model.py alone: the ChainSpec guard it trips is reached, the
    # CPT inner product it never calls is not, and the __main__ line of the
    # CLI, which only a subprocess runs, never is
    lines = _run_script("line_map.py", "--tests", "tests/test_model.py").stdout.splitlines()
    assert re.fullmatch(r"\d+ unreached", lines[-1]) and int(lines[-1].split()[0]) == len(lines) - 1
    sites = [re.fullmatch(r"(\w+\.py):(\d+): (.+)", line) for line in lines[:-1]]
    assert all(sites), lines
    for site in sites:
        source = (ROOT / "src" / "ptchain" / site[1]).read_text(encoding="utf-8").splitlines()
        assert source[int(site[2]) - 1].strip() == site[3], site[0]
    keys = [(site[1], int(site[2])) for site in sites]
    assert keys == sorted(keys), lines
    texts = {(site[1], site[3]) for site in sites}
    assert ("cli.py", "sys.exit(main())") in texts
    assert ("states.py", "return (c_op @ apply_pt(u)).T @ v") in texts
    assert not any(name == "model.py" and ("self.n_sites < 2" in text or "n_sites must" in text)
                   for name, text in texts), lines
