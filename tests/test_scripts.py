import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_coupling_tables_script():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "coupling_tables.py"),
         "--sizes", "7", "8", "--gammas", "0.5"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    resids = re.findall(r"(reflection|spectrum)_resid=(\S+)", proc.stdout)
    assert len(resids) == 4, proc.stdout
    assert all(float(value) <= 1e-8 for _, value in resids), proc.stdout
