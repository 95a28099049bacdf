#!/usr/bin/env python3
"""Guard mutation: does some test fail when a guard in front of a raise or a break is switched off?

A guard is a single-line `if` or `elif` whose body starts with a `raise` or
a `break` on the next line, anywhere in src/ptchain.  Each mutant replaces
one guard's condition by `False`, so that its error is never raised or its
loop never left there, and runs the test suite with `-x` on a temporary
copy of the checkout; the checkout itself is never edited.  The unmutated
suite runs first, and each mutant gets TIMEOUT_FACTOR times its time: a
mutant that runs longer is stopped and counts as killed (`timeout`), as a
loop that no longer ends is.  A mutant that no test kills marks a guard
that is untested or cannot fire.  Prints `site,result` per mutant
(`killed`, `timeout`, `survived`, or `error` with pytest's exit code, say
for a bad test path) and then every mutant not killed; exits 1 if there is
one, or if the unmutated suite fails.  `--match` keeps only the guards whose
condition contains the text; `--tests` picks the test paths.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "BENCH_*")
TIMEOUT_FACTOR = 5


def guards(source: str) -> list[tuple[int, int, int]]:
    """(line, start, end) of each guard's condition: line from 1, UTF-8 byte columns."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.If):
            continue
        test, first = node.test, node.body[0]
        if (test.lineno == test.end_lineno == node.lineno
                and isinstance(first, (ast.Raise, ast.Break)) and first.lineno == node.lineno + 1):
            sites.append((test.lineno, test.col_offset, test.end_col_offset))
    return sorted(sites)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--match", default="", help="keep only guards whose condition contains this")
    ap.add_argument("--tests", nargs="*", default=[], help="test paths (default: the whole suite)")
    args = ap.parse_args()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        # no bytecode cache: two mutants of one file could share its size and mtime
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", *args.tests]
        began = time.perf_counter()
        if subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode:
            print("the unmutated suite fails")
            return 1
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - began)
        for path in sorted((copy / "src" / "ptchain").glob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines(keepends=True)
            for line, start, end in guards(source):
                text = lines[line - 1].encode()  # ast columns count UTF-8 bytes
                if args.match.encode() not in text[start:end]:
                    continue
                lines[line - 1] = (text[:start] + b"False" + text[end:]).decode()
                path.write_text("".join(lines), encoding="utf-8")
                try:
                    code = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                          timeout=timeout).returncode
                    result = {0: "survived", 1: "killed"}.get(code, f"error {code}")
                except subprocess.TimeoutExpired:
                    result = "timeout"
                lines[line - 1] = text.decode()
                path.write_text(source, encoding="utf-8")
                site = f"{path.name}:{line}"
                print(f"{site},{result}", flush=True)
                if result not in ("killed", "timeout"):
                    survivors.append(f"{site} {result}: {text.decode().strip()}")
    print(f"{len(survivors)} not killed")
    for survivor in survivors:
        print(survivor)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
