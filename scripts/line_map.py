#!/usr/bin/env python3
"""Line map: which executable lines of src/ptchain does no test run?

Runs the test suite (the whole suite, or the `--tests` paths, relative to
the checkout) in this process, under a `sys.settrace` hook that follows
only the frames of code in src/ptchain and records each line they run.  A
module's executable lines are those that its code objects list in
`co_lines`: the module's own and every function's, class body's and
comprehension's in it.  Prints `module.py:line: source` for every
executable line that no test ran, in file order, then `<count> unreached`.
pytest's own report goes to stderr.  Exits with pytest's exit code: a
failing test leaves the map incomplete.  Lines run only in a subprocess,
such as a `python -m ptchain.cli` test's, count as unreached.
"""

import argparse
import contextlib
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptchain"


def executable_lines(path: Path) -> set[int]:
    """The line numbers, from 1, that the code objects compiled from `path` list in co_lines."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


class LineRecorder:
    """A trace function that records (file, line) of every line run in the package."""

    def __init__(self, package: Path):
        self.prefix = str(package) + os.sep
        self.ran: set[tuple[str, int]] = set()
        self._follow: dict[object, str | None] = {}  # code -> its resolved file, if followed

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if code not in self._follow:
            path = os.path.realpath(code.co_filename)
            self._follow[code] = path if path.startswith(self.prefix) else None
        return self._line if self._follow[code] else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add((self._follow[frame.f_code], frame.f_lineno))
        return self._line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tests", nargs="*", default=[], help="test paths (default: the whole suite)")
    args = ap.parse_args()
    os.chdir(ROOT)  # pytest finds pyproject.toml, its testpaths and pythonpath
    recorder = LineRecorder(PACKAGE.resolve())
    threading.settrace(recorder)
    sys.settrace(recorder)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                *args.tests])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = 0
    for path in sorted(PACKAGE.resolve().glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in recorder.ran:
                print(f"{path.name}:{line}: {source[line - 1].strip()}")
                unreached += 1
    print(f"{unreached} unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
