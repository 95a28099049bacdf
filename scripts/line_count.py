#!/usr/bin/env python3
"""Count the lines of each module of the ptchain package.

Prints `module,raw,code` for every .py file of the package, then a `total`
row.  `raw` counts every line; `code` leaves out blank lines, comment-only
lines and the lines of docstrings (the leading string of a module, class or
function).  `--root` names another package directory, for example a second
checkout's, so that two trees can be compared.
"""

import argparse
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptchain"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers, from 1, of the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw, code) line counts of one module's source."""
    lines = source.splitlines()
    skip = docstring_lines(ast.parse(source))
    code = sum(1 for number, line in enumerate(lines, start=1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=PACKAGE, help="package directory to count")
    args = ap.parse_args()
    modules = sorted(args.root.glob("*.py"))
    if not modules:
        ap.error(f"no .py files in {args.root}")

    print("module,raw,code")
    total_raw = total_code = 0
    for path in modules:
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{path.stem},{raw},{code}")
    print(f"total,{total_raw},{total_code}")


if __name__ == "__main__":
    main()
