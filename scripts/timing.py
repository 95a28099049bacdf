"""Shared pieces of the *_scaling.py scripts: their --sizes option, a timer and the slope line.

Each script is run as `python scripts/<name>.py`, which puts this directory
on the import path.
"""

import argparse
import time

import numpy as np


def parse_sizes(description: str, default: list[int]) -> list[int]:
    """The chain lengths of --sizes, at least two, so that a slope can be fitted."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--sizes", type=int, nargs="+", default=default)
    args = ap.parse_args()
    if len(args.sizes) < 2:
        ap.error("--sizes needs at least two chain lengths for a slope")
    return args.sizes


def median_seconds(fn, *args) -> float:
    """The median seconds of three calls fn(*args)."""
    calls = []
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        calls.append(time.perf_counter() - start)
    return float(np.median(calls))


def print_slope(sizes: list[int], seconds, label: str = "seconds") -> None:
    """Print the log-log slope of seconds against N: one, or one per phase for two columns.

    `seconds` holds a row per size; its two columns, if it has them, are the
    unbroken and the broken phase.  `label` names the timed quantity.
    """
    slope = np.polyfit(np.log(sizes), np.log(seconds), 1)[0]
    text = (f"{slope[0]:.2f} unbroken, {slope[1]:.2f} broken" if np.ndim(slope)
            else f"{slope:.2f}")
    print(f"slope d(log {label})/d(log N) = {text}")
