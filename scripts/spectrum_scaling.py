#!/usr/bin/env python3
"""Time solve_spectrum against the chain length N.

For each requested N, at J = 1: the median seconds of three solve_spectrum
calls at gamma = gamma_c / 2 (unbroken phase) and at gamma = 1.5 gamma_c
(broken phase), each after one untimed warm-up call.  The last line is the
log-log slope of time against N in each phase, the Bethe solve's measured
N-scaling.
"""

import argparse
import time

import numpy as np

from ptchain import ChainSpec, gamma_critical, solve_spectrum

FRACTIONS = (0.5, 1.5)  # gamma / gamma_c: unbroken, broken


def _median_seconds(spec: ChainSpec) -> float:
    solve_spectrum(spec)  # the warm-up call
    calls = []
    for _ in range(3):
        start = time.perf_counter()
        solve_spectrum(spec)
        calls.append(time.perf_counter() - start)
    return float(np.median(calls))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[10**3, 10**4, 10**5, 10**6])
    args = ap.parse_args()
    if len(args.sizes) < 2:
        ap.error("--sizes needs at least two chain lengths for a slope")

    print("n,unbroken_seconds,broken_seconds")
    seconds = []
    for n in args.sizes:
        seconds.append([_median_seconds(ChainSpec(n, 1.0, f * gamma_critical(n)))
                        for f in FRACTIONS])
        print(f"{n},{seconds[-1][0]:.6f},{seconds[-1][1]:.6f}")
    slopes = np.polyfit(np.log(args.sizes), np.log(seconds), 1)[0]
    print(f"slope d(log seconds)/d(log N) = {slopes[0]:.2f} unbroken, {slopes[1]:.2f} broken")


if __name__ == "__main__":
    main()
