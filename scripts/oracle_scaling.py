#!/usr/bin/env python3
"""Time oracle_spectrum against the chain length N.

For each requested N, at gamma = gamma_c / 2 and J = 1: the seconds one
oracle_spectrum call takes and, for N <= 2000, the largest distance from its
roots to dense numpy eigvals.  The last line is the log-log slope of time
against N, the oracle's measured N-scaling.
"""

import argparse
import time

import numpy as np

from ptchain import (ChainSpec, build_hamiltonian, gamma_critical, oracle_spectrum,
                     spectral_distance)

DENSE_MAX_N = 2000


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 500, 1000, 2000])
    args = ap.parse_args()
    if len(args.sizes) < 2:
        ap.error("--sizes needs at least two chain lengths for a slope")

    print("n,seconds,eigvals_distance")
    seconds = []
    for n in args.sizes:
        spec = ChainSpec(n, 1.0, 0.5 * gamma_critical(n))
        start = time.perf_counter()
        roots = oracle_spectrum(spec)
        seconds.append(time.perf_counter() - start)
        distance = ""
        if n <= DENSE_MAX_N:
            dense = np.linalg.eigvals(build_hamiltonian(spec))
            distance = f"{spectral_distance(roots, dense):.2e}"
        print(f"{n},{seconds[-1]:.4f},{distance}")
    slope = np.polyfit(np.log(args.sizes), np.log(seconds), 1)[0]
    print(f"slope d(log seconds)/d(log N) = {slope:.2f}")


if __name__ == "__main__":
    main()
