#!/usr/bin/env python3
"""Time oracle_spectrum against the chain length N.

For each requested N, at J = 1, one row at gamma = gamma_c / 2 (unbroken
phase) and one at gamma = 1.5 gamma_c (broken phase, where the seeds put
one estimate next to the imaginary pair): the seconds one oracle_spectrum
call takes, the largest distance from its roots to the Bethe solver's
levels (solve_spectrum) at every N, and, for N <= 2000, the largest
distance to dense numpy eigvals.  The last line is the log-log slope of
time against N in each phase, the oracle's measured N-scaling.
"""

import time

import numpy as np

from ptchain import (ChainSpec, build_hamiltonian, gamma_critical, oracle_spectrum,
                     solve_spectrum, spectral_distance)
from timing import parse_sizes, print_slope

DENSE_MAX_N = 2000
FRACTIONS = (0.5, 1.5)  # gamma / gamma_c: unbroken, broken


def main() -> None:
    sizes = parse_sizes(__doc__, [100, 200, 500, 1000, 2000])
    print("n,gamma_over_gamma_c,seconds,bethe_distance,eigvals_distance")
    seconds = []
    for n in sizes:
        seconds.append([])
        for frac in FRACTIONS:
            spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
            start = time.perf_counter()
            roots = oracle_spectrum(spec)
            seconds[-1].append(time.perf_counter() - start)
            bethe = spectral_distance(roots, solve_spectrum(spec).energies)
            dense = ""
            if n <= DENSE_MAX_N:
                dense = spectral_distance(roots, np.linalg.eigvals(build_hamiltonian(spec)))
                dense = f"{dense:.2e}"
            print(f"{n},{frac},{seconds[-1][-1]:.4f},{bethe:.2e},{dense}")
    print_slope(sizes, seconds)


if __name__ == "__main__":
    main()
