#!/usr/bin/env python3
"""Time oracle_spectrum and one oracle_eigenvector against the chain length N.

For each requested N, at J = 1, one row at gamma = gamma_c / 2 (unbroken
phase) and one at gamma = 1.5 gamma_c (broken phase, where the seeds put
one estimate next to the imaginary pair): the seconds one oracle_spectrum
call takes, the largest distance from its roots to the Bethe solver's
levels (solve_spectrum) at every N, and, for N <= 2000, the largest
distance to dense numpy eigvals.  Then the median seconds of one
oracle_eigenvector call, at the root of largest |Im E| (the broken pair
above gamma_c), and its residual ||H v - E v||_inf / ||v||_inf in units of
N eps max(J, |E|).  The last two lines are the log-log slopes of the two
times against N in each phase, the oracle's measured N-scaling.
"""

import time

import numpy as np

from ptchain import (ChainSpec, build_hamiltonian, gamma_critical, oracle_eigenvector,
                     oracle_spectrum, solve_spectrum, spectral_distance)
from timing import median_seconds, parse_sizes, print_slope

DENSE_MAX_N = 2000
FRACTIONS = (0.5, 1.5)  # gamma / gamma_c: unbroken, broken


def scaled_residual(spec: ChainSpec, level: complex, v: np.ndarray) -> float:
    """||H v - E v||_inf / ||v||_inf / (N eps max(J, |E|)), with H applied as a tridiagonal."""
    hv = -spec.hopping * (np.append(v[1:], 0) + np.insert(v[:-1], 0, 0))
    hv[0] += 1j * spec.gamma * v[0]
    hv[-1] -= 1j * spec.gamma * v[-1]
    scale = spec.n_sites * np.finfo(float).eps * max(spec.hopping, abs(level))
    return float(np.max(np.abs(hv - level * v)) / np.max(np.abs(v)) / scale)


def main() -> None:
    sizes = parse_sizes(__doc__, [100, 200, 500, 1000, 2000])
    print("n,gamma_over_gamma_c,seconds,bethe_distance,eigvals_distance,"
          "vector_seconds,vector_residual")
    seconds, vector_seconds = [], []
    for n in sizes:
        seconds.append([])
        vector_seconds.append([])
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
            level = roots[np.argmax(np.abs(roots.imag))]
            vector_seconds[-1].append(median_seconds(oracle_eigenvector, spec, [level]))
            residual = scaled_residual(spec, level, oracle_eigenvector(spec, [level])[0])
            print(f"{n},{frac},{seconds[-1][-1]:.4f},{bethe:.2e},{dense},"
                  f"{vector_seconds[-1][-1]:.5f},{residual:.2f}")
    print_slope(sizes, seconds)
    print_slope(sizes, vector_seconds, "vector_seconds")


if __name__ == "__main__":
    main()
