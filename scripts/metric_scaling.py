#!/usr/bin/env python3
"""Time equivalent_hermitian against the chain length N.

For each requested N, at gamma = gamma_c / 2 and J = 1: the median seconds
of three equivalent_hermitian calls, after one untimed warm-up call whose
result is kept; the median seconds of three hermitian_equivalent calls on
one metric decomposition, the transform stage alone; and the largest
distance of the kept Hermitian equivalent from the one built with LAPACK's
SVD in place of the one-sided Jacobi solve (the eigh-driven pipeline): of
the square sector block Z^T for even N, of the sublattice blocks for odd N.
The default sizes pair each even N with an odd one, so both parities are
timed.
The last line is the log-log slope of the median equivalent_hermitian time
against N, the pipeline's measured N-scaling.
"""

import numpy as np

from ptchain import (ChainSpec, equivalent_hermitian, gamma_critical, hermitian_equivalent,
                     metric, metric_decomposition)
from timing import median_seconds, parse_sizes, print_slope


def _svd(blocks):
    """(K V, V, sigma) of each block K from its full SVD, sigma 0 on the null columns."""
    solved = []
    for block in blocks:
        _, sigma, vt = np.linalg.svd(block)
        solved.append((block @ vt.T, vt.T, np.pad(sigma, (0, block.shape[1] - sigma.size))))
    return solved


def _eigh_driven(spec: ChainSpec) -> np.ndarray:
    solve, metric._one_sided_jacobi = metric._one_sided_jacobi, _svd
    try:
        return equivalent_hermitian(spec).h_matrix
    finally:
        metric._one_sided_jacobi = solve


def main() -> None:
    sizes = parse_sizes(__doc__, [64, 65, 128, 129, 256, 257, 512, 513, 1024, 1025])
    print("n,seconds,transform_seconds,eigh_distance")
    seconds = []
    for n in sizes:
        spec = ChainSpec(n, 1.0, 0.5 * gamma_critical(n))
        got = equivalent_hermitian(spec).h_matrix  # the warm-up call
        seconds.append(median_seconds(equivalent_hermitian, spec))
        transform = median_seconds(hermitian_equivalent, metric_decomposition(spec), spec)
        distance = float(np.max(np.abs(got - _eigh_driven(spec))))
        print(f"{n},{seconds[-1]:.4f},{transform:.6f},{distance:.2e}")
    print_slope(sizes, seconds)


if __name__ == "__main__":
    main()
