#!/usr/bin/env python3
"""Time solve_spectrum against the chain length N.

For each requested N, at J = 1: the median seconds of three solve_spectrum
calls at gamma = gamma_c / 2 (unbroken phase) and at gamma = 1.5 gamma_c
(broken phase), each after one untimed warm-up call.  The last line is the
log-log slope of time against N in each phase, the Bethe solve's measured
N-scaling.
"""

from ptchain import ChainSpec, gamma_critical, solve_spectrum
from timing import median_seconds, parse_sizes, print_slope

FRACTIONS = (0.5, 1.5)  # gamma / gamma_c: unbroken, broken


def _median_seconds(spec: ChainSpec) -> float:
    solve_spectrum(spec)  # the warm-up call
    return median_seconds(solve_spectrum, spec)


def main() -> None:
    sizes = parse_sizes(__doc__, [10**3, 10**4, 10**5, 10**6])
    print("n,unbroken_seconds,broken_seconds")
    seconds = []
    for n in sizes:
        seconds.append([_median_seconds(ChainSpec(n, 1.0, f * gamma_critical(n)))
                        for f in FRACTIONS])
        print(f"{n},{seconds[-1][0]:.6f},{seconds[-1][1]:.6f}")
    print_slope(sizes, seconds)


if __name__ == "__main__":
    main()
