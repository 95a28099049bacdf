#!/usr/bin/env python3
"""Accuracy of the critical pair next to gamma_c, against a 60-digit root.

For each N and J: the worst relative error of kappa (gamma above gamma_c) and
of the offset x0 = k - pi/2 (below) over gamma/gamma_c = 1 +- 10^-k,
k = 1 .. --max-exponent, and the largest and total number of Newton passes of
the pair solve, each spec solved alone: evaluations of its condition, those
at its starts included.  The reference is the root of the same condition in
mpmath at 60 digits, at the float r = gamma/J that the solver reads, so the
error is the evaluation's, not the rounding of gamma.  Run it with
`PYTHONPATH=src python scripts/critical_pair_accuracy.py`.
"""

import argparse

import mpmath as mp

from ptchain import ChainSpec, gamma_critical
from ptchain import bethe


def _condition(n: int, r, t):
    """R(x) (even N) or R(x)/x (odd N) at t = x^2, continued to t < 0, in mpmath."""
    dif, m = r * r - 1, n - 1
    if t == 0:
        return dif if n % 2 == 0 else dif * m - 2
    x = mp.sqrt(t) if t > 0 else 1j * mp.sqrt(-t)
    if n % 2 == 0:
        value = dif * mp.cos(m * x) + 2 * mp.sin(n * x) * mp.sin(x)
    else:
        value = (dif * mp.sin(m * x) - 2 * mp.cos(n * x) * mp.sin(x)) / x
    return mp.re(value) * (mp.exp(-(n + 1) * abs(mp.im(x))) if t < 0 else 1)


def _reference(n: int, r: float, t: float):
    """The root next to the solver's t, to 60 digits."""
    if t == 0:
        return mp.mpf(0)
    r, t = mp.mpf(r), mp.mpf(t)
    for width in ("1e-9", "1e-4", "1e-1"):
        lo, hi = t * (1 - mp.mpf(width)), t * (1 + mp.mpf(width))
        if _condition(n, r, lo) * _condition(n, r, hi) < 0:
            return mp.findroot(lambda s: _condition(n, r, s), (lo, hi), solver="anderson")
    raise RuntimeError(f"no sign change next to t = {t} (N = {n}, r = {r})")


def _passes(spec: ChainSpec) -> tuple[float, int]:
    """The solver's t for `spec` and how often its solve evaluated the condition."""
    calls = []
    point = bethe._pair_point
    bethe._pair_point = lambda *args: calls.append(1) or point(*args)
    try:
        t = float(bethe._pair_roots([spec])[0])
    finally:
        bethe._pair_point = point
    return t, len(calls)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[2, 3, 8, 9, 20, 21, 64, 65, 1000, 1001, 4096, 4097])
    ap.add_argument("--hoppings", type=float, nargs="+", default=[0.5, 1.0, 3.0])
    ap.add_argument("--max-exponent", type=int, default=15)
    args = ap.parse_args()

    print("n,j,kappa_rel_err,x0_rel_err,max_passes,total_passes")
    with mp.workdps(60):
        for n in args.sizes:
            for j in args.hoppings:
                gc = gamma_critical(n, j)
                worst, passes = {1: 0.0, -1: 0.0}, []
                for k in range(1, args.max_exponent + 1):
                    for side in (1, -1):
                        spec = ChainSpec(n, j, gc * (1 + side * 10.0 ** -k))
                        t, count = _passes(spec)
                        passes.append(count)
                        want = mp.sqrt(abs(_reference(n, spec.gamma / j, t)))
                        got = abs(t) ** 0.5
                        err = float(abs(got - want) / want) if want else float(got != 0)
                        worst[side] = max(worst[side], err)
                print(f"{n},{j:g},{worst[1]:.3e},{worst[-1]:.3e},{max(passes)},{sum(passes)}")


if __name__ == "__main__":
    main()
