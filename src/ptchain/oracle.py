"""Brute-force diagonalization oracle, independent of the Bethe solvers.

Expanding D_N(x) = det(H - x I) along both end sites, which carry the
potentials +-i*gamma, leaves the free chain between them:

    D_N(x) = (x^2 + gamma^2 - J^2) P_{N-2}(x) + J^2 x P_{N-3}(x),

where P_m is the determinant of the free m-site chain (P_m = -x P_{m-1} -
J^2 P_{m-2}, P_0 = 1, P_{-1} = 0), so D_N is real for real x.  The pair
(P_k, P_{k-1}) is the first column of the k-th power of the free transfer
matrix [[-x, -J^2], [1, 0]], so squaring that power gives

    P_{2k} = P_k^2 - J^2 P_{k-1}^2,    P_{2k-1} = (2 P_k + x P_{k-1}) P_{k-1}.

Binary powering over the bits of N-2 (one doubling per bit, one recurrence
step per set bit, derivatives by the product rule) evaluates D_N and D_N'
pointwise in O(log N) array operations, with no coefficient expansion.  One
vectorized Aberth-Ehrlich iteration on D_N / D_N' (O. Aberth, Math. Comp. 27
(1973) 339; D. A. Bini, Numer. Algorithms 13 (1996)) finds all N roots, or
Newton-refines one.  Eigenvectors come from inverse iteration.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonConvergence, SingularSolve
from .model import ChainSpec

# Aberth from the free-chain seeds takes 3-31 iterations at N <= 80 and
# 11-17 at N = 128 and 200 (measured for J in {0.5, 1, 3} and gamma from 0
# to 1e3 gamma_c, within 1e-9 of gamma_c too), then 34-35 at N = 500, 62-63
# at N = 1000 and 124-130 at N = 2000 (J = 1, 0.5 and 1.3 gamma_c): about
# N/16 at large N
_ORACLE_MAX_ITER = 1000
_REFINE_MAX_ITER = 100
_ROOT_TOL = 1e-13  # Aberth's last step, relative to max(J, |E|)
_RESIDUAL_TOL = 1e-9  # inverse iteration's ||H v - lambda v||_inf

# The common offset of the free-chain seeds, in units of J
_SEED_OFFSET = cmath.rect(0.01, 0.5)

# A step this small (relative) that no longer shrinks has hit the rounding
# floor, which for a root of multiplicity m lies near eps^(1/m).
_FREEZE_STEP = 1e-6


def char_poly_ratio(spec: ChainSpec, x):
    """D_N(x) / D_N'(x) by end-site expansion and transfer-matrix doubling.

    Elementwise on an array of points; a scalar gives a complex.  The chain
    with hopping J has D_N(x) = J^N D_N(x/J) of the unit chain (J = 1,
    gamma/J), so the ratio is J times the unit chain's at x/J, which keeps
    J^2 and every power of J out of the arithmetic for any J.
    """
    j = spec.hopping
    return j * _unit_ratio(spec.n_sites, spec.gamma / j, np.asarray(x, dtype=complex) / j)


def _unit_ratio(n: int, gamma: float, x: np.ndarray):
    """D_N(x) / D_N'(x) of the unit chain (J = 1) at the complex points x.

    The ratio is all Newton and Aberth need: it is unchanged by the common
    rescaling of (P_k, P_{k-1}, P_k', P_{k-1}') that keeps them in range for
    any N.
    """
    m = n - 2
    one, zero = np.ones_like(x), np.zeros_like(x)
    # (P_k, P_{k-1}, P_k', P_{k-1}') at k = 1, or at k = 0 when N = 2
    p, q, dp, dq = (-x, one, -one, zero) if m else (one, zero, zero, zero)
    for bit in bin(m)[3:]:  # k -> 2k, then k -> k + 1 on a set bit
        s = 2 * p + x * q
        p, q, dp, dq = (p * p - q * q, s * q, 2 * (p * dp - q * dq),
                        (2 * dp + q + x * dq) * q + s * dq)
        if bit == "1":
            p, q, dp, dq = -x * p - q, p, -p - x * dp - dq, dp
        # squaring doubles the exponent: rescale before it can leave the range
        big = np.maximum(np.maximum(np.abs(p), np.abs(q)),
                         np.maximum(np.abs(dp), np.abs(dq)))
        if not 1e-100 <= big.min() <= big.max() <= 1e100:
            big = np.where((big < 1e-100) | (big > 1e100), big, 1.0)
            p, q, dp, dq = p / big, q / big, dp / big, dq / big
    c = x * x + (gamma ** 2 - 1.0)
    d_prime = 2 * x * p + c * dp + (q + x * dq)
    if np.any(d_prime == 0):
        raise NonConvergence("vanishing derivative in recurrence Newton")
    return (c * p + x * q) / d_prime


def _aberth(ratio, seeds: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Roots by Aberth-Ehrlich simultaneous iteration, sorted (real, imag).

    `ratio(z)` is p(z)/p'(z) elementwise.  Each estimate moves by
    w_i = r_i / (1 - r_i sum_{j != i} 1/(z_i - z_j)), which is Newton for a
    single estimate, until every |w_i| < tol * max(1, |z_i|).  An estimate
    whose step is below 1e-6 * max(1, |z_i|) and no smaller than its previous
    step is frozen where it stands, so the iteration ends at a multiple root
    too.  In general a root of multiplicity m is determined only to about
    eps^(1/m) relative (6e-6 for m = 3), as it is by dense eigvals; the
    triple root E = 0 of an odd chain at gamma_c, where D_N is odd in x,
    comes out within about sqrt(eps) J.  A non-finite step raises, without a
    numpy warning, so the iteration never converges on NaN.
    """
    z = np.array(seeds, dtype=complex)
    moving = np.ones(z.shape, dtype=bool)
    last = np.full(z.shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN steps raise below
        for _ in range(max_iter):
            r = ratio(z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = np.divide(1.0, diff, out=diff)  # in place: N^2 arrays bound large N
            np.fill_diagonal(inv, 0.0)
            step = r / (1.0 - r * inv.sum(axis=1))
            if not np.all(np.isfinite(step)):
                raise NonConvergence("Aberth step is not finite")
            size = np.abs(step)
            moving &= (size >= _FREEZE_STEP * np.maximum(1.0, np.abs(z))) | (size < last)
            last = size
            z -= np.where(moving, step, 0.0)
            if np.all(~moving | (size < tol * np.maximum(1.0, np.abs(z)))):
                return np.sort(z)
    raise NonConvergence(f"Aberth stalled after {max_iter} iterations")


def _unit_roots(spec: ChainSpec, seeds: np.ndarray, max_iter: int) -> np.ndarray:
    """Aberth on the unit chain (J = 1, gamma/J) from seeds in units of J; roots times J."""
    j, gamma = spec.hopping, spec.gamma / spec.hopping
    return j * _aberth(lambda z: _unit_ratio(spec.n_sites, gamma, z), seeds, _ROOT_TOL, max_iter)


def oracle_spectrum(spec: ChainSpec) -> np.ndarray:
    """All N eigenvalues, seeded at the free-chain levels -2J cos(m pi/(N+1)).

    At gamma = 0 these are the roots; for gamma > 0 they sit close to all but
    the critical pair.  Every seed is moved by the same offset J 0.01 e^{0.5i}.
    Real seeds would stay on the real axis, where D_N is real.  Aberth keeps
    the symmetry z -> -conj(z) of D_N's roots in any seed set that has it;
    a purely imaginary offset keeps it too, and takes up to 49 iterations
    where this one takes 31.  The roots are those of the unit chain (J = 1,
    gamma/J) times J, so `_ROOT_TOL` is relative to max(J, |E|).
    """
    n = spec.n_sites
    seeds = -2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)) + _SEED_OFFSET
    return _unit_roots(spec, seeds, _ORACLE_MAX_ITER)


def refine_eigenvalue(spec: ChainSpec, guess: complex) -> complex:
    """Newton on the pointwise-evaluated characteristic polynomial, on the unit chain."""
    return complex(_unit_roots(spec, np.array([guess / spec.hopping]), _REFINE_MAX_ITER)[0])


def spectral_distance(a, b) -> float:
    """Largest pairing distance between two equal-size eigenvalue multisets.

    Greedy nearest-neighbour matching, in the order of `a`; adequate when the
    sets agree far better than their internal spacing, which is what every
    caller asserts.  When the nearest neighbours in `b` of the entries of `a`
    are all distinct, no entry's first choice is ever taken by another, so
    the greedy pairing is the nearest-neighbour one and needs no loop.  A
    non-finite entry in either set gives math.inf, so NaN never passes a bound.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return math.inf
    if not len(a):
        return 0.0
    diff = a[:, None] - b[None, :]
    dist = np.hypot(diff.real, diff.imag)  # abs() of each; np.abs can be 1 ulp off
    nearest = np.argmin(dist, axis=1)
    if len(set(nearest.tolist())) == len(a):
        return float(dist[np.arange(len(a)), nearest].max())
    worst, free = 0.0, np.arange(len(b))
    for row in dist:
        m = int(np.argmin(row[free]))
        worst = max(worst, row[free[m]])
        free = np.delete(free, m)
    return float(worst)


def oracle_eigenvector(h: np.ndarray, eigenvalue: complex) -> np.ndarray:
    """Unit-norm eigenvector by inverse iteration on the shifted matrix.

    A small deterministic shift keeps the solve non-singular; three reshifts
    of growing size are tried before giving up.  The returned vector satisfies
    ||H v - lambda v||_inf < `_RESIDUAL_TOL` and carries a fixed phase (largest
    component real non-negative).
    """
    n = h.shape[0]
    scale = max(1.0, float(np.max(np.abs(h))))
    ident = np.eye(n)
    v0 = np.ones(n, dtype=complex) / math.sqrt(n)
    for magnitude in (1e-12, 1e-9, 1e-6, 1e-4):
        shift = magnitude * scale * (0.7183 + 0.3817j)
        try:
            lu = h - (eigenvalue + shift) * ident
            v = v0
            for _ in range(30):
                w = np.linalg.solve(lu, v)
                v = w / np.linalg.norm(w)
                if np.max(np.abs(h @ v - eigenvalue * v)) < _RESIDUAL_TOL:
                    pivot = v[int(np.argmax(np.abs(v)))]
                    v = v * (abs(pivot) / pivot)
                    return v
        except np.linalg.LinAlgError:
            continue
    raise SingularSolve(
        f"inverse iteration failed near eigenvalue {eigenvalue} after 3 reshifts")
