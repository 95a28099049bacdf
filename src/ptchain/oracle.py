"""Brute-force diagonalization oracle, independent of the Bethe solvers.

The characteristic polynomial D_N(x) = det(H - x I) obeys the three-term
recurrence

    D_n(x) = (d_n - x) D_{n-1}(x) - J^2 D_{n-2}(x),   d_1 = i*gamma, d_N = -i*gamma

evaluated with its derivative pointwise, with no coefficient expansion.  One
vectorized Aberth-Ehrlich iteration on D_N / D_N' (O. Aberth, Math. Comp. 27
(1973) 339; D. A. Bini, Numer. Algorithms 13 (1996)) finds all N roots, or
Newton-refines one.  Eigenvectors come from inverse iteration.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergence, SingularSolve
from .model import ChainSpec

# Aberth from the bounding circle takes N/2 to 3N/4 iterations (measured to N=500)
_ORACLE_MAX_ITER = 1000


def char_poly_ratio(spec: ChainSpec, x):
    """D_N(x) / D_N'(x) via the pointwise recurrence, rescaled against overflow.

    Elementwise on an array of points; a scalar gives a complex.  The ratio is
    all Newton and Aberth need, and the rescaling leaves it unchanged.
    """
    n, jj = spec.n_sites, spec.hopping ** 2
    x = np.asarray(x, dtype=complex)
    d_prev, d_cur = np.ones_like(x), 1j * spec.gamma - x   # D_0, D_1
    p_prev, p_cur = np.zeros_like(x), -np.ones_like(x)      # derivatives
    for m in range(2, n + 1):
        shift = (-1j * spec.gamma if m == n else 0.0) - x
        d_next = shift * d_cur - jj * d_prev
        p_next = shift * p_cur - jj * p_prev - d_cur
        d_prev, d_cur, p_prev, p_cur = d_cur, d_next, p_cur, p_next
        big = np.maximum(np.abs(d_cur), np.abs(p_cur))
        if np.max(big) > 1e150:
            big = np.where(big > 1e150, big, 1.0)
            d_prev, d_cur, p_prev, p_cur = (d_prev / big, d_cur / big,
                                            p_prev / big, p_cur / big)
    if np.any(p_cur == 0):
        raise NonConvergence("vanishing derivative in recurrence Newton")
    return d_cur / p_cur


def _seed_circle(radius: float, count: int) -> np.ndarray:
    # the fixed angular offset keeps seeds off the real and imaginary axes
    return radius * np.exp(1j * (2 * np.pi * np.arange(count) / count + 0.5))


def _aberth(ratio, seeds: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Roots by Aberth-Ehrlich simultaneous iteration, sorted (real, imag).

    `ratio(z)` is p(z)/p'(z) elementwise.  Each estimate moves by
    w_i = r_i / (1 - r_i sum_{j != i} 1/(z_i - z_j)), which is Newton for a
    single estimate, until every |w_i| < tol * max(1, |z_i|).  A non-finite
    step raises, without a numpy warning, so the iteration never converges
    on NaN.
    """
    z = np.array(seeds, dtype=complex)
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN steps raise below
            r = ratio(z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            step = r / (1.0 - r * inv.sum(axis=1))
        if not np.all(np.isfinite(step)):
            raise NonConvergence("Aberth step is not finite")
        z -= step
        if np.all(np.abs(step) < tol * np.maximum(1.0, np.abs(z))):
            return np.sort(z)
    raise NonConvergence(f"Aberth stalled after {max_iter} iterations")


def oracle_spectrum(spec: ChainSpec, tol: float = 1e-13) -> np.ndarray:
    """All N eigenvalues, seeded on the circle |E| = 2J + gamma that bounds them."""
    return _aberth(lambda z: char_poly_ratio(spec, z),
                   _seed_circle(2 * spec.hopping + spec.gamma, spec.n_sites),
                   tol, _ORACLE_MAX_ITER)


def refine_eigenvalue(spec: ChainSpec, guess: complex, tol: float = 1e-13,
                      max_iter: int = 100) -> complex:
    """Newton on the recurrence-evaluated characteristic polynomial."""
    return complex(_aberth(lambda z: char_poly_ratio(spec, z),
                           np.array([guess]), tol, max_iter)[0])


def spectral_distance(a, b) -> float:
    """Largest pairing distance between two equal-size eigenvalue multisets.

    Greedy nearest-neighbour matching; adequate when the sets agree far better
    than their internal spacing, which is what every caller asserts.  A
    non-finite entry in either set gives math.inf, so NaN never passes a bound.
    """
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return math.inf
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in b]
        m = int(np.argmin(dists))
        worst = max(worst, dists[m])
        b.pop(m)
    return worst


def oracle_eigenvector(h: np.ndarray, eigenvalue: complex,
                       tol: float = 1e-10) -> np.ndarray:
    """Unit-norm eigenvector by inverse iteration on the shifted matrix.

    A small deterministic shift keeps the solve non-singular; three reshifts
    of growing size are tried before giving up.  The returned vector satisfies
    ||H v - lambda v||_inf < 10 * tol and carries a fixed phase (largest
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
                if np.max(np.abs(h @ v - eigenvalue * v)) < 10 * tol:
                    pivot = v[int(np.argmax(np.abs(v)))]
                    v = v * (abs(pivot) / pivot)
                    return v
        except np.linalg.LinAlgError:
            continue
    raise SingularSolve(
        f"inverse iteration failed near eigenvalue {eigenvalue} after 3 reshifts")
