"""Brute-force diagonalization oracle, independent of the Bethe solvers.

The characteristic polynomial comes from the tridiagonal three-term recurrence

    D_n(x) = (d_n - x) D_{n-1}(x) - J^2 D_{n-2}(x),   d_1 = i*gamma, d_N = -i*gamma

expanded in coefficients; its roots come from Durand-Kerner simultaneous
iteration with compensated-Horner evaluation.  Eigenvectors come from inverse
iteration.  For large chains the recurrence is evaluated pointwise (no
coefficient expansion) and selected eigenvalues are Newton-refined.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularSolve
from .model import ChainSpec

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


@dataclass(frozen=True)
class CharPoly:
    """det(H - x I) as ascending coefficients; leading coefficient (-1)^N."""

    coefficients: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def char_poly(spec: ChainSpec) -> CharPoly:
    n, j = spec.n_sites, spec.hopping
    d = np.zeros(n, dtype=complex)
    d[0], d[-1] = 1j * spec.gamma, -1j * spec.gamma

    prev2 = np.array([1.0 + 0j])           # D_0
    prev1 = np.array([d[0], -1.0 + 0j])    # D_1 = d_1 - x
    for m in range(1, n):
        cur = np.zeros(m + 2, dtype=complex)
        cur[: m + 1] += d[m] * prev1       # d_m * D_{m-1}
        cur[1: m + 2] -= prev1             # -x * D_{m-1}
        cur[: m] -= j * j * prev2
        prev2, prev1 = prev1, cur
    return CharPoly(coefficients=prev1)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_prod_complex(x: complex, y: complex) -> tuple[complex, complex]:
    p1, e1 = _two_prod(x.real, y.real)
    p2, e2 = _two_prod(x.imag, y.imag)
    p3, e3 = _two_prod(x.real, y.imag)
    p4, e4 = _two_prod(x.imag, y.real)
    re, f1 = _two_sum(p1, -p2)
    im, f2 = _two_sum(p3, p4)
    return complex(re, im), complex(e1 - e2 + f1, e3 + e4 + f2)


def _two_sum_complex(x: complex, y: complex) -> tuple[complex, complex]:
    re, er = _two_sum(x.real, y.real)
    im, ei = _two_sum(x.imag, y.imag)
    return complex(re, im), complex(er, ei)


def compensated_horner(coeffs: np.ndarray, x: complex) -> complex:
    """Horner evaluation with error-free transformations (ascending coeffs)."""
    r = complex(coeffs[-1])
    err = 0j
    for c in coeffs[-2::-1]:
        p, ep = _two_prod_complex(r, x)
        s, es = _two_sum_complex(p, complex(c))
        r = s
        err = err * x + (ep + es)
    return r + err


def poly_roots(poly: CharPoly, tol: float = 1e-13,
               max_iter: int = 1000) -> np.ndarray:
    """All roots by Durand-Kerner iteration, deterministic seed geometry.

    Initial guesses sit on a circle of radius 1 + max|c_i / c_N| with a fixed
    angular offset; iteration stops when the largest correction is below tol.
    """
    deg = poly.degree
    if deg < 1:
        raise ValueError("polynomial degree must be >= 1")
    monic = poly.coefficients / poly.coefficients[-1]
    radius = 1.0 + float(np.max(np.abs(monic[:-1])))
    z = np.array([radius * cmath.exp(1j * (2 * math.pi * m / deg + 0.5))
                  for m in range(deg)])

    for _ in range(max_iter):
        max_step = 0.0
        for m in range(deg):
            den = 1.0 + 0j
            for other in range(deg):
                if other != m:
                    den *= z[m] - z[other]
            if den == 0:
                den = 1e-30
            step = compensated_horner(monic, z[m]) / den
            z[m] -= step
            max_step = max(max_step, abs(step))
        if max_step < tol:
            return np.array(sorted(z, key=lambda w: (w.real, w.imag)))
    raise NonConvergence(f"Durand-Kerner stalled after {max_iter} iterations")


def oracle_spectrum(spec: ChainSpec, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of the chain from the characteristic-polynomial oracle."""
    return poly_roots(char_poly(spec), tol)


def char_poly_ratio(spec: ChainSpec, x: complex) -> complex:
    """D_N(x) / D_N'(x) via the pointwise recurrence, rescaled against overflow.

    No coefficient expansion, so it stays stable for N of a few hundred; the
    ratio is all Newton needs and is invariant under the rescaling.
    """
    n, j = spec.n_sites, spec.hopping
    jj = j * j
    d_prev, d_cur = 1.0 + 0j, 1j * spec.gamma - x   # D_0, D_1
    p_prev, p_cur = 0j, -1.0 + 0j                   # derivatives
    for m in range(2, n + 1):
        dm = -1j * spec.gamma if m == n else 0.0
        d_next = (dm - x) * d_cur - jj * d_prev
        p_next = -d_cur + (dm - x) * p_cur - jj * p_prev
        d_prev, d_cur, p_prev, p_cur = d_cur, d_next, p_cur, p_next
        big = max(abs(d_cur), abs(p_cur))
        if big > 1e150:
            d_prev /= big
            d_cur /= big
            p_prev /= big
            p_cur /= big
    if p_cur == 0:
        raise NonConvergence("vanishing derivative in recurrence Newton")
    return d_cur / p_cur


def refine_eigenvalue(spec: ChainSpec, guess: complex, tol: float = 1e-13,
                      max_iter: int = 100) -> complex:
    """Newton on the recurrence-evaluated characteristic polynomial."""
    x = complex(guess)
    for _ in range(max_iter):
        step = char_poly_ratio(spec, x)
        x -= step
        if abs(step) < tol * max(1.0, abs(x)):
            return x
    raise NonConvergence(f"eigenvalue Newton stalled near {guess}")


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
