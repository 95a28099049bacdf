"""Quantization conditions for the chain: real quasimomenta and the broken-phase kappa.

The real quasimomenta are the roots in (0, pi) of

    G(k) = gamma^2 sin(k(N-1)) + J^2 sin(k(N+1))
         = (gamma^2 + J^2) (cos k / cos theta) sin(N k - theta),

with theta(k) = atan(c tan k) and c = (gamma^2 - J^2)/(gamma^2 + J^2): each
root is a level F(k) = m pi of the counting function F(k) = N k - theta(k),
with m its quantization integer (`momentum_index`).  Since |theta| < pi/2,
the root of level m lies in its own bracket ((m - 1/2) pi/N, (m + 1/2) pi/N)
wherever F increases, and |G| = (gamma^2 + J^2) |cos k| at the bracket ends.
F' = N - c/(cos^2 k + c^2 sin^2 k) is negative only for 0 < c < 1/N, within
about 1/(2N) of pi/2: inside the bracket at pi/2, which holds the critical
pair.  For even N that bracket is centred on pi/2 and holds the pair
pi/2 +- x below gamma_c (c < 0) and no root above.  For odd N, pi/2 is a
root (the zero-energy mode) and the bracket (pi/2, pi/2 + pi/N) holds one
root below gamma_c (c < 1/N) and none above.  The sign of G at the ends of
each bracket decides whether it holds a root, so the real-root count rests
on evaluations of G alone.

The roots are symmetric about pi/2 (chirality), so only the offsets
x = k - pi/2 > 0 are solved: all at once, by a safeguarded Newton iteration on
G(pi/2 + x) written in x, which keeps relative accuracy in x up to the
critical pair.  In the broken phase the missing pair moves to
k = pi/2 +- i*kappa, with kappa > 0 solving

    gamma^2 sinh(kappa(N-1)) = J^2 sinh(kappa(N+1))   (odd N)
    gamma^2 cosh(kappa(N-1)) = J^2 cosh(kappa(N+1))   (even N),

found by the same iteration.  Real roots give energies -2J cos k, the
complex pair gives +-2iJ sinh kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, PhaseError, RootCountMismatch
from .model import ChainSpec, Phase, classify_phase

# Bisection alone narrows every bracket used here to 1e-15 within 60 steps.
# Newton needs 2-6 on most brackets and up to ~30 next to gamma_c, where the
# critical pair or kappa approaches a double root.
_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Quasimomenta `k` and `energies` as complex arrays, ordered by (Re E, Im E)."""

    spec: ChainSpec
    k: np.ndarray
    energies: np.ndarray
    phase: Phase


def raw_amplitude(spec: ChainSpec, k) -> np.ndarray:
    """Unnormalized Bethe amplitude e^{ik(l-N0)} - eta(k) e^{-ik(l+N0)}, l = 1..N.

    Sites run along the last axis: a scalar k gives one vector, an array of
    roots one row per root.  The starting point for the normalized
    eigenfunctions in `states`.
    """
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    n0 = (n + 1) / 2
    l = np.arange(1, n + 1)
    k = np.asarray(k)[..., None]
    eta = (g * np.exp(1j * k) - 1j * j) / (g * np.exp(-1j * k) - 1j * j)
    return np.exp(1j * k * (l - n0)) - eta * np.exp(-1j * k * (l + n0))


def _reduced_quantization(spec: ChainSpec):
    """x -> (R(x), R'(x)) elementwise, with G(pi/2 + x) = +-J^2 R(x), sign fixed by N.

    R is G / J^2 expanded about the chain centre: (r^2 - 1) cos(Nx) cos x
    + (r^2 + 1) sin(Nx) sin x for even N, with r = gamma/J, and the same with
    Nx - pi/2 in place of Nx for odd N.  Written in r, it stays finite and
    normal however small or large J is.  Its arguments grow with x, not
    with k, so R keeps relative accuracy in x right up to the critical pair;
    for odd N it vanishes exactly at x = 0 (the zero-energy mode) with slope
    (r^2 - 1) N - (r^2 + 1).
    """
    n, r = spec.n_sites, spec.gamma / spec.hopping
    dif, tot = r * r - 1.0, r * r + 1.0

    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cu, su = np.cos(n * x), np.sin(n * x)
        if n % 2:
            cu, su = su, -cu
        cx, sx = np.cos(x), np.sin(x)
        cs, sc = cu * sx, su * cx
        return (dif * cu * cx + tot * su * sx,
                (n * tot - dif) * cs + (tot - n * dif) * sc)
    return fun


def _sign_changes(fun, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(side, keep): the sign of `fun` just inside each lo; whether hi has the other.

    `fun` gives value and slope elementwise; a zero value takes its slope's sign.
    """
    f, slope = fun(np.concatenate([lo, hi]))
    m = len(lo)
    side = np.sign(np.where(f[:m] != 0, f[:m], slope[:m]))
    return side, side * np.sign(f[m:]) < 0


def _bracketed_roots(fun, lo: np.ndarray, hi: np.ndarray, seed: np.ndarray,
                     tol: float) -> np.ndarray:
    """The root of `fun` in every bracket (lo, hi) whose end signs differ.

    `fun` gives value and slope elementwise.  A bracket without a sign change
    is dropped.  Safeguarded Newton from `seed`, on all brackets at once: each
    evaluation shrinks its bracket, a step that would leave it bisects
    instead, and a root is done once its last step is at most `tol`.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    side, keep = _sign_changes(fun, lo, hi)
    lo, hi, side, x = lo[keep], hi[keep], side[keep], seed[keep]
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    roots, active = x.copy(), np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            if not len(x):
                return roots
            f, slope = fun(x)
            right = np.sign(f) == side  # the root lies above x
            lo, hi = np.where(right, x, lo), np.where(right, hi, x)
            new = x - f / slope
            new = np.where((lo < new) & (new < hi) | (new == x), new, 0.5 * (lo + hi))
            done = np.abs(new - x) <= tol
            roots[active], x = new, new
            if done.any():
                active, x, lo, hi, side = (v[~done] for v in (active, x, lo, hi, side))
    raise NonConvergence(f"{len(active)} bracketed roots not within {tol} "
                         f"after {_MAX_ITER} steps")


def _theta_slope(spec: ChainSpec) -> float:
    """c = (gamma^2 - J^2)/(gamma^2 + J^2) of theta = atan(c tan k), in r = gamma/J."""
    r = spec.gamma / spec.hopping
    return (r * r - 1.0) / (r * r + 1.0)


def _offset_brackets(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, seed) of the brackets for the roots x > 0 of the reduced function.

    One bracket per integer point k = m pi/N in [pi/2, pi): x = i pi/(2N) with
    i = N mod 2, ..., N-2 in steps of 2, widened by pi/(2N) each way and cut
    at x = 0.  The seed is the counting function's first fixed-point step
    k = (m pi + theta(m pi/N))/N.
    """
    n = spec.n_sites
    h = math.pi / (2 * n)
    centre = np.arange(n % 2, n - 1, 2) * h
    seed = centre - np.arctan2(_theta_slope(spec), np.tan(centre)) / n
    return np.maximum(centre - h, 0.0), centre + h, seed


def _positive_offsets(spec: ChainSpec, tol: float) -> np.ndarray:
    """All roots x > 0 of the reduced quantization function, ascending."""
    return _bracketed_roots(_reduced_quantization(spec), *_offset_brackets(spec),
                            min(tol, 1e-14))


def _real_roots_unchecked(spec: ChainSpec, tol: float) -> np.ndarray:
    """All roots of G in (0, pi), sorted; no count enforcement.

    None is a null state: the amplitude vanishes for every l only where
    e^{2ik} = 1, i.e. k in {0, pi}, which no bracket reaches.
    """
    half = math.pi / 2
    x = _positive_offsets(spec, tol)
    zero_mode = [half] if spec.n_sites % 2 else []  # exact zero of G for odd N
    return np.concatenate([half - x[::-1], zero_mode, half + x])


def critical_offset(spec: ChainSpec) -> float:
    """Smallest x > 0 with k = pi/2 + x a real root: the critical-pair offset."""
    offsets = _positive_offsets(spec, 1e-14)
    if not len(offsets):
        raise NonConvergence("no real root found above pi/2")
    return float(offsets[0])


def count_real_momenta(spec: ChainSpec, tol: float = 1e-12) -> int:
    """Number of real roots in (0, pi) (no count check; used for boundary bisection).

    Read from the signs of the reduced function G / J^2 at the bracket ends
    alone, the same signs that decide which brackets the solve refines, with
    no root solved: the count does not depend on `tol`, which is still
    validated.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi, _ = _offset_brackets(spec)
    _, keep = _sign_changes(_reduced_quantization(spec), lo, hi)
    return 2 * int(keep.sum()) + spec.n_sites % 2


def solve_real_momenta(spec: ChainSpec, tol: float = 1e-12) -> np.ndarray:
    """All real quasimomenta in (0, pi), sorted ascending.

    Returns N roots in the unbroken phase and N-2 in the broken phase.

    Raises
    ------
    RootCountMismatch
        If the root count is neither N nor N-2 (e.g. exactly at the
        phase boundary, where two roots coalesce).
    NonConvergence
        If a bracket fails to converge to `tol`.
    """
    roots = _real_roots_unchecked(spec, tol)
    n = spec.n_sites
    if len(roots) not in (n, n - 2):
        raise RootCountMismatch(
            f"found {len(roots)} real roots for N={n}, gamma={spec.gamma} "
            f"(expected {n} or {n - 2}); gamma may be too close to gamma_c")
    return roots


def mode_energy(spec: ChainSpec, k):
    """Real-mode energy -2J cos k, evaluated as 2J sin(k - pi/2), elementwise.

    The two forms are identical; the sine form keeps the odd-N zero mode at
    exactly 0 and preserves relative accuracy for the near-critical pair.
    """
    return 2 * spec.hopping * np.sin(k - math.pi / 2)


def momentum_index(spec: ChainSpec, k: float) -> int:
    """Quantization integer n_k with k = (n_k pi + theta_k)/N.

    theta_k = atan(((gamma^2-J^2)/(gamma^2+J^2)) tan k), principal branch, with
    the limiting value +-pi/2 at k = pi/2.  Raises ValueError when k does not
    satisfy the quantization identity to 1e-9.
    """
    n, c = spec.n_sites, _theta_slope(spec)
    if abs(math.cos(k)) < 1e-12:
        theta = math.copysign(math.pi / 2, c) if c != 0 else 0.0
    else:
        theta = math.atan(c * math.tan(k))
    nk = round((n * k - theta) / math.pi)
    resid = abs(n * k - theta - nk * math.pi)
    if resid > 1e-9:
        raise ValueError(f"k={k} violates the quantization identity (resid={resid:.2e})")
    return int(nk)


def kappa_residual(spec: ChainSpec, kappa):
    """The kappa condition scaled by 2 e^(-kappa(N+1)) / J^2, so it never overflows.

    r^2 (e^(-2kappa) -+ e^(-2kappa N)) - (1 -+ e^(-2kappa(N+1))), with r = gamma/J,
    - for odd N (sinh) and + for even N (cosh).  The value is divided by J^2,
    so it stays finite and normal however small or large J is.  Written
    through expm1 so the odd-N differences keep their relative accuracy as
    kappa -> 0.  Elementwise.
    """
    n, r = spec.n_sites, spec.gamma / spec.hopping
    s = -1.0 if n % 2 else 1.0
    x = -2.0 * kappa
    return (r * r * (1.0 + s + np.expm1(x) + s * np.expm1(x * n))
            - (1.0 + s + s * np.expm1(x * (n + 1))))


def solve_kappa(spec: ChainSpec, tol: float = 1e-14) -> float:
    """The unique kappa > 0 of the broken-phase quantization condition.

    Safeguarded Newton on (0, ln(gamma/J) + 1], where the residual changes
    sign, from the large-N limit ln(gamma/J).  Raises PhaseError outside the
    broken phase.
    """
    if classify_phase(spec) is not Phase.BROKEN:
        raise PhaseError(f"gamma={spec.gamma} is not above gamma_c={spec.gamma_c}")
    n, r = spec.n_sites, spec.gamma / spec.hopping
    s = -1.0 if n % 2 else 1.0

    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e1, en = np.exp(-2.0 * x), np.exp(-2.0 * n * x)
        return kappa_residual(spec, x), 2.0 * (s * (n + 1) * e1 * en
                                               - r * r * (e1 + s * n * en))

    hi = math.log(r) + 1.0
    kappa = _bracketed_roots(fun, np.array([1e-12]), np.array([hi]),
                             np.array([hi - 1.0]), min(tol, 1e-15))
    if not len(kappa):
        raise NonConvergence(
            f"kappa bracket (0, {hi:.3f}] lost its sign change for {spec}")
    return float(kappa[0])


def solve_spectrum(spec: ChainSpec, tol: float = 1e-12) -> SpectralSolution:
    """Full mode set: N real modes, or N-2 real plus the conjugate imaginary pair.

    Exactly at the boundary (Critical phase) the coalesced pair is missing and
    whatever real roots remain are returned best-effort.
    """
    phase = classify_phase(spec)
    j = spec.hopping

    if phase is Phase.CRITICAL:
        roots = _real_roots_unchecked(spec, tol)
    else:
        roots = solve_real_momenta(spec, tol)
        expected = spec.n_sites if phase is Phase.UNBROKEN else spec.n_sites - 2
        if len(roots) != expected:
            raise RootCountMismatch(
                f"{phase} phase expects {expected} real roots, found {len(roots)}")

    k = roots.astype(complex)
    energies = mode_energy(spec, roots).astype(complex)
    if phase is Phase.BROKEN:
        kappa = solve_kappa(spec, tol)
        level = 2 * j * math.sinh(kappa)
        k = np.append(k, [complex(math.pi / 2, kappa), complex(math.pi / 2, -kappa)])
        energies = np.append(energies, [complex(0.0, level), complex(0.0, -level)])
    order = np.lexsort((energies.imag, energies.real))
    return SpectralSolution(spec=spec, k=k[order], energies=energies[order], phase=phase)


def locate_critical_gamma(n_sites: int, hopping: float = 1.0,
                          tol: float = 1e-6) -> float:
    """gamma_c by bisection on the real-root count (N above, N-2 below).

    Independent of the closed-form boundary; agrees with it to `tol`.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    j = hopping
    lo, hi = 0.5 * j, 2.2 * j  # count N at lo, N-2 at hi, for every N >= 2

    def is_unbroken(g: float) -> bool:
        return count_real_momenta(ChainSpec(n_sites, j, g)) == n_sites

    if not is_unbroken(lo) or is_unbroken(hi):
        raise NonConvergence("root-count bracket invalid; model assumptions broken")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if is_unbroken(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
