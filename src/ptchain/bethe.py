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

# An unnormalized amplitude vector this small is a null state (`states` rejects it).
NULL_STATE_THRESHOLD = 1e-10

# Bisection alone narrows every bracket used here to 1e-15 within 60 steps.
# Newton needs 2-6 on most brackets and up to ~30 next to gamma_c, where the
# critical pair or kappa approaches a double root.
_MAX_ITER = 100


@dataclass(frozen=True)
class Mode:
    """One eigen-solution: quasimomentum (possibly complex) and its energy.

    Real modes carry k in (0, pi) with energy -2J cos k (imaginary part exactly
    zero); broken-phase modes carry k = pi/2 +- i*kappa with energy
    +-2iJ sinh kappa (real part exactly zero).
    """

    k: complex
    energy: complex

    @property
    def is_real(self) -> bool:
        return self.k.imag == 0.0

    @property
    def kappa(self) -> float:
        return abs(self.k.imag)

    @property
    def branch(self) -> int:
        """+1 / -1 for the two members of the complex pair, 0 for real modes."""
        return int(np.sign(self.k.imag))


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Quasimomenta `k` and `energies` as complex arrays, ordered by (Re E, Im E)."""

    spec: ChainSpec
    k: np.ndarray
    energies: np.ndarray
    phase: Phase

    @property
    def modes(self) -> tuple[Mode, ...]:
        return tuple(Mode(k=complex(k), energy=complex(e))
                     for k, e in zip(self.k, self.energies))


def raw_amplitude(spec: ChainSpec, k: complex) -> np.ndarray:
    """Unnormalized Bethe amplitude e^{ik(l-N0)} - eta(k) e^{-ik(l+N0)}, l = 1..N.

    The starting point for the normalized eigenfunctions in `states`, which
    reject a vector below NULL_STATE_THRESHOLD as a null state.
    """
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    n0 = (n + 1) / 2
    l = np.arange(1, n + 1)
    eta = (g * np.exp(1j * k) - 1j * j) / (g * np.exp(-1j * k) - 1j * j)
    return np.exp(1j * k * (l - n0)) - eta * np.exp(-1j * k * (l + n0))


def _reduced_quantization(spec: ChainSpec):
    """x -> (R(x), R'(x)) elementwise, with G(pi/2 + x) = +-R(x), the sign fixed by N.

    R is G expanded about the chain centre: (gamma^2 - J^2) cos(Nx) cos x
    + (gamma^2 + J^2) sin(Nx) sin x for even N, and the same with Nx - pi/2
    in place of Nx for odd N.  Its arguments grow with x, not with k, so R
    keeps relative accuracy in x right up to the critical pair; for odd N it
    vanishes exactly at x = 0 (the zero-energy mode) with slope
    (gamma^2 - J^2) N - (gamma^2 + J^2).
    """
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    dif, tot = g * g - j * j, g * g + j * j

    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cu, su = np.cos(n * x), np.sin(n * x)
        if n % 2:
            cu, su = su, -cu
        cx, sx = np.cos(x), np.sin(x)
        cs, sc = cu * sx, su * cx
        return (dif * cu * cx + tot * su * sx,
                (n * tot - dif) * cs + (tot - n * dif) * sc)
    return fun


def _bracketed_roots(fun, lo: np.ndarray, hi: np.ndarray, seed: np.ndarray,
                     tol: float) -> np.ndarray:
    """The root of `fun` in every bracket (lo, hi) whose end signs differ.

    `fun` gives value and slope elementwise.  Where the value at lo is exactly
    zero its slope gives the sign just inside the bracket.  A bracket without
    a sign change is dropped.  Safeguarded Newton from `seed`, on all brackets
    at once: each evaluation shrinks its bracket, a step that would leave it
    bisects instead, and a root is done once its last step is at most `tol`.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    f, slope = fun(np.concatenate([lo, hi]))
    m = len(lo)
    side = np.sign(np.where(f[:m] != 0, f[:m], slope[:m]))
    keep = side * np.sign(f[m:]) < 0
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


def _positive_offsets(spec: ChainSpec, tol: float) -> np.ndarray:
    """All roots x > 0 of the reduced quantization function, ascending.

    One bracket per integer point k = m pi/N in [pi/2, pi): x = i pi/(2N) with
    i = N mod 2, ..., N-2 in steps of 2, widened by pi/(2N) each way and cut
    at x = 0.  Newton starts from the counting function's first fixed-point
    step k = (m pi + theta(m pi/N))/N.
    """
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    c = (g * g - j * j) / (g * g + j * j)
    h = math.pi / (2 * n)
    centre = np.arange(n % 2, n - 1, 2) * h
    seed = centre - np.arctan2(c, np.tan(centre)) / n
    return _bracketed_roots(_reduced_quantization(spec), np.maximum(centre - h, 0.0),
                            centre + h, seed, min(tol, 1e-14))


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
    """Number of real roots in (0, pi) (no count check; used for boundary bisection)."""
    return len(_real_roots_unchecked(spec, tol))


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
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    c = (g * g - j * j) / (g * g + j * j)
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
    """The kappa condition scaled by 2 e^(-kappa(N+1)), so it never overflows.

    gamma^2 (e^(-2kappa) -+ e^(-2kappa N)) - J^2 (1 -+ e^(-2kappa(N+1))), with
    - for odd N (sinh) and + for even N (cosh); written through expm1 so the
    odd-N differences keep their relative accuracy as kappa -> 0.  Elementwise.
    """
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    s = -1.0 if n % 2 else 1.0
    x = -2.0 * kappa
    return (g * g * (1.0 + s + np.expm1(x) + s * np.expm1(x * n))
            - j * j * (1.0 + s + s * np.expm1(x * (n + 1))))


def solve_kappa(spec: ChainSpec, tol: float = 1e-14) -> float:
    """The unique kappa > 0 of the broken-phase quantization condition.

    Safeguarded Newton on (0, ln(gamma/J) + 1], where the residual changes
    sign, from the large-N limit ln(gamma/J).  Raises PhaseError outside the
    broken phase.
    """
    if classify_phase(spec) is not Phase.BROKEN:
        raise PhaseError(f"gamma={spec.gamma} is not above gamma_c={spec.gamma_c}")
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    s = -1.0 if n % 2 else 1.0

    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e1, en = np.exp(-2.0 * x), np.exp(-2.0 * n * x)
        return kappa_residual(spec, x), 2.0 * (s * (n + 1) * j * j * e1 * en
                                               - g * g * (e1 + s * n * en))

    hi = math.log(g / j) + 1.0
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
