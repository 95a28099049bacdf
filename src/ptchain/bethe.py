"""Quantization conditions for the chain: real quasimomenta and the broken-phase kappa.

In the unbroken phase the condition

    G(k) = gamma^2 sin(k(N-1)) + J^2 sin(k(N+1)) = 0,    k in (0, pi)

has N roots with non-null amplitude vectors; in the broken phase it has N-2,
and the missing pair moves to k = pi/2 +- i*kappa with kappa > 0 solving

    gamma^2 sinh(kappa(N-1)) = J^2 sinh(kappa(N+1))   (odd N)
    gamma^2 cosh(kappa(N-1)) = J^2 cosh(kappa(N+1))   (even N).

Real roots give energies -2J cos k, the complex pair gives +-2iJ sinh kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, PhaseError, RootCountMismatch
from .model import ChainSpec, Phase, classify_phase

# An unnormalized amplitude vector this small is a null state (`states` rejects it).
NULL_STATE_THRESHOLD = 1e-10

_DEDUPE_TOL = 1e-11


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


@dataclass(frozen=True)
class SpectralSolution:
    spec: ChainSpec
    modes: tuple[Mode, ...]
    phase: Phase

    @property
    def energies(self) -> np.ndarray:
        return np.array([m.energy for m in self.modes])


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


def _quantization(spec: ChainSpec):
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    a, b = g * g, j * j

    def gfun(k: float) -> float:
        return a * math.sin(k * (n - 1)) + b * math.sin(k * (n + 1))

    def dgfun(k: float) -> float:
        return a * (n - 1) * math.cos(k * (n - 1)) + b * (n + 1) * math.cos(k * (n + 1))

    return gfun, dgfun


def _sinc(t: float) -> float:
    return 1.0 - t * t / 6.0 if abs(t) < 1e-4 else math.sin(t) / t


def _reduced_quantization(spec: ChainSpec):
    """G(pi/2 + x) up to a constant sign, in a cancellation-controlled form.

    The spectrum is chiral, so the roots of G are symmetric about pi/2 and the
    whole set is recovered from x > 0.  For odd N the trivial root at x = 0
    (the zero-energy mode) is divided out, which keeps the sign of the
    function reliable arbitrarily close to the phase boundary.
    """
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    a, b = g * g, j * j
    if n % 2:
        def fun(x: float) -> float:
            return ((a - b) * n * _sinc(n * x) * math.cos(x)
                    - (a + b) * math.cos(n * x) * _sinc(x))

        def grid_fun(x: np.ndarray) -> np.ndarray:
            return ((a - b) * n * np.sinc(n * x / np.pi) * np.cos(x)
                    - (a + b) * np.cos(n * x) * np.sinc(x / np.pi))
    else:
        def fun(x: float) -> float:
            return ((a - b) * math.cos(n * x) * math.cos(x)
                    + (a + b) * math.sin(n * x) * math.sin(x))

        def grid_fun(x: np.ndarray) -> np.ndarray:
            return ((a - b) * np.cos(n * x) * np.cos(x)
                    + (a + b) * np.sin(n * x) * np.sin(x))
    return fun, grid_fun


def _positive_offsets(spec: ChainSpec, tol: float) -> list[float]:
    """All roots x > 0 of the reduced quantization function in (0, pi/2)."""
    n = spec.n_sites
    fun, grid_fun = _reduced_quantization(spec)
    gfun, dgfun = _quantization(spec)
    hi = math.pi / 2 - 1e-9  # x = pi/2 is k = pi, always a null state
    uniform = np.linspace(hi / max(25 * n, 200), hi, max(25 * n, 200))
    # log-spaced points resolve the critical pair arbitrarily close to pi/2
    xs = np.concatenate([np.logspace(-13, math.log10(uniform[0]), 120), uniform])
    vals = grid_fun(xs)

    xtol = min(tol, 1e-14)
    offsets: list[float] = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        x = _bisect(fun, xs[i], xs[i + 1], vals[i], xtol)
        # polish on the raw condition; it backs off where cancellation bites
        k = _newton_polish(gfun, dgfun, math.pi / 2 + x, math.pi / 2 + xs[i],
                           math.pi / 2 + xs[i + 1])
        offsets.append(k - math.pi / 2)
    for i in np.nonzero(vals == 0.0)[0]:
        offsets.append(float(xs[i]))
    offsets.sort()
    deduped: list[float] = []
    for x in offsets:
        if not deduped or x - deduped[-1] > _DEDUPE_TOL:
            deduped.append(x)
    return deduped


def _bisect(f, lo: float, hi: float, flo: float, tol: float) -> float:
    """Bisection on a sign-change bracket, then a capped Newton-free midpoint."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    else:
        raise NonConvergence(f"bisection stalled on [{lo}, {hi}]")
    return 0.5 * (lo + hi)


def _newton_polish(f, df, x0: float, lo: float, hi: float) -> float:
    # Keeps the bisection result when Newton does not improve |f|; 50-step cap.
    x, fx = x0, f(x0)
    for _ in range(50):
        d = df(x)
        if d == 0.0:
            break
        step = fx / d
        x1 = x - step
        if not (lo < x1 < hi):
            break
        f1 = f(x1)
        if abs(f1) >= abs(fx):
            break
        x, fx = x1, f1
        if abs(step) < 1e-16:
            break
    return x


def _real_roots_unchecked(spec: ChainSpec, tol: float) -> np.ndarray:
    """All roots of G in (0, pi), sorted; no count enforcement.

    None is a null state: the amplitude vanishes for every l only where
    e^{2ik} = 1, i.e. k in {0, pi}, which the scan excludes.
    """
    half = math.pi / 2
    roots = []
    for x in _positive_offsets(spec, tol):
        roots.extend((half - x, half + x))
    if spec.n_sites % 2:
        roots.append(half)  # exact zero of G for odd N (the zero-energy mode)
    roots.sort()
    return np.array(roots)


def critical_offset(spec: ChainSpec) -> float:
    """Smallest x > 0 with k = pi/2 + x a real root: the critical-pair offset."""
    offsets = _positive_offsets(spec, 1e-14)
    if not offsets:
        raise NonConvergence("no real root found above pi/2")
    return offsets[0]


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
    if not tol > 0:
        raise ValueError("tol must be positive")
    roots = _real_roots_unchecked(spec, tol)
    n = spec.n_sites
    if len(roots) not in (n, n - 2):
        raise RootCountMismatch(
            f"found {len(roots)} real roots for N={n}, gamma={spec.gamma} "
            f"(expected {n} or {n - 2}); gamma may be too close to gamma_c")
    return roots


def mode_energy(spec: ChainSpec, k: float) -> float:
    """Real-mode energy -2J cos k, evaluated as 2J sin(k - pi/2).

    The two forms are identical; the sine form keeps the odd-N zero mode at
    exactly 0 and preserves relative accuracy for the near-critical pair.
    """
    return 2 * spec.hopping * math.sin(k - math.pi / 2)


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


def kappa_residual(spec: ChainSpec, kappa: float) -> float:
    """The kappa condition scaled by 2 e^(-kappa(N+1)), so it never overflows.

    gamma^2 (e^(-2kappa) -+ e^(-2kappa N)) - J^2 (1 -+ e^(-2kappa(N+1))), with
    - for odd N (sinh) and + for even N (cosh); written through expm1 so the
    odd-N differences keep their relative accuracy as kappa -> 0.
    """
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    s = -1.0 if n % 2 else 1.0
    x = -2.0 * kappa
    return (g * g * (1.0 + s + math.expm1(x) + s * math.expm1(x * n))
            - j * j * (1.0 + s + s * math.expm1(x * (n + 1))))


def solve_kappa(spec: ChainSpec, tol: float = 1e-14) -> float:
    """The unique kappa > 0 of the broken-phase quantization condition.

    Bisection on (0, ln(gamma/J) + 1], where the residual changes sign, then a
    Newton polish.  Raises PhaseError outside the broken phase.
    """
    if classify_phase(spec) is not Phase.BROKEN:
        raise PhaseError(f"gamma={spec.gamma} is not above gamma_c={spec.gamma_c}")
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    s = -1.0 if n % 2 else 1.0

    def w(x: float) -> float:
        return kappa_residual(spec, x)

    def dw(x: float) -> float:
        return (-2.0 * g * g * (math.exp(-2.0 * x) + s * n * math.exp(-2.0 * x * n))
                + 2.0 * s * (n + 1) * j * j * math.exp(-2.0 * x * (n + 1)))

    lo = 1e-12
    hi = math.log(g / j) + 1.0
    flo = w(lo)
    if flo <= 0 or w(hi) >= 0:
        raise NonConvergence(
            f"kappa bracket (0, {hi:.3f}] lost its sign change for {spec}")
    kappa = _bisect(w, lo, hi, flo, min(tol, 1e-15))
    return _newton_polish(w, dw, kappa, 0.0, hi)


def solve_spectrum(spec: ChainSpec, tol: float = 1e-12) -> SpectralSolution:
    """Full mode list: N real modes, or N-2 real plus the conjugate imaginary pair.

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

    modes = [Mode(k=complex(k, 0.0), energy=complex(mode_energy(spec, k), 0.0))
             for k in roots]
    if phase is Phase.BROKEN:
        kappa = solve_kappa(spec, tol)
        for s in (+1, -1):
            modes.append(Mode(k=complex(math.pi / 2, s * kappa),
                              energy=complex(0.0, s * 2 * j * math.sinh(kappa))))
    modes.sort(key=lambda m: (m.energy.real, m.energy.imag))
    return SpectralSolution(spec=spec, modes=tuple(modes), phase=phase)


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
