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
root below gamma_c (c < 1/N) and none above.  So the phase alone decides
which brackets hold a root (all of them below gamma_c, all but the one at
pi/2 above), and the solve refines just those.  Nor does it evaluate G at
any bracket end: every end but pi/2 lies at k = pi/2 + j pi/(2N), where
|G| = (gamma^2 + J^2) |cos k| and the signs alternate from bracket to
bracket, and at pi/2 the sign is c0's (below).  The float signs of G at the
bracket ends give an independent real-root count (`count_real_momenta`),
which the phase boundary is checked against.

The roots are symmetric about pi/2 (chirality), so only the offsets
x = k - pi/2 > 0 are solved, by a safeguarded Newton iteration on
G(pi/2 + x) written in x, which keeps relative accuracy in x up to the
critical pair.  In the broken phase the missing pair moves to
k = pi/2 +- i*kappa, with kappa > 0 solving

    gamma^2 sinh(kappa(N-1)) = J^2 sinh(kappa(N+1))   (odd N)
    gamma^2 cosh(kappa(N-1)) = J^2 cosh(kappa(N+1))   (even N),

found by the same iteration on R at x = i*kappa, scaled by 2 e^(-kappa(N+1))
and written with no term of size (gamma/J)^2 left to cancel: one form keeps
relative accuracy from kappa = 0 up to gamma/J = 1e150.  Real roots give
energies -2J cos k, the complex pair gives +-2iJ sinh kappa.  One float, R's
coefficient c0 at x = 0, decides the phase (`classify_phase`).

Both conditions depend on gamma and J only through r = gamma/J, which the
iteration carries per root.  So one solve refines every root of a whole
gamma grid at fixed N and J (`solve_spectra`; `exceptional.critical_sweep`
solves only kappa and the bracket at pi/2), and each root takes the same
float steps as in a one-gamma solve: the results agree bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PhaseError, RootCountMismatch
from .model import ChainSpec, Phase

# Bisection alone narrows every bracket used here to 1e-15 within 60 steps.
# Newton needs 1-3 steps on 99.4% of the real brackets and 1-6 on 78% of the
# kappa solves, and at most 9, at 0 to 1e9 gamma_c and 1% or more from it
# (N = 2 to 4097, gamma/J up to 1e150).  It needs up to 39 within 1e-6 of
# gamma_c, where the critical pair or kappa approaches a double root, and up
# to 56 on the 8 floats each side of gamma_c.
_MAX_ITER = 100

# Largest gamma/J solved: r^2 times N stays far inside the float range.
_MAX_RATIO = 1e150


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
    return _amplitude(spec.n_sites, spec.hopping, spec.gamma, k)


def _amplitude(n: int, j: float, g, k) -> np.ndarray:
    """`raw_amplitude` with gamma `g` broadcast against k: one gamma per root if an array."""
    n0 = (n + 1) / 2
    l = np.arange(1, n + 1)
    k, g = np.asarray(k)[..., None], np.asarray(g)[..., None]
    eta = (g * np.exp(1j * k) - 1j * j) / (g * np.exp(-1j * k) - 1j * j)
    return np.exp(1j * k * (l - n0)) - eta * np.exp(-1j * k * (l + n0))


def _ratio(spec: ChainSpec) -> float:
    """r = gamma/J, the one parameter of G / J^2, of c and of the kappa condition."""
    r = spec.gamma / spec.hopping
    if r > _MAX_RATIO:
        raise DomainError(f"gamma/J = {r:.3g} is above {_MAX_RATIO:.0e}, "
                          f"where (gamma/J)^2 leaves the float range")
    return r


def _reduced_quantization(n: int):
    """fun(x, dif, tot, dif_slope, tot_slope) -> (R(x), R'(x)) elementwise.

    G(pi/2 + x) = +-J^2 R(x), N fixing the sign.  R is G / J^2 expanded
    about the chain centre: dif cos(Nx) cos x + tot sin(Nx) sin x for even N,
    with dif = r^2 - 1, tot = r^2 + 1 and r = gamma/J, and the same with
    Nx - pi/2 in place of Nx for odd N.  The four parameters, one value per
    root or one for all, are `_reduced_coefficients`.  Written in r, R stays finite and
    normal however small or large J is.  Its arguments grow with x, not
    with k, so R keeps relative accuracy in x right up to the critical pair;
    for odd N it vanishes exactly at x = 0 (the zero-energy mode) with slope
    (r^2 - 1) N - (r^2 + 1).
    """
    def fun(x, dif, tot, dif_slope, tot_slope) -> tuple[np.ndarray, np.ndarray]:
        trig = _reduced_trig(n, x)
        return _reduced_value(trig, dif, tot), _reduced_slope(trig, dif_slope, tot_slope)
    return fun


def _reduced_trig(n: int, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gamma-free factors of R at x: cos and sin of Nx (of Nx - pi/2 for odd N) and of x."""
    nx = n * x
    cu, su = np.cos(nx), np.sin(nx)
    if n % 2:
        cu, su = su, -cu
    return cu, su, np.cos(x), np.sin(x)


def _reduced_value(trig, dif, tot) -> np.ndarray:
    cu, su, cx, sx = trig
    return dif * cu * cx + tot * su * sx


def _reduced_slope(trig, dif_slope, tot_slope) -> np.ndarray:
    cu, su, cx, sx = trig
    return dif_slope * (cu * sx) + tot_slope * (su * cx)


def _reduced_coefficients(n: int, r: float) -> tuple[float, float, float, float]:
    """dif = r^2 - 1, tot = r^2 + 1 and the slope's N tot - dif and tot - N dif."""
    dif, tot = r * r - 1.0, r * r + 1.0
    return dif, tot, n * tot - dif, tot - n * dif


def classify_phase(spec: ChainSpec) -> Phase:
    """Unbroken, Broken or Critical for c0 < 0, > 0 or = 0: R's coefficient at x = 0.

    c0 is R(0) = dif for even N and R'(0) = -tot_slope = (r^2 - 1) N - (r^2 + 1)
    for odd N: the very float that the bracket at pi/2 and the kappa
    condition at kappa = 0 read.  At c0 = 0 the pair has coalesced, kappa = 0.
    """
    n, r = spec.n_sites, spec.gamma / spec.hopping
    if r > _MAX_RATIO:  # for odd N, squaring r would give inf - inf
        return Phase.BROKEN
    dif, _, _, tot_slope = _reduced_coefficients(n, r)
    c0 = -tot_slope if n % 2 else dif
    return Phase.UNBROKEN if c0 < 0 else Phase.BROKEN if c0 > 0 else Phase.CRITICAL


def _bracketed_roots(fun, lo: np.ndarray, hi: np.ndarray, side: np.ndarray,
                     seed: np.ndarray, tol: float, *params) -> np.ndarray:
    """The root of `fun` in every bracket (lo, hi), in bracket order.

    `fun(x, *params)` gives value and slope elementwise; each of `params`
    holds one value per bracket.  `side` is the sign of `fun` just above each
    lo, which the caller knows in closed form; every bracket must change sign,
    which the caller guarantees.  Safeguarded Newton from `seed`, on all
    brackets at once: each evaluation shrinks its bracket, a step that would
    leave it bisects instead, and a root is done once its last step is at
    most `tol`.  A done root leaves the iteration with its parameters, so
    every root takes the float steps of its solo solve.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = np.where((lo < seed) & (seed < hi), seed, 0.5 * (lo + hi))
    roots, active = x.copy(), np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            if not len(x):
                return roots
            f, slope = fun(x, *params)
            right = np.sign(f) == side  # the root lies above x
            lo, hi = np.where(right, x, lo), np.where(right, hi, x)
            new = x - f / slope
            new = np.where((lo < new) & (new < hi) | (new == x), new, 0.5 * (lo + hi))
            done = np.abs(new - x) <= tol
            roots[active], x = new, new
            if done.any():
                live = ~done
                active, x, lo, hi, side, *params = (
                    v[live] for v in (active, x, lo, hi, side, *params))
    raise NonConvergence(f"{len(active)} bracketed roots not within {tol} "
                         f"after {_MAX_ITER} steps")


def _brackets(n: int, first_only: bool = False):
    """(centre, lo, hi) of the brackets for the roots x > 0 of R, the one at pi/2 first.

    One bracket per integer point k = m pi/N in [pi/2, pi): x = i pi/(2N) with
    i = N mod 2, ..., N-2 in steps of 2, widened by pi/(2N) each way and cut
    at x = 0; `first_only` keeps just the one at pi/2.
    """
    h = math.pi / (2 * n)
    centre = np.arange(n % 2, n % 2 + 1 if first_only else n - 1, 2) * h
    return centre, np.maximum(centre - h, 0.0), centre + h


def _offset_brackets(specs: list[ChainSpec], phases: list[Phase], first_only: bool = False):
    """(fun, params, lo, hi, side, seed): R and the `_brackets` that hold a root, spec after spec.

    By the phase rule an unbroken spec has a root in every bracket, any
    other spec in every bracket but the one at pi/2; `first_only` keeps just
    that one, for unbroken specs.  `params` holds R's coefficients for every
    bracket.  The specs share N and J.

    Every bracket end but x = 0 lies at x = j pi/(2N), where the cos and sin
    of Nx (of Nx - pi/2 for odd N) are 0 and +-1 and cos x, sin x > 0, so R
    there is +-tot sin x: positive at the upper end of the bracket at pi/2,
    then alternating.  So `side`, R's sign just above lo, is -1, +1, -1, ...
    by bracket index from the one at pi/2, whose lower end x = 0 has c0's
    sign (its slope's for odd N).  That bracket changes sign only where
    c0 < 0: a spec given it with c0 >= 0 raises RootCountMismatch, naming its
    ends.

    The seed is the counting function's first fixed-point step
    k = (m pi + theta(m pi/N))/N.  For even N the bracket at pi/2 is centred
    on m pi/N = pi/2, where that step lands on the upper end, so theta is
    read at the bracket's midpoint instead.  Not with `first_only`: there the
    solve restarts from the midpoint, as it always has, because
    `critical_sweep` reports that root itself, and another start moves it
    by an ulp at some gamma.
    """
    n = specs[0].n_sites
    centre, lo, hi = _brackets(n, first_only)
    side = np.where(np.arange(len(centre)) % 2, 1.0, -1.0)
    start = centre if first_only else np.where(centre > 0, centre, 0.5 * hi)
    every = (centre, lo, hi, side, np.tan(start), 0.0 * centre)
    held = {True: every, False: tuple(v[1:] for v in every)}
    # spec by spec, with scalar operands: for a lone gamma this costs about
    # half of building the grid by 2-D broadcasting, np.tile and np.repeat
    per_spec = []
    for spec, phase in zip(specs, phases):
        unbroken = phase is Phase.UNBROKEN
        centre, lo, hi, side, tan, zero = held[unbroken]
        dif, tot, *slopes = _reduced_coefficients(n, _ratio(spec))
        c0 = -slopes[1] if n % 2 else dif  # as in classify_phase
        if unbroken and not c0 < 0:
            raise RootCountMismatch(f"no sign change across the bracket "
                                    f"({float(lo[0])!r}, {float(hi[0])!r})")
        per_spec.append((lo, hi, side, centre - np.arctan2(dif / tot, tan) / n,
                         *(zero + v for v in (dif, tot, *slopes))))
    lo, hi, side, seed, *params = map(np.concatenate, zip(*per_spec))
    return _reduced_quantization(n), params, lo, hi, side, seed


def _real_roots(specs: list[ChainSpec], phases: list[Phase], tol: float) -> list[np.ndarray]:
    """All roots of G in (0, pi) per spec, sorted, from one solve of the brackets that hold one.

    N roots for an unbroken spec and N-2 for any other, counted before the
    solve.  None is a null state: the amplitude vanishes for every l only
    where e^{2ik} = 1, i.e. k in {0, pi}, which no bracket reaches.
    """
    n, half = specs[0].n_sites, math.pi / 2
    fun, params, lo, hi, side, seed = _offset_brackets(specs, phases)
    x = _bracketed_roots(fun, lo, hi, side, seed, min(tol, 1e-14), *params)
    zero_mode = [half] if n % 2 else []  # exact zero of G for odd N
    # N // 2 brackets, less the one at pi/2 for a spec that is not unbroken
    ends = list(itertools.accumulate(n // 2 - (p is not Phase.UNBROKEN) for p in phases))
    return [np.concatenate([half - x[a:b][::-1], zero_mode, half + x[a:b]])
            for a, b in zip([0, *ends], ends)]


def _critical_offsets(specs: list[ChainSpec]) -> np.ndarray:
    """The critical-pair offset x > 0 of each spec, all unbroken: the root in the bracket at pi/2.

    That bracket holds the smallest root exactly where `classify_phase`
    reads c0 < 0; given any other spec it raises RootCountMismatch.
    """
    fun, params, lo, hi, side, seed = _offset_brackets(specs, [Phase.UNBROKEN] * len(specs),
                                                       first_only=True)
    return _bracketed_roots(fun, lo, hi, side, seed, 1e-14, *params)


def _real_root_counter(n: int):
    """count(r) -> the number of real roots in (0, pi) at gamma/J = r, for N = n.

    Read from the signs of R at the bracket ends alone, with no root solved
    and no use of the phase rule that picks the brackets to solve.  The
    gamma-free factors of R at the ends are computed once, so each count
    costs only the sign test with that r's coefficients; a zero value at a
    lower end takes its slope's sign.
    """
    _, lo, hi = _brackets(n)
    at_lo, at_hi = _reduced_trig(n, lo), _reduced_trig(n, hi)

    def count(r: float) -> int:
        dif, tot, dif_slope, tot_slope = _reduced_coefficients(n, r)
        f = _reduced_value(at_lo, dif, tot)
        if not f.all():
            f = np.where(f != 0, f, _reduced_slope(at_lo, dif_slope, tot_slope))
        keep = np.sign(f) * np.sign(_reduced_value(at_hi, dif, tot)) < 0
        return 2 * int(keep.sum()) + n % 2
    return count


def count_real_momenta(spec: ChainSpec) -> int:
    """Number of real roots in (0, pi) (no count check; used for boundary bisection).

    The one-gamma call of `_real_root_counter`: no root is solved.
    """
    return _real_root_counter(spec.n_sites)(_ratio(spec))


def solve_real_momenta(spec: ChainSpec, tol: float = 1e-12) -> np.ndarray:
    """All real quasimomenta in (0, pi), sorted ascending.

    Returns N roots in the unbroken phase and N-2 in the broken phase.

    Raises
    ------
    RootCountMismatch
        If a bracket that the phase rule gives a root has no sign change.
    NonConvergence
        If a bracket fails to converge to `tol`.
    """
    return _real_roots([spec], [classify_phase(spec)], tol)[0]


def mode_energy(spec: ChainSpec, k):
    """Real-mode energy -2J cos k, evaluated as 2J sin(k - pi/2), elementwise.

    The two forms are identical; the sine form keeps the odd-N zero mode at
    exactly 0 and preserves relative accuracy for the near-critical pair.
    """
    return 2 * spec.hopping * np.sin(k - math.pi / 2)


def _pair_levels(j: float, broken: bool, root: float) -> tuple[complex, complex]:
    """The critical pair: +-2iJ sinh(kappa) from root = kappa if `broken`, else +-2J sin(x0)."""
    if broken:
        level = 2 * j * math.sinh(root)
        return complex(0.0, level), complex(0.0, 0.0 - level)  # kappa = 0: no -0
    level = 2 * j * math.sin(root)
    return complex(level, 0.0), complex(-level, 0.0)


def momentum_index(spec: ChainSpec, k: float) -> int:
    """Quantization integer n_k with k = (n_k pi + theta_k)/N.

    theta_k = atan(((gamma^2-J^2)/(gamma^2+J^2)) tan k), principal branch, with
    the limiting value +-pi/2 at k = pi/2.  Raises ValueError when k does not
    satisfy the quantization identity to 1e-9.
    """
    n = spec.n_sites
    dif, tot, _, _ = _reduced_coefficients(n, _ratio(spec))
    c = dif / tot  # (gamma^2 - J^2)/(gamma^2 + J^2)
    if abs(math.cos(k)) < 1e-12:
        theta = math.copysign(math.pi / 2, c) if c != 0 else 0.0
    else:
        theta = math.atan(c * math.tan(k))
    nk = round((n * k - theta) / math.pi)
    resid = abs(n * k - theta - nk * math.pi)
    if resid > 1e-9:
        raise ValueError(f"k={k} violates the quantization identity (resid={resid:.2e})")
    return int(nk)


def _kappa_condition(n: int):
    """(kappa, dif, tot) -> (value, slope) of R at x = i kappa, scaled, elementwise.

    The value is R(i kappa) (over i for odd N) times 2 e^(-kappa(N+1)), which
    is the condition times 2 e^(-kappa(N+1)) / J^2, finite however small or
    large J is.  With tot = dif + 2 it reads dif p - v (1-b), a = e^(-2 kappa N),
    b = e^(-2 kappa), p = a + b and v = 1 - a for even N, p = b (1 - b^(N-1))
    and v = 1 + a for odd N; 1-a, 1-b and 1 - b^(N-1) come from expm1.  No
    term of size r^2 is left to cancel, so it keeps relative accuracy from
    kappa = 0 up to gamma/J = 1e150.  At kappa = 0 it has c0's sign (its
    slope's for odd N, 2 c0 in the very float that `classify_phase` reads).
    """
    s = 1.0 if n % 2 else -1.0  # d(1 -+ a)/d kappa = +-2 N a

    def fun(kappa, dif, tot):
        a, b = np.exp(-2.0 * n * kappa), np.exp(-2.0 * kappa)
        a_minus, b_minus = -np.expm1(-2.0 * n * kappa), -np.expm1(-2.0 * kappa)
        if n % 2:
            u, v, p = a_minus, 1.0 + a, -b * np.expm1(-2.0 * (n - 1) * kappa)
        else:
            u, v, p = 1.0 + a, a_minus, a + b
        return (dif * p - v * b_minus,
                s * n * a * (dif * (1.0 + b) + tot * b_minus) - b * (dif * u + tot * v))
    return fun


def _kappas(specs: list[ChainSpec], phases: list[Phase], tol: float = 1e-14) -> np.ndarray:
    """kappa per broken or critical spec, given its phase, from one safeguarded Newton solve.

    A critical spec has kappa = 0 and is not solved; every other one is
    solved through `_kappa_condition` on [0, ln(gamma/J) + 1] (see solve_kappa),
    which is positive just above 0, where c0 > 0, and negative at the upper end.
    """
    kappa = np.zeros(len(specs))
    part = [i for i, phase in enumerate(phases) if phase is not Phase.CRITICAL]
    if not part:
        return kappa
    n = specs[0].n_sites
    r = [_ratio(specs[i]) for i in part]
    hi = np.array([math.log(v) + 1.0 for v in r])  # np.log may differ by 1 ulp
    dif, tot = np.array([_reduced_coefficients(n, v)[:2] for v in r]).T
    kappa[part] = _bracketed_roots(_kappa_condition(n), np.zeros(len(part)), hi,
                                   np.ones(len(part)), hi - 1.0, min(tol, 1e-15), dif, tot)
    return kappa


def solve_kappa(spec: ChainSpec) -> float:
    """The unique kappa > 0 of the broken-phase quantization condition.

    Safeguarded Newton on the scaled condition `_kappa_condition` over
    [0, ln(gamma/J) + 1], where it changes sign, from the large-N limit
    ln(gamma/J).  Raises PhaseError outside the broken phase, also at an
    exact coalescence, where kappa = 0.
    """
    if classify_phase(spec) is not Phase.BROKEN:
        raise PhaseError(f"gamma={spec.gamma} is not in the broken phase "
                         f"(gamma_c={spec.gamma_c})")
    return float(_kappas([spec], [Phase.BROKEN])[0])


def _in_gamma_order(solve, gammas) -> list:
    """solve(gammas) as one batch; on failure, the error of the first gamma failing alone.

    Every root of a batch takes its solo float steps, so replaying the gammas
    one at a time raises exactly what a per-gamma loop would have raised.
    """
    gammas = list(gammas)
    try:
        return solve(gammas)
    except Exception as exc:  # whatever it is, the replay below decides what to raise
        batch_error = exc
    for gamma in gammas:
        solve([gamma])
    raise batch_error


def _spectra(specs: list[ChainSpec], tol: float) -> list[SpectralSolution]:
    """A solution per spec (shared N and J): one solve for the real roots, one for kappa."""
    phases = [classify_phase(spec) for spec in specs]
    roots = _real_roots(specs, phases, tol) if specs else []
    kappas = iter(_kappas([s for s, p in zip(specs, phases) if p is not Phase.UNBROKEN],
                          [p for p in phases if p is not Phase.UNBROKEN], tol).tolist())
    out = []
    for spec, phase, found in zip(specs, phases, roots):
        k = found.astype(complex)
        energies = mode_energy(spec, found).astype(complex)
        if phase is not Phase.UNBROKEN:
            kappa = next(kappas)
            k = np.append(k, [complex(math.pi / 2, kappa), complex(math.pi / 2, 0.0 - kappa)])
            energies = np.append(energies, _pair_levels(spec.hopping, True, kappa))
        order = np.lexsort((energies.imag, energies.real))
        out.append(SpectralSolution(spec=spec, k=k[order], energies=energies[order],
                                    phase=phase))
    return out


def solve_spectra(n_sites: int, hopping: float, gammas,
                  tol: float = 1e-12) -> list[SpectralSolution]:
    """`solve_spectrum` at every gamma of a grid with shared N and J, in one solve.

    Each solution is bit-identical to its one-gamma solve.  If several gammas
    fail, the error raised is the first failing gamma's.
    """
    return _in_gamma_order(
        lambda grid: _spectra([ChainSpec(n_sites, hopping, float(g)) for g in grid], tol),
        gammas)


def solve_spectrum(spec: ChainSpec, tol: float = 1e-12) -> SpectralSolution:
    """Full mode set: N real modes, or N-2 real plus the conjugate imaginary pair.

    At an exact coalescence (Critical phase) the pair is E = 0 twice, at
    k = pi/2.
    """
    return _spectra([spec], tol)[0]


def locate_critical_gamma(n_sites: int, hopping: float = 1.0,
                          tol: float = 1e-6) -> float:
    """gamma_c by bisection on the real-root count (N above, N-2 below).

    One `_real_root_counter` serves every midpoint, so the gamma-free factors
    of the count are computed once.  Independent of the closed-form
    boundary; agrees with it to `tol`, or to the float spacing at gamma_c
    where that is coarser (large J): the bisection stops once the midpoint
    is one of the bracket's ends.
    """
    ChainSpec(n_sites, hopping)  # rejects a bad N or J, before the tol
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    j = hopping
    count = _real_root_counter(n_sites)
    lo, hi = 0.5 * j, 2.2 * j  # count N at lo, N-2 at hi, for every N >= 2

    def is_unbroken(g: float) -> bool:
        return count(g / j) == n_sites

    if not is_unbroken(lo) or is_unbroken(hi):
        raise NonConvergence("root-count bracket invalid; model assumptions broken")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if is_unbroken(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
