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
x = k - pi/2 > 0 are solved, by a safeguarded Newton iteration on
G(pi/2 + x) written in x, which keeps relative accuracy in x up to the
critical pair.  In the broken phase the missing pair moves to
k = pi/2 +- i*kappa, with kappa > 0 solving

    gamma^2 sinh(kappa(N-1)) = J^2 sinh(kappa(N+1))   (odd N)
    gamma^2 cosh(kappa(N-1)) = J^2 cosh(kappa(N+1))   (even N),

found by the same iteration.  Real roots give energies -2J cos k, the
complex pair gives +-2iJ sinh kappa.

Both conditions depend on gamma and J only through r = gamma/J, which the
iteration carries per root.  So one solve refines every root of a whole
gamma grid at fixed N and J (`solve_spectra`; `exceptional.critical_sweep`
solves only kappa and the bracket at pi/2), and each root takes the same
float steps as in a one-gamma solve: the results agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PhaseError, RootCountMismatch
from .model import ChainSpec, Phase, classify_phase

# Bisection alone narrows every bracket used here to 1e-15 within 60 steps.
# Newton needs 2-6 on most brackets and up to ~30 next to gamma_c, where the
# critical pair or kappa approaches a double root.
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
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    n0 = (n + 1) / 2
    l = np.arange(1, n + 1)
    k = np.asarray(k)[..., None]
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
        nx = n * x
        cu, su = np.cos(nx), np.sin(nx)
        if n % 2:
            cu, su = su, -cu
        cx, sx = np.cos(x), np.sin(x)
        return (dif * cu * cx + tot * su * sx,
                dif_slope * (cu * sx) + tot_slope * (su * cx))
    return fun


def _reduced_coefficients(n: int, r: float) -> tuple[float, float, float, float]:
    """dif = r^2 - 1, tot = r^2 + 1 and the slope's N tot - dif and tot - N dif."""
    dif, tot = r * r - 1.0, r * r + 1.0
    return dif, tot, n * tot - dif, tot - n * dif


def _sign_changes(fun, lo: np.ndarray, hi: np.ndarray,
                  *params) -> tuple[np.ndarray, np.ndarray]:
    """(side, keep): the sign of `fun` just inside each lo; whether hi has the other.

    `fun(x, *params)` gives value and slope elementwise; a zero value takes
    its slope's sign.
    """
    f, slope = fun(lo, *params)
    side = np.sign(np.where(f != 0, f, slope))
    return side, side * np.sign(fun(hi, *params)[0]) < 0


def _bracketed_roots(fun, lo: np.ndarray, hi: np.ndarray, seed: np.ndarray,
                     tol: float, *params) -> tuple[np.ndarray, np.ndarray]:
    """(roots, keep): the root of `fun` in every bracket (lo, hi) whose end signs differ.

    `fun(x, *params)` gives value and slope elementwise; each of `params`
    holds one value per bracket.  `keep` marks the brackets with a sign
    change and `roots` holds their roots, in bracket order.  Safeguarded
    Newton from `seed`, on all brackets at once: each evaluation shrinks its
    bracket, a step that would leave it bisects instead, and a root is done
    once its last step is at most `tol`.  A done root leaves the iteration
    with its parameters, so every root takes the float steps of its solo
    solve.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    side, keep = _sign_changes(fun, lo, hi, *params)
    lo, hi, side, x = lo[keep], hi[keep], side[keep], seed[keep]
    params = [p[keep] for p in params]
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    roots, active = x.copy(), np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            if not len(x):
                return roots, keep
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


def _theta_slope(r):
    """c = (gamma^2 - J^2)/(gamma^2 + J^2) of theta = atan(c tan k), in r = gamma/J."""
    return (r * r - 1.0) / (r * r + 1.0)


def _brackets(n: int, first_only: bool = False):
    """(centre, lo, hi) of the brackets for the roots x > 0 of R.

    One bracket per integer point k = m pi/N in [pi/2, pi): x = i pi/(2N) with
    i = N mod 2, ..., N-2 in steps of 2, widened by pi/(2N) each way and cut
    at x = 0; `first_only` keeps just the one at pi/2.
    """
    h = math.pi / (2 * n)
    centre = np.arange(n % 2, n % 2 + 1 if first_only else n - 1, 2) * h
    return centre, np.maximum(centre - h, 0.0), centre + h


def _offset_brackets(specs: list[ChainSpec], first_only: bool = False):
    """(fun, params, lo, hi, seed): R and its `_brackets`, spec after spec.

    The seed is the counting function's first fixed-point step
    k = (m pi + theta(m pi/N))/N.  `params` holds R's coefficients for every
    bracket.  The specs share N and J.
    """
    n = specs[0].n_sites
    centre, lo, hi = _brackets(n, first_only)
    tan, zero = np.tan(centre), 0.0 * centre
    # spec by spec, with scalar operands: for a lone gamma this costs about
    # half of building the grid by 2-D broadcasting, np.tile and np.repeat
    per_spec = [(lo, hi, centre - np.arctan2(_theta_slope(r), tan) / n,
                 *(zero + v for v in _reduced_coefficients(n, r))) for r in map(_ratio, specs)]
    lo, hi, seed, *params = map(np.concatenate, zip(*per_spec))
    return _reduced_quantization(n), params, lo, hi, seed


def _real_roots(specs: list[ChainSpec], tol: float) -> list[np.ndarray]:
    """All roots of G in (0, pi) per spec, sorted, from one solve; no count enforcement.

    None is a null state: the amplitude vanishes for every l only where
    e^{2ik} = 1, i.e. k in {0, pi}, which no bracket reaches.
    """
    n, half = specs[0].n_sites, math.pi / 2
    fun, params, lo, hi, seed = _offset_brackets(specs)
    x, keep = _bracketed_roots(fun, lo, hi, seed, min(tol, 1e-14), *params)
    zero_mode = [half] if n % 2 else []  # exact zero of G for odd N
    m, start, roots = len(keep) // len(specs), 0, []
    for i in range(len(specs)):
        xs = x[start:start + np.count_nonzero(keep[i * m:(i + 1) * m])]
        start += len(xs)
        roots.append(np.concatenate([half - xs[::-1], zero_mode, half + xs]))
    return roots


def _critical_offsets(specs: list[ChainSpec]) -> np.ndarray:
    """Per spec the critical-pair offset x > 0: the root in the bracket at pi/2.

    That bracket holds the smallest root wherever it has one, below gamma_c.
    Where it has none, as at gamma_c for even N, the pair has coalesced and
    PhaseError names the first such spec.
    """
    if not specs:
        return np.empty(0)
    fun, params, lo, hi, seed = _offset_brackets(specs, first_only=True)
    x, keep = _bracketed_roots(fun, lo, hi, seed, 1e-14, *params)
    if len(x) < len(specs):
        spec = specs[int(np.argmin(keep))]
        raise PhaseError(f"no real critical pair next to pi/2 for {spec}: gamma is "
                         f"too close to gamma_c={spec.gamma_c!r}, where the pair coalesces")
    return x


def count_real_momenta(spec: ChainSpec) -> int:
    """Number of real roots in (0, pi) (no count check; used for boundary bisection).

    Read from the signs of the reduced function G / J^2 at the bracket ends
    alone, the same signs that decide which brackets the solve refines, with
    no root solved.
    """
    n = spec.n_sites
    _, lo, hi = _brackets(n)  # R's coefficients broadcast as scalars
    _, keep = _sign_changes(_reduced_quantization(n), lo, hi,
                            *_reduced_coefficients(n, _ratio(spec)))
    return 2 * int(keep.sum()) + n % 2


def _counted(spec: ChainSpec, roots: np.ndarray) -> np.ndarray:
    n = spec.n_sites
    if len(roots) not in (n, n - 2):
        raise RootCountMismatch(
            f"found {len(roots)} real roots for N={n}, gamma={spec.gamma} "
            f"(expected {n} or {n - 2}); gamma may be too close to gamma_c")
    return roots


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
    return _counted(spec, _real_roots([spec], tol)[0])


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
        return complex(0.0, level), complex(0.0, -level)
    level = 2 * j * math.sin(root)
    return complex(level, 0.0), complex(-level, 0.0)


def momentum_index(spec: ChainSpec, k: float) -> int:
    """Quantization integer n_k with k = (n_k pi + theta_k)/N.

    theta_k = atan(((gamma^2-J^2)/(gamma^2+J^2)) tan k), principal branch, with
    the limiting value +-pi/2 at k = pi/2.  Raises ValueError when k does not
    satisfy the quantization identity to 1e-9.
    """
    n, c = spec.n_sites, _theta_slope(_ratio(spec))
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
    """(kappa, r2) -> (value, slope) of the scaled kappa condition, elementwise.

    The value is r2 (e^(-2kappa) -+ e^(-2kappa N)) - (1 -+ e^(-2kappa(N+1))),
    with r2 = (gamma/J)^2 given per root, - for odd N (sinh) and + for even N
    (cosh): the condition times 2 e^(-kappa(N+1)) / J^2, so it never
    overflows and stays finite and normal however small or large J is.
    Written through expm1 so the odd-N differences keep their relative
    accuracy as kappa -> 0.  Used for kappa <= 1 only: as kappa grows,
    r2 e^(-2kappa) nears 1 and the sum cancels.
    """
    s = -1.0 if n % 2 else 1.0

    def fun(kappa, r2):
        x = -2.0 * kappa
        e1, en = np.exp(x), np.exp(-2.0 * n * kappa)
        return (r2 * (1.0 + s + np.expm1(x) + s * np.expm1(x * n))
                - (1.0 + s + s * np.expm1(x * (n + 1))),
                2.0 * (s * (n + 1) * e1 * en - r2 * (e1 + s * n * en)))
    return fun


def _log_kappa_condition(n: int):
    """(kappa, log_r2) -> (value, slope) of the log of the kappa condition, elementwise.

    The value is log_r2 - 2 kappa + L(kappa(N-1)) - L(kappa(N+1)), with
    log_r2 = 2 ln(gamma/J) given per root and L(y) = ln(1 -+ e^(-2y)), - for
    odd N and + for even N: the log of r2 (e^(-2kappa) -+ e^(-2kappa N)) over
    1 -+ e^(-2kappa(N+1)).  It keeps full relative accuracy for kappa > 1,
    up to gamma/J = 1e150.
    """
    s = -1.0 if n % 2 else 1.0

    def log_term(y):  # L(y) and L'(y)
        e = np.exp(-2.0 * y)
        one = -np.expm1(-2.0 * y) if n % 2 else 1.0 + e
        return (np.log(one) if n % 2 else np.log1p(e)), -2.0 * s * e / one

    def fun(kappa, log_r2):
        low, low_slope = log_term(kappa * (n - 1))
        high, high_slope = log_term(kappa * (n + 1))
        return (log_r2 - 2.0 * kappa + low - high,
                (n - 1) * low_slope - (n + 1) * high_slope - 2.0)
    return fun


def kappa_residual(spec: ChainSpec, kappa):
    """The kappa condition times 2 e^(-kappa(N+1)) / J^2, elementwise.

    See `_kappa_condition`; r = gamma/J may not pass 1e150.
    """
    r = _ratio(spec)
    return _kappa_condition(spec.n_sites)(kappa, r * r)[0]


def _kappas(specs: list[ChainSpec], tol: float = 1e-14) -> np.ndarray:
    """kappa per spec, from one safeguarded Newton solve per form of the condition.

    A spec whose r2 passes the condition's closed-form value at kappa = 1
    has kappa > 1 and is solved through `_log_kappa_condition`, every other
    one through `_kappa_condition` (see solve_kappa).  The callers pick the
    broken specs, each by its own phase tolerance.
    """
    if not specs:
        return np.empty(0)
    n = specs[0].n_sites
    r = [_ratio(spec) for spec in specs]
    s = -1.0 if n % 2 else 1.0
    r2_at_one = (1.0 + s * math.exp(-2.0 * (n + 1))) / (math.exp(-2.0) + s * math.exp(-2.0 * n))
    kappa = np.empty(len(r))
    for far, condition in ((False, _kappa_condition), (True, _log_kappa_condition)):
        part = [i for i, v in enumerate(r) if (v * v > r2_at_one) == far]
        if not part:
            continue
        hi = np.array([math.log(r[i]) + 1.0 for i in part])  # np.log may differ by 1 ulp
        param = (np.array([2.0 * math.log(r[i]) for i in part]) if far
                 else np.square([r[i] for i in part]))
        roots, keep = _bracketed_roots(condition(n), np.full(len(part), 1e-12), hi,
                                       hi - 1.0, min(tol, 1e-15), param)
        if len(roots) < len(part):
            lost = int(np.argmin(keep))
            raise NonConvergence(f"kappa bracket (0, {hi[lost]:.3f}] lost its sign change "
                                 f"for {specs[part[lost]]}")
        if len(part) == len(r):
            return roots
        kappa[part] = roots
    return kappa


def solve_kappa(spec: ChainSpec, tol: float = 1e-14) -> float:
    """The unique kappa > 0 of the broken-phase quantization condition.

    Safeguarded Newton on (0, ln(gamma/J) + 1], where the residual changes
    sign, from the large-N limit ln(gamma/J); past kappa = 1 on the log of
    the condition.  Raises PhaseError outside the broken phase.
    """
    if classify_phase(spec) is not Phase.BROKEN:
        raise PhaseError(f"gamma={spec.gamma} is not above gamma_c={spec.gamma_c}")
    return float(_kappas([spec], tol)[0])


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
    roots = _real_roots(specs, tol) if specs else []
    for spec, phase, found in zip(specs, phases, roots):
        if phase is not Phase.CRITICAL:
            expected = spec.n_sites if phase is Phase.UNBROKEN else spec.n_sites - 2
            if len(_counted(spec, found)) != expected:
                raise RootCountMismatch(
                    f"{phase} phase expects {expected} real roots, found {len(found)}")
    kappas = iter(_kappas([s for s, p in zip(specs, phases) if p is Phase.BROKEN],
                          tol).tolist())
    out = []
    for spec, phase, found in zip(specs, phases, roots):
        k = found.astype(complex)
        energies = mode_energy(spec, found).astype(complex)
        if phase is Phase.BROKEN:
            kappa = next(kappas)
            k = np.append(k, [complex(math.pi / 2, kappa), complex(math.pi / 2, -kappa)])
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

    Exactly at the boundary (Critical phase) the coalesced pair is missing and
    whatever real roots remain are returned best-effort.
    """
    return _spectra([spec], tol)[0]


def locate_critical_gamma(n_sites: int, hopping: float = 1.0,
                          tol: float = 1e-6) -> float:
    """gamma_c by bisection on the real-root count (N above, N-2 below).

    Independent of the closed-form boundary; agrees with it to `tol`.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
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
