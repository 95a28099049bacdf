"""Quantization conditions for the chain: real quasimomenta and the broken-phase kappa.

The real quasimomenta are the roots in (0, pi) of

    G(k) = gamma^2 sin(k(N-1)) + J^2 sin(k(N+1))
         = (gamma^2 + J^2) (cos k / cos theta) sin(N k - theta),

with theta(k) = atan(c tan k) and c = (gamma^2 - J^2)/(gamma^2 + J^2): each
root of the factor sin(N k - theta) is a level F(k) = m pi of the counting
function F(k) = N k - theta(k), with m its quantization integer.  The zero
mode k = pi/2 of odd N, which G has for every gamma, is a root of G's factor
cos k and is not solved: at gamma = J, where c = 0 and theta = 0, it is no
level of F.  Since |theta| < pi/2,
the root of level m lies in its own bracket ((m - 1/2) pi/N, (m + 1/2) pi/N)
wherever F increases, and |G| = (gamma^2 + J^2) |cos k| at the bracket ends.
F' = N - c/(cos^2 k + c^2 sin^2 k) is negative only for 0 < c < 1/N, within
about 1/(2N) of pi/2: inside the bracket at pi/2, which holds the critical
pair.  The other N//2 - 1 brackets each side of pi/2 hold one root in
either phase, so the pair alone decides whether N or N - 2 roots are real,
and its phase is the sign of c0 (below).

The roots are symmetric about pi/2 (chirality), so only the offsets
x = k - pi/2 > 0 are solved.  In the bracket centred on x_j = j pi/(2N),
x = x_j + d solves the counting function itself, less its level:
Phi(d) = N d + atan2(c, tan x) = 0, which rises from below 0 to above 0
as d runs over (-pi/(2N), pi/(2N)).  Phi is monotone there with
curvature of one sign, so plain Newton on Phi, with no bracket kept,
refines all these brackets at once, at one tan and one atan2 per root and
step.  The critical pair is solved apart, on both sides
of gamma_c: R (G / J^2 in x) is an entire function of t = x^2 for even N,
and R/x for odd N, which at t = -kappa^2 < 0 is the broken-phase condition

    gamma^2 sinh(kappa(N-1)) = J^2 sinh(kappa(N+1))   (odd N)
    gamma^2 cosh(kappa(N-1)) = J^2 cosh(kappa(N+1))   (even N)

for the pair k = pi/2 +- i*kappa.  In t the pair is a simple root that
crosses t = 0 linearly at gamma_c, and one bracket holds it in both phases.
Its value at t = 0 is c0, R's coefficient at the chain centre, which
decides the phase (`classify_phase`); c0 is rounded once from r = gamma/J,
and the rest is written with no term left to cancel, so the pair keeps
relative accuracy right up to gamma_c and, scaled where t < 0, up to
gamma/J = 1e150.  Real roots give energies -2J cos k = -+2J sin x at
k = pi/2 -+ x, taken from x so that the levels next to E = 0 keep their
relative accuracy; the complex pair gives +-2iJ sinh kappa.

Both conditions depend on gamma and J only through r = gamma/J, which the
iteration carries per root, as c.  So one solve refines every other root
of a whole gamma grid at fixed N and J (`solve_spectra`), and each root
takes the same float steps as in a one-gamma solve: the results agree bit
for bit.  The pairs are solved spec by spec (`_pair_roots`;
`exceptional.critical_sweep` solves only those).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, PhaseError
from .model import ChainSpec, Phase

# A cap far above the Newton evaluation counts measured on both solves.
# Newton on the counting phase takes at most 4 evaluations per real root,
# 2.09 on average and at most 2 on 88.8% (465,495 roots: N = 2 to 129 at 0
# to 10 gamma_c, N = 256 to 4096 at 0 to 2 gamma_c), and at most 4 on all
# 8,552,617 roots of N = 4 to 299, 511, 512, 1000, 1001, 4096, 4097, 1e5
# and 1e5 + 1 at 67 gammas each, up to gamma/J = 1e150.  The critical pair,
# a simple root in t = x^2, takes at most 6 evaluations, its starts' among
# them, at 0 to 1e9 gamma_c and 1e-5 or more from it (N = 2 to 4097, J in
# {0.5, 1, 3}, gamma/J up to 1e150), at most 4 within 1e-6 of gamma_c and
# at most 2 on the 8 floats each side of it.
_MAX_ITER = 100

# Relative stop rule of the critical pair's t, which is 1e-30 next to gamma_c.
_PAIR_TOL = 1e-12

# Absolute stop rule of the real roots' offsets d, which are at most pi/(2N).
_OFFSET_TOL = 1e-14


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


def _centre_coefficients(n: int, r: float) -> tuple[float, float]:
    """(c0, dif): R's coefficient at x = 0 and dif = r^2 - 1, each correctly rounded.

    c0 is dif for even N and (N - 1) r^2 - (N + 1), R'(0), for odd N.  The
    float r is a ratio a/b of integers, so both are exact integer ratios,
    rounded once by Python's int division: an error-free product, where
    r*r - 1 loses the low half of r^2 next to gamma_c.  Valid up to
    gamma/J = 1e150.
    """
    a, b = (v * v for v in r.as_integer_ratio())
    dif = (a - b) / b
    return (((n - 1) * a - (n + 1) * b) / b if n % 2 else dif), dif


def classify_phase(spec: ChainSpec) -> Phase:
    """Unbroken, Broken or Critical for c0 < 0, > 0 or = 0: R's coefficient at x = 0.

    c0 (`_centre_coefficients`) is R(0) for even N and R'(0) for odd N: the
    value at t = 0 of the pair's condition, which `_pair_roots` solves.  At
    c0 = 0 the pair has coalesced, kappa = 0.
    """
    c0 = _centre_coefficients(spec.n_sites, spec.gamma / spec.hopping)[0]
    return Phase.UNBROKEN if c0 < 0 else Phase.BROKEN if c0 > 0 else Phase.CRITICAL


def _counting_phase(n: int, centre: np.ndarray, c: np.ndarray, d: np.ndarray):
    """(Phi, Phi') elementwise at the offset d from each bracket's centre.

    Phi(d) = N d + atan2(c, tan(centre + d)), with c the spec's (gamma^2 -
    J^2)/(gamma^2 + J^2), is the counting function N k - theta(k) at k =
    pi/2 + centre + d, less its level m pi: N centre (N centre - pi/2 for
    odd N) is a multiple of pi, and theta = -atan2(c, tan x) at k = pi/2 +
    x.  Its roots are those of R, and its slope is N - c (1 + t^2)/(t^2 +
    c^2) with t = tan(centre + d).
    """
    t = np.tan(centre + d)
    tt = t * t
    return n * d + np.arctan2(c, t), n - c * (1 + tt) / (tt + c * c)


def _bracketed_roots(n: int, centre: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The root x = centre + d of R in every bracket past the pair's, in bracket order.

    Each bracket's counting phase (`_counting_phase`) rises through it:
    Phi(-h) = -pi/2 + atan2(...) < 0 and Phi(h) = pi/2 + atan2(...) > 0 with
    h = pi/(2N), and Phi' > N - N/pi - 1/2 > 0 at every x >= h for c in
    [-1, 1].  Its curvature Phi'' = c (1 - c^2) sin 2x/(sin^2 x + c^2 cos^2 x)^2
    has the sign of c on the whole bracket, as x stays in (0, pi/2).  So
    Newton on Phi converges monotonically, after at most one overshoot, and
    needs no bracket: the offset d in (-h, h) is solved, where N d has no
    cancellation, by plain Newton from Phi's first fixed-point step
    d = -atan2(c, tan centre)/N, on all brackets at once.  A bisection
    fallback kept in an earlier form fired 0 times in 13,843,647 root-steps
    (N = 4 to 299, 511, 512, 1000, 1001, 4096, 4097, 1e5 and 1e5 + 1; 67
    gammas each, from 0 to gamma/J = 1e150).  A root is done once its last
    step is at most `_OFFSET_TOL`; from then on a mask keeps its offset in
    place while the others step.  Every array stays contiguous and full
    length, so every root takes the float steps of its solo solve.  A root
    not done after `_MAX_ITER` steps, or done outside its bracket, where it
    is not the bracket's root, raises NonConvergence.
    """
    d = -np.arctan2(c, np.tan(centre)) / n
    done = np.zeros(len(d), dtype=bool)
    for _ in range(_MAX_ITER):
        f, slope = _counting_phase(n, centre, c, d)
        new = np.where(done, d, d - f / slope)
        done |= np.abs(new - d) <= _OFFSET_TOL
        d = new
        if done.all():
            break
    failed = np.count_nonzero(~(done & (np.abs(d) < math.pi / (2 * n))))
    if failed:
        raise NonConvergence(f"{failed} bracketed roots not within {_OFFSET_TOL} after "
                             f"{_MAX_ITER} steps, or outside their brackets")
    return centre + d


def _offset_brackets(specs: list[ChainSpec]) -> tuple[np.ndarray, np.ndarray]:
    """(centre, c): the N//2 - 1 brackets past the pair's for each spec in turn, and c.

    One bracket per integer point k = m pi/N in (pi/2, pi): centred on x =
    i pi/(2N) with i = N mod 2 + 2, ..., N-2 in steps of 2, and pi/(2N) wide
    each way.  The one at pi/2 holds the critical pair, which `_pair_roots`
    solves.  Every spec has a root in each of the others, whatever its
    phase, and none is a null state: the amplitude vanishes for every l
    only where e^{2ik} = 1, i.e. k in {0, pi}, which no bracket reaches.
    c = (r^2 - 1)/(r^2 + 1) = (gamma^2 - J^2)/(gamma^2 + J^2), r = gamma/J,
    is the spec's, one per bracket.  The specs share N and J.
    """
    n = specs[0].n_sites
    centre = np.arange(n % 2 + 2, n - 1, 2) * (math.pi / (2 * n))
    c = [(r * r - 1.0) / (r * r + 1.0) for r in (s.gamma / s.hopping for s in specs)]
    return np.tile(centre, len(specs)), np.repeat(c, len(centre))


def _pair_levels(j: float, broken: bool, root: float) -> tuple[complex, complex]:
    """The critical pair: +-2iJ sinh(kappa) from root = kappa if `broken`, else +-2J sin(x0)."""
    if broken:
        level = 2 * j * math.sinh(root)
        return complex(0.0, level), complex(0.0, 0.0 - level)  # kappa = 0: no -0
    level = 2 * j * math.sin(root)
    return complex(level, 0.0), complex(-level, 0.0)


# (P, u P') of S at small u, highest power first: sum_k a_(k+1) u^k and
# sum_k k a_(k+1) u^k with a_j = (-1)^j/(2j+1)!, within eps for |u| < 1
_SINC_SERIES = [((-1) ** (k + 1) / math.factorial(2 * k + 3),
                 k * (-1) ** (k + 1) / math.factorial(2 * k + 3)) for k in reversed(range(9))]


def _sinc(u: float) -> tuple[float, float, float, float, float]:
    """(S, u S', e, P, u P') at u for S(u) = sin(sqrt u)/sqrt u and P = (S - 1)/u.

    S is entire in u: sinh(y)/y at u = -y^2.  Where u < 0 all but e are
    scaled by e = e^-y, which keeps them finite (e = 1 elsewhere).  P comes
    from its series where |u| < 1, so S - 1 never cancels.
    """
    y = math.sqrt(abs(u))
    e = math.exp(-y) if u < 0 else 1.0
    if abs(u) < 1.0:
        p = dp = 0.0
        for a, b in _SINC_SERIES:
            p, dp = p * u + a, dp * u + b
        p, dp = p * e, dp * e
    else:
        c, s = ((1 + e * e) / 2, (1 - e * e) / 2 / y) if u < 0 else (math.cos(y), math.sin(y) / y)
        p, dp = (s - e) / u, (0.5 * (c - s) - s + e) / u  # u S' = (cos y - S)/2
    return e + u * p, u * (p + dp), e, p, dp


def _pair_point(n: int, t: float, c0: float, dif: float) -> tuple[float, float]:
    """Value and slope in t of the critical pair's condition F at t = x^2, for one spec.

    F(t) is R(sqrt t) for even N and R(sqrt t)/sqrt t for odd N: entire in
    t, R at x = i kappa where t = -kappa^2.  With m = N - 1 it is c0 + t H,

        H = 2N S(N^2 t) S(t) - dif m^2 S(m^2 t/4)^2 / 2          (even N)
        H = dif m^3 P(m^2 t) + N^2 S(N^2 t/4)^2 S(t) - 2 P(t)     (odd N)

    (`_sinc`; 2 sin^2(y/2) in place of 1 - cos y), in which no term
    cancels; t H is formed so that it stays finite where H overflows.  Where
    t < 0 F is scaled by e^-(N+1)kappa, finite up to gamma/J = 1e150, and
    the slope is that of the scaled F.
    """
    m = n - 1
    if n % 2 == 0:
        u = m * m / 4 * t
        (s0, d0, e0, *_), (s1, d1, e1, *_), (s2, d2, *_) = map(_sinc, (n * n * t, t, u))
        w, a = dif * e1 * e1, 2 * n * s0 * s1
        value = c0 * e0 * e1 + t * a - 2 * w * u * s2 * s2
        slope = a - 0.5 * w * (m * s2) ** 2 + 2 * n * (d0 * s1 + s0 * d1) - w * m * m * s2 * d2
    else:
        u = m * m * t
        (*_, p0, q0), (s1, d1, e1, *_), (s2, d2, e2, p2, q2) = map(_sinc, (u, n * n / 4 * t, t))
        w, v, a = dif * e2 * e2, 2 * e1 * e1, n * n * s1 * s1 * s2
        value = c0 * e1 * e1 * e2 + w * m * (u * p0) + t * (a - v * p2)
        slope = w * (m ** 3 * (p0 + q0)) + a + n * n * s1 * (2 * d1 * s2 + s1 * d2) - v * (p2 + q2)
    return value, slope + ((n + 1) / (2 * math.sqrt(-t)) * value if t < 0 else 0.0)


def _pair_root(n: int, r: float) -> float:
    """The pair's t at gamma/J = r: x0^2 > 0 if unbroken, else -kappa^2 <= 0.

    The condition F (`_pair_point`) is c0 at t = 0, negative on all of
    t <= 0 where c0 < 0, negative at t = -K^2 with K = ln r + 1 where c0 > 0,
    and positive, tot sin h (over h for odd N), at t = h^2 with h = pi/(2N)
    for even N and pi/N for odd N.  So [-K^2, h^2] holds one root whatever
    the phase, and the root's sign is the phase.  Safeguarded Newton from
    the start with the smallest step: the root of the quadratic through
    F(0) = c0, F'(0) and F(h^2), which is 0 at a coalescence and close to
    -c0/F'(0) next to gamma_c, or -(ln r)^2 if c0 > 0, kappa's limit where
    kappa N is large.  t reaches 1e-30 next to gamma_c, so the stop rule is
    relative; a coalescence stays at t = 0.
    """
    c0, dif, m = *_centre_coefficients(n, r), n - 1
    lo, hi = -(math.log(max(r, 1.0)) + 1.0) ** 2, (math.pi / (n if n % 2 else 2 * n)) ** 2
    slope = n * n + 1 / 3 - dif * (m ** 3 / 6) if n % 2 else 2 * n - dif * m * m / 2  # F'(0)
    top = (dif + 2) * math.sin(math.sqrt(hi)) / (math.sqrt(hi) if n % 2 else 1.0)  # F(h^2)
    q = slope * slope - 4 * c0 * (top - c0 - slope * hi) / (hi * hi)
    starts = [-2 * c0 / (slope + math.sqrt(q)) if q >= 0 and slope > 0 else math.nan]
    starts += [-math.log(r) ** 2] if c0 > 0 else []
    starts = [t for t in starts if lo < t < hi] or [0.5 * (lo + hi)]
    t, value, slope = min(((t, *_pair_point(n, t, c0, dif)) for t in starts),
                          key=lambda p: abs(p[1] / p[2]) if p[2] else math.inf)
    for _ in range(_MAX_ITER):
        lo, hi = (t, hi) if value < 0 else (lo, t)
        new = t - value / slope if slope else math.nan
        if not (lo < new < hi or new == t):
            new = 0.5 * (lo + hi)
        if abs(new - t) <= _PAIR_TOL * abs(t):
            return new
        t = new
        value, slope = _pair_point(n, t, c0, dif)
    raise NonConvergence(f"critical pair not within {_PAIR_TOL} relative after {_MAX_ITER} steps")


def _pair_roots(specs: list[ChainSpec]) -> np.ndarray:
    """`_pair_root` of every spec, in spec order.

    Root by root in floats: a numpy form of `_pair_point` takes some 60
    calls of about 0.5 us each per step, more than this loop costs below a
    few dozen specs.
    """
    return np.array([_pair_root(specs[0].n_sites, spec.gamma / spec.hopping) for spec in specs])


def solve_kappa(spec: ChainSpec) -> float:
    """The unique kappa > 0 of the broken-phase quantization condition.

    kappa = sqrt(-t) at the root t < 0 of the pair's condition
    (`_pair_roots`).  Raises PhaseError outside the broken phase, also at an
    exact coalescence, where kappa = 0.
    """
    if classify_phase(spec) is not Phase.BROKEN:
        raise PhaseError(f"gamma={spec.gamma} is not in the broken phase "
                         f"(gamma_c={spec.gamma_c})")
    return math.sqrt(-float(_pair_roots([spec])[0]))


def _spectra(specs: list[ChainSpec]) -> list[SpectralSolution]:
    """A solution per spec (shared N and J): one solve for the critical pairs, one for the rest.

    Each real level comes from its offset x > 0: k = pi/2 -+ x, E = -+2J sin x,
    and the zero mode at pi/2 for odd N.  The other brackets' offsets come
    from one `_bracketed_roots`, a row per spec.  The pair's root t
    (`_pair_roots`) joins them as x0 = sqrt(t) where `classify_phase` reads
    the spec as unbroken; anywhere else the pair sits in the middle as
    pi/2 -+ i kappa, E = -+2iJ sinh kappa, kappa = sqrt(-t).  So the levels
    are built in (Re E, Im E) order.
    """
    if not specs:
        return []
    phases = [classify_phase(spec) for spec in specs]
    pairs = _pair_roots(specs).tolist()
    rows = _bracketed_roots(specs[0].n_sites, *_offset_brackets(specs)).reshape(len(specs), -1)
    half = math.pi / 2
    out = []
    for spec, phase, x, t in zip(specs, phases, rows, pairs):
        k, e = ([half], [0.0]) if spec.n_sites % 2 else ([], [])
        if phase is Phase.UNBROKEN:
            x = np.concatenate([[math.sqrt(t)], x])
        else:
            kappa = math.sqrt(-t)
            up, down = _pair_levels(spec.hopping, True, kappa)
            k, e = [complex(half, 0.0 - kappa), *k, complex(half, kappa)], [down, *e, up]
        level = 2 * spec.hopping * np.sin(x)
        out.append(SpectralSolution(
            spec=spec, k=np.concatenate([half - x[::-1], k, half + x], dtype=complex),
            energies=np.concatenate([-level[::-1], e, level], dtype=complex), phase=phase))
    return out


def solve_spectra(n_sites: int, hopping: float, gammas) -> list[SpectralSolution]:
    """`solve_spectrum` at every gamma of a grid with shared N and J, in one solve.

    Each solution is bit-identical to its one-gamma solve.  A bad N or J
    raises, on an empty grid too.  A bad gamma raises before any solve,
    the first one's error (`ChainSpec`), and the critical pairs are
    solved, and may fail, in gamma order.  The one error that comes from
    the whole batch is the bracketed roots' NonConvergence, which no
    measured root comes near: at most 4 Newton evaluations per root
    against a cap of 100 (`_MAX_ITER`).
    """
    ChainSpec(n_sites, hopping)  # rejects a bad N or J, on an empty grid too
    return _spectra([ChainSpec(n_sites, hopping, gamma) for gamma in gammas])


def solve_spectrum(spec: ChainSpec) -> SpectralSolution:
    """Full mode set: N real modes, or N-2 real plus the conjugate imaginary pair.

    At an exact coalescence (Critical phase) the pair is E = 0 twice, at
    k = pi/2.
    """
    return _spectra([spec])[0]


def locate_critical_gamma(n_sites: int, hopping: float = 1.0) -> float:
    """gamma_c by bisection on the phase rule (`classify_phase`: unbroken below).

    Independent of the closed-form boundary.  [0.5 J, 2.2 J] is halved until
    its midpoint is one of its ends, some 53 halvings: the ends are then
    neighbouring floats, the last unbroken gamma and the next float above
    it, and the result is the one of them the midpoint rounds to, a float
    where the phase rule flips.  It lies within 2 ulp of `gamma_critical`
    (N = 2 to 10^6 + 1, J from 1e-300 to 1e300).
    """
    spec = ChainSpec(n_sites, hopping)  # rejects a bad N or J; N as an int, J as a float
    # c0 is r^2 - 1 or (N - 1) r^2 - (N + 1): negative at r = 0.5 and
    # positive at r = 2.2 for every N >= 2
    lo, hi = 0.5 * spec.hopping, 2.2 * spec.hopping
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _centre_coefficients(spec.n_sites, mid / spec.hopping)[0] < 0:  # unbroken
            lo = mid
        else:
            hi = mid
    return mid
