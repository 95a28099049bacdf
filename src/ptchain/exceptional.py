"""Behavior near the exceptional point gamma_c: asymptotics and sweeps.

The two levels closest to zero collide at gamma_c and reappear as the
imaginary pair.  With alpha = (J^2 + gamma^2)/(gamma^2 - J^2) the offsets are

    delta ~ 1/sqrt(-N alpha)             (even N, unbroken side)
    delta ~ sqrt(3(alpha-N)/(N^3-alpha)) (odd N)

and the mirror-image kappa formulas on the broken side, giving levels
+-2J sin(delta) and +-2iJ sinh(kappa).  In terms of the distance from the
boundary both collapse onto the square-root repulsion law

    +-2J sqrt(c |gamma-gamma_c| / (N gamma_c)),  c = 1 (even) / 3 (odd),

whose validity requires N |gamma-gamma_c| / gamma_c << 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bethe import _centre_coefficients, _pair_levels
from .errors import DomainError, PhaseError
from .model import ChainSpec
from .states import _critical_pairs, _row_norms, pt_norm

# Largest scaled distance N |gamma - gamma_c| / gamma_c flagged as inside the
# window; there the repulsion law is within about 4% of the exact pair.  For
# odd N it stays clear of the edge of delta_approx's domain, gamma/J =
# sqrt((N^3 + 1)/(N^3 - 1)) (scaled distance 0.80 at N = 3, tending to 1).
ASYMPTOTIC_WINDOW = 0.25


@dataclass(frozen=True)
class CriticalReport:
    """One sweep point: numeric critical pair vs. the asymptotic prediction."""

    gamma: float
    gamma_offset: float
    two_levels: tuple[complex, complex]
    analytic_pair: tuple[complex, complex]
    delta_or_kappa: float
    alpha: float
    coalescence_gap: float
    pt_norms: tuple[complex, complex]
    in_window: bool
    skipped: bool = False  # always False: every point has its pair


def alpha_parameter(spec: ChainSpec) -> float:
    """alpha = (r^2 + 1)/(r^2 - 1) = 1 + 2/dif in r = gamma/J, inf at r = 1."""
    return _alpha(_centre_coefficients(spec.n_sites, spec.gamma / spec.hopping)[1])


def _alpha(dif: float) -> float:
    return 1.0 + 2.0 / dif if dif else math.inf


def in_asymptotic_window(spec: ChainSpec) -> bool:
    gc = spec.gamma_c
    return spec.n_sites * abs(spec.gamma - gc) <= ASYMPTOTIC_WINDOW * gc


def delta_approx(spec: ChainSpec) -> float:
    """Leading-order offset of the two critical momenta from pi/2, unbroken side.

    The side is `classify_phase`'s: PhaseError where c0 > 0 (broken).  Odd N
    has a real offset only for gamma/J > sqrt((N^3 + 1)/(N^3 - 1)), and
    raises DomainError at and below that bound, gamma = J included.
    """
    return _approx(spec, broken=False)


def kappa_approx(spec: ChainSpec) -> float:
    """Mirror of delta_approx across gamma_c: PhaseError where c0 < 0 (unbroken).

    Every broken spec lies in the odd-N domain of `delta_approx`.
    """
    return _approx(spec, broken=True)


def _approx(spec: ChainSpec, broken: bool) -> float:
    """delta_approx, or kappa_approx if `broken`, from R's centre coefficients c0 and dif.

    With s = +1 (broken) or -1, the side is `classify_phase`'s: s c0 >= 0,
    where the radicand is >= 0.  Even N: 1/sqrt(s N alpha), alpha = 1 +
    2/dif, and 0 at dif = 0 (gamma = J = gamma_c).  Odd N: alpha - N
    cancels next to gamma_c, but N - alpha = c0/dif exactly, so the radicand
    3 s (c0/dif)/(N^3 - alpha) is formed without it.  It is real and finite
    just for dif > 0 and N^3 > alpha, that is gamma/J > sqrt((N^3 + 1)/(N^3 - 1)).
    """
    s = 1.0 if broken else -1.0
    n = spec.n_sites
    c0, dif = _centre_coefficients(n, spec.gamma / spec.hopping)
    if s * c0 < 0:
        raise PhaseError(f"{'kappa' if broken else 'delta'}_approx applies on the "
                         f"{'broken' if broken else 'unbroken'} side")
    alpha = _alpha(dif)
    if n % 2 == 0:  # c0 = dif: s alpha > 0
        return 1.0 / math.sqrt(s * n * alpha) if dif else 0.0
    if dif <= 0 or n**3 <= alpha:
        raise DomainError(f"gamma/J = {spec.gamma / spec.hopping!r} is outside the odd-N "
                          f"asymptotic domain gamma/J > sqrt((N^3 + 1)/(N^3 - 1)), N = {n}")
    return math.sqrt(3 * s * (c0 / dif) / (n**3 - alpha))


def repulsion_law(spec: ChainSpec) -> tuple[float, float]:
    """Unified square-root law for the two critical levels, +- values.

    Real parts on the unbroken side, imaginary parts on the broken side.
    """
    n, j = spec.n_sites, spec.hopping
    gc = spec.gamma_c
    c = 3.0 if n % 2 else 1.0
    mag = 2 * j * math.sqrt(c * abs(spec.gamma - gc) / (n * gc))
    return mag, -mag


def critical_levels(spec: ChainSpec):
    """The two levels closest to zero and their eigenvectors, the upper level's first.

    Unbroken side: the +-|e| pair from the roots at pi/2 +- x0, CPT-normalized;
    broken side: the imaginary pair, of unit Euclidean norm, whose vector at
    +2iJ sinh(kappa) is the PT image of the one at -2iJ sinh(kappa).  (For odd
    N the exact zero mode is not part of the critical pair.)  At an exact
    coalescence (`classify_phase` Critical) the broken side's formulas give
    E = 0 twice and one vector twice.  The one-gamma case of `critical_sweep`'s
    construction.
    """
    root, broken, pair = _critical_pairs([spec])
    return _pair_levels(spec.hopping, bool(broken[0]), float(root[0])), tuple(pair[0])


def coalescence_gap(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |<u,v>| / (||u|| ||v||); tends to 0 as the two eigenvectors coalesce.

    The gap does not depend on either vector's scale, so each is first
    brought to a largest real or imaginary part in [1, 2) by a power of two:
    finite vectors of any magnitude give a gap, with the bits of the
    unscaled formula wherever that one stays in the float range.  A zero or
    non-finite vector raises ValueError.
    """
    return float(_coalescence_gaps(*map(_scaled_to_one, (u, v))))


def _scaled_to_one(u) -> np.ndarray:
    """u times the power of two that brings its largest |real or imaginary part| into [1, 2)."""
    u = np.asarray(u)
    scale = np.max(np.maximum(np.abs(u.real), np.abs(u.imag)))
    if not math.isfinite(scale):
        raise ValueError("coalescence_gap of a non-finite vector")
    if not scale:
        raise ValueError("coalescence_gap of a zero vector")
    e = 1 - math.frexp(scale)[1]  # exact: no part falls below the float range
    if np.iscomplexobj(u):
        return np.ldexp(u.real, e) + 1j * np.ldexp(u.imag, e)
    return np.ldexp(u, e)


def _coalescence_gaps(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`coalescence_gap` of each pair of rows of u and v, each row of nonzero norm."""
    norms = (_row_norms(u) * _row_norms(v))[..., 0]
    return np.maximum(1.0 - np.abs(np.vecdot(u, v)) / norms, 0.0)  # a NaN stays NaN


def critical_sweep(n_sites: int, gamma_values, hopping: float = 1.0) -> list[CriticalReport]:
    """CriticalReport per gamma, each pair bit-identical to its `critical_levels`.

    The pairs of the whole grid come from one `_critical_pairs`: each
    point's phase is read once, and one solve gives kappa at the points that
    are not unbroken and the offset x0 at the unbroken ones.  The
    stack of pairs is reduced to gaps and PT self-pairings in one pass.  A
    bad N or J raises, on an empty grid too.  A bad gamma raises before
    any solve, the first one's error (`ChainSpec`), and the pairs are
    solved, and may fail, in gamma order, as a loop of one-gamma sweeps
    would.
    """
    ChainSpec(n_sites, hopping)  # rejects a bad N or J, on an empty grid too
    specs = [ChainSpec(n_sites, hopping, g) for g in gamma_values]
    if not specs:
        return []
    roots, broken, unit = _critical_pairs(specs)
    unit /= _row_norms(unit)
    reports = []
    for spec, root, side, gap, pt in zip(specs, roots.tolist(), broken.tolist(),
                                         _coalescence_gaps(unit[:, 0], unit[:, 1]).tolist(),
                                         map(tuple, pt_norm(unit).tolist())):
        try:
            dk = _approx(spec, side)
            analytic = _pair_levels(spec.hopping, side, dk)
        except DomainError:  # odd N at or below the edge of delta_approx's domain
            dk, analytic = math.nan, (complex(math.nan, math.nan),) * 2
        reports.append(CriticalReport(
            gamma=spec.gamma, gamma_offset=spec.gamma - spec.gamma_c,
            two_levels=_pair_levels(spec.hopping, side, root),
            analytic_pair=analytic, delta_or_kappa=dk,
            alpha=alpha_parameter(spec), coalescence_gap=gap,
            pt_norms=pt, in_window=in_asymptotic_window(spec)))
    return reports
