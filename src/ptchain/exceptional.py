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

from .bethe import _critical_offsets, _in_gamma_order, _kappas
from .errors import DomainError, PhaseError
from .model import ChainSpec, Phase, classify_phase
from .states import pt_norm, wavefunction_broken, wavefunction_unbroken

# Largest scaled distance N |gamma - gamma_c| / gamma_c flagged as inside the
# window; there the repulsion law is within about 4% of the exact pair.  For
# odd N it stays clear of gamma near or below J (scaled distance 0.88 at N = 3,
# tending to 1), where delta_approx has no real solution.
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
    skipped: bool = False


def alpha_parameter(spec: ChainSpec) -> float:
    j, g = spec.hopping, spec.gamma
    den = g * g - j * j
    if den == 0:
        return math.inf
    return (j * j + g * g) / den


def in_asymptotic_window(spec: ChainSpec) -> bool:
    gc = spec.gamma_c
    return spec.n_sites * abs(spec.gamma - gc) <= ASYMPTOTIC_WINDOW * gc


def delta_approx(spec: ChainSpec) -> float:
    """Leading-order offset of the two critical momenta from pi/2 (unbroken side)."""
    if spec.gamma > spec.gamma_c:
        raise PhaseError("delta_approx applies on the unbroken side")
    n = spec.n_sites
    alpha = alpha_parameter(spec)
    if not math.isfinite(alpha):  # gamma = J: the even-N boundary limit
        return 0.0
    if n % 2 == 0:
        radicand = -n * alpha
        if radicand <= 0:
            raise DomainError(f"negative radicand at gamma={spec.gamma}")
        return 1.0 / math.sqrt(radicand)
    radicand = 3 * (alpha - n) / (n**3 - alpha)
    if radicand < 0:
        if radicand > -1e-10:  # fp residue of alpha = N exactly at the boundary
            return 0.0
        raise DomainError(
            f"gamma={spec.gamma} is outside the odd-N asymptotic domain (J, gamma_c]")
    return math.sqrt(radicand)


def kappa_approx(spec: ChainSpec) -> float:
    """Mirror of delta_approx across gamma_c (broken side)."""
    if spec.gamma < spec.gamma_c:
        raise PhaseError("kappa_approx applies on the broken side")
    n = spec.n_sites
    alpha = alpha_parameter(spec)
    if not math.isfinite(alpha):
        return 0.0
    if n % 2 == 0:
        radicand = n * alpha
        if radicand <= 0:
            raise DomainError(f"negative radicand at gamma={spec.gamma}")
        return 1.0 / math.sqrt(radicand)
    radicand = 3 * (n - alpha) / (n**3 - alpha)
    if radicand < 0:
        if radicand > -1e-10:
            return 0.0
        raise DomainError(f"gamma={spec.gamma} is outside the odd-N asymptotic domain")
    return math.sqrt(radicand)


def repulsion_law(spec: ChainSpec) -> tuple[float, float]:
    """Unified square-root law for the two critical levels, +- values.

    Real parts on the unbroken side, imaginary parts on the broken side.
    """
    n, j = spec.n_sites, spec.hopping
    gc = spec.gamma_c
    c = 3.0 if n % 2 else 1.0
    mag = 2 * j * math.sqrt(c * abs(spec.gamma - gc) / (n * gc))
    return mag, -mag


def critical_levels(spec: ChainSpec, with_vectors: bool = True):
    """The two levels closest to zero plus (optionally) their eigenvectors.

    Unbroken side: the +-|e| pair from the roots at pi/2 +- x0; broken side:
    the imaginary pair.  (For odd N the exact zero mode is not part of the
    critical pair.)  Where the bracket at pi/2 holds no root, as at gamma_c
    for even N, the pair has coalesced and PhaseError is raised.
    """
    broken = classify_phase(spec) is Phase.BROKEN
    root = (_kappas if broken else _critical_offsets)([spec])[0]
    return _critical_pair(spec, broken, float(root), with_vectors)


def _critical_pair(spec: ChainSpec, broken: bool, root: float, with_vectors: bool):
    """critical_levels from the pair's kappa (broken) or offset x0 (otherwise)."""
    j = spec.hopping
    if broken:
        levels = (complex(0.0, 2 * j * math.sinh(root)),
                  complex(0.0, -2 * j * math.sinh(root)))
        if not with_vectors:
            return levels, None
        return levels, (wavefunction_broken(spec, +1, root),
                        wavefunction_broken(spec, -1, root))
    levels = (complex(2 * j * math.sin(root), 0.0), complex(-2 * j * math.sin(root), 0.0))
    if not with_vectors:
        return levels, None
    return levels, (wavefunction_unbroken(spec, math.pi / 2 + root),
                    wavefunction_unbroken(spec, math.pi / 2 - root))


def coalescence_gap(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |<u,v>| / (||u|| ||v||); tends to 0 as the two eigenvectors coalesce."""
    overlap = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(max(0.0, 1.0 - overlap))


def critical_sweep(chain: ChainSpec | int, gamma_values, hopping: float = 1.0,
                   phase_tol: float | None = None) -> list[CriticalReport]:
    """CriticalReport per gamma; points inside the Critical band are flagged.

    `chain` may be a ChainSpec (its gamma is ignored) or a site count.  Each
    point's phase is read once, at `phase_tol`, and the critical pairs of
    the whole grid come from two solves: one for kappa at the broken points
    and one for the bracket at pi/2 at the unbroken ones.  Where that phase
    agrees with the default band, each pair is bit-identical to its
    `critical_levels`.  If several gammas fail, the error raised is the
    first failing gamma's.
    """
    if isinstance(chain, ChainSpec):
        n_sites, hopping = chain.n_sites, chain.hopping
    else:
        n_sites = chain
    return _in_gamma_order(
        lambda grid: _critical_reports(
            [ChainSpec(n_sites, hopping, float(g)) for g in grid], phase_tol),
        gamma_values)


def _critical_reports(specs: list[ChainSpec],
                      phase_tol: float | None) -> list[CriticalReport]:
    phases = [classify_phase(spec, phase_tol) for spec in specs]
    kappas = _kappas([s for s, p in zip(specs, phases) if p is Phase.BROKEN])
    offsets = _critical_offsets([s for s, p in zip(specs, phases) if p is Phase.UNBROKEN])
    roots = {Phase.BROKEN: iter(kappas.tolist()), Phase.UNBROKEN: iter(offsets.tolist())}
    reports = []
    for spec, phase in zip(specs, phases):
        gc = spec.gamma_c
        offset = spec.gamma - gc
        window = in_asymptotic_window(spec)
        if phase is Phase.CRITICAL:
            zero = complex(0.0, 0.0)
            reports.append(CriticalReport(
                gamma=spec.gamma, gamma_offset=offset, two_levels=(zero, zero),
                analytic_pair=(zero, zero), delta_or_kappa=0.0,
                alpha=alpha_parameter(spec), coalescence_gap=0.0,
                pt_norms=(zero, zero), in_window=window, skipped=True))
            continue
        levels, vecs = _critical_pair(spec, phase is Phase.BROKEN, next(roots[phase]), True)
        unit = tuple(v / np.linalg.norm(v) for v in vecs)
        j = spec.hopping
        try:
            if phase is Phase.UNBROKEN:
                dk = delta_approx(spec)
                analytic = (complex(2 * j * math.sin(dk), 0.0),
                            complex(-2 * j * math.sin(dk), 0.0))
            else:
                dk = kappa_approx(spec)
                analytic = (complex(0.0, 2 * j * math.sinh(dk)),
                            complex(0.0, -2 * j * math.sinh(dk)))
        except DomainError:
            dk = math.nan
            analytic = (complex(math.nan, math.nan),) * 2
        reports.append(CriticalReport(
            gamma=spec.gamma, gamma_offset=offset, two_levels=levels,
            analytic_pair=analytic, delta_or_kappa=dk,
            alpha=alpha_parameter(spec),
            coalescence_gap=coalescence_gap(unit[0], unit[1]),
            pt_norms=(pt_norm(unit[0]), pt_norm(unit[1])),
            in_window=window))
    return reports
