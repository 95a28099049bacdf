"""Eigenfunctions of H and H^dagger, the discrete C operator, and CPT machinery.

Unbroken-phase states come from the closed forms

    f_k^l = (e^{ik(l-N0)} - eta(k) e^{-ik(l+N0)}) / D_eta(k)
    g_k^l = (e^{ik(l-N0)} - zeta(k) e^{-ik(l+N0)}) / D_zeta(k)

with N0 = (N+1)/2 the chain center, eta = (g e^{ik} - iJ)/(g e^{-ik} - iJ),
zeta the same with +iJ, and D the modulus of the square root of
[1+|c|^2] sin(Nk)/sin(k) - 2N c e^{-ik(N+1)}.  On-shell the closed-form D
equals |PT self-pairing|^(1/2); a final numeric rescale enforces that exactly,
so the CPT self-inner-product of every state is +1 and the g/f system is
biorthonormal after a sign fix of g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bethe import (Mode, NULL_STATE_THRESHOLD, mode_energy, raw_amplitude,
                    solve_kappa, solve_real_momenta)
from .errors import NullState, PhaseError
from .model import ChainSpec, Phase, apply_pt, classify_phase


@dataclass(frozen=True)
class EigenBasis:
    """Paired eigenbases {f_k} of H and {g_k} of H^dagger (unbroken phase)."""

    spec: ChainSpec
    phase: Phase
    f_states: tuple[tuple[Mode, np.ndarray], ...]
    g_states: tuple[tuple[Mode, np.ndarray], ...]


@dataclass(frozen=True)
class COperator:
    matrix: np.ndarray


def _coef(spec: ChainSpec, k: float, sign: float) -> complex:
    g, j = spec.gamma, spec.hopping
    return (g * np.exp(1j * k) + sign * 1j * j) / (g * np.exp(-1j * k) + sign * 1j * j)


def _raw_dual_amplitude(spec: ChainSpec, k: float) -> np.ndarray:
    n = spec.n_sites
    n0 = (n + 1) / 2
    l = np.arange(1, n + 1)
    zeta = _coef(spec, k, +1.0)
    return np.exp(1j * k * (l - n0)) - zeta * np.exp(-1j * k * (l + n0))


def _closed_form_denominator(spec: ChainSpec, k: float, coef: complex) -> float:
    n = spec.n_sites
    z = ((1 + abs(coef) ** 2) * np.sin(n * k) / np.sin(k)
         - 2 * n * coef * np.exp(-1j * k * (n + 1)))
    return abs(np.sqrt(z))


def _fix_sign(v: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    # Deterministic +-1 gauge: first component gets a non-negative real part,
    # tie-broken by a non-negative imaginary part.  Only real flips are allowed
    # (a complex phase would break the PT symmetry of the state).
    z = v[0]
    if z.real < -atol or (abs(z.real) <= atol and z.imag < -atol):
        return -v
    return v


def wavefunction_unbroken(spec: ChainSpec, k: float) -> np.ndarray:
    """CPT-normalized eigenvector of H for a real Bethe root k.

    The closed-form denominator is applied first, then the vector is rescaled
    so its PT self-pairing is exactly +-1 (the sign is intrinsic to the mode
    and is what the C operator encodes).
    """
    raw = raw_amplitude(spec, k)
    if np.max(np.abs(raw)) < NULL_STATE_THRESHOLD:
        raise NullState(f"k={k} yields a null amplitude vector")
    f = raw / _closed_form_denominator(spec, k, _coef(spec, k, -1.0))
    pairing = np.sum(f * f)  # real +-1 on-shell
    f = f / np.sqrt(abs(pairing))
    return _fix_sign(f)


def _dual_for(spec: ChainSpec, k: float, f: np.ndarray) -> np.ndarray:
    # The dual state at root k, scaled so <g|f> = +1 against the given f.
    raw = _raw_dual_amplitude(spec, k)
    if np.max(np.abs(raw)) < NULL_STATE_THRESHOLD:
        raise NullState(f"k={k} yields a null dual amplitude vector")
    g = raw / _closed_form_denominator(spec, k, _coef(spec, k, +1.0))
    g = g / np.sqrt(abs(np.sum(g * g)))
    overlap = np.vdot(g, f)  # +-1 on-shell
    return g * np.copysign(1.0, overlap.real) / abs(overlap)


def wavefunction_dual(spec: ChainSpec, k: float) -> np.ndarray:
    """Eigenvector of H^dagger at the same real eigenvalue, scaled so <g|f> = +1."""
    return _dual_for(spec, k, wavefunction_unbroken(spec, k))


def wavefunction_broken(spec: ChainSpec, branch: int,
                        kappa: float | None = None) -> np.ndarray:
    """Broken-phase eigenvector for k = pi/2 + i*branch*kappa, unit Euclidean norm.

    CPT normalization is invalid for these states (their PT self-pairing is
    exactly zero), so the Euclidean norm is used instead.
    """
    if classify_phase(spec) is not Phase.BROKEN:
        raise PhaseError(f"gamma={spec.gamma} is not in the broken phase")
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if kappa is None:
        kappa = solve_kappa(spec)
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    n0 = (n + 1) / 2
    l = np.arange(1, n + 1)
    s = float(branch)
    ratio = (j - g * np.exp(-s * kappa)) / (j + g * np.exp(s * kappa))
    # Each term as one exponent, less the largest, before exp: e^{kappa N}
    # overflows once kappa N passes ~709, and the norm fixes the scale anyway.
    first = s * kappa * (n0 - l)
    with np.errstate(divide="ignore"):  # ratio = 0 drops the second term
        second = s * kappa * (n0 + l) + np.log(abs(ratio))
    top = max(first.max(), second.max())
    f = ((1j) ** l * np.exp(first - top)
         - (-1j) ** l * np.sign(ratio) * np.exp(second - top))
    return _fix_sign(f / np.linalg.norm(f))


def build_eigenbasis(spec: ChainSpec, tol: float = 1e-12) -> EigenBasis:
    """All N (mode, f) and (mode, g) pairs of the unbroken phase."""
    phase = classify_phase(spec)
    if phase is not Phase.UNBROKEN:
        raise PhaseError(f"complete CPT eigenbasis requires the unbroken phase, "
                         f"got {phase} at gamma={spec.gamma}")
    fs, gs = [], []
    for k in solve_real_momenta(spec, tol):
        mode = Mode(k=complex(k, 0.0),
                    energy=complex(mode_energy(spec, k), 0.0))
        f = wavefunction_unbroken(spec, k)
        fs.append((mode, f))
        gs.append((mode, _dual_for(spec, k, f)))
    return EigenBasis(spec=spec, phase=phase, f_states=tuple(fs), g_states=tuple(gs))


def build_c_operator(basis: EigenBasis) -> COperator:
    """C(m,l) = sum_k f_k^m f_k^l (no conjugation); C^2 = 1 on a complete basis."""
    if basis.phase is not Phase.UNBROKEN:
        raise PhaseError("the C operator exists only in the unbroken phase")
    f = np.array([state for _, state in basis.f_states])
    return COperator(matrix=f.T @ f)


def cpt_inner(c_op: COperator, u: np.ndarray, v: np.ndarray) -> complex:
    """CPT inner product sum_l (C PT u)_l v_l; delta_{kk'} on the eigenbasis."""
    return complex(np.sum((c_op.matrix @ apply_pt(u)) * v))


def pt_norm(u: np.ndarray) -> complex:
    """PT self-pairing sum_l conj(u_{N+1-l}) u_l; vanishes for broken-phase states."""
    return complex(np.sum(apply_pt(u) * np.asarray(u)))
