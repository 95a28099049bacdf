"""Eigenfunctions of H and H^dagger, the discrete C operator, and CPT machinery.

Unbroken-phase states come from the Bethe amplitude

    f_k^l = e^{ik(l-N0)} - eta(k) e^{-ik(l+N0)},   l = 1..N,

with N0 = (N+1)/2 the chain center and eta = (g e^{ik} - iJ)/(g e^{-ik} - iJ),
divided by |sum_l (f_k^l)^2|^(1/2), so the PT self-pairing of every state is
s_k = +-1 (the sign is intrinsic to the mode and is what the C operator
encodes).  H is complex symmetric (H^T = H), so H^dagger = H^* and the dual
state at a real root is g_k = s_k f_k^*: then <g_k|f_k> = +1 and the g/f
system is biorthonormal.

The paper writes the normalization as D(k), the modulus of the square root
of [1+|c|^2] sin(Nk)/sin(k) - 2N c e^{-ik(N+1)} with c = eta, and the dual
through a second closed form, eta with +iJ.  On-shell D(k)^2 equals
|sum_l (f_k^l)^2| and the closed-form dual is parallel to f_k^*; both are
identities the tests check, not steps of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bethe import mode_energy, raw_amplitude, solve_real_momenta
from .errors import NullState, PhaseError
from .model import ChainSpec, Phase, apply_pt, classify_phase

# An unnormalized amplitude vector this small is a null state.
NULL_STATE_THRESHOLD = 1e-10


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Paired eigenbases of the unbroken phase, one state per column.

    `f[:, i]` is the eigenvector of H and `g[:, i]` that of H^dagger at the
    real root `k[i]` with energy `energies[i]`; roots ascend.
    """

    spec: ChainSpec
    k: np.ndarray
    energies: np.ndarray
    f: np.ndarray
    g: np.ndarray


def _fix_sign(v: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    # Deterministic +-1 gauge of each vector along the last axis: its first
    # component gets a non-negative real part, tie-broken by a non-negative
    # imaginary part.  Only real flips are allowed (a complex phase would
    # break the PT symmetry of the state).
    z = v[..., :1]
    flip = (z.real < -atol) | ((np.abs(z.real) <= atol) & (z.imag < -atol))
    return np.where(flip, -v, v)


def _cpt_states(spec: ChainSpec, k) -> tuple[np.ndarray, np.ndarray]:
    """CPT-normalized f_k and their duals g_k = s_k f_k^*, sites along the last axis.

    A scalar k gives two vectors, an array of roots two arrays with one row
    per root.  Every per-state reduction runs along the contiguous last axis,
    so a row equals the vector of its root alone.
    """
    raw = raw_amplitude(spec, k)
    if np.any(np.max(np.abs(raw), axis=-1) < NULL_STATE_THRESHOLD):
        raise NullState(f"k={k} yields a null amplitude vector")
    pairing = np.sum(raw * raw, axis=-1, keepdims=True)  # real on-shell
    f = _fix_sign(raw / np.sqrt(np.abs(pairing)))
    return f, np.copysign(1.0, pairing.real) * f.conj()


def wavefunction_unbroken(spec: ChainSpec, k: float) -> np.ndarray:
    """CPT-normalized eigenvector of H for a real Bethe root k.

    Its PT self-pairing is exactly +-1 (the sign is intrinsic to the mode and
    is what the C operator encodes).
    """
    return _cpt_states(spec, k)[0]


def wavefunction_dual(spec: ChainSpec, k: float) -> np.ndarray:
    """Eigenvector of H^dagger at the same real eigenvalue, scaled so <g|f> = +1."""
    return _cpt_states(spec, k)[1]


def wavefunction_broken(spec: ChainSpec, branch: int, kappa: float) -> np.ndarray:
    """Broken-phase eigenvector for k = pi/2 + i*branch*kappa, unit Euclidean norm.

    CPT normalization is invalid for these states (their PT self-pairing is
    exactly zero), so the Euclidean norm is used instead.  `kappa` is that of
    `solve_kappa`, which raises PhaseError outside the broken phase; it is
    used as is, whichever phase band its caller read.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
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
    """All N eigenvectors of H and of H^dagger in the unbroken phase."""
    phase = classify_phase(spec)
    if phase is not Phase.UNBROKEN:
        raise PhaseError(f"complete CPT eigenbasis requires the unbroken phase, "
                         f"got {phase} at gamma={spec.gamma}")
    k = solve_real_momenta(spec, tol)
    f, g = _cpt_states(spec, k)
    return EigenBasis(spec=spec, k=k, energies=mode_energy(spec, k), f=f.T, g=g.T)


def build_c_operator(basis: EigenBasis) -> np.ndarray:
    """C(m,l) = sum_k f_k^m f_k^l (no conjugation); C^2 = 1 on a complete basis."""
    return basis.f @ basis.f.T


def cpt_inner(c_op: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    """CPT inner product sum_l (C PT u)_l v_l; delta_{kk'} on the eigenbasis.

    `c_op` is the matrix of `build_c_operator`.
    """
    return complex(np.sum((c_op @ apply_pt(u)) * v))


def pt_norm(u: np.ndarray) -> complex:
    """PT self-pairing sum_l conj(u_{N+1-l}) u_l; vanishes for broken-phase states."""
    return complex(np.sum(apply_pt(u) * np.asarray(u)))
