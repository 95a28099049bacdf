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

from .bethe import (SpectralSolution, _amplitude, _pair_roots, classify_phase, raw_amplitude,
                    solve_spectrum)
from .errors import PhaseError
from .model import ChainSpec, Phase, apply_pt


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Paired eigenbases of the unbroken phase, one state per column.

    `f[:, i]` is the eigenvector of H and `g[:, i]` that of H^dagger at the
    real root `k[i]` with energy `energies[i]`; roots ascend.
    """

    k: np.ndarray
    energies: np.ndarray
    f: np.ndarray
    g: np.ndarray


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # Deterministic +-1 gauge of each vector along the last axis: its first
    # component gets a non-negative real part, tie-broken by a non-negative
    # imaginary part.  Only real flips are allowed (a complex phase would
    # break the PT symmetry of the state).
    z, atol = v[..., :1], 1e-12
    flip = (z.real < -atol) | ((np.abs(z.real) <= atol) & (z.imag < -atol))
    return np.where(flip, -v, v)


def _cpt_states(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CPT-normalized f_k and their duals g_k = s_k f_k^*, sites along the last axis.

    `raw` holds the Bethe amplitudes of real roots k, one row per root.
    Every per-state reduction runs along the contiguous last axis, so a row
    equals the vector of its root alone.
    """
    pairing = np.sum(raw * raw, axis=-1, keepdims=True)  # real on-shell
    f = _fix_sign(raw / np.sqrt(np.abs(pairing)))
    return f, np.copysign(1.0, pairing.real) * f.conj()


def _critical_pairs(specs: list[ChainSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(root, broken, pair) of every spec, in spec order; the specs share N and J.

    Each spec's phase is read once, by `classify_phase`, and the roots come
    from one `_pair_roots`: kappa = sqrt(-t) at the specs that are not
    unbroken (`broken`), the offset x0 = sqrt(t) at the others.  `pair` has
    shape (len(specs), 2, N), the vector of the pair's upper level first:
    `_broken_states` at kappa, or the CPT-normalized f at pi/2 + x0 and
    pi/2 - x0.
    """
    n, j = specs[0].n_sites, specs[0].hopping
    broken = np.array([classify_phase(spec) is not Phase.UNBROKEN for spec in specs])
    root = np.sqrt(np.abs(_pair_roots(specs)))
    gamma = np.array([spec.gamma for spec in specs])
    pair = np.empty((len(specs), 2, n), complex)
    if broken.any():  # a side that holds no spec builds no states
        pair[broken] = _broken_states(n, gamma[broken] / j, root[broken])
    if not broken.all():
        k = np.pi / 2 + np.array([1.0, -1.0]) * root[~broken, None]
        pair[~broken] = _cpt_states(_amplitude(n, j, gamma[~broken, None], k))[0]
    return root, broken, pair


def _broken_states(n: int, r, kappa) -> np.ndarray:
    """The broken pair at k = pi/2 +- i kappa, shape (..., 2, N), of unit Euclidean norm.

    `r` = gamma/J and `kappa` broadcast together; sites run along the last
    axis.  Only the branch at k = pi/2 - i kappa, level -2iJ sinh(kappa), is
    built from the amplitude: its coefficient (1 - r e^kappa)/(1 + r e^-kappa)
    has no cancellation and stays finite up to gamma/J = 1e150.  The other
    branch, level +2iJ sinh(kappa), comes first; it is the PT image of the
    built one, conj(f) reversed, since PT maps the eigenvector at E onto the
    one at E*.  CPT normalization is invalid for these states (their PT
    self-pairing is exactly zero), so the Euclidean norm is used instead.  At
    kappa = 0, the exact coalescence, the pair is the one coalesced vector
    twice.
    """
    n0 = (n + 1) / 2
    l = np.arange(1, n + 1)
    r, kappa = (np.asarray(v)[..., None] for v in (r, kappa))
    ratio = (1.0 - r * np.exp(kappa)) / (1.0 + r * np.exp(-kappa))  # <= 0: r e^kappa >= 1
    # Each term as one exponent, less the largest, before exp: e^{kappa N}
    # overflows once kappa N passes ~709, and the norm fixes the scale anyway.
    first = kappa * (l - n0)
    with np.errstate(divide="ignore"):  # ratio = 0 drops the second term
        second = np.log(-ratio) - kappa * (n0 + l)
    top = np.maximum(first.max(axis=-1), second.max(axis=-1))[..., None]
    f = (1j) ** l * np.exp(first - top) + (-1j) ** l * np.exp(second - top)
    lower = _fix_sign(f / _row_norms(f))
    upper = np.where(kappa > 0, _fix_sign(lower[..., ::-1].conj()), lower)
    return np.stack([upper, lower], axis=-2)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """||v|| along the last axis, kept as a length-1 axis; per row the bits of np.linalg.norm."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]


def build_eigenbasis(spec: ChainSpec) -> EigenBasis:
    """All N eigenvectors of H and of H^dagger in the unbroken phase."""
    phase = classify_phase(spec)
    if phase is not Phase.UNBROKEN:
        raise PhaseError(f"complete CPT eigenbasis requires the unbroken phase, "
                         f"got {phase} at gamma={spec.gamma}")
    return _eigenbasis(solve_spectrum(spec))


def _eigenbasis(solution: SpectralSolution) -> EigenBasis:
    """The eigenbasis at the N real roots of an unbroken solution, ascending.

    The energies are the solution's, taken from the offsets x = k - pi/2,
    E = -+2J sin x, so the levels next to E = 0 keep their relative accuracy.
    """
    k = solution.k.real
    f, g = _cpt_states(raw_amplitude(solution.spec, k))
    return EigenBasis(k=k, energies=solution.energies.real, f=f.T, g=g.T)


def build_c_operator(basis: EigenBasis) -> np.ndarray:
    """C(m,l) = sum_k f_k^m f_k^l (no conjugation); C^2 = 1 on a complete basis."""
    return basis.f @ basis.f.T


def cpt_inner(c_op: np.ndarray, u: np.ndarray, v: np.ndarray):
    """CPT inner product sum_l (C PT u)_l v_l; delta_{kk'} on the eigenbasis.

    `c_op` is the matrix of `build_c_operator`.  Two states give a scalar;
    two stacks of states, one per column as in `EigenBasis.f`, give the
    matrix of every pair, column of u by column of v.
    """
    return (c_op @ apply_pt(u)).T @ v


def pt_norm(u: np.ndarray):
    """PT self-pairing sum_l conj(u_{N+1-l}) u_l along the last (site) axis.

    One state gives a scalar, a stack of states one per row.  It vanishes
    for broken-phase states.
    """
    u = np.asarray(u)
    return np.sum(np.conj(u[..., ::-1]) * u, axis=-1)
