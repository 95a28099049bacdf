import math

import numpy as np
import pytest

from ptchain import (ChainSpec, apply_pt, build_c_operator, build_eigenbasis,
                     build_hamiltonian, cpt_inner, gamma_critical,
                     oracle_eigenvector, pt_norm, solve_kappa,
                     solve_real_momenta, wavefunction_broken,
                     wavefunction_dual, wavefunction_unbroken)
from ptchain.bethe import raw_amplitude
from ptchain.errors import NullState, PhaseError

GRID = [(n, frac) for n in (2, 3, 5, 8, 11, 12) for frac in (0.3, 0.6, 0.9)]
LARGE = [(n, frac) for n in (64, 128, 256) for frac in (0.3, 0.95)]


def _unbroken_spec(n, frac):
    return ChainSpec(n, 1.0, frac * gamma_critical(n))


def test_hermitian_limit_is_standing_wave():
    n = 6
    spec = ChainSpec(n, 1.0, 0.0)
    for nk, k in enumerate(solve_real_momenta(spec), start=1):
        f = wavefunction_unbroken(spec, k)
        wave = np.sin(k * np.arange(1, n + 1))
        wave = wave / np.linalg.norm(wave)
        overlap = abs(np.vdot(wave, f))
        assert overlap == pytest.approx(1.0, abs=1e-12), nk


def test_null_state_rejected():
    with pytest.raises(NullState):
        wavefunction_unbroken(ChainSpec(5, 1.0, 0.3), math.pi)


@pytest.mark.parametrize("n,frac", GRID)
def test_eigen_residual_and_pt_symmetry(n, frac):
    spec = _unbroken_spec(n, frac)
    h = build_hamiltonian(spec)
    for k in solve_real_momenta(spec):
        f = wavefunction_unbroken(spec, k)
        energy = -2 * spec.hopping * math.cos(k)
        assert np.max(np.abs(h @ f - energy * f)) < 1e-10
        assert np.max(np.abs(apply_pt(f) - f)) < 1e-10


def test_n2_analytic_eigenpair():
    spec = ChainSpec(2, 1.0, 0.6)
    h = build_hamiltonian(spec)
    k_lower = max(solve_real_momenta(spec))  # energy -2J cos k, so largest k
    f = wavefunction_unbroken(spec, k_lower)
    assert -2 * math.cos(k_lower) == pytest.approx(0.8, abs=1e-12)
    assert np.max(np.abs(h @ f - 0.8 * f)) < 1e-10


def test_dual_equals_state_at_gamma_zero():
    spec = ChainSpec(5, 1.0, 0.0)
    for k in solve_real_momenta(spec):
        f = wavefunction_unbroken(spec, k)
        g = wavefunction_dual(spec, k)
        assert np.max(np.abs(f - g)) < 1e-12


@pytest.mark.parametrize("n,frac", GRID)
def test_dual_residual_and_biorthonormality(n, frac):
    spec = _unbroken_spec(n, frac)
    hdag = build_hamiltonian(spec).conj().T
    basis = build_eigenbasis(spec)
    g = basis.g
    assert np.max(np.abs(hdag @ g - g * basis.energies)) < 1e-8
    assert np.max(np.abs(apply_pt(g) - g)) < 1e-10
    assert np.max(np.abs(g.conj().T @ basis.f - np.eye(n))) < 1e-8


@pytest.mark.parametrize("n,gamma", [(8, 1.2), (7, 1.5), (2, 1.5)])
def test_broken_states(n, gamma):
    spec = ChainSpec(n, 1.0, gamma)
    h = build_hamiltonian(spec)
    kappa = solve_kappa(spec)
    plus = wavefunction_broken(spec, +1, kappa)
    minus = wavefunction_broken(spec, -1, kappa)
    for branch, f in ((+1, plus), (-1, minus)):
        energy = 2j * branch * math.sinh(kappa)
        assert np.max(np.abs(h @ f - energy * f)) < 1e-8
        assert abs(pt_norm(f)) < 1e-10  # the zero self-pairing identity
    # the PT action maps the two branches onto each other
    mapped = apply_pt(plus)
    overlap = abs(np.vdot(mapped, minus)) / (np.linalg.norm(mapped) * np.linalg.norm(minus))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def _apply_tridiagonal(spec, f):
    # H f without the dense N x N matrix
    hf = np.zeros_like(f)
    hf[:-1] -= spec.hopping * f[1:]
    hf[1:] -= spec.hopping * f[:-1]
    hf[0] += 1j * spec.gamma * f[0]
    hf[-1] -= 1j * spec.gamma * f[-1]
    return hf


@pytest.mark.parametrize("n", [1760, 2000, 4096])
@pytest.mark.parametrize("branch", [+1, -1])
def test_broken_states_deep_in_the_broken_phase(n, branch):
    # kappa N passes ~709 here, where unscaled e^{kappa l} factors overflow
    spec = ChainSpec(n, 1.0, 1.5)
    kappa = solve_kappa(spec)
    f = wavefunction_broken(spec, branch, kappa)
    assert np.all(np.isfinite(f))
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    energy = 2j * branch * math.sinh(kappa)
    assert np.max(np.abs(_apply_tridiagonal(spec, f) - energy * f)) <= 1e-10


def test_broken_state_requires_broken_phase():
    # the kappa of a broken state comes from solve_kappa, which reads the phase
    spec = ChainSpec(8, 1.0, 0.5)
    with pytest.raises(PhaseError):
        wavefunction_broken(spec, +1, solve_kappa(spec))


@pytest.mark.parametrize("n,frac", GRID)
def test_c_operator_identities(n, frac):
    spec = _unbroken_spec(n, frac)
    h = build_hamiltonian(spec)
    c = build_c_operator(build_eigenbasis(spec))
    eye = np.eye(n)
    p = eye[::-1]
    assert np.max(np.abs(c @ c - eye)) < 1e-8
    assert np.max(np.abs(c @ h - h @ c)) < 1e-8
    # [C, PT] = 0 for the antilinear PT means C P = P conj(C)
    assert np.max(np.abs(c @ p - p @ c.conj())) < 1e-8


@pytest.mark.parametrize("n,frac", [(3, 0.95), (8, 0.5), (12, 0.9), (33, 0.7)])
def test_c_operator_is_sum_of_outer_products(n, frac):
    basis = build_eigenbasis(_unbroken_spec(n, frac))
    ref = sum(np.outer(f, f) for f in basis.f.T)
    assert np.max(np.abs(build_c_operator(basis) - ref)) <= 1e-14


@pytest.mark.parametrize("n,frac", LARGE)
def test_eigenbasis_at_large_n(n, frac):
    spec = _unbroken_spec(n, frac)
    basis = build_eigenbasis(spec)
    f, eye = basis.f, np.eye(n)
    assert np.max(np.abs(build_hamiltonian(spec) @ f - f * basis.energies)) <= 1e-10
    assert np.max(np.abs(basis.g.conj().T @ f - eye)) <= 1e-8
    assert np.max(np.abs(apply_pt(f) - f)) <= 1e-10
    c = build_c_operator(basis)
    assert np.max(np.abs(c @ c - eye)) <= 1e-8


def _paper_coef(spec, k, sign):
    g, j = spec.gamma, spec.hopping
    return (g * np.exp(1j * k) + sign * 1j * j) / (g * np.exp(-1j * k) + sign * 1j * j)


@pytest.mark.parametrize("n,frac", GRID + LARGE)
def test_paper_closed_forms(n, frac):
    # The paper's normalization D(k) and its dual amplitude (zeta: eta with
    # +iJ in place of -iJ), against the construction they are not used in.
    spec = _unbroken_spec(n, frac)
    k = solve_real_momenta(spec)
    l = np.arange(1, n + 1)
    n0 = (n + 1) / 2
    eta = _paper_coef(spec, k, -1.0)
    d_squared = np.abs((1 + np.abs(eta) ** 2) * np.sin(n * k) / np.sin(k)
                       - 2 * n * eta * np.exp(-1j * k * (n + 1)))
    raw = raw_amplitude(spec, k)
    pairing = np.abs(np.sum(raw * raw, axis=-1))
    assert np.max(np.abs(d_squared - pairing) / pairing) <= 1e-12
    zeta = _paper_coef(spec, k, +1.0)[:, None]
    dual = np.exp(1j * k[:, None] * (l - n0)) - zeta * np.exp(-1j * k[:, None] * (l + n0))
    f = build_eigenbasis(spec).f.T  # one state per row
    along = np.sum(f * dual, axis=-1) / np.sum(np.abs(f) ** 2, axis=-1)
    off = np.linalg.norm(dual - along[:, None] * f.conj(), axis=-1)
    assert np.max(off / np.linalg.norm(dual, axis=-1)) <= 1e-12


@pytest.mark.parametrize("n,frac", [(5, 0.5), (12, 0.9)])
def test_eigenbasis_duals_match_wavefunction_dual(n, frac):
    spec = _unbroken_spec(n, frac)
    basis = build_eigenbasis(spec)
    for k, g in zip(basis.k, basis.g.T):
        assert np.array_equal(g, wavefunction_dual(spec, k))


def _in_sign_gauge(v, atol=1e-12):
    z = v[0]
    return z.real > atol or (abs(z.real) <= atol and z.imag >= -atol)


@pytest.mark.parametrize("n", [5, 8, 33])
@pytest.mark.parametrize("frac", [0.3, 0.9])
def test_unbroken_states_carry_the_sign_gauge(n, frac):
    # each state is fixed up to +-1 by everything else checked here (eta, C,
    # the Gram matrices and the couplings are all even in it); the gauge puts
    # the first component in the right half-plane, ties to the upper half
    spec = _unbroken_spec(n, frac)
    basis = build_eigenbasis(spec)
    assert all(_in_sign_gauge(f) for f in basis.f.T)
    assert all(_in_sign_gauge(wavefunction_unbroken(spec, k)) for k in basis.k)


def test_c_operator_broken_phase_rejected():
    spec = ChainSpec(6, 1.0, 1.4)
    with pytest.raises(PhaseError):
        build_eigenbasis(spec)


@pytest.mark.parametrize("n,frac", [(5, 0.5), (8, 0.5), (12, 0.7)])
def test_cpt_gram_identity(n, frac):
    spec = _unbroken_spec(n, frac)
    basis = build_eigenbasis(spec)
    c = build_c_operator(basis)
    fs = basis.f.T
    gram = np.array([[cpt_inner(c, fa, fb) for fb in fs] for fa in fs])
    assert np.max(np.abs(gram - np.eye(n))) < 1e-8


def test_cpt_reduces_to_euclidean_at_gamma_zero():
    spec = ChainSpec(6, 1.0, 0.0)
    basis = build_eigenbasis(spec)
    c = build_c_operator(basis)
    fs = basis.f.T
    for a, fa in enumerate(fs):
        for b, fb in enumerate(fs):
            assert cpt_inner(c, fa, fb) == pytest.approx(np.vdot(fa, fb), abs=1e-10)


def test_pt_norm_standing_wave():
    spec = ChainSpec(7, 1.0, 0.0)
    k = solve_real_momenta(spec)[2]
    f = wavefunction_unbroken(spec, k)
    assert abs(pt_norm(f)) == pytest.approx(float(np.linalg.norm(f)) ** 2, abs=1e-10)


def test_pt_norm_shrinks_toward_coalescence():
    n = 12
    gc = gamma_critical(n)
    norms = []
    for off in (1e-2, 1e-3, 1e-4):
        spec = ChainSpec(n, 1.0, gc - off)
        roots = solve_real_momenta(spec)
        k = roots[np.argmin(np.abs(roots - math.pi / 2))]
        f = wavefunction_unbroken(spec, k)
        norms.append(abs(pt_norm(f / np.linalg.norm(f))))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 0.1


@pytest.mark.parametrize("n,frac", [(4, 0.6), (9, 0.4), (12, 0.8)])
def test_matches_oracle_eigenvectors(n, frac):
    spec = _unbroken_spec(n, frac)
    h = build_hamiltonian(spec)
    for k in solve_real_momenta(spec):
        f = wavefunction_unbroken(spec, k)
        v = oracle_eigenvector(h, -2 * spec.hopping * math.cos(k))
        aligned = abs(np.vdot(v, f)) / np.linalg.norm(f)
        assert 1.0 - aligned < 1e-6
