import math

import numpy as np
import pytest

from ptchain import (ChainSpec, apply_pt, build_c_operator, build_eigenbasis,
                     build_hamiltonian, cpt_inner, critical_levels, gamma_critical,
                     oracle_eigenvector, pt_norm, solve_kappa, solve_spectrum)
from ptchain.bethe import raw_amplitude
from ptchain.errors import PhaseError

GRID = [(n, frac) for n in (2, 3, 5, 8, 11, 12) for frac in (0.3, 0.6, 0.9)]
LARGE = [(n, frac) for n in (64, 128, 256) for frac in (0.3, 0.95)]


def _unbroken_spec(n, frac):
    return ChainSpec(n, 1.0, frac * gamma_critical(n))


def test_hermitian_limit_is_standing_wave():
    n = 6
    basis = build_eigenbasis(ChainSpec(n, 1.0, 0.0))
    for nk, (k, f) in enumerate(zip(basis.k, basis.f.T), start=1):
        wave = np.sin(k * np.arange(1, n + 1))
        wave = wave / np.linalg.norm(wave)
        overlap = abs(np.vdot(wave, f))
        assert overlap == pytest.approx(1.0, abs=1e-12), nk


@pytest.mark.parametrize("n,frac", GRID)
def test_eigen_residual_and_pt_symmetry(n, frac):
    spec = _unbroken_spec(n, frac)
    basis = build_eigenbasis(spec)
    f = basis.f
    energy = -2 * spec.hopping * np.cos(basis.k)
    assert np.max(np.abs(build_hamiltonian(spec) @ f - f * energy)) < 1e-10
    assert np.max(np.abs(apply_pt(f) - f)) < 1e-10


def test_n2_analytic_eigenpair():
    spec = ChainSpec(2, 1.0, 0.6)
    h = build_hamiltonian(spec)
    basis = build_eigenbasis(spec)
    k_lower, f = basis.k[-1], basis.f[:, -1]  # energy -2J cos k, so largest k
    assert -2 * math.cos(k_lower) == pytest.approx(0.8, abs=1e-12)
    assert np.max(np.abs(h @ f - 0.8 * f)) < 1e-10


def test_dual_equals_state_at_gamma_zero():
    basis = build_eigenbasis(ChainSpec(5, 1.0, 0.0))
    assert np.max(np.abs(basis.f - basis.g)) < 1e-12


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
    # the broken side of critical_levels: branch +1 (k = pi/2 + i kappa) first
    spec = ChainSpec(n, 1.0, gamma)
    h = build_hamiltonian(spec)
    kappa = solve_kappa(spec)
    levels, (plus, minus) = critical_levels(spec)
    for branch, level, f in ((+1, levels[0], plus), (-1, levels[1], minus)):
        energy = 2j * branch * math.sinh(kappa)
        assert level == energy
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


# gamma = 1.5 keeps its ids; there fl(gamma e^-kappa) rounds to exactly J,
# which hid a + branch built from that cancelling difference
DEEP = ([pytest.param(n, 1.5, id=str(n)) for n in (1760, 2000, 4096)]
        + [pytest.param(n, gamma, id=f"{n}-{gamma}") for n, gamma in
           ((64, 10.0), (1760, 100.0), (4096, 10.0))])


@pytest.mark.parametrize("n,gamma", DEEP)
@pytest.mark.parametrize("branch", [+1, -1])
def test_broken_states_deep_in_the_broken_phase(n, gamma, branch):
    # kappa N passes ~709 here, where unscaled e^{kappa l} factors overflow
    spec = ChainSpec(n, 1.0, gamma)
    kappa = solve_kappa(spec)
    f = critical_levels(spec)[1][0 if branch > 0 else 1]
    assert np.all(np.isfinite(f))
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    energy = 2j * branch * math.sinh(kappa)
    assert np.max(np.abs(_apply_tridiagonal(spec, f) - energy * f)) <= 1e-10


DOMAIN_N = [2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65, 255, 256, 1000, 1001, 4096]


@pytest.mark.parametrize("n", DOMAIN_N)
@pytest.mark.parametrize("j", [1e-200, 1.0, 1e100])
def test_broken_pair_over_the_domain(n, j):
    # both critical_levels vectors just past gamma_c and from gamma/J = 1.5 to
    # the solver's 1e150: eigenvectors to rounding, relative to the larger of
    # J and |E|, PT self-orthogonal and each the PT image of the other
    gc = gamma_critical(n, j)
    gammas = ([gc * (1 + d) for d in (1e-12, 1e-9, 1e-6, 1e-3, 0.05)]
              + [j * r for r in (1.5, 2, 3, 10, 37, 100, 1e4, 1e8, 1e20, 1e100, 1e150)])
    for gamma in gammas:
        spec = ChainSpec(n, j, gamma)
        levels, (plus, minus) = critical_levels(spec)
        for level, f in zip(levels, (plus, minus)):
            residual = np.max(np.abs(_apply_tridiagonal(spec, f) - level * f))
            assert residual <= 1e-10 * max(j, abs(level)), gamma
            assert abs(pt_norm(f)) <= 1e-12, gamma
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12), gamma
        overlap = abs(np.vdot(apply_pt(plus), minus))
        assert overlap == pytest.approx(1.0, abs=1e-10), gamma


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
    k = solve_spectrum(spec).k.real
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


def _in_sign_gauge(v, atol=1e-12):
    z = v[0]
    return z.real > atol or (abs(z.real) <= atol and z.imag >= -atol)


@pytest.mark.parametrize("n", [5, 8, 33])
@pytest.mark.parametrize("frac", [0.3, 0.9])
def test_unbroken_states_carry_the_sign_gauge(n, frac):
    # each state is fixed up to +-1 by everything else checked here (eta, C,
    # the Gram matrices and the couplings are all even in it); the gauge puts
    # the first component in the right half-plane, ties to the upper half
    basis = build_eigenbasis(_unbroken_spec(n, frac))
    assert all(_in_sign_gauge(f) for f in basis.f.T)


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
    # two column stacks give the product of every pair at once
    assert np.max(np.abs(cpt_inner(c, basis.f, basis.f) - gram)) <= 1e-14


def test_cpt_reduces_to_euclidean_at_gamma_zero():
    spec = ChainSpec(6, 1.0, 0.0)
    basis = build_eigenbasis(spec)
    c = build_c_operator(basis)
    fs = basis.f.T
    for a, fa in enumerate(fs):
        for b, fb in enumerate(fs):
            assert cpt_inner(c, fa, fb) == pytest.approx(np.vdot(fa, fb), abs=1e-10)


def test_pt_norm_standing_wave():
    fs = build_eigenbasis(ChainSpec(7, 1.0, 0.0)).f.T
    assert abs(pt_norm(fs[2])) == pytest.approx(float(np.linalg.norm(fs[2])) ** 2, abs=1e-10)
    # a stack of states, one per row, gives one self-pairing per row
    assert np.max(np.abs(pt_norm(fs) - [pt_norm(f) for f in fs])) <= 1e-15


@pytest.mark.parametrize("n", [8, 9, 64, 1000])
def test_eigenbasis_pair_is_critical_levels_next_to_gamma_c(n):
    # the energies come from the offsets, E = +-2J sin x0, not from the
    # rounded k = pi/2 +- x0, so the pair keeps critical_levels' relative
    # accuracy right up to gamma_c
    gc = gamma_critical(n)
    for k in range(4, 16):
        spec = ChainSpec(n, 1.0, gc * (1 - 10.0 ** -k))
        energies = build_eigenbasis(spec).energies
        (up, down), _ = critical_levels(spec)
        for got, want in ((energies[n // 2 - 1], down), (energies[(n + 1) // 2], up)):
            assert abs(got - want.real) <= 4 * np.spacing(abs(want.real)), k


def test_pt_norm_shrinks_toward_coalescence():
    n = 12
    gc = gamma_critical(n)
    norms = []
    for off in (1e-2, 1e-3, 1e-4):
        basis = build_eigenbasis(ChainSpec(n, 1.0, gc - off))
        f = basis.f[:, np.argmin(np.abs(basis.k - math.pi / 2))]
        norms.append(abs(pt_norm(f / np.linalg.norm(f))))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 0.1


@pytest.mark.parametrize("n,frac", [(2, 0.6), (3, 0.4), (4, 0.6), (9, 0.4), (12, 0.8), (64, 0.6),
                                    (65, 0.8), (1000, 0.4), (1001, 0.6)])
def test_matches_oracle_eigenvectors(n, frac):
    spec = _unbroken_spec(n, frac)
    basis = build_eigenbasis(spec)
    vectors = oracle_eigenvector(spec, -2 * spec.hopping * np.cos(basis.k))
    aligned = np.abs(np.sum(vectors.conj() * basis.f.T, axis=1)) / np.linalg.norm(basis.f, axis=0)
    assert np.max(1.0 - aligned) < 1e-6
