import numpy as np
import pytest

from ptchain import (ChainSpec, build_eigenbasis, build_hamiltonian,
                     build_metric, canonical_basis, equivalent_hermitian,
                     gamma_critical, gauge_real, hermitian_equivalent,
                     jacobi_eigensystem, metric, metric_decomposition,
                     poly_roots)
from ptchain.errors import GaugeError, NonConvergence, PhaseError
from ptchain.metric import reflection_matrix
from ptchain.oracle import CharPoly

GRID = [(n, frac) for n in (2, 3, 5, 7, 8, 11, 12) for frac in (0.3, 0.6, 0.9)]

# Coupling magnitudes of the 7- and 8-site bipartite equivalents (J = 1).
# Each value appears once per reflection-symmetric partner pair.
COUPLINGS_7 = {
    0.00: [0.6242, 1.0068, 0.2997, 0.0830, 0.2071, 1.2071],
    0.50: [0.5703, 0.9731, 0.3089, 0.0883, 0.2039, 1.2075],
    0.99: [0.3355, 0.8949, 0.3280, 0.0774, 0.1468, 1.2089],
}
COUPLINGS_8 = {
    0.00: [0.5627, 0.9300, 0.2994, 0.1199, 0.1954, 1.1615, 1.2411, 0.0914,
           0.3333, 0.0277],
    0.50: [0.5153, 0.8918, 0.3057, 0.1304, 0.1909, 1.1527, 1.2469, 0.0972,
           0.3461, 0.0310],
    0.99: [0.1766, 0.9005, 0.3157, 0.1458, 0.1005, 1.0333, 1.3522, 0.0627,
           0.3505, 0.0143],
}
# multiplicity of each magnitude inside the full block
PAIRS_7 = [2, 2, 2, 2, 2, 2]
PAIRS_8 = [2, 2, 2, 1, 2, 2, 1, 2, 1, 1]


def _metric(n, frac):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    return spec, build_metric(build_eigenbasis(spec))


def test_metric_identity_at_gamma_zero():
    eta = build_metric(build_eigenbasis(ChainSpec(6, 1.0, 0.0)))
    assert np.max(np.abs(eta - np.eye(6))) < 1e-12


@pytest.mark.parametrize("n,frac", [(3, 0.95), (8, 0.5), (12, 0.9), (33, 0.7)])
def test_metric_is_sum_of_outer_products(n, frac):
    basis = build_eigenbasis(ChainSpec(n, 1.0, frac * gamma_critical(n)))
    ref = sum(np.outer(g, g.conj()) for _, g in basis.g_states)
    assert np.max(np.abs(build_metric(basis) - ref)) <= 1e-14


def test_metric_rejects_broken_phase():
    with pytest.raises(PhaseError):
        build_eigenbasis(ChainSpec(6, 1.0, 1.5))


@pytest.mark.parametrize("n,frac", GRID)
def test_metric_identities(n, frac):
    spec, eta = _metric(n, frac)
    h = build_hamiltonian(spec)
    eye = np.eye(n)
    assert np.max(np.abs(eta - eta.conj().T)) < 1e-10
    assert np.max(np.abs(eta.conj() @ eta - eye)) < 1e-8
    assert np.max(np.abs(eta @ h - h.conj().T @ eta)) < 1e-8
    p = eye[::-1]
    assert np.max(np.abs(p @ eta.conj() @ p - eta)) < 1e-10
    assert np.min(np.linalg.eigvalsh(eta)) > 0.0


@pytest.mark.parametrize("n,frac", [(6, 0.5), (7, 0.5), (9, 0.8)])
def test_metric_element_identities(n, frac):
    spec, eta = _metric(n, frac)
    m = np.arange(1, n + 1)
    signs = (-1.0) ** (m[:, None] + m[None, :])
    assert np.max(np.abs(eta - signs * eta.conj())) < 1e-10
    # centro-symmetry eta[m,n] = eta[N+1-n, N+1-m] holds before gauging
    assert np.max(np.abs(eta - eta[::-1, ::-1].T)) < 1e-10


@pytest.mark.parametrize("n,frac", GRID)
def test_gauged_metric_structure(n, frac):
    spec, eta = _metric(n, frac)
    eta_r = gauge_real(eta)
    assert np.max(np.abs(eta_r - eta_r.T)) < 1e-10
    r = np.diag((-1.0) ** np.arange(1, n + 1))
    assert np.max(np.abs(r @ eta_r @ r - np.linalg.inv(eta_r))) < 1e-8
    refl = reflection_matrix(n)
    assert np.max(np.abs(refl @ eta_r @ refl - eta_r)) < 1e-8
    assert np.linalg.det(eta_r) == pytest.approx(1.0, abs=1e-8)


def test_gauge_real_identity_passthrough():
    assert np.array_equal(gauge_real(np.eye(4).astype(complex)), np.eye(4))


def test_gauge_real_rejects_garbage():
    bad = np.full((4, 4), 0.3 + 0.4j)
    with pytest.raises(GaugeError):
        gauge_real(bad)


def test_jacobi_identity_and_2x2():
    w, v = jacobi_eigensystem(np.eye(5))
    assert np.allclose(w, 1.0)
    a, b = 0.7, -0.4
    w, v = jacobi_eigensystem(np.array([[a, b], [b, a]]))
    assert np.allclose(np.sort(w), sorted([a - b, a + b]), atol=1e-14)
    assert np.max(np.abs(v.T @ v - np.eye(2))) < 1e-12


def _leverrier_char_poly(a: np.ndarray) -> CharPoly:
    # Faddeev-LeVerrier: det(xI - A) coefficients from traces alone; converted
    # to det(A - xI) ascending so the polynomial oracle can consume it.
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(a, dtype=complex)
    ck = 1.0 + 0j
    for k in range(1, n + 1):
        mk = a @ mk + ck * np.eye(n)
        ck = -np.trace(a @ mk) / k
        coeffs.append(ck)
    ascending = np.array([(-1.0) ** n * coeffs[n - i] for i in range(n + 1)])
    return CharPoly(coefficients=ascending)


def test_jacobi_against_polynomial_oracle():
    rng = np.random.default_rng(20240817)
    sym = rng.normal(size=(8, 8))
    sym = 0.5 * (sym + sym.T)
    w, v = jacobi_eigensystem(sym)
    roots = np.sort(poly_roots(_leverrier_char_poly(sym)).real)
    assert np.max(np.abs(np.sort(w) - roots)) < 1e-8
    assert np.max(np.abs(v.T @ v - np.eye(8))) < 1e-10
    assert np.max(np.abs(sym @ v - v @ np.diag(w))) < 1e-10


def _assert_eigensystem(a, w, v, bound):
    n = a.shape[0]
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(w - np.linalg.eigh(a)[0]), initial=0.0) <= bound
    assert np.max(np.abs(v.T @ v - np.eye(n)), initial=0.0) <= bound
    assert np.max(np.abs(a @ v - v * w), initial=0.0) <= bound


@pytest.mark.parametrize("n", list(range(1, 10)) + [33, 64, 65])
def test_jacobi_matches_eigh(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    a = a + a.T
    w, v = jacobi_eigensystem(a)
    _assert_eigensystem(a, w, v, 1e-12 * max(1.0, np.linalg.norm(a)))


@pytest.mark.parametrize("n", [5, 7, 9])
def test_jacobi_exact_zero_couplings_at_odd_n(n):
    # Uncoupled sites, a zero diagonal entry and repeated diagonal values: a
    # rotation of any pair with a[p, q] == 0, the zero pad included, would
    # move a real index into the pad or divide 0 by 0.
    a = np.diag(np.arange(n, dtype=float) % 3)
    a[0, 1] = a[1, 0] = 0.5
    a[n - 2, n - 1] = a[n - 1, n - 2] = -1.25
    w, v = jacobi_eigensystem(a)
    _assert_eigensystem(a, w, v, 1e-12 * max(1.0, np.linalg.norm(a)))


def test_jacobi_sweep_budget_exhausted():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8))
    with pytest.raises(NonConvergence):
        jacobi_eigensystem(a + a.T, max_sweeps=1)


def test_jacobi_rejects_relative_asymmetry():
    # within numpy's default rtol=1e-5 of symmetric, but 5e-6 off in absolute terms
    with pytest.raises(ValueError):
        jacobi_eigensystem(np.array([[3.0, 1.0], [1.0 + 5e-6, 2.0]]))


@pytest.mark.parametrize("n", [9, 30, 56, 64])
@pytest.mark.parametrize("frac", [0.3, 0.95])
def test_equivalent_hermitian_against_eigh_driven_pipeline(n, frac, monkeypatch):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    got = equivalent_hermitian(spec).h_matrix
    monkeypatch.setattr(metric, "jacobi_eigensystem",
                        lambda sym, tol=None: np.linalg.eigh(sym))
    want = equivalent_hermitian(spec).h_matrix
    assert np.max(np.abs(got - want)) <= 1e-11


@pytest.mark.parametrize("n,frac", GRID)
def test_canonical_basis_pairing(n, frac):
    spec, eta = _metric(n, frac)
    decomp = canonical_basis(gauge_real(eta))
    eps = decomp.eigenvalues
    partner = np.array([eps[j] for j in decomp.pairing])
    assert np.max(np.abs(eps * partner - 1.0)) < 1e-8
    # first half sorted descending; odd N keeps its self-paired unit eigenvalue
    h = decomp.first_half
    firsts = eps[:h] if n % 2 == 0 else eps[: max(h - 1, 0)]
    assert all(a >= b - 1e-12 for a, b in zip(firsts, firsts[1:]))
    if n % 2 == 1:
        self_paired = [i for i, j in enumerate(decomp.pairing) if i == j]
        assert len(self_paired) == 1
        assert eps[self_paired[0]] == pytest.approx(1.0, abs=1e-8)
    b = decomp.basis
    assert np.max(np.abs(b.T @ b - np.eye(n))) < 1e-9
    refl = reflection_matrix(n)
    parities = [b[:, i] @ refl @ b[:, i] for i in range(n)]
    assert np.max(np.abs(np.abs(parities) - 1.0)) < 1e-13


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_canonical_basis_of_a_fully_degenerate_metric(n):
    # every eps = 1: the reflection sectors alone fix the basis
    decomp = canonical_basis(np.eye(n))
    assert decomp.pairing == tuple(range(n - 1, -1, -1))
    assert np.max(np.abs(decomp.eigenvalues - 1.0)) < 1e-15
    b, refl = decomp.basis, reflection_matrix(n)
    half = n // 2
    assert np.array_equal(refl @ b[:, :half], b[:, :half])
    assert np.array_equal(refl @ b[:, half:], -b[:, half:])
    assert np.max(np.abs(b.T @ b - np.eye(n))) < 1e-15


def test_metric_is_solved_one_reflection_sector_at_a_time(monkeypatch):
    sizes = []
    solve = metric.jacobi_eigensystem

    def spy(sym, *args, **kwargs):
        sizes.append(sym.shape[0])
        return solve(sym, *args, **kwargs)

    monkeypatch.setattr(metric, "jacobi_eigensystem", spy)
    for n in range(2, 65):
        sizes.clear()
        metric_decomposition(ChainSpec(n, 1.0, 0.5 * gamma_critical(n)))
        want = [n // 2] if n % 2 == 0 else [(n - 1) // 2, (n + 1) // 2]
        assert sorted(sizes) == want, (n, sizes)


def test_gamma_zero_canonical_basis_is_continuous_limit():
    tiny = metric_decomposition(ChainSpec(7, 1.0, 0.0))
    small = metric_decomposition(ChainSpec(7, 1.0, 1e-4))
    overlaps = np.abs(np.diag(tiny.basis.T @ small.basis))
    assert np.min(overlaps) > 0.999


def test_hermitian_equivalent_n2():
    eq = equivalent_hermitian(ChainSpec(2, 1.0, 0.6))
    assert eq.sublattice_sizes == (1, 1)
    assert abs(eq.couplings[(1, 1)]) == pytest.approx(0.8, abs=1e-10)


@pytest.mark.parametrize("gamma,expected,mult", [
    (g, COUPLINGS_7[g], PAIRS_7) for g in (0.00, 0.50, 0.99)
] + [
    (g, COUPLINGS_8[g], PAIRS_8) for g in (0.00, 0.50, 0.99)
])
def test_coupling_tables(gamma, expected, mult):
    n = 7 if len(expected) == 6 else 8
    eq = equivalent_hermitian(ChainSpec(n, 1.0, gamma))
    computed = sorted(np.abs(eq.block_a).ravel())
    want = sorted(np.repeat(expected, mult))
    assert len(computed) == len(want)
    assert np.max(np.abs(np.array(computed) - np.array(want))) < 2e-4


def test_specific_table_entries_n8():
    eq = equivalent_hermitian(ChainSpec(8, 1.0, 0.99))
    a = np.abs(eq.block_a)
    # the three self-symmetric couplings are pinned to their block positions
    assert a[0, 3] == pytest.approx(0.1458, abs=2e-4)
    assert a[1, 2] == pytest.approx(1.3522, abs=2e-4)
    assert a[3, 0] == pytest.approx(0.0143, abs=2e-4)


@pytest.mark.parametrize("n,frac", GRID)
def test_hermitian_equivalent_structure(n, frac):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    eq = equivalent_hermitian(spec)
    hm = eq.h_matrix
    na, nb = eq.sublattice_sizes
    assert abs(na - nb) == (n % 2)
    assert np.max(np.abs(hm - hm.T)) < 1e-9
    a = eq.block_a
    if n % 2 == 0:
        assert np.max(np.abs(a - a.T[::-1, ::-1])) < 1e-8
    else:
        assert np.max(np.abs(a - a[::-1, ::-1])) < 1e-8
    got = np.sort(np.linalg.eigvalsh(hm))
    want = np.sort(np.linalg.eigvals(build_hamiltonian(spec)).real)
    assert np.max(np.abs(got - want)) < 1e-8


def test_hermitian_equivalent_structure_error_path():
    from ptchain.errors import StructureError
    spec = ChainSpec(6, 1.0, 0.5)
    decomp = metric_decomposition(spec)
    # a real diagonal offset survives the gauge and pollutes the diagonal blocks
    shifted = build_hamiltonian(spec) + 0.5 * np.eye(6)
    with pytest.raises(StructureError):
        hermitian_equivalent(decomp, shifted)


@pytest.mark.parametrize("n", [7, 8])
def test_coupling_stability_across_gamma(n):
    fracs = np.arange(0.1, 1.0, 0.1)
    tables = []
    for frac in fracs:
        eq = equivalent_hermitian(ChainSpec(n, 1.0, frac * gamma_critical(n)))
        tables.append(np.abs(eq.block_a).ravel())
    tables = np.array(tables)
    base = tables[0]
    assert np.all(tables > 0.1 * base[None, :])
    spread = tables.max(axis=0) - tables.min(axis=0)
    assert np.all(spread < np.abs(base))
