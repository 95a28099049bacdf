import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from ptchain import (ChainSpec, build_eigenbasis, build_hamiltonian,
                     build_metric, canonical_basis, equivalent_hermitian,
                     gamma_critical, gauged_factor, hermitian_equivalent,
                     metric, metric_decomposition, solve_spectrum)
from ptchain.errors import (DegeneracyError, GaugeError, NonConvergence, PhaseError,
                             PTChainError, StructureError)
from ptchain.metric import reflection_matrix
from ptchain.states import EigenBasis

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
    ref = sum(np.outer(g, g.conj()) for g in basis.g.T)
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
    basis = build_eigenbasis(ChainSpec(n, 1.0, frac * gamma_critical(n)))
    w = gauged_factor(basis)
    assert w.shape == (n, n + n % 2)
    eta_r = w @ w.T
    # the factor carries the gauged complex metric D* eta D
    d = 1j ** (np.arange(1, n + 1) % 2)
    assert np.max(np.abs(eta_r - np.conj(d)[:, None] * build_metric(basis) * d)) < 1e-12
    assert np.max(np.abs(eta_r - eta_r.T)) < 1e-10
    r = np.diag((-1.0) ** np.arange(1, n + 1))
    assert np.max(np.abs(r @ eta_r @ r - np.linalg.inv(eta_r))) < 1e-8
    refl = reflection_matrix(n)
    assert np.max(np.abs(refl @ eta_r @ refl - eta_r)) < 1e-8
    assert np.linalg.det(eta_r) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", [*range(2, 34), 63, 64, 65, 127, 128, 129, 245, 246, 247, 255, 256])
def test_gauged_factor_halves_are_sector_pure(n):
    # canonical_basis's layout: the first half of W's columns lies in the
    # reflection sector +1, the second half in -1.  The leak was measured at
    # most 5.2 N eps max|W| over N = 2-256 at these gammas (N = 246, 1e-6)
    refl = reflection_matrix(n)
    for frac in (1e-6, 0.3, 0.95):
        w = gauged_factor(build_eigenbasis(ChainSpec(n, 1.0, frac * gamma_critical(n))))
        c = w.shape[1] // 2
        bound = 6 * n * np.finfo(float).eps * np.max(np.abs(w))
        assert np.max(np.abs(refl @ w[:, :c] - w[:, :c])) <= bound
        assert np.max(np.abs(refl @ w[:, c:] + w[:, c:])) <= bound


def _duals(g, k=None):
    # an EigenBasis that holds only the dual states g, at the roots k (all 0
    # by default, which are not chiral pairs)
    n = g.shape[0]
    k = np.zeros(n) if k is None else k
    return EigenBasis(k, np.zeros(n), g, g)


def _chiral_roots(n):
    # the free chain's roots l pi / (N + 1), chiral pairs k, pi - k
    return np.pi * np.arange(1, n + 1) / (n + 1)


@pytest.mark.parametrize("n", [4, 5])
def test_gauged_factor_rejects_nan_duals(n):
    g = np.eye(n, dtype=complex)
    g[1, 2] = np.nan
    with pytest.raises(GaugeError, match="non-finite dual states"):
        gauged_factor(_duals(g, _chiral_roots(n)))


@pytest.mark.parametrize("n", [4, 5])
def test_gauged_factor_rejects_roots_that_are_not_chiral_pairs(n):
    with pytest.raises(GaugeError, match="not chiral pairs"):
        gauged_factor(_duals(np.eye(n, dtype=complex)))


def test_gauged_factor_passes_garbage_duals_on_to_canonical_basis():
    # every entry of G G^dagger is 1: no metric of this model, but finite
    # duals on chiral roots, so the factor is built and the canonical basis
    # rejects it
    w = gauged_factor(_duals(np.full((4, 4), 0.3 + 0.4j), _chiral_roots(4)))
    assert w.shape == (4, 4)
    with pytest.raises(DegeneracyError):
        canonical_basis(w)


# The metric takes its eigensystem from `_one_sided_jacobi`: the V and sigma
# of a block K are the eigenvectors and square roots of the eigenvalues of
# the Gram matrix K^T K, which is never formed.  The tests named
# test_jacobi_* check that eigensystem.

def _assert_gram_eigensystem(block, v, sigma, bound):
    gram = block.T @ block
    q = gram.shape[0]
    assert np.max(np.abs(np.sort(sigma ** 2) - np.linalg.eigvalsh(gram)), initial=0.0) <= bound
    assert np.max(np.abs(v.T @ v - np.eye(q)), initial=0.0) <= bound
    assert np.max(np.abs(gram @ v - v * sigma ** 2), initial=0.0) <= bound


def test_jacobi_identity_and_2x2():
    ((_, v, sigma),) = metric._one_sided_jacobi([np.eye(5)])
    assert np.array_equal(sigma, np.ones(5)) and np.array_equal(v, np.eye(5))
    a, b = 0.7, -0.4
    block = np.linalg.cholesky(np.array([[a, b], [b, a]])).T  # Gram [[a, b], [b, a]]
    ((_, v, sigma),) = metric._one_sided_jacobi([block])
    assert np.allclose(np.sort(sigma ** 2), sorted([a - b, a + b]), atol=1e-14)
    assert np.max(np.abs(v.T @ v - np.eye(2))) < 1e-12


@pytest.mark.parametrize("n", list(range(1, 10)) + [33, 64, 65])
def test_jacobi_matches_eigh(n):
    block = np.random.default_rng(n).normal(size=(n, n))
    ((_, v, sigma),) = metric._one_sided_jacobi([block])
    _assert_gram_eigensystem(block, v, sigma, 1e-12 * max(1.0, np.linalg.norm(block) ** 2))


def test_jacobi_matches_eigh_on_a_fixed_random_matrix():
    block = np.random.default_rng(20240817).normal(size=(8, 8))
    ((_, v, sigma),) = metric._one_sided_jacobi([block])
    _assert_gram_eigensystem(block, v, sigma, 1e-12 * max(1.0, np.linalg.norm(block) ** 2))


@pytest.mark.parametrize("n", [5, 7, 9])
def test_jacobi_exact_zero_couplings_at_odd_n(n):
    # Orthogonal columns, zero columns and repeated norms: a rotation of any
    # pair whose Gram entry is exactly 0, the zero pad included, would move a
    # real column into the pad or divide 0 by 0.
    block = np.diag(np.arange(n, dtype=float) % 3)
    block[0, 1] = 0.5
    block[n - 2, n - 1] = -1.25
    ((_, v, sigma),) = metric._one_sided_jacobi([block])
    _assert_gram_eigensystem(block, v, sigma, 1e-12 * max(1.0, np.linalg.norm(block) ** 2))
    assert np.count_nonzero(sigma == 0) == n - np.linalg.matrix_rank(block)


def test_jacobi_sweep_budget_exhausted(monkeypatch):
    # an even-N shape, N x N/2, on the odd-even rounds
    monkeypatch.setattr(metric, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(3)
    with pytest.raises(NonConvergence, match="one-sided"):
        metric._one_sided_jacobi([rng.normal(size=(16, 8))])


def test_jacobi_block_path_sweep_budget_exhausted(monkeypatch):
    monkeypatch.setattr(metric, "_MAX_SWEEPS", 2)
    rng = np.random.default_rng(3)
    with pytest.raises(NonConvergence, match="one-sided"):
        metric._one_sided_jacobi([rng.normal(size=(2 * (2 * metric._BLOCK + 8), 2 * metric._BLOCK + 8))])


@pytest.mark.parametrize("n", [7, 16, 2 * metric._BLOCK + 7])
def test_jacobi_stack_matches_each_member_and_eigh(n):
    rng = np.random.default_rng(n)
    blocks = [rng.normal(size=(2 * n, n)) for _ in range(3)]
    for block, (_, v, sigma) in zip(blocks, metric._one_sided_jacobi(blocks)):
        bound = 1e-12 * np.linalg.norm(block) ** 2
        _assert_gram_eigensystem(block, v, sigma, bound)
        ((_, _, alone),) = metric._one_sided_jacobi([block])
        assert np.max(np.abs(np.sort(sigma ** 2) - np.sort(alone ** 2))) <= bound


@pytest.mark.parametrize("n", [9, 2 * metric._BLOCK + 1, 3 * metric._BLOCK + 2])
def test_jacobi_pad_rows_come_back_as_unit_vectors(n):
    # the narrower member carries one zero pad column, as the smaller sector
    # of odd N does; it never mixes in, so the member's own V is orthogonal
    rng = np.random.default_rng(n)
    blocks = [rng.normal(size=(n, n - 1)), rng.normal(size=(n, n))]
    for block, (_, v, sigma) in zip(blocks, metric._one_sided_jacobi(blocks)):
        _assert_gram_eigensystem(block, v, sigma, 1e-12 * np.linalg.norm(block) ** 2)


@pytest.mark.parametrize("n", [2 * metric._BLOCK + 1, 3 * metric._BLOCK,
                               4 * metric._BLOCK + 1])
def test_jacobi_block_path_matches_eigh(n):
    assert n > 2 * metric._BLOCK  # solved by block rounds
    rng = np.random.default_rng(n)
    blocks = [rng.normal(size=(n, n)) for _ in range(2)]
    for block, (_, v, sigma) in zip(blocks, metric._one_sided_jacobi(blocks)):
        _assert_gram_eigensystem(block, v, sigma, 1e-12 * np.linalg.norm(block) ** 2)


@pytest.mark.parametrize("m", [2, 4, 6, 32, 34])
def test_odd_even_sweep_meets_every_pair_once_and_reverses(m):
    # Follow each index through one sweep of the kernel's pivot slices: each
    # rotated pair is swapped, so a round's pivots meet the indices now there.
    at, flat, met = list(range(m)), np.arange(m * m), []
    for r in range(m):
        pp, qq, pq, qp = (flat[cut] for cut in metric._pivot_slices(m)[r % 2])
        p, q = np.divmod(pq, m)
        assert np.array_equal(q, p + 1) and np.array_equal(p % 2, np.full(p.size, r % 2))
        assert np.array_equal(pp, p * (m + 1)) and np.array_equal(qq, q * (m + 1))
        assert np.array_equal(qp, q * m + p)
        for i, j in zip(p.tolist(), q.tolist()):
            met.append(tuple(sorted((at[i], at[j]))))
            at[i], at[j] = at[j], at[i]
    assert sorted(met) == list(itertools.combinations(range(m), 2))
    assert at == list(range(m))[::-1]
    # The kernel itself: on a diagonal matrix every pivot is exactly 0, so each
    # rotation is an exact swap, and one sweep reverses a and V's columns.
    y = np.zeros((1, 2 * m, m))
    y[0, :m] = np.diag(np.arange(1.0, m + 1))
    y[0, m:] = np.eye(m)
    metric._odd_even_sweeper(y)()
    assert np.array_equal(y[0, :m], np.diag(np.arange(m, 0.0, -1)))
    assert np.array_equal(y[0, m:], np.eye(m)[:, ::-1])


@pytest.mark.parametrize("n", [9, 2 * metric._BLOCK + 1, 5 * metric._BLOCK + 3])
def test_block_sweep_reverses_every_index(n):
    # The block partition of _one_sided_jacobi: one pair of all 10 columns,
    # 4 blocks of 9, or 6 of 14 with blocks 0 and 5 idle in the odd rounds.
    # On orthogonal columns every Gram block is diagonal, so each pair's
    # sweep is an exact swap and its rotation an exact permutation; one
    # block sweep reverses the rows of [X^T, V^T], each a column of X and V.
    count = -(-n // (2 * metric._BLOCK)) * 2
    m = count * -(-n // count)
    xv = np.zeros((1, m, 2 * m + 3))
    xv[0, :, :m] = np.diag(np.arange(1.0, m + 1))
    xv[0, :, m + 3:] = np.eye(m)
    want = xv[:, ::-1].copy()
    metric._block_rounds(xv, m + 3, count, xv[..., :m + 3] @ xv[..., :m + 3].swapaxes(1, 2))()
    assert np.array_equal(xv, want)


@pytest.mark.parametrize("n", [12, 2 * metric._BLOCK, 3 * metric._BLOCK])
def test_jacobi_keeps_small_eigenvalues_of_a_graded_matrix(n):
    # K = B D of the even-N shape 2n x n, with B well conditioned and D from
    # 1e-8 to 1: the eigenvalues sigma^2 of K^T K run from about 1e-16 to 1,
    # and each is fixed to a few ulps of itself
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    block = (rng.normal(size=(2 * n, n)) / np.sqrt(n) + 2 * np.eye(2 * n, n)) * np.logspace(-8, 0, n)
    ((_, _, sigma),) = metric._one_sided_jacobi([block])
    with mp.workdps(40):
        want = np.sort([float(s) ** 2 for s in mp.svd_r(mp.matrix(block.tolist()), compute_uv=False)])
    assert want[0] < 1e-15
    assert np.max(np.abs(np.sort(sigma ** 2) / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("shapes", [[(3, 4), (4, 4)], [(0, 1), (1, 1)], [(1, 2), (2, 2)],
                                    [(20, 21), (21, 21)], [(40, 41), (41, 41)],
                                    [(2, 1)], [(8, 4)], [(64, 32)], [(80, 40)],
                                    [(32, 32)], [(40, 40)]])
def test_one_sided_jacobi_matches_the_svd(shapes):
    # the shapes of odd N's sublattice blocks, stacked with zero pads, then
    # tall N x N/2 blocks, then the square N/2 x N/2 blocks Z^T of even N;
    # (40, 41), (80, 40) and (40, 40) run on the block rounds
    rng = np.random.default_rng(len(shapes) + shapes[0][1])
    blocks = [rng.normal(size=shape) for shape in shapes]
    for block, (x, v, sigma) in zip(blocks, metric._one_sided_jacobi(blocks)):
        p, q = block.shape
        null = max(q - p, 0)
        assert x.shape == (p, q) and v.shape == (q, q) and sigma.shape == (q,)
        assert np.max(np.abs(v.T @ v - np.eye(q))) <= 1e-13
        assert np.max(np.abs(block @ v - x), initial=0.0) <= 1e-13 * q
        want = np.pad(np.linalg.svd(block, compute_uv=False), (0, null))
        assert np.max(np.abs(np.sort(sigma) - np.sort(want))) <= 1e-13 * q
        assert np.count_nonzero(sigma == 0) == null
        live = x[:, sigma > 0] / sigma[sigma > 0]
        assert np.max(np.abs(live.T @ live - np.eye(q - null)), initial=0.0) <= 1e-14 * q


@pytest.mark.parametrize("n", [12, 2 * metric._BLOCK + 2])
def test_one_sided_jacobi_keeps_small_singular_values_of_a_graded_block(n):
    # K = B D with B well conditioned and D from 1e-12 to 1: sigma runs from
    # about 1e-12 to 1, and the one-sided solve fixes each to a few ulps of
    # itself (Demmel & Veselic)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    block = (rng.normal(size=(n, n)) / np.sqrt(n) + 2 * np.eye(n)) * np.logspace(-12, 0, n)
    ((_, _, sigma),) = metric._one_sided_jacobi([block])
    with mp.workdps(40):
        want = np.sort([float(s) for s in mp.svd_r(mp.matrix(block.tolist()), compute_uv=False)])
    assert want[0] < 1e-11
    assert np.max(np.abs(np.sort(sigma) / want - 1.0)) <= 1e-12


def test_one_sided_jacobi_sweep_budget_exhausted(monkeypatch):
    monkeypatch.setattr(metric, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(5)
    with pytest.raises(NonConvergence, match="one-sided"):
        metric._one_sided_jacobi([rng.normal(size=(4, 5)), rng.normal(size=(5, 5))])


def _fix_pair_signs_loop(basis, pairing):
    # the per-pair loop that _fix_pair_signs replaces
    for i, partner in enumerate(pairing):
        if partner < i:
            continue
        v = basis[:, i]
        lead = v[np.nonzero(np.abs(v) > 1e-8)[0][0]]
        if lead < 0:
            basis[:, i] = -v
            if partner != i:
                basis[:, partner] = -basis[:, partner]


@pytest.mark.parametrize("n", [2, 7, 8, 33])
def test_fix_pair_signs_matches_the_loop(n):
    rng = np.random.default_rng(n)
    h = n // 2
    pairing = tuple(range(h - 1, -1, -1)) + tuple(range(n - 1, h - 1, -1)) \
        if n % 2 else tuple(range(n - 1, -1, -1))
    for _ in range(20):
        basis = rng.normal(size=(n, n))
        basis[: rng.integers(n), :] *= 1e-9  # leads below the 1e-8 cut
        basis[:-1, rng.integers(n)] = -0.0  # a flip must turn these into +0.0
        got, want = basis.copy(), basis.copy()
        metric._fix_pair_signs(got, pairing)
        _fix_pair_signs_loop(want, pairing)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _svd_one_sided(blocks):
    # LAPACK in place of metric._one_sided_jacobi: (K V, V, sigma) from the
    # full SVD of each block K, sigma 0 on its null columns
    solved = []
    for block in blocks:
        _, sigma, vt = np.linalg.svd(block)
        solved.append((block @ vt.T, vt.T, np.pad(sigma, (0, block.shape[1] - sigma.size))))
    return solved


@pytest.mark.parametrize("n", [9, 30, 56, 64, 128, 256])
@pytest.mark.parametrize("frac", [0.3, 0.95])
def test_equivalent_hermitian_against_eigh_driven_pipeline(n, frac, monkeypatch):
    # LAPACK's SVD in place of the one-sided Jacobi solve: of the square Z^T
    # for even N, of the sublattice blocks for odd N
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    got = equivalent_hermitian(spec).h_matrix
    monkeypatch.setattr(metric, "_one_sided_jacobi", _svd_one_sided)
    want = equivalent_hermitian(spec).h_matrix
    assert np.max(np.abs(got - want)) <= 1e-11


@pytest.mark.parametrize("n", [8, 9, 64, 65, 256, 257])
@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12, 1e-13])
def test_equivalent_hermitian_up_to_gamma_c(n, gap):
    # eps_max grows as gap^(-1/2) for even N and as 2/gap for odd N; the
    # tables of even N hold their bounds up to the reach of 1 - 1e-13
    spec = ChainSpec(n, 1.0, (1.0 - gap) * gamma_critical(n))
    try:
        decomp = metric_decomposition(spec)
    except PTChainError:
        # odd N may fail past 1 - 1e-7, where eps_max passes 2e7
        assert n % 2 and gap < 1e-7
        return
    eps = decomp.eigenvalues
    assert np.max(np.abs(eps * eps[list(decomp.pairing)] - 1.0)) <= 1e-8
    eq = hermitian_equivalent(decomp, spec)
    hm, a = eq.h_matrix, eq.block_a
    assert np.max(np.abs(hm - hm.T)) <= 1e-9
    assert np.max(np.abs(a - (a[::-1, ::-1] if n % 2 else a.T[::-1, ::-1]))) <= 1e-8
    bethe = np.sort(solve_spectrum(spec).energies.real)
    assert np.max(np.abs(np.linalg.eigvalsh(hm) - bethe)) <= 1e-8


def test_metric_refuses_chains_past_its_reach():
    # Closer to gamma_c than the reach, tables came back with spectra 8e-8 J
    # off (N = 87 at 1 - 1e-8), or the pairing check failed (N = 102 at
    # 1 - 1e-14)
    for n, gap in [(n, 1e-8) for n in range(3, 130, 2)] + [(n, 1e-14) for n in range(2, 129, 2)]:
        with pytest.raises(DegeneracyError, match="reach"):
            metric_decomposition(ChainSpec(n, 1.0, (1.0 - gap) * gamma_critical(n)))


@pytest.mark.parametrize("n", [8, 9, 64, 65])
def test_equivalent_hermitian_at_its_reach(n):
    spec = ChainSpec(n, 1.0, (1.0 - (1e-7 if n % 2 else 1e-13)) * gamma_critical(n))
    hm = equivalent_hermitian(spec).h_matrix
    bethe = np.sort(solve_spectrum(spec).energies.real)
    assert np.max(np.abs(np.linalg.eigvalsh(hm) - bethe)) <= 1e-8
    if n % 2 == 0:
        assert np.max(np.abs(hm - hm.T)) <= 1e-9


@pytest.mark.parametrize("n", [9, 65, 257])
def test_odd_equivalent_hermitian_at_one_minus_1e7_gamma_c(n):
    # The table returns with its spectrum within 1e-8 J of the Bethe energies;
    # the grid above checks its 1e-9 symmetry bound at this gap too, which the
    # two-sided solve of the formed sector blocks Z Z^T missed
    # (1.2e-9 at N = 65): their eps |eta| rounding, amplified by
    # sqrt(eps_max / eps_min) in the transform.
    # Each vector's eps is its Rayleigh quotient |W^T p|^2 on the factor: the
    # stored eps of a partner is 1/eps of its leader by construction.
    spec = ChainSpec(n, 1.0, (1.0 - 1e-7) * gamma_critical(n))
    decomp = metric_decomposition(spec)
    rec = np.sum((gauged_factor(build_eigenbasis(spec)).T @ decomp.basis) ** 2, axis=0)
    assert np.max(np.abs(rec * rec[list(decomp.pairing)] - 1.0)) <= 1e-8
    eq = hermitian_equivalent(decomp, spec)
    assert np.max(np.abs(eq.block_a - eq.block_a[::-1, ::-1])) <= 1e-8
    bethe = np.sort(solve_spectrum(spec).energies.real)
    assert np.max(np.abs(np.linalg.eigvalsh(eq.h_matrix) - bethe)) <= 1e-8


@pytest.mark.parametrize("n,frac", GRID)
def test_canonical_basis_pairing(n, frac):
    w = gauged_factor(build_eigenbasis(ChainSpec(n, 1.0, frac * gamma_critical(n))))
    decomp = canonical_basis(w)
    eps = decomp.eigenvalues
    # each vector's eps from the metric, its Rayleigh quotient |W^T p|^2: the
    # stored eps of a partner is 1/eps of its leader by construction
    rec = np.sum((w.T @ decomp.basis) ** 2, axis=0)
    assert np.max(np.abs(rec * rec[list(decomp.pairing)] - 1.0)) < 1e-8
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


def _sector_basis(n, s):
    """Orthonormal columns (e_l + s refl e_l)/|.| spanning the reflection sector s."""
    cols = (np.eye(n) + s * reflection_matrix(n))[:, : (n + 1) // 2]
    norms = np.linalg.norm(cols, axis=0)
    return cols[:, norms > 0] / norms[norms > 0]


def _laid_out(plus, minus):
    """The factor [W+, W-] of canonical_basis's layout: each sector's columns
    padded by zero columns to one width, the + sector's first."""
    width = max(plus.shape[1], minus.shape[1])
    return np.hstack([np.pad(cols, ((0, 0), (0, width - cols.shape[1]))) for cols in (plus, minus)])


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_canonical_basis_of_a_fully_degenerate_metric(n):
    # every eps = 1: the reflection sectors alone fix the basis (factor W =
    # [P+, P-], the parity bases of the two sectors, so W W^T = I)
    decomp = canonical_basis(_laid_out(_sector_basis(n, 1.0), _sector_basis(n, -1.0)))
    assert decomp.pairing == tuple(range(n - 1, -1, -1))
    assert np.max(np.abs(decomp.eigenvalues - 1.0)) < 1e-15
    b, refl = decomp.basis, reflection_matrix(n)
    half = n // 2
    assert np.array_equal(refl @ b[:, :half], b[:, :half])
    assert np.array_equal(refl @ b[:, half:], -b[:, half:])
    assert np.max(np.abs(b.T @ b - np.eye(n))) < 1e-15


def test_canonical_basis_rejects_a_non_reciprocal_metric():
    # reflection-symmetric, but its sector eigenvalues 2.5 and 1.5 are not
    # reciprocal: the partner of eps = 2.5 has the Rayleigh quotient 1.5
    with pytest.raises(DegeneracyError, match="reciprocal pairing"):
        canonical_basis(_sector_factor(2, [2.5], [1.5]))


def _sector_factor(n, plus, minus):
    """Factor W = [q+ sqrt(plus), q- sqrt(minus)] of the metric W W^T with
    eigenvalues `plus` and `minus` on the parity bases q+ and q- of the + and - sectors,
    in canonical_basis's layout.

    The two leading basis vectors of each sector, one odd and one even under
    R, are first turned by pi/4 into each other, so R maps the turned pair
    onto itself, as a reciprocal pair must be.
    """
    cols = []
    for values, q in ((plus, _sector_basis(n, 1.0)), (minus, _sector_basis(n, -1.0))):
        if q.shape[1] > 1:
            q[:, :2] = q[:, :2] @ np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2)
        cols.append(q * np.sqrt(values))
    return _laid_out(*cols)


@pytest.mark.parametrize("n,plus,minus,match", [
    # the size-1 sector's one vector is self-paired by construction
    (3, [3.0, 1 / 3], [2.0], "reciprocal pairing failed: eps=1, Rayleigh quotient 2"),
    (5, [1.0, 1.0], [2.0, 1.0, 0.5], "self-paired eigenvalue found in a sector of size 2"),
    # the turned pair's sublattice coupling sigma = 1/2 gives eps = 1.618 to a
    # leader whose Rayleigh quotient is the pair's mean eigenvalue plus 1/2
    (5, [3.0, 2.0], [2.0, 1.0, 0.5], "reciprocal pairing failed: eps=1.61803, Rayleigh quotient 3"),
    (5, [3.0, 1 / 3], [2.0, 1.0, 3.0], "reciprocal pairing failed: eps=1.61803, Rayleigh quotient 2"),
    (5, [3.0, 1 / 3], [1.0, 2.0, 0.5], "reciprocal pairing failed: eps=1.61803, Rayleigh quotient 2"),
])
def test_canonical_basis_rejects_a_broken_sector_structure(n, plus, minus, match):
    factor = _sector_factor(n, plus, minus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError, match=match):
            canonical_basis(factor)


# Each metric is given by its real factor W in canonical_basis's layout,
# eta = W W^T: a zero factor, or the other sector's parity basis alone, so
# that the block of the sector s that is solved first is zero.  (An
# indefinite eta has no real factor.)
@pytest.mark.parametrize("eta", [
    *(factor for n, s in ((2, 1.0), (3, -1.0), (4, 1.0), (5, 1.0))
      for factor in (np.zeros((n, n)), _laid_out(*[np.zeros((n, 0)) if t == s else _sector_basis(n, t)
                                                   for t in (1.0, -1.0)]))),
    # a zero eigenvalue in the smaller, zero-padded sector of odd N: fewer
    # of its columns than its size
    _laid_out((np.eye(5) + reflection_matrix(5))[:, :1], np.eye(5) - reflection_matrix(5)),
    _laid_out(np.eye(7) + reflection_matrix(7), (np.eye(7) - reflection_matrix(7))[:, :2]),
])
def test_canonical_basis_rejects_a_metric_that_is_not_positive(eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError, match="not positive definite"):
            canonical_basis(eta)


@pytest.mark.parametrize("n", range(2, 10))
def test_canonical_basis_rejects_a_factor_off_its_layout(n):
    # a factor of the identity, a gauged factor with its halves swapped and a
    # random orthogonal factor: the sector blocks are sliced from the wrong
    # columns, and the Rayleigh check over the whole factor catches it
    w = gauged_factor(build_eigenbasis(ChainSpec(n, 1.0, 0.5 * gamma_critical(n))))
    c = w.shape[1] // 2
    q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
    for factor in (np.eye(n), np.hstack((w[:, c:], w[:, :c])), q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PTChainError):
                canonical_basis(factor)


@pytest.mark.parametrize("n,bad", [(4, math.inf), (4, math.nan), (5, -math.inf), (5, math.nan)])
def test_canonical_basis_rejects_a_non_finite_factor(n, bad):
    # an N x (N + N mod 2) factor of a positive metric with one bad entry:
    # rejected before any product, so with no numpy warning
    factor = gauged_factor(build_eigenbasis(ChainSpec(n, 1.0, 0.5 * gamma_critical(n))))
    factor[n // 2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GaugeError, match="non-finite"):
            canonical_basis(factor)


def test_metric_solves_both_reflection_sectors_in_one_call(monkeypatch):
    # even N: the + sector's square Z^T alone; odd N: the sublattice blocks K_s
    # of both sectors, in one stacked one-sided solve
    calls = []

    def spy(name, record):
        solve = getattr(metric, name)

        def wrapped(*args, **kwargs):
            calls.append((name, record(*args)))
            return solve(*args, **kwargs)
        monkeypatch.setattr(metric, name, wrapped)

    spy("_one_sided_jacobi", lambda blocks: [block.shape for block in blocks])
    for n in range(2, 65):
        calls.clear()
        metric_decomposition(ChainSpec(n, 1.0, 0.5 * gamma_critical(n)))
        if n % 2 == 0:
            want = [("_one_sided_jacobi", [(n // 2, n // 2)])]
        else:
            # K_s has the sector's R = +1 columns as rows and its R = -1 columns
            # as columns, sectors of (N - 1)/2 and (N + 1)/2 columns
            shapes = [(k // 2, (k + 1) // 2) for k in ((n - 1) // 2, (n + 1) // 2)]
            want = [("_one_sided_jacobi", shapes)]
        assert calls == want, (n, calls)


def test_gamma_zero_canonical_basis_is_continuous_limit():
    tiny = metric_decomposition(ChainSpec(7, 1.0, 0.0))
    small = metric_decomposition(ChainSpec(7, 1.0, 1e-4))
    overlaps = np.abs(np.diag(tiny.basis.T @ small.basis))
    assert np.min(overlaps) > 0.999


def test_hermitian_equivalent_n2():
    eq = equivalent_hermitian(ChainSpec(2, 1.0, 0.6))
    assert eq.sublattice_sizes == (1, 1)
    assert abs(eq.block_a[0, 0]) == pytest.approx(0.8, abs=1e-10)


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


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("j", [1e-10, 1.0, 1e10])
def test_hermitian_equivalent_rejects_a_basis_that_mixes_the_halves(n, j):
    # the same chain in units of J: the exact basis gives J times the table
    # of J = 1 at every J; turning column 0 into the first column of the
    # other half by 45 degrees keeps the basis orthonormal but moves
    # couplings of order J into the diagonal blocks, rejected however small J is
    spec = ChainSpec(n, j, 0.5 * j)
    decomp = canonical_basis(gauged_factor(build_eigenbasis(spec)))
    assert np.allclose(hermitian_equivalent(decomp, spec).block_a / j,
                       equivalent_hermitian(ChainSpec(n, 1.0, 0.5)).block_a, atol=1e-9)
    basis, h = decomp.basis.copy(), decomp.first_half
    basis[:, [0, h]] = basis[:, [0, h]] @ np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2)
    with pytest.raises(StructureError, match="diagonal-block residue"):
        hermitian_equivalent(dataclasses.replace(decomp, basis=basis), spec)
    # a NaN in the second half's block fails the check too
    basis = decomp.basis.copy()
    basis[0, -1] = np.nan
    with pytest.raises(StructureError, match="diagonal-block residue nan"):
        hermitian_equivalent(dataclasses.replace(decomp, basis=basis), spec)


@pytest.mark.parametrize("n", [*range(2, 18), 31, 32, 33, 63, 64, 65, 127, 128])
def test_hermitian_equivalent_matches_the_complex_product(n):
    # the reference is the dense product basis^T (conj(D) H D) basis in the
    # gauge D = diag(i^(l mod 2)), whose real part is exactly 0
    d = 1j ** (np.arange(1, n + 1) % 2)
    for frac in (0.0, 0.3, 0.5, 0.7, 0.95):
        spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
        decomp = metric_decomposition(spec)
        gauged = np.conj(d)[:, None] * build_hamiltonian(metric._at_floor(spec)) * d
        assert not np.any(gauged.real)
        b, eps, h = decomp.basis, decomp.eigenvalues, decomp.first_half
        pre = np.sqrt(np.outer(eps, 1.0 / eps)) * (b.T @ gauged @ b).imag
        want = np.zeros((n, n))
        want[:h, h:], want[h:, :h] = -pre[:h, h:], pre[h:, :h]
        assert np.max(np.abs(equivalent_hermitian(spec).h_matrix - want)) <= 1e-13, frac


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


@pytest.mark.parametrize("j", [1e-300, 1e-10, 1e-3, 1e3, 1e10, 1e300])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 20, 33])
def test_gamma_floor_is_in_units_of_j(j, n):
    # the table of the same chain in units of J is J times that of J = 1; an
    # absolute floor of 1e-6 ran every chain with J below ~1e-6 in the broken
    # phase
    for frac in (0.1, 0.5, 0.9):
        unit = equivalent_hermitian(ChainSpec(n, 1.0, frac * gamma_critical(n))).block_a
        table = equivalent_hermitian(ChainSpec(n, j, frac * gamma_critical(n, j))).block_a
        assert np.max(np.abs(table / j - unit)) <= 1e-12, frac
    # gamma = 0 runs at GAMMA_FLOOR J, O(GAMMA_FLOOR^2) from the free chain
    h = equivalent_hermitian(ChainSpec(n, j, 0.0)).h_matrix
    free = -2.0 * j * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.max(np.abs(np.linalg.eigvalsh(h) - np.sort(free))) <= 1e-8 * j
