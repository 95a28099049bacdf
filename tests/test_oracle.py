import math
import warnings

import numpy as np
import pytest

from ptchain import (ChainSpec, build_hamiltonian, gamma_critical,
                     oracle_eigenvector, oracle_spectrum, refine_eigenvalue,
                     solve_spectrum, spectral_distance)
from ptchain.errors import NonConvergence
from ptchain.exceptional import critical_levels
from ptchain.oracle import _aberth, _seed_ellipse, char_poly_ratio


def _recurrence_ratio(spec, x):
    # Reference for char_poly_ratio: D_n = (d_n - x) D_{n-1} - J^2 D_{n-2}
    # with d_1 = i gamma, d_N = -i gamma, one site at a time, and its
    # derivative alongside; both rescaled together, as the ratio allows.
    n, jj = spec.n_sites, spec.hopping ** 2
    x = np.asarray(x, dtype=complex)
    d_prev, d_cur = np.ones_like(x), 1j * spec.gamma - x
    p_prev, p_cur = np.zeros_like(x), -np.ones_like(x)
    for m in range(2, n + 1):
        shift = (-1j * spec.gamma if m == n else 0.0) - x
        d_prev, d_cur, p_prev, p_cur = (d_cur, shift * d_cur - jj * d_prev,
                                        p_cur, shift * p_cur - jj * p_prev - d_cur)
        big = np.maximum(np.abs(d_cur), np.abs(p_cur))
        big = np.where((big < 1e-100) | (big > 1e100), big, 1.0)
        d_prev, d_cur, p_prev, p_cur = (d_prev / big, d_cur / big,
                                        p_prev / big, p_cur / big)
    return d_cur / p_cur


def _assert_roots(spec, want):
    # the oracle's roots, sorted by real part, and the recurrence's D/D' at
    # the exact roots
    roots = oracle_spectrum(spec)
    assert np.max(np.abs(roots - want)) <= 1e-12
    assert np.max(np.abs(char_poly_ratio(spec, np.array(want)))) <= 1e-12


def test_char_poly_n2():
    # (i g - x)(-i g - x) - J^2 = x^2 + g^2 - J^2
    _assert_roots(ChainSpec(2, 1.0, 0.6), [-0.8, 0.8])


def test_char_poly_n3():
    # -x^3 + (2 J^2 - g^2) x
    _assert_roots(ChainSpec(3, 1.0, 1.0), [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("n,gamma", [(4, 0.5), (7, 1.1), (10, 0.2)])
def test_char_poly_structure(n, gamma):
    roots = oracle_spectrum(ChainSpec(n, 1.0, gamma))
    assert roots.shape == (n,)
    # traceless matrix: the roots sum to zero
    assert abs(np.sum(roots)) <= 1e-14


def test_char_poly_ratio_exact_cases():
    # D_2(x) = x^2 - 0.64 and D_2'(x) = 2x at gamma = 0.6
    spec = ChainSpec(2, 1.0, 0.6)
    assert char_poly_ratio(spec, 0.8) == pytest.approx(0.0, abs=1e-16)
    assert char_poly_ratio(spec, 2.0) == pytest.approx(0.84, abs=1e-15)
    ratios = char_poly_ratio(spec, np.array([0.8, 2.0]))
    assert ratios.shape == (2,)
    assert np.max(np.abs(ratios - [0.0, 0.84])) <= 1e-15


def test_poly_roots_broken_phase_pair():
    roots = oracle_spectrum(ChainSpec(8, 1.0, 1.2))
    imag_pair = roots[np.abs(roots.imag) > 1e-10]
    assert len(imag_pair) == 2
    assert np.max(np.abs(imag_pair.real)) < 1e-10
    assert imag_pair[0].imag == pytest.approx(-imag_pair[1].imag, abs=1e-10)


@pytest.mark.parametrize("n,frac", [(5, 0.5), (9, 0.8), (12, 1.4)])
def test_root_residuals_and_conjugation_symmetry(n, frac):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    roots = oracle_spectrum(spec)
    assert np.max(np.abs(char_poly_ratio(spec, roots))) <= 1e-12
    assert spectral_distance(roots, np.conj(roots)) < 1e-9


def test_refine_eigenvalue_raises_on_nan_guess():
    # and raises cleanly: a numpy warning would fail here as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            refine_eigenvalue(ChainSpec(6, 1.0, 0.5), complex(math.nan))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64])
@pytest.mark.parametrize("frac", [0.5, 1.3])
def test_doubling_matches_the_site_by_site_recurrence(n, frac):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    seeds = _seed_ellipse(spec.hopping, n)
    ratios = char_poly_ratio(spec, seeds)
    assert np.max(np.abs(ratios / _recurrence_ratio(spec, seeds) - 1)) <= 1e-12
    dense = np.linalg.eigvals(build_hamiltonian(spec))
    by_recurrence = _aberth(lambda z: _recurrence_ratio(spec, z), seeds, 1e-13, 1000)
    assert spectral_distance(by_recurrence, dense) <= 1e-12
    assert spectral_distance(oracle_spectrum(spec), dense) <= 1e-12


@pytest.mark.parametrize("n", [1100, 2000, 4097])
@pytest.mark.parametrize("j", [0.1, 0.5])
def test_char_poly_ratio_scales_with_hopping(n, j):
    # D_N scales like J^N: without rescaling from below, it underflows for
    # J < 1 at large N and the ratio ends in a vanishing derivative
    y = np.concatenate([_seed_ellipse(1.0, 16), [0.3 + 0.5j, -1.9 + 0.1j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = char_poly_ratio(ChainSpec(n, j, 0.4 * j), j * y)
        want = j * char_poly_ratio(ChainSpec(n, 1.0, 0.4), y)
    assert np.max(np.abs(got / want - 1)) <= 1e-12


def test_oracle_at_large_n_with_weak_hopping():
    spec = ChainSpec(1100, 0.5, 0.2)
    d = spectral_distance(oracle_spectrum(spec), solve_spectrum(spec).energies)
    assert d <= 1e-8


EXCEPTIONAL_NS = list(range(2, 42)) + [64, 100]


@pytest.mark.parametrize("j", [1.0, 3.0])
def test_oracle_at_the_exceptional_point(j):
    # At gamma_c an odd chain has a triple root at E = 0.  Dense eigvals
    # resolves it only to about eps^(1/3); the oracle, whose D_N is odd in x
    # there, to about sqrt(eps)
    for n in EXCEPTIONAL_NS:
        spec = ChainSpec(n, j, gamma_critical(n, j))
        roots = oracle_spectrum(spec)
        dense = np.linalg.eigvals(build_hamiltonian(spec))
        assert spectral_distance(roots, dense) <= 1e-5 * j, n
        if n % 2:
            assert np.sort(np.abs(roots))[2] <= 1e-7 * j, n


@pytest.mark.parametrize("j", [1.0, 3.0])
@pytest.mark.parametrize("offset", [-1e-9, 1e-9])
def test_oracle_next_to_the_exceptional_point(j, offset):
    for n in EXCEPTIONAL_NS:
        spec = ChainSpec(n, j, (1 + offset) * gamma_critical(n, j))
        dense = np.linalg.eigvals(build_hamiltonian(spec))
        assert spectral_distance(oracle_spectrum(spec), dense) <= 1e-6 * j, n


@pytest.mark.parametrize("j", [0.5, 3.0])
@pytest.mark.parametrize("frac", [0.0, 1.01, 10.0])
def test_oracle_matches_dense_eigvals_at_any_hopping(j, frac):
    # the seeds scale with J alone, whatever gamma is
    for n in list(range(2, 65)) + [100]:
        spec = ChainSpec(n, j, frac * gamma_critical(n, j))
        dense = np.linalg.eigvals(build_hamiltonian(spec))
        d = spectral_distance(oracle_spectrum(spec), dense)
        assert d <= 1e-12 * max(1.0, j, spec.gamma), n


@pytest.mark.parametrize("n", [35, 44, 64, 200, 500])
@pytest.mark.parametrize("frac", [0.5, 0.99, 1.3])
def test_oracle_matches_dense_eigvals(n, frac):
    # past N ~ 41 a coefficient expansion overflows or cancels; the
    # recurrence does not (a non-finite root scores inf)
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    dense = np.linalg.eigvals(build_hamiltonian(spec))
    assert spectral_distance(oracle_spectrum(spec), dense) <= 1e-12


@pytest.mark.parametrize("a,b", [([1.0, 2.0], [math.nan, math.nan]),
                                 ([math.nan, math.nan], [1.0, 2.0]),
                                 ([1.0, 2.0], [1.0, complex(2.0, math.inf)])])
def test_spectral_distance_never_scores_non_finite_as_close(a, b):
    # max(0.0, nan) is 0.0: a NaN oracle must not pass a distance bound
    assert spectral_distance(a, b) == math.inf


def test_eigenvector_symmetric_mode():
    h = build_hamiltonian(ChainSpec(2, 1.0, 0.0))
    v = oracle_eigenvector(h, -1.0)
    assert np.allclose(v, np.ones(2) / math.sqrt(2), atol=1e-10)


def test_eigenvector_zero_mode_n3():
    h = build_hamiltonian(ChainSpec(3, 1.0, 1.0))
    v = oracle_eigenvector(h, 0.0)
    assert np.max(np.abs(h @ v)) < 1e-8
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_refine_eigenvalue_large_chain():
    # The positive critical level of a 199-site chain, cross-checked by Newton
    # on the recurrence-evaluated determinant (no coefficient expansion).
    spec = ChainSpec(199, 1.0, gamma_critical(199) - 0.005)
    levels, _ = critical_levels(spec)
    refined = refine_eigenvalue(spec, levels[0])
    assert abs(refined - levels[0]) < 1e-8


def test_refine_eigenvalue_matches_oracle_small():
    spec = ChainSpec(6, 1.0, 0.5)
    target = sorted(oracle_spectrum(spec), key=lambda z: z.real)[0]
    assert refine_eigenvalue(spec, target + 1e-3) == pytest.approx(target, abs=1e-10)


def test_spectral_distance_matches_bethe():
    for n in (3, 6, 10, 35, 44, 101, 200):
        for frac in (0.4, 1.5):
            spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
            d = spectral_distance(solve_spectrum(spec).energies, oracle_spectrum(spec))
            assert d < 1e-8, (n, frac, d)
