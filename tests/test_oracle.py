import math
import warnings

import numpy as np
import pytest

from ptchain import (ChainSpec, CharPoly, build_hamiltonian, char_poly,
                     gamma_critical, oracle_eigenvector, oracle_spectrum,
                     poly_roots, refine_eigenvalue, solve_spectrum,
                     spectral_distance)
from ptchain.errors import NonConvergence
from ptchain.exceptional import critical_levels
from ptchain.oracle import char_poly_ratio


def test_char_poly_n2():
    # (i g - x)(-i g - x) - J^2 = x^2 + g^2 - J^2
    p = char_poly(ChainSpec(2, 1.0, 0.6))
    assert np.allclose(p.coefficients, [-0.64, 0.0, 1.0], atol=1e-15)


def test_char_poly_n3():
    p = char_poly(ChainSpec(3, 1.0, 1.0))
    assert np.allclose(p.coefficients, [0.0, 1.0, 0.0, -1.0], atol=1e-15)


@pytest.mark.parametrize("n,gamma", [(4, 0.5), (7, 1.1), (10, 0.2)])
def test_char_poly_structure(n, gamma):
    p = char_poly(ChainSpec(n, 1.0, gamma))
    assert p.degree == n
    assert p.coefficients[-1] == (-1.0) ** n
    # traceless matrix: no x^(N-1) term
    assert abs(p.coefficients[-2]) < 1e-14


def test_char_poly_ratio_exact_cases():
    # D_2(x) = x^2 - 0.64 and D_2'(x) = 2x at gamma = 0.6
    spec = ChainSpec(2, 1.0, 0.6)
    assert char_poly_ratio(spec, 0.8) == pytest.approx(0.0, abs=1e-16)
    assert char_poly_ratio(spec, 2.0) == pytest.approx(0.84, abs=1e-15)
    ratios = char_poly_ratio(spec, np.array([0.8, 2.0]))
    assert ratios.shape == (2,)
    assert np.max(np.abs(ratios - [0.0, 0.84])) <= 1e-15


def test_poly_roots_quadratic_and_cubic():
    roots = poly_roots(char_poly(ChainSpec(2, 1.0, 0.6)))
    assert np.allclose(np.sort(roots.real), [-0.8, 0.8], atol=1e-12)
    assert np.max(np.abs(roots.imag)) < 1e-12
    roots = poly_roots(char_poly(ChainSpec(3, 1.0, 1.0)))
    assert np.allclose(np.sort(roots.real), [-1.0, 0.0, 1.0], atol=1e-12)


def test_poly_roots_broken_phase_pair():
    roots = oracle_spectrum(ChainSpec(8, 1.0, 1.2))
    imag_pair = roots[np.abs(roots.imag) > 1e-10]
    assert len(imag_pair) == 2
    assert np.max(np.abs(imag_pair.real)) < 1e-10
    assert imag_pair[0].imag == pytest.approx(-imag_pair[1].imag, abs=1e-10)


@pytest.mark.parametrize("n,frac", [(5, 0.5), (9, 0.8), (12, 1.4)])
def test_root_residuals_and_conjugation_symmetry(n, frac):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    roots = poly_roots(char_poly(spec))
    assert np.max(np.abs(char_poly_ratio(spec, roots))) <= 1e-12
    assert spectral_distance(roots, np.conj(roots)) < 1e-9


def test_poly_roots_raises_on_nan_coefficient():
    # and raises cleanly: a numpy warning would fail here as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            poly_roots(CharPoly(coefficients=np.array([1.0, math.nan, 1.0])))


@pytest.mark.parametrize("n", [35, 44, 64, 200])
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
    levels, _ = critical_levels(spec, with_vectors=False)
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
