import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptchain import (ChainSpec, build_hamiltonian, gamma_critical, oracle_eigenvector,
                     oracle_spectrum, solve_spectrum, spectral_distance)
from ptchain.errors import NonConvergence
from ptchain.exceptional import critical_levels
from ptchain import oracle
from ptchain.oracle import _SCALAR_ESTIMATES, _aberth, _refine_eigenvalue, _unit_ratio


def _ellipse_points(hopping, count):
    # evaluation points off both axes, on the ellipse 2.2J cos t + iJ sin t
    t = 2 * np.pi * np.arange(count) / count + 0.5
    return hopping * (2.2 * np.cos(t) + 1j * np.sin(t))


def _recurrence_ratio(spec, x):
    # Reference for _unit_ratio: D_n = (d_n - x) D_{n-1} - J^2 D_{n-2}
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
    # the exact roots (J = 1)
    roots = oracle_spectrum(spec)
    assert np.max(np.abs(roots - want)) <= 1e-12
    assert np.max(np.abs(_unit_ratio(spec.n_sites, spec.gamma, np.array(want, complex)))) <= 1e-12


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
    assert _unit_ratio(2, 0.6, 0.8 + 0j) == pytest.approx(0.0, abs=1e-16)
    assert _unit_ratio(2, 0.6, 2.0 + 0j) == pytest.approx(0.84, abs=1e-15)
    ratios = _unit_ratio(2, 0.6, np.array([0.8, 2.0], complex))
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
    assert np.max(np.abs(_unit_ratio(n, spec.gamma, roots))) <= 1e-12
    assert spectral_distance(roots, np.conj(roots)) < 1e-9


def test_refine_eigenvalue_raises_on_nan_guess():
    # a non-finite guess is bad input, not a solver failure, as for
    # oracle_eigenvector; and it raises cleanly: a numpy warning would fail
    # here as an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for guess in (complex(math.nan), math.inf, complex(0.3, -math.inf)):
            with pytest.raises(ValueError, match="finite guess"):
                _refine_eigenvalue(ChainSpec(6, 1.0, 0.5), guess)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64])
@pytest.mark.parametrize("frac", [0.5, 1.3])
def test_doubling_matches_the_site_by_site_recurrence(n, frac):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    seeds = _ellipse_points(spec.hopping, n)
    ratios = _unit_ratio(n, spec.gamma, seeds)
    assert np.max(np.abs(ratios / _recurrence_ratio(spec, seeds) - 1)) <= 1e-12
    dense = np.linalg.eigvals(build_hamiltonian(spec))
    by_recurrence = _aberth(lambda z: _recurrence_ratio(spec, z), seeds)
    assert spectral_distance(by_recurrence, dense) <= 1e-12
    assert spectral_distance(oracle_spectrum(spec), dense) <= 1e-12


@pytest.mark.parametrize("n", [1100, 2000, 4097])
def test_unit_ratio_is_finite_off_the_axes_of_a_long_chain(n):
    # off the band D_N grows like |x|^N and inside it decays: without
    # rescaling, the doubling overflows or underflows at large N and the
    # ratio ends in NaN or a vanishing derivative; it met the site-by-site
    # recurrence within 1.1e-14 here
    y = np.concatenate([_ellipse_points(1.0, 16), [0.3 + 0.5j, -1.9 + 0.1j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = _unit_ratio(n, 0.4, y)
    assert np.all(np.isfinite(ratios))
    assert np.max(np.abs(ratios / _recurrence_ratio(ChainSpec(n, 1.0, 0.4), y) - 1)) <= 1e-12


@pytest.mark.parametrize("n", [1100, 2000, 4097])
@pytest.mark.parametrize("j", [0.1, 0.5, 1e-300, 1e300])
def test_char_poly_ratio_scales_with_hopping(n, j):
    # D_N scales like J^N, so the characteristic-polynomial ratio is taken on
    # the unit chain at x / J and gamma / J: refined levels of a long chain at
    # hopping J are J times those at J = 1, with no underflow or overflow on
    # the way, and each is a root of the unit chain's D_N
    guesses = 2 * np.cos(np.pi * np.array([1, n // 3, n // 2]) / (n + 1)) + 1e-9j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = np.array([_refine_eigenvalue(ChainSpec(n, 1.0, 0.4), g) for g in guesses])
        got = np.array([_refine_eigenvalue(ChainSpec(n, j, 0.4 * j), j * g) for g in guesses])
        residuals = _unit_ratio(n, 0.4, unit)
    assert np.max(np.abs(got / (j * unit) - 1)) <= 1e-12
    assert np.max(np.abs(residuals)) <= 1e-12


@pytest.mark.parametrize("j", [1e-300, 1e-160, 1e-100, 0.7, 3.0, 1e100, 1e155, 1e300])
@pytest.mark.parametrize("n", [8, 9, 64])
@pytest.mark.parametrize("frac", [0.5, 1.3])
def test_oracle_at_any_hopping_scale(j, n, frac):
    # the oracle solves the unit chain (J = 1, gamma/J) and scales by J, so
    # no power of J is ever formed to overflow or underflow
    spec = ChainSpec(n, j, frac * gamma_critical(n, j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies = solve_spectrum(spec).energies
        roots = oracle_spectrum(spec)
        top = energies[np.argmax(np.abs(energies))]
        refined = _refine_eigenvalue(spec, top * (1 + 1e-9))
    assert spectral_distance(roots, energies) <= 1e-12 * j
    assert abs(refined - top) <= 1e-12 * j


@pytest.mark.parametrize("n", [2, 3, 8, 9, 257, 1000, 1001])
@pytest.mark.parametrize("j", [1e-300, 1.0, 1e100])
@pytest.mark.parametrize("ratio", [1e9, 1e100, 1e140, 1e150])
def test_oracle_up_to_the_largest_gamma(n, j, ratio):
    # Q's coefficient t + gamma^2 - 1 reaches 1e300 in units of J^2, so
    # (U, V, U', V') must be in range before Q and Q' are formed; each level
    # within 1e-12 max(J, |E|) of the Bethe solver's, with no numpy warning
    spec = ChainSpec(n, j, ratio * j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = oracle_spectrum(spec)
    energies = solve_spectrum(spec).energies
    dist = np.abs(roots[:, None] - energies[None, :])
    assert np.all(dist.min(axis=0) <= 1e-12 * np.maximum(j, np.abs(energies)))
    assert np.all(dist.min(axis=1) <= 1e-12 * np.maximum(j, np.abs(roots)))


@pytest.mark.parametrize("n", [8, 30])
def test_oracle_at_the_edge_of_its_domain(n):
    # gamma/J = 1e150 still returns every level, and refines each dense
    # level, within 1e-8 max(J, |E|), with no numpy warning
    spec = ChainSpec(n, 1.0, 1e150)
    dense = np.linalg.eigvals(build_hamiltonian(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = oracle_spectrum(spec)
        refined = np.array([_refine_eigenvalue(spec, e) for e in dense])
    dist = np.abs(roots[:, None] - dense[None, :])
    assert np.all(dist.min(axis=0) <= 1e-8 * np.maximum(1.0, np.abs(dense)))
    assert np.all(dist.min(axis=1) <= 1e-8 * np.maximum(1.0, np.abs(roots)))
    assert np.all(np.abs(refined - dense) <= 1e-8 * np.maximum(1.0, np.abs(dense)))


@pytest.mark.parametrize("frac", [0.5, 1.3])
def test_oracle_at_the_largest_tested_n(frac):
    # 2000 roots in t: no estimate may stop short of its root
    spec = ChainSpec(4001, 1.0, frac * gamma_critical(4001))
    assert spectral_distance(oracle_spectrum(spec), solve_spectrum(spec).energies) <= 1e-12


def test_aberth_never_returns_a_stalled_estimate(monkeypatch):
    # a step that never shrinks is no root, however small it is; the
    # crossover patched so that the three estimates run on each path
    seeds = np.array([0.5 + 0.1j, 2.0 - 0.3j, -1.0 + 0.2j])
    monkeypatch.setattr(oracle, "_MAX_ITER", 50)
    for crossover in (3, 2):
        monkeypatch.setattr(oracle, "_SCALAR_ESTIMATES", crossover)
        with pytest.raises(NonConvergence, match="stalled after 50 iterations"):
            _aberth(lambda z: z * 0 + 1e-7, seeds)


@pytest.mark.parametrize("crossover", [3, 2], ids=["scalars", "arrays"])
@pytest.mark.parametrize("seeds,ratio", [
    ([0.5 + 0.1j, 2.0 - 0.3j, -1.0 + 0.2j], lambda z: z * math.nan),
    ([0.5 + 0.1j, 2.0 - 0.3j, 0.5 + 0.1j], lambda z: z - 1.0),  # 1/(z_i - z_j) at z_i = z_j
])
def test_aberth_raises_on_a_non_finite_step(monkeypatch, crossover, seeds, ratio):
    # with no numpy warning: the scalars' ZeroDivisionError is the arrays' inf
    monkeypatch.setattr(oracle, "_SCALAR_ESTIMATES", crossover)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="Aberth step is not finite"):
            _aberth(ratio, np.array(seeds))


def _both_paths(monkeypatch, spec):
    # the oracle's levels with every Aberth run on scalars, then on arrays
    levels = []
    for crossover in (spec.n_sites, 0):
        monkeypatch.setattr(oracle, "_SCALAR_ESTIMATES", crossover)
        levels.append(oracle_spectrum(spec))
    return levels


def _level_distance(a, b, unit):
    # each level of either set to its nearest in the other, relative to max(unit, |level|)
    dist = np.abs(a[:, None] - b[None, :])
    return max(np.max(dist.min(axis=1) / np.maximum(unit, np.abs(a))),
               np.max(dist.min(axis=0) / np.maximum(unit, np.abs(b))))


@pytest.mark.parametrize("j", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("frac", [0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 1.3, 10.0])
def test_scalar_and_array_paths_agree(monkeypatch, j, frac):
    # the two orders of arithmetic agree to rounding in t, the root Aberth
    # solves; next to gamma_c the pair sits near sqrt(1e-9) J, where
    # x = sqrt(t) moves by 1/(2 sqrt t) times t's rounding, so x is bounded
    # off gamma_c only
    for n in range(2, 4 * _SCALAR_ESTIMATES + 3):
        spec = ChainSpec(n, j, frac * gamma_critical(n, j))
        scalars, arrays = _both_paths(monkeypatch, spec)
        assert _level_distance(scalars ** 2, arrays ** 2, j * j) <= 1e-14, n
        if abs(frac - 1) > 1e-6:
            assert _level_distance(scalars, arrays, j) <= 1e-14, n


@pytest.mark.parametrize("n,j,gamma", [(8, 1.0, 1e150), (9, 1.0, 1e150), (8, 0.5, 0.5),
                                       (8, 1.0, 1.0), (8, 3.0, 3.0)])
def test_scalar_and_array_paths_agree_at_the_extremes(monkeypatch, n, j, gamma):
    # gamma/J = 1e150 rescales inside the doubling; at gamma = J an even
    # chain's pair has coalesced at E = 0
    scalars, arrays = _both_paths(monkeypatch, ChainSpec(n, j, gamma))
    assert _level_distance(scalars, arrays, j) <= 1e-14


@pytest.mark.parametrize("n,kind", [(2, complex), (2 * _SCALAR_ESTIMATES + 1, complex),
                                    (2 * _SCALAR_ESTIMATES + 2, np.ndarray)])
def test_short_chains_run_on_python_scalars(monkeypatch, n, kind):
    # up to the crossover every Q/Q' is of one Python complex, above it of an array
    seen, ratio = set(), oracle._t_ratio
    monkeypatch.setattr(oracle, "_t_ratio", lambda *a: seen.add(type(a[2])) or ratio(*a))
    oracle_spectrum(ChainSpec(n, 1.0, 0.5 * gamma_critical(n)))
    assert seen == {kind}


def test_broken_phase_seeds_sit_next_to_the_pair(monkeypatch):
    # one _t_ratio call per iteration on arrays: from the free-chain seeds
    # alone, N = 64 at 1.5 gamma_c took 15 iterations
    calls, ratio = [], oracle._t_ratio
    monkeypatch.setattr(oracle, "_t_ratio", lambda *a: calls.append(1) or ratio(*a))
    oracle_spectrum(ChainSpec(64, 1.0, 1.5 * gamma_critical(64)))
    assert 0 < len(calls) <= 8


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65])
@pytest.mark.parametrize("frac", [0.5, 1.0, 1.3])
def test_oracle_levels_are_exact_pairs(n, frac):
    # each level is +-sqrt(t) at a root t of Q: the negated set is the set,
    # exactly, and an odd chain has an exact zero mode, the only zero level
    # off gamma_c (at gamma_c the pair may be exactly 0 too)
    roots = oracle_spectrum(ChainSpec(n, 1.0, frac * gamma_critical(n)))
    assert np.array_equal(np.sort(-roots), roots)
    assert np.count_nonzero(roots == 0) == n % 2 or frac == 1.0
    assert np.count_nonzero(roots == 0) >= n % 2


def test_oracle_at_large_n_with_weak_hopping():
    spec = ChainSpec(1100, 0.5, 0.2)
    d = spectral_distance(oracle_spectrum(spec), solve_spectrum(spec).energies)
    assert d <= 1e-8


EXCEPTIONAL_NS = list(range(2, 42)) + [64, 100]


@pytest.mark.parametrize("j", [1.0, 3.0])
def test_oracle_at_the_exceptional_point(j):
    # At gamma_c an odd chain has a triple root at E = 0, which dense eigvals
    # resolves only to about eps^(1/3).  For the oracle it is the zero mode
    # and one simple root t = 0 of Q; the float gamma_c misses the
    # exceptional point by its rounding, which puts t within about eps J^2
    # of 0 and the pair within about sqrt(eps) J
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


@pytest.mark.parametrize("j", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("frac", [0.0, 1 - 1e-9, 1 + 1e-9, 1.01, 10.0])
def test_oracle_matches_dense_eigvals_at_any_hopping(j, frac):
    # the seeds scale with J alone, whatever gamma is; next to gamma_c, where
    # the critical pair nearly coalesces, the bound is that of the tests above
    near = abs(frac - 1) < 1e-6
    for n in list(range(2, 81)) + [100]:
        spec = ChainSpec(n, j, frac * gamma_critical(n, j))
        dense = np.linalg.eigvals(build_hamiltonian(spec))
        d = spectral_distance(oracle_spectrum(spec), dense)
        assert d <= (1e-6 * j if near else 1e-12 * max(1.0, j, spec.gamma)), n


@pytest.mark.parametrize("n", [35, 44, 64, 200, 500, 1000])
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


def _greedy_distance(a, b):
    # spectral_distance before its array pass, verbatim
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return math.inf
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in b]
        m = int(np.argmin(dists))
        worst = max(worst, dists[m])
        b.pop(m)
    return worst


# few distinct coordinates, so that nearest neighbours often collide and
# +-i kappa pairs with real parts +-1e-16 come up
_COORD = st.sampled_from([0.0, 1e-16, -1e-16, 0.5, 1.0, -1.0]) | st.floats(-3.0, 3.0)
_POINT = st.builds(complex, _COORD, _COORD)
_SET_PAIRS = st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[st.lists(_POINT, min_size=n, max_size=n)] * 2))


@pytest.mark.parametrize("beside,level", [(False, math.nan), (False, complex(math.inf, 0.0)),
                                         (True, -1.0)])
def test_oracle_eigenvector_rejects_non_finite_input(beside, level):
    # alone, or beside a finite level: a NaN would run the recurrence on NaN
    # pivots, with a warning each, and come back as a NaN vector
    levels = [level, math.nan] if beside else [level]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite levels"):
            oracle_eigenvector(ChainSpec(6, 1.0, 0.5), levels)


@settings(deadline=None, max_examples=300)
@given(sets=_SET_PAIRS)
# the nearest neighbour of both 0 and 0.1 is 0.05: the greedy fallback
@example(sets=([0.0, 0.1], [0.05, 1.0]))
# sorted by real part, the +-i pair would match i with -i
@example(sets=([complex(1e-16, 1), complex(-1e-16, -1)],
               [complex(-1e-16, 1), complex(1e-16, -1)]))
def test_spectral_distance_is_the_greedy_matching(sets):
    got = spectral_distance(*sets)
    assert type(got) is float
    assert got == _greedy_distance(*sets)


def test_eigenvector_symmetric_mode():
    (v,) = oracle_eigenvector(ChainSpec(2, 1.0, 0.0), [-1.0])
    assert np.allclose(v, np.ones(2) / math.sqrt(2), atol=1e-10)


def test_eigenvector_zero_mode_n3():
    h = build_hamiltonian(ChainSpec(3, 1.0, 1.0))
    (v,) = oracle_eigenvector(ChainSpec(3, 1.0, 1.0), [0.0])
    assert np.max(np.abs(h @ v)) < 1e-8
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def _scaled_residuals(spec, levels, vectors):
    # ||H v - E v||_inf / ||v||_inf per row, in units of N eps max(J, |E|),
    # with H applied as the tridiagonal it is: no N x N matrix at N = 10^5
    levels = np.asarray(levels)
    hv = np.zeros_like(vectors)
    hv[:, :-1] -= spec.hopping * vectors[:, 1:]
    hv[:, 1:] -= spec.hopping * vectors[:, :-1]
    hv[:, 0] += 1j * spec.gamma * vectors[:, 0]
    hv[:, -1] -= 1j * spec.gamma * vectors[:, -1]
    resid = np.max(np.abs(hv - levels[:, None] * vectors), axis=1)
    scale = spec.n_sites * np.finfo(float).eps * np.maximum(spec.hopping, np.abs(levels))
    return resid / np.max(np.abs(vectors), axis=1) / scale


def _picked_levels(levels):
    # both band edges, the centre and the broken pair (every level off the real axis)
    picked = {int(np.argmin(levels.real)), int(np.argmax(levels.real)),
              int(np.argmin(np.abs(levels)))}
    return levels[sorted(picked | set(np.flatnonzero(levels.imag).tolist()))]


# Largest ||H v - E v||_inf / ||v||_inf of an oracle eigenvector, in units of
# N eps max(J, |E|).  The largest measured over the grid below was 4.05 (N = 8,
# gamma = 0)
_RESIDUAL_C = 8.0
_RESIDUAL_GRID = ([(n, j) for n in (2, 3, 8, 9, 64, 65, 1000, 1001, 4096, 4097)
                   for j in (0.5, 1.0, 3.0)] + [(10001, 1.0), (100000, 1.0), (100001, 1.0)])


@pytest.mark.parametrize("n,j", _RESIDUAL_GRID)
def test_eigenvector_residual_at_every_level(n, j):
    # every level of solve_spectrum up to N = 1001, and the picked ones
    # above; gamma = 0 has exact zero pivots (N = 9, 64, 1000 and 4097, and
    # the odd-N zero mode), and 1 - 1e-9 and 1.3 gamma_c hold the pair next
    # to the exceptional point and the broken pair, whose ratios sit at
    # their fixed point over most of the chain.  J = 1 alone from N = 10^4
    # + 1: the oracle runs on the unit chain, so J moves only the rounding,
    # and the three J there measured the same worst as J = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frac in (0.0, 0.5, 1 - 1e-9, 1.0, 1.3, 3.0):
            spec = ChainSpec(n, j, frac * gamma_critical(n, j))
            levels = solve_spectrum(spec).energies
            if n >= 4096:
                levels = _picked_levels(levels)
            vectors = oracle_eigenvector(spec, levels)
            assert vectors.shape == (len(levels), n)
            assert np.max(np.abs(np.linalg.norm(vectors, axis=1) - 1)) <= 1e-15
            assert np.max(_scaled_residuals(spec, levels, vectors)) <= _RESIDUAL_C, frac


@pytest.mark.parametrize("n", [8, 65, 1000, 1001, 4097])
@pytest.mark.parametrize("frac", [0.5, 1.3])
def test_eigenvector_residual_sees_a_level_moved_by_1e_8(n, frac):
    # each picked level moved by 1e-8 J, along either axis, breaks the
    # residual bound: the residuals read 6.3e-9 to 2.1e-5 J moved, and at
    # most 7.9e-13 J in place
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    levels = _picked_levels(solve_spectrum(spec).energies)
    for moved in (levels + 1e-8, levels + 1e-8j):
        vectors = oracle_eigenvector(spec, moved)
        assert np.min(_scaled_residuals(spec, moved, vectors)) > _RESIDUAL_C


def test_refine_eigenvalue_large_chain():
    # The positive critical level of a 199-site chain, cross-checked by Newton
    # on the recurrence-evaluated determinant (no coefficient expansion).
    spec = ChainSpec(199, 1.0, gamma_critical(199) - 0.005)
    levels, _ = critical_levels(spec)
    refined = _refine_eigenvalue(spec, levels[0])
    assert abs(refined - levels[0]) < 1e-8


@pytest.mark.parametrize("n", [8192, 8194, 10000, 16385])
def test_refine_eigenvalue_at_the_band_edge_of_a_long_chain(n):
    # U' / U grows like k^2 at the band edge, so a rescale led by U' once
    # squared U to 0 and the ratio to NaN; the free chain's edge levels are
    # -+2 cos(pi / (N + 1))
    spec = ChainSpec(n, 1.0, 0.0)
    edge = 2 * math.cos(math.pi / (n + 1))
    for level in (-edge, edge):
        assert abs(_refine_eigenvalue(spec, level * (1 + 1e-9)) - level) <= 1e-12
        assert np.isfinite(_unit_ratio(n, 0.0, complex(level)))


@pytest.mark.parametrize("n", [2, 4, 8, 64])
@pytest.mark.parametrize("j", [0.5, 1.0, 3.0])
def test_refine_eigenvalue_at_the_coalesced_pair(n, j):
    # at gamma = J an even chain's pair has coalesced at E = 0, a double root
    # of D_N where D_N' = 0 too: the ratio there is 0, not a vanishing
    # derivative.  From a guess 1e-3 J off, Newton in x only halved its step
    # and stopped 5.8e-14 J short (N = 8 and 64); in t = x^2 the pair is a
    # simple root of Q
    spec = ChainSpec(n, j, j)
    assert np.count_nonzero(solve_spectrum(spec).energies == 0) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _refine_eigenvalue(spec, 0.0) == 0
        assert _unit_ratio(n, 1.0, 0j) == 0
        for guess in (1e-3 * j, -1e-3 * j, 1e-3j * j):
            assert abs(_refine_eigenvalue(spec, guess)) <= 1e-15 * j


@pytest.mark.parametrize("n,gamma,guess", [(8, 0.5, 0.0), (4, 1.0, 1.0)])
def test_refine_eigenvalue_at_a_critical_point_off_the_spectrum(n, gamma, guess):
    # D_N' = 0 where D_N is not: at x = 0 of an even chain away from gamma_c
    # (x / 2 = 0 in D_N / D_N'), and at x = 1 for N = 4, gamma = J, where
    # Q(t) = (t + gamma^2 - 1)(t - 1) - t has Q'(1) = 0 (Q / Q' = 0 in t)
    spec = ChainSpec(n, 1.0, gamma)
    with pytest.raises(NonConvergence, match="vanishing derivative"):
        _refine_eigenvalue(spec, guess)
    with pytest.raises(NonConvergence, match="vanishing derivative"):
        _unit_ratio(n, gamma, complex(guess))


def test_refine_eigenvalue_matches_oracle_small():
    spec = ChainSpec(6, 1.0, 0.5)
    target = sorted(oracle_spectrum(spec), key=lambda z: z.real)[0]
    assert _refine_eigenvalue(spec, target + 1e-3) == pytest.approx(target, abs=1e-10)


def test_refine_eigenvalue_shares_the_oracle_budget(monkeypatch):
    # one Aberth budget serves the whole spectrum and one level alike
    spec = ChainSpec(6, 1.0, 0.5)
    target = sorted(oracle_spectrum(spec), key=lambda z: z.real)[0]
    monkeypatch.setattr(oracle, "_MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="Aberth stalled after 1 iterations"):
        _refine_eigenvalue(spec, target + 1e-3)


def test_spectral_distance_matches_bethe():
    for n in (3, 6, 10, 35, 44, 101, 200):
        for frac in (0.4, 1.5):
            spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
            d = spectral_distance(solve_spectrum(spec).energies, oracle_spectrum(spec))
            assert d < 1e-8, (n, frac, d)


def test_spectral_distance_of_two_empty_sets():
    assert spectral_distance([], []) == 0.0


def test_spectral_distance_rejects_sets_of_unequal_size():
    with pytest.raises(ValueError, match="size mismatch: 2 vs 1"):
        spectral_distance([1.0, 2.0], [1.0])
