import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptchain import (ChainSpec, Phase, build_hamiltonian, gamma_critical,
                     locate_critical_gamma, momentum_index, refine_eigenvalue,
                     solve_kappa, solve_real_momenta, solve_spectra, solve_spectrum,
                     spectral_distance)
from ptchain.bethe import (_bracketed_roots, _kappas, _offset_brackets, _real_roots,
                           count_real_momenta, kappa_residual, raw_amplitude)
from ptchain.errors import DomainError, PhaseError, PTChainError


def test_roots_n3_gamma_one():
    # G reduces to 2 J^2 sin(3k) cos(k); its null-state root k = pi lies
    # outside the scanned interval (0, pi).
    roots = solve_real_momenta(ChainSpec(3, 1.0, 1.0))
    assert np.allclose(roots, [np.pi / 3, np.pi / 2, 2 * np.pi / 3], atol=1e-12)


def test_roots_n2_energies():
    roots = solve_real_momenta(ChainSpec(2, 1.0, 0.6))
    energies = np.sort(-2 * np.cos(roots))
    assert np.allclose(energies, [-0.8, 0.8], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_roots_hermitian_limit(n):
    roots = solve_real_momenta(ChainSpec(n, 1.0, 0.0))
    expected = np.pi * np.arange(1, n + 1) / (n + 1)
    assert np.allclose(roots, expected, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_roots_at_gamma_equals_hopping(n):
    # theta_k = 0 there, so the roots sit at n_k pi / N plus the zero mode.
    roots = solve_real_momenta(ChainSpec(n, 1.0, 1.0))
    expected = np.sort(np.append(np.pi * np.arange(1, n) / n, np.pi / 2))
    assert np.allclose(roots, expected, atol=1e-12)


@pytest.mark.parametrize("n,gamma", [(6, 0.3), (7, 0.9), (10, 0.5), (9, 1.2)])
def test_momentum_index_consistency(n, gamma):
    # momentum_index itself raises when the quantization identity is violated;
    # the critical pair legitimately shares one interval index.
    spec = ChainSpec(n, 1.0, gamma)
    for k in solve_real_momenta(spec):
        assert 0 <= momentum_index(spec, k) <= n


def test_no_scanned_root_is_a_null_state():
    # The amplitude vanishes for every l only at k in {0, pi}, which no
    # bracket reaches, so the solver needs no per-root null-state filter.
    for n in range(2, 81):
        gc = gamma_critical(n)
        for gamma in (0.0, 0.3 * gc, 0.9 * gc, gc - 1e-9, gc, gc + 1e-9,
                      1.0, 1.5 * gc, 2.0 * gc):
            spec = ChainSpec(n, 1.0, gamma)
            for k in _real_roots([spec], 1e-12)[0]:
                assert np.max(np.abs(raw_amplitude(spec, k))) >= 0.5, (n, gamma, k)


def test_sign_count_equals_solved_count():
    # the count reads only the bracket-end signs that decide which brackets
    # the solve refines, so the two agree even at gamma_c itself
    for n in range(2, 81):
        for j in (0.5, 1.0, 3.0):
            gc = gamma_critical(n, j)
            for frac in (0.0, 0.3, 0.9, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 2.0):
                spec = ChainSpec(n, j, frac * gc)
                assert count_real_momenta(spec) == len(_real_roots([spec], 1e-12)[0]), \
                    (n, j, frac)


def test_root_count_transition():
    for n in (6, 7, 11, 20):
        gc = gamma_critical(n)
        assert count_real_momenta(ChainSpec(n, 1.0, gc - 1e-3)) == n
        assert count_real_momenta(ChainSpec(n, 1.0, gc + 1e-3)) == n - 2


def test_root_detection_survives_near_coalescence():
    # The two roots straddling pi/2 sit ~2e-4 apart here, both in the one
    # bracket centred on pi/2; their offset from pi/2 is solved directly.
    n = 20
    spec = ChainSpec(n, 1.0, gamma_critical(n) - 1e-5)
    assert len(solve_real_momenta(spec)) == n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 255, 256, 1001])
def test_locate_critical_gamma(n):
    assert locate_critical_gamma(n) == pytest.approx(gamma_critical(n), abs=1e-6)


# float.hex of locate_critical_gamma(n, j, 1e-10) from the count by full root solves
PINNED_GAMMA_C = {
    1.0: ["0x1.0000000023334p+0", "0x1.6a09e667f0000p+0", "0x1.0000000023334p+0",
          "0x1.1e3779b990000p+0", "0x1.0000000023334p+0", "0x1.028c1d9596666p+0",
          "0x1.0000000023334p+0"],
    3.0: ["0x1.7ffffffff799ap+1", "0x1.0f876ccdfe334p+2", "0x1.7ffffffff799ap+1",
          "0x1.ad5336964399cp+1", "0x1.7ffffffff799ap+1", "0x1.83d22c6076002p+1",
          "0x1.7ffffffff799ap+1"],
}


@pytest.mark.parametrize("j", sorted(PINNED_GAMMA_C))
def test_locate_critical_gamma_is_pinned(j):
    got = [locate_critical_gamma(n, j, 1e-10).hex() for n in (2, 3, 8, 9, 100, 101, 1000)]
    assert got == PINNED_GAMMA_C[j]


@pytest.mark.parametrize("j", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("n", [8, 9, 64, 65])
@pytest.mark.parametrize("frac", [0.5, 1.5])
def test_spectrum_scales_with_hopping(j, n, frac):
    # G, c and kappa depend on gamma/J only, so a tiny or huge J neither
    # underflows nor overflows: the spectrum is J times that of J = 1
    r = frac * gamma_critical(n)
    unit = ChainSpec(n, 1.0, r)
    spec = ChainSpec(n, j, r * j)
    assert np.max(np.abs(solve_spectrum(spec).energies / j
                         - solve_spectrum(unit).energies)) <= 1e-12
    assert count_real_momenta(spec) == count_real_momenta(unit)
    # the kappa residual is the condition divided by J^2
    kappa = np.array([1e-3, 0.1, 0.7])
    assert np.allclose(kappa_residual(spec, kappa), kappa_residual(unit, kappa),
                       rtol=1e-12, atol=0.0)


def test_kappa_analytic_n2():
    spec = ChainSpec(2, 1.0, math.sqrt(2.0))
    kappa = solve_kappa(spec)
    assert kappa == pytest.approx(math.asinh(0.5), abs=1e-12)
    sol = solve_spectrum(spec)
    assert np.allclose(np.sort_complex(sol.energies), [-1j, 1j], atol=1e-12)


def test_kappa_requires_broken_phase():
    with pytest.raises(PhaseError):
        solve_kappa(ChainSpec(8, 1.0, 0.5))


def test_kappa_vanishes_at_boundary():
    n = 9
    gc = gamma_critical(n)
    kappas = [solve_kappa(ChainSpec(n, 1.0, gc + off))
              for off in (1e-2, 1e-4, 1e-6)]
    assert kappas[0] > kappas[1] > kappas[2] > 0
    assert kappas[2] < 1e-2


@pytest.mark.parametrize("n", [600, 1001, 4096])
def test_kappa_deep_in_the_broken_phase_does_not_overflow(n):
    # kappa (N+1) ~ 400-1700: the unscaled sinh/cosh would overflow; the
    # e^(-2 kappa N) corrections vanish, leaving kappa = ln(gamma/J)
    assert solve_kappa(ChainSpec(n, 1.0, 1.5)) == pytest.approx(math.log(1.5), rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 40, 41])
@pytest.mark.parametrize("kappa", [1e-3, 0.1, 0.7])
def test_kappa_residual_is_the_scaled_condition(n, kappa):
    spec = ChainSpec(n, 1.0, 1.3)
    fn = math.sinh if n % 2 else math.cosh
    raw = 1.3 ** 2 * fn(kappa * (n - 1)) - fn(kappa * (n + 1))
    want = 2.0 * math.exp(-kappa * (n + 1)) * raw
    assert kappa_residual(spec, kappa) == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("ratio", [3.0, 10.0, 1e2, 1e4, 1e8, 1e9, 1e20, 1e150])
def test_kappa_above_one_is_within_two_ulp(ratio):
    # past kappa = 1 the scaled condition cancels (r^2 e^(-2 kappa) -> 1);
    # its log form keeps kappa to the float spacing up to gamma/J = 1e150
    mp = pytest.importorskip("mpmath")
    for n in (2, 3, 8, 9, 64, 65, 1000, 1001):
        s = -1 if n % 2 else 1
        with mp.workdps(40):
            log_r2 = 2 * mp.log(mp.mpf(ratio))
            want = mp.findroot(
                lambda k: (log_r2 - 2 * k + mp.log(1 + s * mp.exp(-2 * k * (n - 1)))
                           - mp.log(1 + s * mp.exp(-2 * k * (n + 1)))), log_r2 / 2)
            kappa = solve_kappa(ChainSpec(n, 1.0, ratio))
            assert want > 1
            assert abs(mp.mpf(kappa) - want) <= 2 * np.spacing(kappa), n


@pytest.mark.parametrize("ratio", [1e2, 1e4, 1e8])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65])
def test_spectrum_far_in_the_broken_phase_matches_dense_eigvals(n, ratio):
    spec = ChainSpec(n, 1.0, ratio)
    dense = np.linalg.eigvals(build_hamiltonian(spec))
    dist = spectral_distance(solve_spectrum(spec).energies, dense)
    assert dist <= 1e-12 * np.max(np.abs(dense))


def test_kappa_large_n_approximation():
    spec = ChainSpec(20, 1.0, 1.01)
    kappa = solve_kappa(spec)
    alpha = (1 + spec.gamma**2) / (spec.gamma**2 - 1)
    assert kappa == pytest.approx(1 / math.sqrt(20 * alpha), rel=0.05)


def test_spectrum_n3():
    sol = solve_spectrum(ChainSpec(3, 1.0, 1.0))
    assert sol.phase is Phase.UNBROKEN
    assert np.allclose(np.sort(sol.energies.real), [-1.0, 0.0, 1.0], atol=1e-12)
    assert np.max(np.abs(sol.energies.imag)) == 0.0


def test_spectrum_n3_hermitian():
    sol = solve_spectrum(ChainSpec(3, 1.0, 0.0))
    assert np.allclose(np.sort(sol.energies.real),
                       [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_spectrum_broken_n8():
    sol = solve_spectrum(ChainSpec(8, 1.0, 1.2))
    assert sol.phase is Phase.BROKEN
    cplx = sol.k.imag != 0
    assert np.count_nonzero(~cplx) == 6 and np.count_nonzero(cplx) == 2
    kappa = solve_kappa(ChainSpec(8, 1.0, 1.2))
    pair = sorted(sol.energies[cplx], key=lambda z: z.imag)
    assert pair[0] == pytest.approx(-2j * math.sinh(kappa), abs=1e-12)
    assert pair[1] == pytest.approx(+2j * math.sinh(kappa), abs=1e-12)
    assert np.max(np.abs(sol.k[cplx].real - math.pi / 2)) <= 1e-15


@settings(deadline=None, max_examples=25)
@given(n=st.integers(min_value=2, max_value=11),
       frac=st.sampled_from([0.2, 0.45, 0.8, 1.25, 1.7]))
def test_spectrum_traceless_and_chiral(n, frac):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    energies = solve_spectrum(spec).energies
    assert abs(np.sum(energies)) < 1e-9
    ordered = np.sort_complex(energies)
    assert np.max(np.abs(ordered + ordered[::-1])) < 1e-9


@pytest.mark.parametrize("solve,gamma,tol", [
    (solve_spectrum, 1.0, -1.0),        # gamma_c of N=8: the Critical-phase path
    (solve_spectrum, 1.5, 0.0),
    (solve_real_momenta, 0.5, math.nan),
    (solve_kappa, 1.5, 0.0),
    # a NaN tol would end the bisection at once, a negative one never
    (lambda spec, tol: locate_critical_gamma(spec.n_sites, tol=tol), 0.5, math.nan),
    (lambda spec, tol: locate_critical_gamma(spec.n_sites, tol=tol), 0.5, -1e-6),
])
def test_non_positive_tol_is_a_value_error(solve, gamma, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        solve(ChainSpec(8, 1.0, gamma), tol=tol)


def test_locate_critical_gamma_rejects_infinite_tol():
    # an infinite tol would end the bisection at once, at the bracket midpoint
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        locate_critical_gamma(8, tol=math.inf)


@pytest.mark.parametrize("j,gamma", [(1.0, 1e200), (1e-200, 1.0), (1.0, 1.0001e150)])
def test_ratio_past_the_limit_is_a_domain_error(j, gamma):
    # (gamma/J)^2 would overflow: a PTChainError, not a numpy RuntimeWarning
    # (tier-1 runs with warnings as errors)
    spec = ChainSpec(8, j, gamma)
    for solve in (solve_spectrum, solve_real_momenta, solve_kappa, count_real_momenta,
                  lambda s: kappa_residual(s, 1.0), lambda s: momentum_index(s, 1.0)):
        with pytest.raises(DomainError, match="above 1e\\+150"):
            solve(spec)


def _solve_brackets(specs, first_only, tol=1e-14):
    fun, params, lo, hi, seed = _offset_brackets(specs, first_only)
    return _bracketed_roots(fun, lo, hi, seed, tol, *params)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=2, max_value=2000),
       far=st.lists(st.floats(min_value=1e-6, max_value=3.0), min_size=1, max_size=3),
       near=st.lists(st.tuples(st.integers(min_value=3, max_value=9),
                               st.sampled_from([-1.0, 1.0])), max_size=3),
       first_only=st.booleans())
def test_batched_roots_equal_solo_roots(n, far, near, first_only):
    # per-bracket parameters leave the iteration with their root, so a root
    # of a batch takes the float steps of its solo solve: near gamma_c
    # (~28 steps) and far from it (2-6) mixed in one batch
    gc = gamma_critical(n)
    ratios = far + [gc * (1 + sign * 10.0 ** -e) for e, sign in near]
    specs = [ChainSpec(n, 1.0, r) for r in ratios]
    roots, keep = _solve_brackets(specs, first_only)
    solo = [_solve_brackets([s], first_only) for s in specs]
    assert keep.tolist() == [k for _, kept in solo for k in kept.tolist()]
    assert roots.tobytes() == np.concatenate([x for x, _ in solo]).tobytes()
    broken = [s for s in specs if s.gamma > gc + 1e-9]
    assert _kappas(broken).tobytes() == b"".join(_kappas([s]).tobytes() for s in broken)
    # zero-width brackets change sign nowhere
    fun, params, lo, _, seed = _offset_brackets(specs, first_only)
    roots, keep = _bracketed_roots(fun, lo, lo, seed, 1e-14, *params)
    assert roots.shape == (0,) and not keep.any()


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 1000, 1001])
def test_solve_spectra_equals_solve_spectrum(n):
    gc = gamma_critical(n)
    gammas = np.concatenate([np.linspace(0.0, 2.0 * gc, 9),
                             gc * (1 + np.array([-1e-3, -1e-9, 1e-9, 1e-3]))])
    for sol, gamma in zip(solve_spectra(n, 1.0, gammas), gammas):
        alone = solve_spectrum(ChainSpec(n, 1.0, float(gamma)))
        assert sol.spec == alone.spec and sol.phase is alone.phase
        assert sol.k.tobytes() == alone.k.tobytes()
        assert sol.energies.tobytes() == alone.energies.tobytes()


@pytest.mark.parametrize("gammas,error", [
    ([0.5, -1.0, 1e200], ValueError),
    ([0.5, 1e200, -1.0], DomainError),
    ([1.2, 1e200, 1e300], DomainError),
    ([0.5, math.nan], ValueError),
])
def test_solve_spectra_raises_the_first_failing_gammas_error(gammas, error):
    first = next(g for g in gammas if not 0 <= g < 1e150)
    with pytest.raises(error) as batch:
        solve_spectra(8, 1.0, gammas)
    with pytest.raises((ValueError, PTChainError)) as alone:
        solve_spectrum(ChainSpec(8, 1.0, first))
    assert str(batch.value) == str(alone.value)


def test_solve_spectra_validates_tol_like_one_gamma():
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_spectra(8, 1.0, [0.5, 1.5], tol=0.0)
    # an invalid first gamma fails before the tol is read
    with pytest.raises(ValueError, match="gamma must be"):
        solve_spectra(8, 1.0, [-1.0, 0.5], tol=0.0)
    assert solve_spectra(8, 1.0, []) == []


def _check_large_chain(spec):
    n, j, g = spec.n_sites, spec.hopping, spec.gamma
    sol = solve_spectrum(spec)
    energies = sol.energies
    n_real = int(np.sum(sol.k.imag == 0))
    assert len(energies) == n
    assert n_real == (n if sol.phase is Phase.UNBROKEN else n - 2)
    # chiral pairs share one offset from pi/2, so they cancel to the rounding of k
    assert np.max(np.abs(energies + energies[::-1])) <= 2 * j * np.spacing(np.pi)
    assert abs(np.sum(energies)) <= 1e-9 * n
    assert abs(np.sum(energies ** 2) - (2 * (n - 1) * j * j - 2 * g * g)) <= 1e-9 * n
    return energies


@settings(deadline=None, max_examples=20)
@given(n=st.integers(min_value=2, max_value=10**4),
       frac=st.floats(min_value=0.0, max_value=3.0).filter(lambda f: abs(f - 1) >= 1e-3),
       picks=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                      min_size=3, max_size=3))
def test_large_chain_spectrum(n, frac, picks):
    spec = ChainSpec(n, 1.0, frac * gamma_critical(n))
    energies = _check_large_chain(spec)
    # the oracle's Newton on the recurrence, independent of the Bethe roots
    for u in picks:
        e = energies[int(u * n)]
        assert abs(refine_eigenvalue(spec, e) - e) <= 1e-10


@pytest.mark.parametrize("frac", [0.5, 1.5])
def test_spectrum_at_n_1e5(frac):
    _check_large_chain(ChainSpec(10**5, 1.0, frac * gamma_critical(10**5)))
