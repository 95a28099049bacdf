import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptchain import (ChainSpec, Phase, build_hamiltonian, classify_phase,
                     critical_levels, critical_sweep, gamma_critical,
                     locate_critical_gamma, refine_eigenvalue, solve_kappa,
                     solve_spectra, solve_spectrum, spectral_distance)
from ptchain import bethe
from ptchain.bethe import (_bracketed_roots, _centre_coefficients, _counting_phase,
                           _offset_brackets, _pair_point, _pair_roots, raw_amplitude)
from ptchain.errors import DomainError, NonConvergence, PhaseError, PTChainError


def _real_momenta(spec):
    """The real k of `solve_spectrum`, ascending: those of zero imaginary part, less
    the two entries of the coalesced pair at pi/2 at an exact coalescence."""
    sol = solve_spectrum(spec)
    k = sol.k[sol.k.imag == 0].real
    if sol.phase is Phase.CRITICAL:
        mid = spec.n_sites // 2 - 1
        k = np.delete(k, [mid, mid + 1 + spec.n_sites % 2])
    return k


def test_roots_n3_gamma_one():
    # G reduces to 2 J^2 sin(3k) cos(k); its null-state root k = pi lies
    # outside the scanned interval (0, pi).
    roots = _real_momenta(ChainSpec(3, 1.0, 1.0))
    assert np.allclose(roots, [np.pi / 3, np.pi / 2, 2 * np.pi / 3], atol=1e-12)


def test_roots_n2_energies():
    roots = _real_momenta(ChainSpec(2, 1.0, 0.6))
    energies = np.sort(-2 * np.cos(roots))
    assert np.allclose(energies, [-0.8, 0.8], atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_roots_hermitian_limit(n):
    roots = _real_momenta(ChainSpec(n, 1.0, 0.0))
    expected = np.pi * np.arange(1, n + 1) / (n + 1)
    assert np.allclose(roots, expected, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_roots_at_gamma_equals_hopping(n):
    # theta_k = 0 there, so the roots sit at n_k pi / N plus the zero mode.
    roots = _real_momenta(ChainSpec(n, 1.0, 1.0))
    expected = np.sort(np.append(np.pi * np.arange(1, n) / n, np.pi / 2))
    assert np.allclose(roots, expected, atol=1e-12)


# worst |N k - theta(k) - m pi| measured over the grid below: 9.1e-13 (N = 1000)
_LEVEL_TOL = 2e-12


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 1000, 1001])
def test_quantization_identity_on_every_real_root(n):
    # every real root but odd N's zero mode is a level N k - theta(k) = m pi
    # of the counting function, with theta = atan(c tan k) on its principal
    # branch and m in [0, N]; the zero mode is a root of G's factor cos k,
    # exactly pi/2, and at gamma = J, where c = 0 and theta = 0, no level
    for j in (0.5, 1.0, 3.0):
        gc = gamma_critical(n, j)
        fracs = [0.0, 0.3, 0.9, 1 - 1e-12, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 1e9]
        for gamma in [*(gc * np.array(fracs)), j]:
            spec = ChainSpec(n, j, float(gamma))
            k = _real_momenta(spec)
            if n % 2:
                assert k[len(k) // 2] == math.pi / 2, gamma
                k = np.delete(k, len(k) // 2)
            r = gamma / j
            c = (r * r - 1) / (r * r + 1)
            level = n * k - np.arctan(c * np.tan(k))
            m = np.round(level / math.pi)
            assert np.max(np.abs(level - m * math.pi), initial=0.0) <= _LEVEL_TOL, gamma
            assert ((0 <= m) & (m <= n)).all(), gamma


def test_no_scanned_root_is_a_null_state():
    # The amplitude vanishes for every l only at k in {0, pi}, which no
    # bracket reaches, so the solver needs no per-root null-state filter.
    for n in range(2, 81):
        gc = gamma_critical(n)
        for gamma in (0.0, 0.3 * gc, 0.9 * gc, gc - 1e-9, gc, gc + 1e-9,
                      1.0, 1.5 * gc, 2.0 * gc):
            spec = ChainSpec(n, 1.0, gamma)
            for k in _real_momenta(spec):
                assert np.max(np.abs(raw_amplitude(spec, k))) >= 0.5, (n, gamma, k)


def test_sign_count_equals_solved_count():
    # the solve gives N real roots where the phase rule (the sign of c0)
    # says unbroken and N-2 elsewhere, even at gamma_c itself
    for n in range(2, 81):
        for j in (0.5, 1.0, 3.0):
            gc = gamma_critical(n, j)
            for frac in (0.0, 0.3, 0.9, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 2.0):
                spec = ChainSpec(n, j, frac * gc)
                expected = n if classify_phase(spec) is Phase.UNBROKEN else n - 2
                assert len(_real_momenta(spec)) == expected, (n, j, frac)


def test_root_count_transition():
    for n in (6, 7, 11, 20):
        gc = gamma_critical(n)
        assert len(_real_momenta(ChainSpec(n, 1.0, gc - 1e-3))) == n
        assert len(_real_momenta(ChainSpec(n, 1.0, gc + 1e-3))) == n - 2


def test_root_detection_survives_near_coalescence():
    # The two roots straddling pi/2 sit ~2e-4 apart here, both in the one
    # bracket centred on pi/2; their offset from pi/2 is solved directly.
    n = 20
    spec = ChainSpec(n, 1.0, gamma_critical(n) - 1e-5)
    assert len(_real_momenta(spec)) == n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 255, 256, 1001])
def test_locate_critical_gamma(n):
    assert locate_critical_gamma(n) == pytest.approx(gamma_critical(n), abs=1e-6)


@pytest.mark.parametrize("j", [1e-300, 1e-6])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 100, 101])
def test_locate_critical_gamma_reaches_the_float_spacing_at_any_j(n, j):
    # the bisection runs to the float spacing at gamma_c, at any J: one that
    # stopped at an absolute width of 1e-6 would read 1.35e-300 for N = 9 at
    # J = 1e-300, 21% off gamma_c
    assert abs(locate_critical_gamma(n, j) - gamma_critical(n, j)) <= 1e-6 * j


# float.hex of gamma_c bisected to the float where the phase rule flips
PINNED_GAMMA_C = {
    1.0: ["0x1.0000000000000p+0", "0x1.6a09e667f3bccp+0", "0x1.0000000000000p+0",
          "0x1.1e3779b97f4a8p+0", "0x1.0000000000000p+0", "0x1.028c1d959b062p+0",
          "0x1.0000000000000p+0"],
    3.0: ["0x1.8000000000000p+1", "0x1.0f876ccdf6cdap+2", "0x1.8000000000000p+1",
          "0x1.ad5336963eefcp+1", "0x1.8000000000000p+1", "0x1.83d22c6068892p+1",
          "0x1.8000000000000p+1"],
}


@pytest.mark.parametrize("j", sorted(PINNED_GAMMA_C))
def test_locate_critical_gamma_is_pinned(j):
    got = [locate_critical_gamma(n, j).hex() for n in (2, 3, 8, 9, 100, 101, 1000)]
    assert got == PINNED_GAMMA_C[j]


def _bisection_by_pair_roots(n, j):
    """locate_critical_gamma as a loop of pair solves: all N roots are real where its t > 0."""
    def is_unbroken(g):
        return _pair_roots([ChainSpec(n, j, g)])[0] > 0

    lo, hi = 0.5 * j, 2.2 * j
    assert is_unbroken(lo) and not is_unbroken(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if is_unbroken(mid):
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("j", [1e-300, 1e-3, 0.5, 1.0, 3.0, 1e6, 1e300])
def test_locate_critical_gamma_is_the_loop_of_root_counts(j):
    # the bisection reads only the sign of c0 and must take the same steps
    # as one that solves the pair at each midpoint, whose sign says whether
    # the pair, and so every root, is real.  It ends on a float where the
    # phase rule flips between it and its neighbour, within 2 ulp of the
    # closed form
    for n in [*range(2, 200), 255, 256, 1000, 1001, 4096, 4097, 10**5, 10**6 + 1]:
        got = locate_critical_gamma(n, j)
        assert got.hex() == _bisection_by_pair_roots(n, j).hex(), n
        below = classify_phase(ChainSpec(n, j, got)) is Phase.UNBROKEN
        other = math.nextafter(got, math.inf if below else 0.0)
        assert (classify_phase(ChainSpec(n, j, other)) is Phase.UNBROKEN) is not below, n
        gc = gamma_critical(n, j)
        assert abs(got - gc) <= 2 * math.ulp(gc), n


def _phase_at_ends(n, centre, c):
    """The float counting phase at d = -h and d = +h of every bracket, h = pi/(2N)."""
    h = math.pi / (2 * n)
    return (_counting_phase(n, centre, c, d)[0] for d in (-h, h))


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 1000, 1001])
def test_root_count_is_the_sign_test_of_the_solve(n):
    # the solve refines the counting phase from - at the lower end to + at
    # the upper of every bracket past the pair's, so each holds one root in
    # either phase, and the pair is real just where the phase is unbroken
    gc = gamma_critical(n)
    for gamma in gc * np.array([0.0, 0.3, 1 - 1e-12, 1.0, 1 + 1e-12, 1.7, 1e9]):
        spec = ChainSpec(n, 1.0, float(gamma))
        centre, c = _offset_brackets([spec])
        phase_lo, phase_hi = _phase_at_ends(n, centre, c)
        assert (phase_lo < 0).all() and (phase_hi > 0).all(), gamma
        real_pair = _pair_roots([spec])[0] > 0
        assert real_pair == (classify_phase(spec) is Phase.UNBROKEN), gamma
        assert len(_real_momenta(spec)) == 2 * (len(centre) + real_pair) + n % 2, gamma


_CLOSED_FORM_N = [2, 3, 8, 9, 64, 65, 1000, 1001, 10**5, 10**5 + 1]
_CLOSED_FORM_FRACTIONS = [0.0, 0.3, 1 - 1e-15, 1 - 1e-12, 1.0, 1 + 1e-12, 1.7, 1e9]


@pytest.mark.parametrize("n", _CLOSED_FORM_N)
def test_bracket_sides_are_the_closed_form(n):
    # the counting phase is -pi/2 + atan2(c, tan x) < 0 at every bracket's
    # lower end and pi/2 + atan2(c, tan x) > 0 at its upper: the solve never
    # evaluates it at an end, so the float phase there must have exactly
    # those signs, up to gamma/J = 1e150
    gc = gamma_critical(n)
    for r in [*(gc * np.array(_CLOSED_FORM_FRACTIONS)), 1e150]:
        centre, c = _offset_brackets([ChainSpec(n, 1.0, float(r))])
        assert len(centre) == n // 2 - 1 and (c == c[:1]).all(), r
        phase_lo, phase_hi = _phase_at_ends(n, centre, c)
        assert (phase_lo < 0).all() and (phase_hi > 0).all(), r


@pytest.mark.parametrize("n", _CLOSED_FORM_N)
def test_kappa_bracket_side_is_the_closed_form(n):
    # `_pair_roots` solves with side -1 on [-K^2, h^2]: its condition is c0
    # at t = 0, negative at t = -K^2 = -(ln(gamma/J) + 1)^2 (on all of t <= 0
    # for an unbroken spec) and tot sin h (over h for odd N) > 0 at t = h^2,
    # for every spec up to gamma/J = 1e150
    gc = gamma_critical(n)
    h = math.pi / (n if n % 2 else 2 * n)
    ratios = [*(gc * (1 + 10.0 ** -np.arange(15, 2, -1))), *(gc * (1 - 10.0 ** -np.arange(15, 2, -1))),
              *(gc * np.array([0.0, 0.3, 1.0, 1.7, 1e9])), *(10.0 ** np.arange(10, 151, 10))]
    for r in ratios:
        c0, dif = _centre_coefficients(n, float(r))
        k2 = (math.log(max(r, 1.0)) + 1.0) ** 2
        assert _pair_point(n, 0.0, c0, dif)[0] == c0, r
        ends = [-k2, -k2 / 2, -1e-9] if c0 < 0 else [-k2]
        assert all(_pair_point(n, t, c0, dif)[0] < 0 for t in ends), r
        assert _pair_point(n, h * h, c0, dif)[0] > 0, r


@pytest.mark.parametrize("n,r", [(8, 0.5), (9, 0.5), (8, 1.5), (64, 0.9)])
def test_pair_root_bisects_a_step_that_leaves_its_bracket(monkeypatch, n, r):
    # the pair's Newton steps never left [-K^2, h^2] over a scan of 59,740
    # solves; a first slope 1e3 times too shallow throws the step out, and the
    # solve must bisect back instead of converging on a root outside it
    want, point, calls = bethe._pair_root(n, r), bethe._pair_point, []

    def shallow(*args):
        value, slope = point(*args)
        calls.append(args)
        return value, slope * (1e-3 if len(calls) == 1 else 1.0)

    monkeypatch.setattr(bethe, "_pair_point", shallow)
    assert bethe._pair_root(n, r) == pytest.approx(want, rel=1e-12, abs=0.0)


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
    assert len(_real_momenta(spec)) == len(_real_momenta(unit))
    # the kappa residual is the condition divided by J^2
    kappa = np.array([1e-3, 0.1, 0.7])
    assert np.allclose(_scaled_kappa_condition(spec, kappa),
                       _scaled_kappa_condition(unit, kappa), rtol=1e-12, atol=0.0)


def _scaled_kappa_condition(spec, kappa):
    # the kappa condition times e^(-kappa(N+1)) / J^2 (over kappa for odd N),
    # the pair's condition at t = -kappa^2 as the solver reads it
    n = spec.n_sites
    coefficients = _centre_coefficients(n, spec.gamma / spec.hopping)
    return np.array([_pair_point(n, -k * k, *coefficients)[0] for k in np.atleast_1d(kappa)])


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


# (gamma/J, kappa): below kappa = 1, and past it up to gamma/J = 1e150,
# 0.1 either side of the root near ln(gamma/J)
_RESIDUAL_POINTS = [pytest.param(1.3, kappa, id=str(kappa)) for kappa in (1e-3, 0.1, 0.7)] + [
    pytest.param(ratio, kappa, id=f"{ratio:g}-{kappa:.6g}")
    for ratio, kappa in [(1.3, 1.5), (1.3, 5.0)] + [(r, math.log(r) + d) for r in (3.0, 1e4, 1e20, 1e150)
                                                    for d in (-0.1, 0.1)]]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 40, 41])
@pytest.mark.parametrize("ratio,kappa", _RESIDUAL_POINTS)
def test_kappa_residual_is_the_scaled_condition(n, ratio, kappa):
    spec = ChainSpec(n, 1.0, ratio)
    if kappa <= 1:
        fn = math.sinh if n % 2 else math.cosh
        raw = ratio ** 2 * fn(kappa * (n - 1)) - fn(kappa * (n + 1))
        want = 2.0 * math.exp(-kappa * (n + 1)) * raw
    else:  # math.cosh overflows or cancels here
        mp = pytest.importorskip("mpmath")
        fn = mp.sinh if n % 2 else mp.cosh
        with mp.workdps(40):
            k = mp.mpf(kappa)
            raw = mp.mpf(ratio) ** 2 * fn(k * (n - 1)) - fn(k * (n + 1))
            want = float(2 * mp.exp(-k * (n + 1)) * raw)
    want /= 2.0 * (kappa if n % 2 else 1.0)
    assert _scaled_kappa_condition(spec, kappa)[0] == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("ratio", [3.0, 10.0, 1e2, 1e4, 1e8, 1e9, 1e20, 1e150])
def test_kappa_above_one_is_within_two_ulp(ratio):
    # the scaled condition has no term of size r^2 left to cancel, so it
    # keeps kappa to the float spacing up to gamma/J = 1e150
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


def _solve_brackets(specs):
    return _bracketed_roots(specs[0].n_sites, *_offset_brackets(specs))


def test_a_root_outside_its_bracket_is_non_convergence():
    # the pair's own bracket, centred on x = 0, holds no root of the counting
    # phase at c = 0.5: Phi > 0 at both ends, and Newton runs to a root past
    # -pi/(2N).  That root is no bracket's, so the solve raises, and does so
    # without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="^1 bracketed roots .* outside their brackets"):
            _bracketed_roots(8, np.array([0.0]), np.array([0.5]))


@settings(deadline=None, max_examples=30)
@given(n=st.integers(min_value=2, max_value=2000),
       far=st.lists(st.floats(min_value=1e-6, max_value=3.0), min_size=1, max_size=3),
       near=st.lists(st.tuples(st.integers(min_value=3, max_value=15),
                               st.sampled_from([-1.0, 1.0])), max_size=3))
def test_batched_roots_equal_solo_roots(n, far, near):
    # per-bracket parameters leave the iteration with their root, so a root
    # of a batch takes the float steps of its solo solve: the critical pair
    # near gamma_c and far from it mixed in one batch, and the other roots
    gc = gamma_critical(n)
    ratios = far + [gc * (1 + sign * 10.0 ** -e) for e, sign in near]
    specs = [ChainSpec(n, 1.0, r) for r in ratios]
    assert _solve_brackets(specs).tobytes() == b"".join(
        _solve_brackets([s]).tobytes() for s in specs)
    assert _pair_roots(specs).tobytes() == b"".join(_pair_roots([s]).tobytes() for s in specs)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 1000, 1001, 4096])
def test_real_roots_past_the_pair_are_within_four_ulp(n):
    # the offsets x of the first, middle and last brackets past the pair's
    # against 40-digit roots of R at the float gamma/J
    mp = pytest.importorskip("mpmath")
    gc = gamma_critical(n)
    for frac in (0.0, 0.3, 0.97, 1.03, 1.7, 1e9):
        r = float(frac * gc)
        x = _solve_brackets([ChainSpec(n, 1.0, r)])
        assert len(x) == n // 2 - 1, frac
        with mp.workdps(40):
            dif, tot, h = mp.mpf(r) ** 2 - 1, mp.mpf(r) ** 2 + 1, mp.pi / (2 * n)
            shift = mp.pi / 2 if n % 2 else 0

            def reduced(y):
                u = n * y - shift
                return dif * mp.cos(u) * mp.cos(y) + tot * mp.sin(u) * mp.sin(y)

            for b in sorted({0, len(x) // 2, len(x) - 1} & set(range(len(x)))):
                i = n % 2 + 2 * (b + 1)  # the bracket's centre is i h
                want = mp.findroot(reduced, ((i - 1) * h, (i + 1) * h), solver="anderson")
                assert abs(mp.mpf(x[b]) - want) <= 4 * np.spacing(x[b]), (frac, b)


@pytest.mark.parametrize("n", [8, 9, 64, 1000])
def test_unbroken_pair_is_critical_levels_next_to_gamma_c(n):
    # the pair's levels come from its offset, E = +-2J sin x0, not from the
    # rounded k = pi/2 +- x0, so they keep critical_levels' relative accuracy
    # right up to gamma_c
    gc = gamma_critical(n)
    for k in range(4, 16):
        spec = ChainSpec(n, 1.0, gc * (1 - 10.0 ** -k))
        sol = solve_spectrum(spec)
        assert sol.phase is Phase.UNBROKEN, k
        (up, down), _ = critical_levels(spec)
        for got, want in ((sol.energies[n // 2 - 1], down), (sol.energies[(n + 1) // 2], up)):
            assert got.imag == 0.0 and want.imag == 0.0, k
            assert abs(got.real - want.real) <= 4 * np.spacing(abs(want.real)), k


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 1000, 1001])
def test_pair_of_a_mixed_batch_is_its_solo_pair(n):
    # one bracket serves both phases: unbroken, broken and coalesced specs in
    # one batch get the bits of their solo solves, with t > 0, t < 0 and
    # t = 0 as classify_phase reads c0
    gc = gamma_critical(n)
    specs = [ChainSpec(n, 1.0, g) for g in (0.5 * gc, 1.5 * gc, 1.0, 0.5 * gc, 1e140)]
    pairs = _pair_roots(specs)
    assert pairs.tobytes() == b"".join(_pair_roots([s]).tobytes() for s in specs)
    for spec, t in zip(specs, pairs):
        c0 = _centre_coefficients(n, spec.gamma)[0]
        assert np.sign(t) == -np.sign(c0), spec
    if n % 2 == 0:  # gamma = J is gamma_c: the pair has coalesced, E = 0 twice
        assert pairs[2] == 0.0 and classify_phase(specs[2]) is Phase.CRITICAL
        levels = solve_spectrum(specs[2]).energies
        assert np.count_nonzero(levels == 0) == 2


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


def _spectra_digest(solutions):
    """sha256 prefix of every float.hex of each solution's k and energies, in order."""
    text = ",".join(h for sol in solutions for z in (*sol.k.tolist(), *sol.energies.tolist())
                    for h in (z.real.hex(), z.imag.hex()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_PINNED_FRACS = (0.0, 0.3, 0.9, 1 - 1e-9, 1 + 1e-9, 1.5, 10.0)  # gamma / gamma_c

# sha256 prefix of every float.hex of solve_spectrum(...).k and .energies at
# J = 1 and the gammas above, recorded with the safeguarded Newton on the
# real roots, which held lo/hi brackets and a bisection fallback
PINNED_SPECTRA = {
    2: "7450edf988319e83", 3: "2578977d63622e91", 8: "bef11f0758bf442a",
    9: "311014b03c18f5a9", 64: "ac6c30a914c618ea", 65: "cce9e4667286cf1f",
    256: "418878658100d4f3", 257: "7aac80bdc606ee8e", 4096: "1464a10902a26a11",
    4097: "99a010f57d32c150",
}
# the same digest of solve_spectra(1001, 1.0, 21 gammas over [0, 2 gamma_c])
PINNED_SWEEP = "3bff3ad0ddef9b67"


@pytest.mark.parametrize("n", sorted(PINNED_SPECTRA))
def test_spectrum_is_pinned_to_the_bit(n):
    gc = gamma_critical(n)
    sols = [solve_spectrum(ChainSpec(n, 1.0, frac * gc)) for frac in _PINNED_FRACS]
    assert [len(s.k) for s in sols] == [n] * len(sols)
    assert _spectra_digest(sols) == PINNED_SPECTRA[n]


def test_spectra_sweep_is_pinned_to_the_bit():
    gammas = np.linspace(0.0, 2.0 * gamma_critical(1001), 21)
    assert _spectra_digest(solve_spectra(1001, 1.0, gammas)) == PINNED_SWEEP


@pytest.mark.parametrize("n", [8, 9])
def test_spectra_classify_each_spec_once(n, monkeypatch):
    # unbroken, kappa below and past 1, and an exact coalescence (N = 8 at
    # gamma = J): the phases read once feed every solve
    calls = []

    def spy(spec):
        calls.append(spec)
        return classify_phase(spec)

    gc = gamma_critical(n)
    gammas = [0.5 * gc, 1.0, 1.5 * gc, 20.0]
    want = solve_spectra(n, 1.0, gammas)
    monkeypatch.setattr(bethe, "classify_phase", spy)
    got = solve_spectra(n, 1.0, gammas)
    assert [spec.gamma for spec in calls] == gammas
    assert [s.energies.tobytes() for s in got] == [s.energies.tobytes() for s in want]


@pytest.mark.parametrize("gammas,error", [
    ([0.5, -1.0, 1e200], ValueError),
    ([0.5, 1e200, -1.0], DomainError),
    ([1.2, 1e200, 1e300], DomainError),
    ([0.5, math.nan], ValueError),
])
def test_solve_spectra_raises_the_first_failing_gammas_error(gammas, error, monkeypatch):
    # before any solve: the good gamma in front of the bad one is not solved
    calls = []
    monkeypatch.setattr(bethe, "_pair_root", lambda *args: calls.append(args))
    first = next(g for g in gammas if not 0 <= g < 1e150)
    with pytest.raises(error) as batch:
        solve_spectra(8, 1.0, gammas)
    with pytest.raises((ValueError, PTChainError)) as alone:
        solve_spectrum(ChainSpec(8, 1.0, first))
    assert str(batch.value) == str(alone.value)
    assert calls == []


def test_solve_spectra_validates_gamma_like_one_gamma():
    with pytest.raises(ValueError, match="gamma must be"):
        solve_spectra(8, 1.0, [-1.0, 0.5])
    assert solve_spectra(8, 1.0, []) == []


@pytest.mark.parametrize("sweep", [lambda n, j: solve_spectra(n, j, []),
                                   lambda n, j: critical_sweep(n, [], hopping=j)],
                         ids=["solve_spectra", "critical_sweep"])
@pytest.mark.parametrize("n,j,error", [(1, 1.0, "n_sites must be"), (8, -1.0, "hopping must be"),
                                       (8, math.nan, "hopping must be")])
def test_an_empty_grid_still_checks_n_and_j(sweep, n, j, error):
    # as gamma_critical and locate_critical_gamma do, and as any non-empty grid does
    with pytest.raises(ValueError, match=error):
        sweep(n, j)


@pytest.mark.parametrize("call", [lambda g: ChainSpec(5, 1.0, g),
                                  lambda g: solve_spectra(5, 1.0, [g]),
                                  lambda g: critical_sweep(5, [g])],
                         ids=["ChainSpec", "solve_spectra", "critical_sweep"])
def test_an_int_gamma_past_the_floats_raises_the_value_error_of_inf(call):
    # math.isfinite and float() of 10**400 raised a bare OverflowError
    with pytest.raises(ValueError, match="^gamma must be non-negative and finite, got 1000"):
        call(10**400)
    with pytest.raises(ValueError, match="^gamma must be non-negative and finite, got inf$"):
        call(math.inf)


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


def _near_gamma_c(n, j):
    """gamma_c, 8 floats each side of it, and gamma_c (1 +- 10^-k) for k = 6..15."""
    gc = gamma_critical(n, j)
    grid = [gc]
    for direction in (0.0, math.inf):
        g = gc
        for _ in range(8):
            g = math.nextafter(g, direction)
            grid.append(g)
    return grid + [gc * (1 + s * 10.0 ** -k) for k in range(6, 16) for s in (1.0, -1.0)]


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 255, 256, 1000, 1001, 4096, 4097, 10**5 + 1])
def test_one_phase_rule_near_gamma_c(n):
    # the sign of c0 decides the phase; the pair's condition is c0 at t = 0,
    # so its root has the phase's sign, every gamma has all N levels and
    # its pair, and N real roots just where the phase is unbroken
    for j in (0.5, 1.0, 3.0):
        grid = _near_gamma_c(n, j)
        sweep = critical_sweep(n, grid, j)
        for gamma, report, t in zip(grid, sweep, _pair_roots([ChainSpec(n, j, g) for g in grid])):
            spec = ChainSpec(n, j, gamma)
            phase = classify_phase(spec)
            sol = solve_spectrum(spec)
            assert len(sol.energies) == n and sol.phase is phase, gamma
            assert np.sign(t) == {Phase.UNBROKEN: 1, Phase.BROKEN: -1, Phase.CRITICAL: 0}[phase]
            assert len(_real_momenta(spec)) == n - 2 * (phase is not Phase.UNBROKEN), gamma
            assert repr(report) == repr(critical_sweep(n, [gamma], j)[0]), gamma
            levels, _ = critical_levels(spec)
            assert len(levels) == 2 and levels == report.two_levels, gamma


def _kappa_reference(n, gamma, guess):
    """kappa at the float gamma (J = 1) to 50 digits, bracketed around `guess`."""
    mp = pytest.importorskip("mpmath")
    fn = mp.sinh if n % 2 else mp.cosh
    with mp.workdps(50):
        g2 = mp.mpf(gamma) ** 2
        scaled = lambda k: (g2 * fn(k * (n - 1)) - fn(k * (n + 1))) * mp.exp(-k * (n + 1))
        return mp.findroot(scaled, (mp.mpf(guess) / 2, mp.mpf(guess) * 2), solver="anderson")


@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65, 255, 256, 1000, 1001])
def test_kappa_next_to_gamma_c_is_within_its_condition(n):
    # the bounds the solve met while c0 came from r*r - 1 (even N: within
    # |1 - gamma/gamma_c|, that rounding; odd N: within 4 eps/|1 - gamma/gamma_c|,
    # the pair's change under one ulp of gamma); the root in t = x^2 now
    # meets 1e-13 (`test_scripts.py::test_critical_pair_accuracy_script`)
    mp = pytest.importorskip("mpmath")
    gc = gamma_critical(n)
    for k in range(4, 16):
        gamma = gc * (1 + 10.0 ** -k)
        kappa = solve_kappa(ChainSpec(n, 1.0, gamma))
        want = _kappa_reference(n, gamma, kappa)
        offset = abs(1 - gamma / gc)
        bound = 4 * np.finfo(float).eps / offset if n % 2 else max(offset, 2e-14)
        assert abs(mp.mpf(kappa) - want) <= bound * want, k


@pytest.mark.parametrize("n", [2, 3, 8, 9, 20, 21, 56, 64, 65, 128, 255, 256, 1000, 1001])
def test_kappa_below_one_is_within_four_ulp(n):
    mp = pytest.importorskip("mpmath")
    gc = gamma_critical(n)
    for frac in np.linspace(1.25, 2.0, 7):
        gamma = float(frac * gc)
        kappa = solve_kappa(ChainSpec(n, 1.0, gamma))
        if kappa <= 1:
            want = _kappa_reference(n, gamma, kappa)
            assert abs(mp.mpf(kappa) - want) <= 4 * np.spacing(kappa), gamma


def test_pair_root_gives_up_after_its_step_budget(monkeypatch):
    # one safeguarded Newton step does not converge at N = 8, gamma = 1.5 J
    # (at N = 64, gamma = 1.3 J the first step already does)
    monkeypatch.setattr(bethe, "_MAX_ITER", 1)
    with pytest.raises(NonConvergence, match="critical pair not within .* after 1 steps"):
        solve_kappa(ChainSpec(8, 1.0, 1.5))


def test_bracketed_roots_give_up_after_their_step_budget(monkeypatch):
    # one Newton step leaves every root of N = 1000 at gamma = 0.3 J short of
    # the stop rule: all are counted, though each is inside its bracket
    monkeypatch.setattr(bethe, "_MAX_ITER", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence,
                           match="^499 bracketed roots not within 1e-14 after 1 steps"):
            _bracketed_roots(1000, *_offset_brackets([ChainSpec(1000, 1.0, 0.3)]))


@pytest.mark.parametrize("j", [0.5, 1.0, 3.0])
def test_bracketed_roots_stop_after_four_evaluations(j, monkeypatch):
    # no root needs more than 4 Newton evaluations (`_MAX_ITER`'s comment),
    # so the loop leaves once every root is done, one gamma at a time or on
    # a whole grid: finished roots stay in place, so only the count shows it
    calls = []
    counting_phase = bethe._counting_phase

    def spy(*args):
        calls.append(args)
        return counting_phase(*args)

    monkeypatch.setattr(bethe, "_counting_phase", spy)
    for n in [*range(4, 130), 255, 256, 1000, 1001, 4096, 4097, 10**5 + 1]:
        gc = gamma_critical(n, j)
        gammas = [f * gc for f in (0.0, 0.3, 0.9, 1 - 1e-9, 1 + 1e-9, 1.5, 3.0, 1e3)]
        for grid in [[g] for g in gammas + [1e149 * j]] + [gammas + [1e149 * j]]:
            calls.clear()
            solve_spectra(n, j, grid)
            assert 1 <= len(calls) <= 4, (n, grid)
