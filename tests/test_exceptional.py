import cmath
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptchain import (ChainSpec, Phase, alpha_parameter, classify_phase,
                     coalescence_gap, critical_levels, critical_sweep, delta_approx,
                     gamma_critical, kappa_approx, oracle_eigenvector, pt_norm,
                     repulsion_law, solve_kappa)
from ptchain import bethe
from ptchain.errors import DomainError, PhaseError, PTChainError
from ptchain.exceptional import CriticalReport, in_asymptotic_window


def test_alpha_and_delta_n20():
    spec = ChainSpec(20, 1.0, 0.99)
    assert alpha_parameter(spec) == pytest.approx(-99.50251256281408, rel=1e-12)
    delta = delta_approx(spec)
    assert delta == pytest.approx(0.022416509, abs=1e-8)
    assert 2 * math.sin(delta) == pytest.approx(0.044829, abs=1e-5)


def test_delta_vanishes_at_odd_boundary():
    # the side is classify_phase's: the float gamma_c of N = 9 has c0 > 0, so
    # delta_approx does not apply, and the vanishing pair is kappa_approx's,
    # which there is the exact kappa of the pair
    n = 9
    spec = ChainSpec(n, 1.0, gamma_critical(n))
    assert alpha_parameter(spec) == pytest.approx(n, rel=1e-12)
    assert classify_phase(spec) is Phase.BROKEN
    with pytest.raises(PhaseError):
        delta_approx(spec)
    assert kappa_approx(spec) == pytest.approx(4.0244e-9, rel=1e-4)
    assert kappa_approx(spec) == pytest.approx(solve_kappa(spec), rel=1e-15)


def test_delta_domain_error_far_from_boundary():
    # odd N below gamma = J sits outside the asymptotic domain, and so does
    # gamma = J itself, where alpha is infinite, as on the floats next to it
    with pytest.raises(DomainError):
        delta_approx(ChainSpec(9, 1.0, 0.5))
    for n in (3, 9, 21):
        for gamma in (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)):
            with pytest.raises(DomainError, match=r"sqrt\(\(N\^3 \+ 1\)/\(N\^3 - 1\)\)"):
                delta_approx(ChainSpec(n, 1.0, gamma))


def test_delta_requires_unbroken_side():
    with pytest.raises(PhaseError):
        delta_approx(ChainSpec(8, 1.0, 1.3))
    with pytest.raises(PhaseError):
        kappa_approx(ChainSpec(8, 1.0, 0.7))


def test_kappa_approx_against_solver():
    spec = ChainSpec(20, 1.0, 1.01)
    approx = kappa_approx(spec)
    assert approx == pytest.approx(1.0 / math.sqrt(20 * alpha_parameter(spec)),
                                   rel=1e-12)
    assert approx == pytest.approx(solve_kappa(spec), rel=0.05)


@pytest.mark.parametrize("j", [1e-300, 1e-200, 1e200, 1e300])
def test_alpha_and_approximations_scale_with_hopping(j):
    # alpha and both approximations depend on gamma/J alone; gamma^2 - J^2
    # overflowed to NaN past J = 1e154 and underflowed to 0 below 1e-154,
    # which gave alpha NaN or inf and approximations of 0.0
    for n in (8, 9, 20, 21):
        gc = gamma_critical(n)
        for frac, approx in ((0.99, delta_approx), (1.01, kappa_approx)):
            spec = ChainSpec(n, j, frac * gc * j)
            unit = ChainSpec(n, 1.0, spec.gamma / spec.hopping)
            assert alpha_parameter(spec) == pytest.approx(alpha_parameter(unit), rel=4e-16)
            assert approx(spec) == pytest.approx(approx(unit), rel=4e-16) and approx(unit) > 0
    (report,) = critical_sweep(8, [1.01 * j], hopping=j)
    (unit,) = critical_sweep(8, [1.01])
    assert report.delta_or_kappa == pytest.approx(unit.delta_or_kappa, rel=4e-16)
    assert report.analytic_pair[0] == pytest.approx(j * unit.analytic_pair[0], rel=1e-15)
    assert report.analytic_pair[0].imag > 0


def test_kappa_zero_at_boundary():
    assert kappa_approx(ChainSpec(8, 1.0, 1.0)) == 0.0


def test_repulsion_law_values():
    plus, minus = repulsion_law(ChainSpec(20, 1.0, 0.99))
    assert plus == pytest.approx(2 * math.sqrt(0.01 / 20), rel=1e-12)
    assert minus == -plus
    assert repulsion_law(ChainSpec(20, 1.0, 1.0)) == (0.0, 0.0)


def test_repulsion_even_odd_prefactor():
    # at equal relative offset the odd prefactor is sqrt(3) times the even one
    rel = 1e-3
    even = repulsion_law(ChainSpec(20, 1.0, 1.0 - rel))[0]
    assert even == pytest.approx(2 * math.sqrt(rel / 20), rel=1e-12)
    gc = gamma_critical(19)
    odd = repulsion_law(ChainSpec(19, 1.0, gc * (1.0 - rel)))[0]
    assert odd == pytest.approx(math.sqrt(3) * 2 * math.sqrt(rel / 19), rel=1e-12)


def test_delta_approx_agrees_with_repulsion_to_first_order():
    n = 20
    ratios = []
    for off in (1e-2, 1e-4, 1e-6):
        spec = ChainSpec(n, 1.0, 1.0 - off)
        ratios.append(2 * math.sin(delta_approx(spec)) / repulsion_law(spec)[0])
    assert abs(ratios[-1] - 1.0) < 1e-4
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + 1e-12


def test_prediction_vs_exact_small_offsets_n19():
    # the unified square-root form tracks the exact pair to 5% through
    # |gamma - gamma_c| = 0.01 gamma_c
    gc = gamma_critical(19)
    for rel_off in (1e-3, 5e-3, 1e-2):
        spec = ChainSpec(19, 1.0, gc * (1 - rel_off))
        levels, _ = critical_levels(spec)
        predicted = repulsion_law(spec)[0]
        assert abs(predicted - levels[0].real) / levels[0].real < 0.05, rel_off


def test_exchange_symmetry_of_critical_levels():
    for n in (19, 20):
        gc = gamma_critical(n)
        for rel_off in (1e-3, 5e-3):
            below = ChainSpec(n, 1.0, gc * (1 - rel_off))
            above = ChainSpec(n, 1.0, gc * (1 + rel_off))
            lb, _ = critical_levels(below)
            la, _ = critical_levels(above)
            assert abs(lb[0].real) == pytest.approx(abs(la[0].imag), rel=0.10)


def test_sqrt_slope_n20():
    gc = gamma_critical(20)
    offsets = gc * np.logspace(-4, -2, 9)
    mags = []
    for off in offsets:
        levels, _ = critical_levels(ChainSpec(20, 1.0, gc - off))
        mags.append(abs(levels[0]))
    slope = np.polyfit(np.log(offsets), np.log(mags), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_critical_sweep_gap_monotone():
    n = 20
    gc = gamma_critical(n)
    gammas = [0.5 * gc, gc - 1e-2, gc - 1e-3, gc - 1e-4,
              gc + 1e-4, gc + 1e-3, gc + 1e-2]
    reports = critical_sweep(n, gammas)
    gaps = [r.coalescence_gap for r in reports]
    assert gaps[0] > 0.1                      # far from the boundary: O(1)
    assert gaps[1] > gaps[2] > gaps[3]        # shrinking from below
    assert gaps[4] < gaps[5] < gaps[6]        # growing away above
    assert gaps[3] < 1e-1 and gaps[4] < 1e-1
    for r in reports:
        assert not r.skipped
        assert abs(r.two_levels[0] + r.two_levels[1]) < 1e-12


def test_critical_sweep_flags_boundary_point():
    # gamma_c = J exactly: the coalesced pair, E = 0 twice with one vector
    n = 8
    reports = critical_sweep(n, [0.5, 1.0, 1.2])
    assert [r.skipped for r in reports] == [False, False, False]
    assert reports[1].two_levels == (0j, 0j) == reports[1].analytic_pair
    assert math.copysign(1.0, reports[1].two_levels[1].imag) == 1.0  # never a -0
    assert reports[1].coalescence_gap == 0.0
    assert reports[1].pt_norms == (0j, 0j)


def test_critical_sweep_window_scales_with_n():
    # the window is N |gamma - gamma_c| / gamma_c, not |gamma - gamma_c| / gamma_c
    n = 200
    gc = gamma_critical(n)
    assert not critical_sweep(n, [0.99 * gc])[0].in_window
    near = critical_sweep(n, [gc * (1 - 0.2 / n), gc * (1 + 0.2 / n)])
    assert [r.in_window for r in near] == [True, True]


def test_window_excludes_odd_n_domain_errors():
    # odd N: delta_approx raises at and below gamma/J = sqrt((N^3 + 1)/(N^3 - 1)),
    # at scaled distances between 0.80 (N = 3) and 1 (large N); each gamma
    # takes the approximation of classify_phase's side
    for n in (3, 5, 19, 199):
        gc = gamma_critical(n)
        gammas = list(gc * (1 - np.linspace(0.0, 1.5, 1501) / n))
        gammas += [1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 0.5 / n**3]
        for gamma in gammas:
            spec = ChainSpec(n, 1.0, float(gamma))
            if in_asymptotic_window(spec):
                broken = classify_phase(spec) is not Phase.UNBROKEN
                (kappa_approx if broken else delta_approx)(spec)  # must not raise DomainError


def _formula(n, r, broken):
    """The leading-order delta (kappa if `broken`) at the float r, to 60 digits.

    None where its radicand is negative or alpha is infinite: there the
    library raises DomainError.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        r, s = mp.mpf(r), 1 if broken else -1
        dif = r * r - 1
        if dif == 0:
            return None if n % 2 else mp.mpf(0)
        alpha = 1 + 2 / dif
        radicand = 1 / (s * n * alpha) if n % 2 == 0 else 3 * s * (n - alpha) / (n**3 - alpha)
        return mp.sqrt(radicand) if radicand >= 0 else None


def _assert_formula_holds(spec, value):
    # the value at spec, NaN or the approximation's, is the formula's on
    # classify_phase's side to 1e-15, NaN just where the formula has no value
    broken = classify_phase(spec) is not Phase.UNBROKEN
    want = _formula(spec.n_sites, spec.gamma / spec.hopping, broken)
    if want is None:
        assert math.isnan(value), spec
    else:
        assert abs(value - want) <= 1e-15 * want, (spec, value, want)


@pytest.mark.parametrize("n", [3, 9, 33, 65])
@pytest.mark.parametrize("j", [1.0, 3.0])
def test_approximations_are_their_formula_next_to_gamma_c(n, j):
    # gamma_c (1 +- 10^-k), k = 1..15: N - alpha cancels next to gamma_c, and
    # was off by up to 8e-3 when formed
    gc = gamma_critical(n, j)
    for k in range(1, 16):
        for side in (1, -1):
            spec = ChainSpec(n, j, gc * (1 + side * 10.0 ** -k))
            broken = classify_phase(spec) is not Phase.UNBROKEN
            try:
                value = (kappa_approx if broken else delta_approx)(spec)
            except DomainError:
                value = math.nan
            _assert_formula_holds(spec, value)


def test_critical_sweep_next_to_gamma_c_has_no_nan():
    # the side of the asymptotic pair is the report's own (c0): no float
    # next to gamma_c is NaN.  At N = 29, J = 3 the float gamma_c put this
    # point on the broken side, where c0 < 0 says unbroken
    gamma = float.fromhex("0x1.8d7a4e9f4f80bp+1")
    (report,) = critical_sweep(29, [gamma], hopping=3.0)
    assert report.delta_or_kappa == pytest.approx(7.4579e-10, rel=1e-4)
    assert report.analytic_pair[0] == pytest.approx(report.two_levels[0], rel=1e-6)
    for j in (0.5, 3.0):
        for n in range(3, 130, 2):
            gammas = [gamma_critical(n, j)]
            for _ in range(4):
                gammas = [math.nextafter(gammas[0], 0.0), *gammas, math.nextafter(gammas[-1], 9.0)]
            for report in critical_sweep(n, gammas, hopping=j):
                assert not math.isnan(report.delta_or_kappa), (n, j, report.gamma)
                assert not any(map(cmath.isnan, report.analytic_pair)), (n, j, report.gamma)


def test_critical_sweep_pt_norms_shrink():
    n = 19
    gc = gamma_critical(n)
    reports = critical_sweep(n, [gc - 1e-2, gc - 1e-3, gc + 1e-3])
    assert abs(reports[1].pt_norms[0]) < abs(reports[0].pt_norms[0])
    assert abs(reports[2].pt_norms[0]) < 1e-10  # identically zero when broken


def test_coalescence_gap_bounds():
    u = np.array([1.0, 0.0])
    assert coalescence_gap(u, u) == 0.0
    assert coalescence_gap(u, np.array([0.0, 1.0])) == 1.0


def test_coalescence_gap_at_any_scale_rejects_a_nonfinite_or_zero_vector():
    # the gap does not depend on scale: no component squares out of the
    # float range; a NaN or inf vector is no coalesced pair, and a zero
    # vector has no direction (run with warnings as errors)
    for bad in ([math.inf, 1.0], [math.nan, 1.0], [1.0, complex(1.0, -math.inf)]):
        for pair in ((bad, [1.0, 0.0]), ([1.0, 0.0], bad)):
            with pytest.raises(ValueError, match="non-finite vector"):
                coalescence_gap(*pair)
    with pytest.raises(ValueError, match="zero vector"):
        coalescence_gap([0.0, 0.0], [1.0, 0.0])
    u, w = np.array([1.0, 1.0]), np.array([3.0, -1.0])
    want = [coalescence_gap(u, u), coalescence_gap(u, w), coalescence_gap(1j * u, w)]
    assert want[0] <= 4e-16 and want[1] == want[2] == pytest.approx(1 - 2 / 20**0.5)
    for scale in (1e200, 1e-200, 1.7e308, 2.0**700, 2.0**-700, 2.0**-1074):
        big = scale * u
        got = [coalescence_gap(big, big), coalescence_gap(big, w), coalescence_gap(1j * big, w)]
        assert got == pytest.approx(want, rel=0, abs=1e-15), scale
        if math.frexp(scale)[0] == 0.5:  # a power of two: the bits of scale 1
            assert got == want, scale
    ones = np.ones(3)  # |<u,u>| / ||u||^2 rounds above 1: the gap stays 0
    assert coalescence_gap(ones, ones) == 0.0


def _hexes(value):
    if isinstance(value, bool):
        return [str(value)]
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    return [h for v in value for h in _hexes(v)]


def _digest(reports):
    fields = list(CriticalReport.__dataclass_fields__)
    text = ",".join(h for r in reports for f in fields for h in _hexes(getattr(r, f)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _log_grid(n):
    # |gamma - gamma_c| / gamma_c from 1e-4 to 1e-2 on each side, 13 points each
    gc = gamma_critical(n)
    offsets = gc * np.logspace(-4.0, -2.0, 13)
    return np.concatenate([gc - offsets[::-1], gc + offsets])


# sha256 prefix of every report field's float.hex, recorded with the
# per-gamma sweep that solved each critical pair on its own; re-recorded
# when kappa <= 1 moved to R continued to x = i kappa, which moved the
# broken side's two_levels, coalescence_gap and pt_norms in their last bits,
# and again when that condition lost its terms of size (gamma/J)^2 to cancel
# and took over every kappa, which moved the same fields by rounding: a
# median 3 ulp, and up to 1.7e3 ulp at 1e-4 from an odd-N gamma_c, inside
# the odd-N bound 4 eps/|1 - gamma/gamma_c| of README; and again when the
# broken pair's + branch became the PT image of the - branch, which moved
# the broken side's coalescence_gap by up to 5.3e-15 and pt_norms by up to
# 4.3e-15 (the formula's + branch had a coefficient that cancelled to
# rounding noise); and again when one root in t = x^2 gave the pair on both
# sides of gamma_c from a correctly rounded c0: the pair's levels moved by
# up to 3.4e-13 relative (median 1.2e-14), from up to 3.4e-13 off a
# 60-digit root at the float gamma to within 5.7e-16 of it.  Odd N again
# when the odd-N radicand took N - alpha as c0/dif, with no cancellation:
# delta_or_kappa and analytic_pair moved by a median 5 ulp and up to 815 ulp,
# from up to 1.2e-13 off the formula's 60-digit value at the float gamma to
# within 2.2e-16 of it
PINNED_LOG_GRID = {
    2: "e5f0e916fc7a9860", 3: "b72548ae00f1042c", 4: "bdea697a04d784fd",
    5: "ceebc2fe223300bb", 6: "d25f37f8609db853", 7: "0b1f23ae56ddd0ef",
    8: "e4a39ddbb2672974", 9: "fbe56d1dcdf93830", 10: "6b4e46c304ba8ac9",
    11: "b93136ae09a4466f", 12: "5cdc04a92f18f351", 13: "7ae379e71557fa45",
    14: "77ad488081bd2a90", 15: "0137d0f5ed4171a4", 16: "4fb59d451f3ad0ff",
    17: "561d9b3beab66d23", 18: "49e9e369688288e1", 19: "cf3572692089fa42",
    20: "5db56d73c13fb2be", 21: "13e12b4cb88d251b", 22: "d2570a1e44355cdc",
    23: "afcb83d4973840a6", 24: "5039c0f5911ad11f", 25: "d36f03210cd02f2c",
    26: "836d2cd5cd923040", 27: "604dca14a6696264", 28: "ef71fd967add0ac9",
    29: "7f08bad7d222ae48", 30: "1878e91eb694c249", 31: "e2754ca55835e6a5",
    32: "5c5fb00636719ae2", 33: "2d6b6642215c135b", 34: "fe8e304bc0f16b14",
    35: "6744a5422ed606bd", 36: "ad498bc6d3ac658b", 37: "ccfa3cf966ce18d3",
    38: "e36cdc292529173f", 39: "8dd9099b0e34cccc", 40: "4b8ab3a3d794af34",
    41: "34fd6d4e6601227f", 42: "94fefc9d17af24ef", 43: "bb166ff88dd4b54e",
    44: "15eea30766747acb", 45: "10f4c9e03ee1be0a", 46: "7ef8201708e1103c",
    47: "8d3c1a666cfca937", 48: "10a88b103b05b40c", 49: "9c87c35af5efa2d8",
    50: "52c2364d9f9c17da", 51: "2dbb8fc7e525dbfb", 52: "6c175f7006b07695",
    53: "77fd9f02c7f5c01a", 54: "f98836983a97add3", 55: "18322bd1cd2a2cb2",
    56: "a3aa125ecd0052f9", 57: "eca88182336a1c29", 58: "1497b8b0701da8eb",
    59: "2e652e09184e022a", 60: "b37e1500eef71bc5", 61: "9c744cb1bf4294c7",
    62: "51b145bf0bc78906", 63: "d4c14c057daae49c", 64: "eae61e9f4f8e97b1",
    65: "76770faac57f68fb", 66: "3230fd79d751e627", 67: "1a45a5b532f2045b",
    68: "a3129984bc931118", 69: "c60d944bd4e323d8", 70: "8dbd6698f7efc1a4",
    71: "8079270a5bdf9f6c", 72: "af5946f3e260b6f5", 73: "3be0c8c2ce2d3c50",
    74: "4b1f37ce427cfeef", 75: "e13c6e4dfb63ea0d", 76: "c997bb09c30e966a",
    77: "6d4b6f278af9d10f", 78: "aee671c8ed900488", 79: "43914384a8633195",
    128: "416b42ea4b8ee5b0", 200: "45d5c2a8035f6c07", 255: "daec472905269294",
    256: "6d81bb17605a44b2", 1000: "b69d492004ac10d6",
}
# re-recorded with the log grid; these grids also hold gamma_c itself, which
# now reports the coalesced pair.  Before that, N = 3 was re-recorded when
# kappa > 1 moved to the log-form condition: its point at 2 gamma_c has
# kappa = 1.03, now the correctly rounded value (was 1.2 ulp off).  All six
# were re-recorded when one kappa condition replaced the log form: the
# broken points' kappa moved by rounding, most of all at the float gamma_c
# of odd N, where kappa is set by rounding alone.  All six again with the
# PT-image + branch: N = 65 at 1.5 gamma_c held |pt_norms| 7.7e-5 and a gap
# 1.5e-5 below the oracle's, from the + vector that was no eigenvector.  All
# six again with the root in t = x^2: at the float gamma_c of odd N, kappa
# was 29-38% off the 60-digit root there (set by the rounding of r*r - 1),
# and now is within 5.7e-16 of it.  N = 3, 9 and 65 again with the odd-N
# radicand in c0/dif: at the float gamma_c, which is broken for all three,
# kappa_approx was 0.6-10% off its formula (N = 9: 3.85e-9 against 4.02e-9)
PINNED_MIXED_GRID = {
    2: "a25bfd5db0237d95", 3: "d86914afea506e9d", 8: "e6c2a4b122d800e3",
    9: "5876d4f26aaa4609", 64: "f5de46229e4181bf", 65: "a7fb068d4f87802f",
}


def _assert_pairs_hold(n, reports):
    # a digest pins bits, not physics: before it is read, every broken pair
    # is PT self-orthogonal, every delta_or_kappa is its formula's to 1e-15
    # and every gap is that of the pair the oracle gives from the recurrence
    for report in reports:
        spec = ChainSpec(n, 1.0, report.gamma)
        _assert_formula_holds(spec, report.delta_or_kappa)
        if classify_phase(spec) is not Phase.UNBROKEN:
            assert max(map(abs, report.pt_norms)) <= 1e-12, report.gamma
        u, v = oracle_eigenvector(spec, report.two_levels)
        assert abs(report.coalescence_gap - coalescence_gap(u, v)) <= 1e-10, report.gamma


@pytest.mark.parametrize("n", sorted(PINNED_LOG_GRID))
def test_critical_sweep_is_pinned_on_the_log_grid(n):
    reports = critical_sweep(n, _log_grid(n))
    _assert_pairs_hold(n, reports)
    assert _digest(reports) == PINNED_LOG_GRID[n]


@pytest.mark.parametrize("n", [1001, 4096, 4097])
def test_critical_sweep_gap_matches_the_oracle_on_the_log_grid(n):
    # the pinned grids' oracle check at large N (N = 1000 is pinned)
    _assert_pairs_hold(n, critical_sweep(n, _log_grid(n)))


@pytest.mark.parametrize("n", sorted(PINNED_MIXED_GRID))
def test_critical_sweep_is_pinned_across_both_phases(n):
    # 0 to 2 gamma_c in 9 steps: gamma = 0, gamma_c exactly (coalesced) and
    # odd-N points where the asymptotic formulas give NaN
    reports = critical_sweep(n, np.linspace(0.0, 2 * gamma_critical(n), 9))
    _assert_pairs_hold(n, reports)
    assert _digest(reports) == PINNED_MIXED_GRID[n]


@pytest.mark.parametrize("gammas,error", [
    ([0.5, -1.0, 1e200], ValueError),
    ([1.2, 1e200, -1.0], DomainError),
])
def test_critical_sweep_raises_the_first_failing_gammas_error(gammas, error, monkeypatch):
    # before any solve: the good gamma in front of the bad one is not solved
    with monkeypatch.context() as patch:
        calls = []
        patch.setattr(bethe, "_pair_root", lambda *args: calls.append(args))
        with pytest.raises(error) as batch:
            critical_sweep(8, gammas)
        assert calls == []
    for gamma in gammas:  # the same error as the per-gamma sweep's
        try:
            critical_sweep(8, [gamma])
        except (ValueError, DomainError, PhaseError) as exc:
            assert str(exc) == str(batch.value)
            break


@pytest.mark.parametrize("n,offset", [(8, 1e-11), (9, 2e-11)])
def test_critical_sweep_reads_the_phase_at_its_phase_tol(n, offset):
    # broken, inside what was a 1e-9 J Critical band: the report holds the
    # kappa pair, not a real pair from another bracket
    gamma = gamma_critical(n) + offset
    (report,) = critical_sweep(n, [gamma])
    law, _ = repulsion_law(ChainSpec(n, 1.0, gamma))
    assert not report.skipped
    assert report.two_levels[0].real == 0.0 == report.two_levels[1].real
    assert report.two_levels[0].imag == pytest.approx(law, rel=1e-5)
    assert report.two_levels[1] == report.two_levels[0].conjugate()
    assert report.coalescence_gap < 1e-9
    assert max(map(abs, report.pt_norms)) < 1e-12


def test_critical_levels_at_even_gamma_c_has_no_pair():
    # the pair has coalesced at pi/2 and its bracket holds no root: the
    # broken side's formulas at kappa = 0 give E = 0 twice and one vector
    # twice, not the next bracket's root
    levels, (u, v) = critical_levels(ChainSpec(8, 1.0, 1.0))
    assert levels == (0j, 0j)
    assert np.array_equal(u, v) and np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
    assert pt_norm(u) == 0


def _gammas_across_both_phases(n):
    # gamma = 0, gamma_c itself (coalesced), gamma_c (1 +- 1e-9..1e-3) and
    # points anywhere up to 3 gamma_c
    gc = gamma_critical(n)
    near = st.floats(-9.0, -3.0).map(lambda e: 10.0 ** e)
    return st.one_of(st.sampled_from([0.0, gc]),
                     near.map(lambda e: gc * (1 - e)), near.map(lambda e: gc * (1 + e)),
                     st.floats(0.0, 3 * gc))


@settings(deadline=None, max_examples=40)
@given(data=st.data(), n=st.integers(min_value=2, max_value=300))
def test_critical_sweep_batch_equals_its_one_gamma_sweeps(data, n):
    grid = data.draw(st.lists(_gammas_across_both_phases(n), min_size=1, max_size=10))
    error = _first_solo_error(n, grid)
    if error is not None:
        with pytest.raises(type(error), match=re.escape(str(error))):
            critical_sweep(n, grid)
        return
    batch = critical_sweep(n, grid)
    assert len(batch) == len(grid)
    for gamma, report in zip(grid, batch):
        (solo,) = critical_sweep(n, [gamma])
        for field in CriticalReport.__dataclass_fields__:
            assert _hexes(getattr(report, field)) == _hexes(getattr(solo, field)), field
        if not report.skipped:
            levels, vectors = critical_levels(ChainSpec(n, 1.0, gamma))
            assert _hexes(levels) == _hexes(report.two_levels)
            unit = [v / np.linalg.norm(v) for v in vectors]
            assert _hexes(coalescence_gap(*unit)) == _hexes(report.coalescence_gap)


def test_critical_sweep_of_an_empty_grid_is_empty():
    assert critical_sweep(8, []) == []


@settings(deadline=None, max_examples=30)
@given(data=st.data(), n=st.integers(min_value=2, max_value=300),
       bad=st.sampled_from([-1.0, math.nan, 1e200]))
def test_critical_sweep_raises_the_first_failing_gamma(data, n, bad):
    grid = data.draw(st.lists(_gammas_across_both_phases(n), max_size=6))
    grid.insert(data.draw(st.integers(0, len(grid))), bad)
    error = _first_solo_error(n, grid)
    assert isinstance(error, DomainError if bad == 1e200 else ValueError)
    with pytest.raises(type(error), match=re.escape(str(error))):
        critical_sweep(n, grid)


def _first_solo_error(n, grid):
    """The error of the first gamma whose one-gamma sweep fails, or None."""
    for gamma in grid:
        try:
            critical_sweep(n, [gamma])
        except (ValueError, PTChainError) as exc:
            return exc
    return None
