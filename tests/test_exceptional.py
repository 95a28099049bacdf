import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptchain import (ChainSpec, Phase, alpha_parameter, build_hamiltonian, classify_phase,
                     coalescence_gap, critical_levels, critical_sweep, delta_approx,
                     gamma_critical, kappa_approx, oracle_eigenvector, pt_norm,
                     repulsion_law, solve_kappa)
from ptchain.errors import DomainError, PhaseError, PTChainError
from ptchain.exceptional import CriticalReport, in_asymptotic_window


def test_alpha_and_delta_n20():
    spec = ChainSpec(20, 1.0, 0.99)
    assert alpha_parameter(spec) == pytest.approx(-99.50251256281408, rel=1e-12)
    delta = delta_approx(spec)
    assert delta == pytest.approx(0.022416509, abs=1e-8)
    assert 2 * math.sin(delta) == pytest.approx(0.044829, abs=1e-5)


def test_delta_vanishes_at_odd_boundary():
    n = 9
    spec = ChainSpec(n, 1.0, gamma_critical(n))
    assert alpha_parameter(spec) == pytest.approx(n, rel=1e-12)
    assert delta_approx(spec) == pytest.approx(0.0, abs=1e-12)


def test_delta_domain_error_far_from_boundary():
    # odd N below gamma = J sits outside the asymptotic domain
    with pytest.raises(DomainError):
        delta_approx(ChainSpec(9, 1.0, 0.5))


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
    # odd N: delta_approx raises for gamma below J and just above it, at
    # scaled distances between 0.88 (N = 3) and 1 (large N)
    for n in (3, 5, 19, 199):
        gc = gamma_critical(n)
        gammas = list(gc * (1 - np.linspace(0.0, 1.5, 1501) / n))
        gammas += [1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 0.5 / n**3]
        for gamma in gammas:
            spec = ChainSpec(n, 1.0, float(gamma))
            if in_asymptotic_window(spec):
                delta_approx(spec)  # must not raise DomainError


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
# rounding noise)
PINNED_LOG_GRID = {
    2: "6c57df404ad6397b", 3: "85d5cd96f3dcaab9", 4: "aa66cd7d8af478df",
    5: "e808b2f3d24817ca", 6: "425ee9810dd70afa", 7: "20de74ca3907c72d",
    8: "e79142175233fa9d", 9: "77ec3b26b40568dc", 10: "825a5a2a83f85c7a",
    11: "1cd2fdb7c782be7b", 12: "70e6428452ea21a8", 13: "c87b1a9bd52f857e",
    14: "00ac3a35dce26b1c", 15: "b17dfdfe78324add", 16: "54110018cc8efe65",
    17: "00712c762a50b84b", 18: "84095d76396ac2c9", 19: "dd53b6a357839ab0",
    20: "f5da66e2bf2f3da1", 21: "34b5cea9760f5fa2", 22: "bc5af224b8242172",
    23: "5dfcfc490b3e8b8d", 24: "fe84645af4548968", 25: "1a18613f2e0cd2cb",
    26: "ca02d95f70be742b", 27: "efbbee99b9771b23", 28: "7461f628221695b7",
    29: "a592f399a141bc2b", 30: "d01bb3798e6844ab", 31: "61cd9c74b2257752",
    32: "e5b7086153ee2481", 33: "06d6d6a7382e354d", 34: "1cc00f21ea6ab318",
    35: "76e68a4cb651e0a5", 36: "15ba00904d67983a", 37: "c7edf922236fbab0",
    38: "0a42120b93a49e55", 39: "9756e41ca66689ee", 40: "ba5b486afca50591",
    41: "06e2f315a2b017a3", 42: "96561e046e05d315", 43: "dd5ba8a1033ccfde",
    44: "5e9927295de98c3f", 45: "2a8d7edf4aafb653", 46: "6809334dde8feea6",
    47: "bfb5ea32845bc324", 48: "8fa797a224100678", 49: "2e8aeb6d0a2fe78a",
    50: "671595c81d479041", 51: "c6637b97d4981332", 52: "0749fd1a6f7a9487",
    53: "6254bc5611735360", 54: "1b1a66e24090f37a", 55: "9252d73867156766",
    56: "8d1c4c9af76df084", 57: "b1460264f7995271", 58: "fe510324835e8a86",
    59: "23374a2728e7f8f6", 60: "67479b95e3ca1794", 61: "3269d16f50d5b52c",
    62: "eda4f65a65ca0a44", 63: "988a2fbcb2f883f5", 64: "dc7d39661af7aaf3",
    65: "735e02d1234589ad", 66: "df224a32e147672f", 67: "5b38ae5445e53d5b",
    68: "5052df2adce7f1d8", 69: "32cb92e56a076e1c", 70: "738b621766462d9d",
    71: "4254e3cd26d90bf1", 72: "c4c6653d677122ac", 73: "df959ca9c0dd7508",
    74: "95286276453acbee", 75: "0166561b4214a67c", 76: "d9bfa8a99cd1e4f0",
    77: "c2279f0867f0c175", 78: "07249b60b2e05488", 79: "fc3cea31f9a0be90",
    128: "d76da8c34576cd44", 200: "1609a8f614815651", 255: "fa1f8dcb4b38fed8",
    256: "df37dbdb506f29e3", 1000: "b61d22ef81631afa",
}
# re-recorded with the log grid; these grids also hold gamma_c itself, which
# now reports the coalesced pair.  Before that, N = 3 was re-recorded when
# kappa > 1 moved to the log-form condition: its point at 2 gamma_c has
# kappa = 1.03, now the correctly rounded value (was 1.2 ulp off).  All six
# were re-recorded when one kappa condition replaced the log form: the
# broken points' kappa moved by rounding, most of all at the float gamma_c
# of odd N, where kappa is set by rounding alone.  All six again with the
# PT-image + branch: N = 65 at 1.5 gamma_c held |pt_norms| 7.7e-5 and a gap
# 1.5e-5 below the oracle's, from the + vector that was no eigenvector
PINNED_MIXED_GRID = {
    2: "018eeed06dfbc709", 3: "5409c586982a4c26", 8: "4eb575bd7653d9b2",
    9: "a337a14ace895dd1", 64: "90938ac3de595e6a", 65: "5985aaa444fceaa3",
}


def _assert_pairs_hold(n, reports):
    # a digest pins bits, not physics: before it is read, every broken pair
    # is PT self-orthogonal and, up to N = 65, every gap is that of the pair
    # the oracle gives on the dense H
    for report in reports:
        spec = ChainSpec(n, 1.0, report.gamma)
        if classify_phase(spec) is not Phase.UNBROKEN:
            assert max(map(abs, report.pt_norms)) <= 1e-12, report.gamma
        if n <= 65:
            h = build_hamiltonian(spec)
            u, v = (oracle_eigenvector(h, level) for level in report.two_levels)
            assert abs(report.coalescence_gap - coalescence_gap(u, v)) <= 1e-10, report.gamma


@pytest.mark.parametrize("n", sorted(PINNED_LOG_GRID))
def test_critical_sweep_is_pinned_on_the_log_grid(n):
    reports = critical_sweep(n, _log_grid(n))
    _assert_pairs_hold(n, reports)
    assert _digest(reports) == PINNED_LOG_GRID[n]


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
def test_critical_sweep_raises_the_first_failing_gammas_error(gammas, error):
    with pytest.raises(error) as batch:
        critical_sweep(8, gammas)
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
