import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptchain import (ChainSpec, alpha_parameter, coalescence_gap,
                     critical_levels, critical_sweep, delta_approx,
                     gamma_critical, kappa_approx, repulsion_law, solve_kappa)
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
    n = 8
    reports = critical_sweep(n, [0.5, 1.0, 1.2])
    assert [r.skipped for r in reports] == [False, True, False]
    assert reports[1].coalescence_gap == 0.0


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
# per-gamma sweep that solved each critical pair on its own
PINNED_LOG_GRID = {
    2: "dfb01644cc21ff10", 3: "a7ac9a0941d2eb28", 4: "5cd2d9626ea74e4f",
    5: "f16a4138459bf054", 6: "77abba37e8754fab", 7: "47bb16da58a1e2c5",
    8: "0f5bdd84a44846a0", 9: "1425a25c8f3dfe9f", 10: "e1634ad98fe92163",
    11: "c4d76cc1423df84e", 12: "a351e8031852d4d4", 13: "2b7d8cce216bd827",
    14: "bbe4d5f5101d2532", 15: "ac521bd1ed28e7de", 16: "94ccadf504400987",
    17: "5825dbd74a1df8a2", 18: "a7c7eb8f7defd510", 19: "5c9203f641c0686e",
    20: "21c5ec9c96152ad2", 21: "5d146e44e9ab97e9", 22: "d968e74563e7a619",
    23: "98d8931949351b5c", 24: "50a8fad11705c426", 25: "ad477324378a2181",
    26: "1bb2105a0345533b", 27: "6c437d0fbfd6d96e", 28: "12613a07eb09b9ce",
    29: "b99d824e0175ff68", 30: "0f4417ad07066ea8", 31: "0c4687053cf0e746",
    32: "028442a82b135992", 33: "a46ae3b382f99a7a", 34: "2da87cfde8697224",
    35: "1eda79e19ea54573", 36: "05067e3d19251afa", 37: "be8fe1466223c9f3",
    38: "b5f2bff8a19e2c05", 39: "d3049dd568dacc7d", 40: "0a26d8a1026e5ce2",
    41: "9cd4340589b26f13", 42: "9148848e8649e39a", 43: "99463e40a56ea315",
    44: "d6b5ad054d57c44c", 45: "fce3792b2689abc6", 46: "d94f62c3730aa87b",
    47: "c14f730cdfc08483", 48: "e10f567311264119", 49: "0d7a7e6cf310b56e",
    50: "45a3b57fd0692e20", 51: "9d86dec147304eac", 52: "858df1aa7397ef67",
    53: "de0178bb84c1a486", 54: "f26cc684ae5cc53d", 55: "deef1aa403478c7c",
    56: "dbcfc03fb33ebaf8", 57: "891d43d0b2cb0c44", 58: "8b0ce8792fcd7c82",
    59: "c4d9dcc0d0adfbf8", 60: "516847957dcb5201", 61: "8b38f1d78b4378f5",
    62: "b7e2ba2430759f30", 63: "3145c6d36a763ff3", 64: "c46c7e66c4aa3475",
    65: "796a1ffb718798fb", 66: "b364fc39f090ae62", 67: "4d6b4fd842f78ee0",
    68: "bb5860ad81acff70", 69: "bec04c8991900bc0", 70: "a9c0b2d60c587c30",
    71: "7bb56acb90ec0499", 72: "dd43c90af71ffa04", 73: "e3632d89083d3e84",
    74: "adf65f680fd4fee5", 75: "6b04e408d8587a30", 76: "4cd90e109df92809",
    77: "176985fa19b1680a", 78: "519d10afb5be5fc5", 79: "7babd3461302b8a4",
    128: "e7b80df7317d9f8e", 200: "b80fdd313e42bbea", 255: "1705882f759d1aa3",
    256: "65885249fbcab994", 1000: "2e31d8999d629f1a",
}
# N = 3 re-recorded when kappa > 1 moved to the log-form condition: its point
# at 2 gamma_c has kappa = 1.03, now the correctly rounded value (was 1.2 ulp off)
PINNED_MIXED_GRID = {
    2: "763aadff265e6fe9", 3: "cfb97355eb96dfad", 8: "8fc6e0f08f895885",
    9: "3d53991ec1f7f510", 64: "38067c7d1a5427fc", 65: "b481c48336e4ca5f",
}


@pytest.mark.parametrize("n", sorted(PINNED_LOG_GRID))
def test_critical_sweep_is_pinned_on_the_log_grid(n):
    assert _digest(critical_sweep(n, _log_grid(n))) == PINNED_LOG_GRID[n]


@pytest.mark.parametrize("n", sorted(PINNED_MIXED_GRID))
def test_critical_sweep_is_pinned_across_both_phases(n):
    # 0 to 2 gamma_c in 9 steps: gamma = 0, gamma_c exactly (skipped) and
    # odd-N points where the asymptotic formulas give NaN
    grid = np.linspace(0.0, 2 * gamma_critical(n), 9)
    assert _digest(critical_sweep(n, grid)) == PINNED_MIXED_GRID[n]


@pytest.mark.parametrize("gammas,error", [
    ([0.5, -1.0, 1e200], ValueError),
    ([1.2, 1e200, -1.0], DomainError),
])
def test_critical_sweep_raises_the_first_failing_gammas_error(gammas, error):
    with pytest.raises(error) as batch:
        critical_sweep(8, gammas, phase_tol=1e-12)
    for gamma in gammas:  # the same error as the per-gamma sweep's
        try:
            critical_sweep(8, [gamma], phase_tol=1e-12)
        except (ValueError, DomainError, PhaseError) as exc:
            assert str(exc) == str(batch.value)
            break


@pytest.mark.parametrize("n,offset", [(8, 1e-11), (9, 2e-11)])
def test_critical_sweep_reads_the_phase_at_its_phase_tol(n, offset):
    # broken at phase_tol=1e-12 but inside the default Critical band: the
    # report holds the kappa pair, not a real pair from another bracket
    gamma = gamma_critical(n) + offset
    (report,) = critical_sweep(n, [gamma], phase_tol=1e-12)
    law, _ = repulsion_law(ChainSpec(n, 1.0, gamma))
    assert not report.skipped
    assert report.two_levels[0].real == 0.0 == report.two_levels[1].real
    assert report.two_levels[0].imag == pytest.approx(law, rel=1e-5)
    assert report.two_levels[1] == report.two_levels[0].conjugate()
    assert report.coalescence_gap < 1e-9
    assert max(map(abs, report.pt_norms)) < 1e-12


def test_critical_levels_at_even_gamma_c_has_no_pair():
    # the pair has coalesced at pi/2 and its bracket holds no root; the next
    # bracket's root is not a critical level
    with pytest.raises(PhaseError, match="next to pi/2"):
        critical_levels(ChainSpec(8, 1.0, 1.0))


def _gammas_across_both_phases(n):
    # gamma = 0, gamma_c itself (skipped), gamma_c (1 +- 1e-9..1e-3) and
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
