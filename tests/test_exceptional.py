import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptchain import (ChainSpec, alpha_parameter, coalescence_gap,
                     critical_levels, critical_sweep, delta_approx,
                     gamma_critical, kappa_approx, pt_norm, repulsion_law, solve_kappa)
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
# broken side's two_levels, coalescence_gap and pt_norms in their last bits
PINNED_LOG_GRID = {
    2: "2ece720e068dbf72", 3: "0a33ce87ee3f98ad", 4: "2c99ff8cf558ea79",
    5: "205257b269626973", 6: "ede92e1686a0e612", 7: "9dab0b51d7fee1ff",
    8: "887c7e277a583a5c", 9: "f0d5a7c4daa2af8e", 10: "2bc22d78c7675d17",
    11: "8810a684bda02e16", 12: "a38ec671b8cd0598", 13: "24387f489443035d",
    14: "6109f82b276b91db", 15: "c0ce13d17b9a1544", 16: "b09683ed7a9c0deb",
    17: "edfd5b75ebde033b", 18: "6016306493c9b7e4", 19: "32b97502e8e8e401",
    20: "f459b1f1a659c253", 21: "6780480012922ed9", 22: "164a8c9d6ad80c5b",
    23: "7bd12304f030145e", 24: "280b3611268fb73a", 25: "24852f5e5ae53001",
    26: "1eda28517baf0d57", 27: "782e79c0208e5755", 28: "228d29a2460f8022",
    29: "2f565cb7b7598e0f", 30: "a0a01a3f075db7f9", 31: "4e8a94e2f5cc6484",
    32: "ac71d5c89bce71c8", 33: "8177448bcaba0e91", 34: "0cc9e9912fdcd970",
    35: "01a04370bad439ff", 36: "1995e374fb943a05", 37: "529db7044b27d7e9",
    38: "4533f4994da8df5c", 39: "5cf2597db2db19de", 40: "b2a21879d03488e2",
    41: "b901a1a27a96c513", 42: "714e7cc1a93b8c3c", 43: "0e23b479a5b92cdf",
    44: "d02dc99c60fceb84", 45: "9688a90fa57b8809", 46: "2a74c7c20c0040dd",
    47: "a63efd307c9a4750", 48: "b9e6762c7972c7d7", 49: "3fad96b4481a6c33",
    50: "86d81ec7a521e21a", 51: "2e52dac00fa7d993", 52: "df2a3f664240c86c",
    53: "e2f0e505a0768403", 54: "46387609aa68a427", 55: "ce28145a13c5054b",
    56: "d51c0a47cd84cdc2", 57: "ad3f05f15c455d56", 58: "6e132334736fe8df",
    59: "130fcccf456f1152", 60: "3ed18c40979616e7", 61: "3e7beccc09c9b9dc",
    62: "178436c24f306c1d", 63: "e685b69628e53c0f", 64: "90b9e48d09d3ddd4",
    65: "de4ce5c58ed3f763", 66: "e76e7ef24d28ea9b", 67: "da92895060522021",
    68: "aec352950a6dd730", 69: "1d92d4d48989eadf", 70: "33fdc45894710425",
    71: "228f5605068d4251", 72: "fd822d1cedddc9e8", 73: "1d34a2d97afeb539",
    74: "3c864b592fa4304d", 75: "9d864f2caff805a7", 76: "1539ce304d27b174",
    77: "bc3405bd247f6051", 78: "1c66f5e1bc974e81", 79: "902a16af2bb12517",
    128: "2f49288cf5b96275", 200: "59caf6deb1787ae6", 255: "534c43a612d3785c",
    256: "1c74dd16ba2f387e", 1000: "b955fc9841b2cbf3",
}
# re-recorded with the log grid; these grids also hold gamma_c itself, which
# now reports the coalesced pair.  Before that, N = 3 was re-recorded when
# kappa > 1 moved to the log-form condition: its point at 2 gamma_c has
# kappa = 1.03, now the correctly rounded value (was 1.2 ulp off)
PINNED_MIXED_GRID = {
    2: "70c6a2a9c174bd26", 3: "4556e9af2e4ead08", 8: "051688ae06b3b814",
    9: "2d7810c674ec3157", 64: "5da384d768388c3a", 65: "afc0fd7fdf9c94ef",
}


@pytest.mark.parametrize("n", sorted(PINNED_LOG_GRID))
def test_critical_sweep_is_pinned_on_the_log_grid(n):
    assert _digest(critical_sweep(n, _log_grid(n))) == PINNED_LOG_GRID[n]


@pytest.mark.parametrize("n", sorted(PINNED_MIXED_GRID))
def test_critical_sweep_is_pinned_across_both_phases(n):
    # 0 to 2 gamma_c in 9 steps: gamma = 0, gamma_c exactly (coalesced) and
    # odd-N points where the asymptotic formulas give NaN
    grid = np.linspace(0.0, 2 * gamma_critical(n), 9)
    assert _digest(critical_sweep(n, grid)) == PINNED_MIXED_GRID[n]


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
