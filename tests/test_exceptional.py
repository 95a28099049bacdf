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
# broken side's two_levels, coalescence_gap and pt_norms in their last bits,
# and again when that condition lost its terms of size (gamma/J)^2 to cancel
# and took over every kappa, which moved the same fields by rounding: a
# median 3 ulp, and up to 1.7e3 ulp at 1e-4 from an odd-N gamma_c, inside
# the odd-N bound 4 eps/|1 - gamma/gamma_c| of README
PINNED_LOG_GRID = {
    2: "6f340b2e9ad8e8fb", 3: "6c2a9ce3bd486bbb", 4: "efe8af2b2eab2d17",
    5: "f3e98a9e9305e8ca", 6: "7124e341994901e9", 7: "f3207824517e4326",
    8: "ddddf95e8d09fc68", 9: "939112a333cc286f", 10: "94b3c710d4d333f1",
    11: "635b7a106f41765d", 12: "85019b55119185c8", 13: "4a8b7a6b36d288da",
    14: "ec164b9166bbb72b", 15: "66e5887301813d76", 16: "7fc4023252b0468e",
    17: "413cee6ee5657b79", 18: "06b801c001d8ead5", 19: "bdf227fed1af9681",
    20: "c513f60ad08457d4", 21: "3bbac9aa44922b6c", 22: "91e619ddd667e2ab",
    23: "dabfd69d63908fe5", 24: "b083e8255d53eafa", 25: "51f0ac435f49ffe5",
    26: "5ed0d8533659a120", 27: "7387e6cafb3c25f3", 28: "4af3ccf74bbbfd1a",
    29: "36d5e289c9f320ef", 30: "2afc1e81ff727739", 31: "b3ca66488ebe2348",
    32: "5715295baf92e935", 33: "d19b9877b3ea8ddc", 34: "5fd2eaf844d1cd2a",
    35: "b785ea715192ca49", 36: "6df2d4972870be97", 37: "66cbacefcd9cbec4",
    38: "34f5723a83d31e04", 39: "65ed06bc94e32103", 40: "2b27a55f00383203",
    41: "6cb18c7dd74de1dd", 42: "53b2aca50987573b", 43: "a01a268f17e75977",
    44: "253f5acd99b9d423", 45: "f4d34f8164991be5", 46: "8e93548717ad697e",
    47: "00c1fcb98115f03e", 48: "a49faac62c4e0e09", 49: "0f4af5f05da5dc8c",
    50: "90c53b75136ec9ee", 51: "aa7cf4e79bf2e56a", 52: "c5c7e8c414b69f45",
    53: "4973a9756acd27e6", 54: "c00c5a7b3dbbfb57", 55: "0a82ae0798557024",
    56: "2843024b9bbe1f95", 57: "4b79d983076a4cb2", 58: "25ebf300ac78d935",
    59: "40ab36f7d28a1fdf", 60: "ce62e90b8ac69fc9", 61: "fe47c7269187b6cd",
    62: "38fdea8337f6fca2", 63: "2a4687f19ace1fe6", 64: "62a5444704286972",
    65: "f7bb1439032c2443", 66: "01e8a2c4a7eda183", 67: "3b3c090e5e8d9c97",
    68: "16bc0b4fce440422", 69: "61749a52d9b8bb94", 70: "0167cb0feecf6d82",
    71: "ac76c1c85fd7dd32", 72: "0fd2111d6ac34e82", 73: "b0ae0d787d792437",
    74: "ec4ae8e111fca6a4", 75: "f3e84bc02acb2426", 76: "3caf294ee406bea7",
    77: "4d73d7be74ed2469", 78: "33e60eb757460b35", 79: "a2d8fa6ccb337036",
    128: "6ad40ac4ff085bd0", 200: "eb855354d01a198d", 255: "9b8fe15162817af5",
    256: "6f9923b1dac2f34b", 1000: "669d729eb3c4817a",
}
# re-recorded with the log grid; these grids also hold gamma_c itself, which
# now reports the coalesced pair.  Before that, N = 3 was re-recorded when
# kappa > 1 moved to the log-form condition: its point at 2 gamma_c has
# kappa = 1.03, now the correctly rounded value (was 1.2 ulp off).  All six
# were re-recorded when one kappa condition replaced the log form: the
# broken points' kappa moved by rounding, most of all at the float gamma_c
# of odd N, where kappa is set by rounding alone
PINNED_MIXED_GRID = {
    2: "bff0c8a968f69e5b", 3: "ba3e0824b0684a70", 8: "e327edeeca61d84a",
    9: "6f4f7a6e935b425d", 64: "24166f3d4e3783d5", 65: "3157c72c7cfa8971",
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
