import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptchain import (ChainSpec, Phase, apply_pt, build_hamiltonian, classify_phase,
                     equivalent_hermitian, gamma_critical, locate_critical_gamma,
                     solve_spectrum)
from ptchain.errors import DomainError


def test_hamiltonian_n2():
    h = build_hamiltonian(ChainSpec(2, 1.0, 0.6))
    expected = np.array([[0.6j, -1.0], [-1.0, -0.6j]])
    assert np.array_equal(h, expected)


def test_hamiltonian_n3_hermitian_limit():
    h = build_hamiltonian(ChainSpec(3, 1.0, 0.0))
    assert np.max(np.abs(h.imag)) == 0.0
    assert np.array_equal(h, h.T)
    assert np.array_equal(np.diag(h, 1), [-1.0, -1.0])


def test_hamiltonian_trace_and_corner():
    h = build_hamiltonian(ChainSpec(4, 2.0, 1.0))
    assert h[0, 0] == 1j
    assert abs(np.trace(h)) == 0.0
    assert np.array_equal(np.diag(h, 1), [-2.0, -2.0, -2.0])


@pytest.mark.parametrize("kwargs", [
    {"n_sites": 1}, {"n_sites": 0}, {"n_sites": 3, "hopping": 0.0},
    {"n_sites": 3, "hopping": -1.0}, {"n_sites": 3, "gamma": -0.1},
    {"n_sites": 3, "hopping": math.nan}, {"n_sites": 3, "hopping": math.inf},
    {"n_sites": 3, "gamma": math.nan}, {"n_sites": 3, "gamma": math.inf},
    # outside the hopping range that the pipelines are tested over
    {"n_sites": 3, "hopping": 1e-301}, {"n_sites": 3, "hopping": 5e-324},
    {"n_sites": 3, "hopping": 1.0001e300}, {"n_sites": 3, "hopping": 1e308},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ChainSpec(**{"hopping": 1.0, "gamma": 0.0, **kwargs})


@pytest.mark.parametrize("j,gamma", [
    (1.0, 1e200), (1.0, 1.0001e150), (1.0, 2e150), (1.0, 1e154), (1.0, 1.4e154),
    (1.0, math.nextafter(1e150, math.inf)),
    (1e-200, 1.0), (1e-300, 1e300),  # r = inf
])
def test_spec_past_the_ratio_limit_is_a_domain_error(j, gamma):
    # every solver depends on gamma/J alone, and (gamma/J)^2 leaves the float
    # range past 1e150: there the Bethe solvers overflowed, the oracle's
    # levels came back 4e-3 J off with no warning (N = 8 at 1e154), numpy
    # overflowed (N = 30 at 1e154) and gamma^2 raised a bare OverflowError
    # (from 1.4e154).  One PTChainError when the spec is built, not a numpy
    # RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"above 1e\+150"):
            ChainSpec(8, j, gamma)


def test_ratio_limit_is_the_last_float_of_the_domain():
    # the solvers' tests at gamma/J = 1e150 run on this spec
    assert ChainSpec(8, 1.0, 1e150).gamma == 1e150
    with pytest.raises(DomainError, match=r"gamma/J = 1e\+150 is above 1e\+150"):
        ChainSpec(8, 1.0, math.nextafter(1e150, math.inf))


def test_spec_past_the_centre_coefficient_limit_is_a_domain_error():
    # every phase read forms R's centre coefficient (N - 1)(gamma/J)^2 - (N + 1)
    # as a float: past N max(1, (gamma/J)^2) = 1e308 classify_phase,
    # solve_kappa, alpha_parameter and kappa_approx raised a bare OverflowError
    spec = ChainSpec(10**6 + 1, 1.0, 1e150)
    assert classify_phase(spec) is Phase.BROKEN
    assert ChainSpec(10**7, 1.0, 1e150).n_sites == 10**7
    for n, gamma in [(10**9 + 1, 1e150), (2 * 10**8, 1e150), (10**400, 0.0)]:
        with pytest.raises(DomainError, match=r"N max\(1, \(gamma/J\)\^2\) is not below 1e\+308"):
            ChainSpec(n, 1.0, gamma)


@pytest.mark.parametrize("j", [np.float32(1.0), Fraction(1), Decimal(1), 1, 1.0], ids=repr)
@pytest.mark.parametrize("n", [np.int64(9), np.int32(9), 9], ids=repr)
def test_spec_takes_n_as_an_int_and_j_as_a_float(n, j):
    # an np.int64 N overflowed the exact c0, a float32 J warned as the range
    # check cast 1e300 to float32, and a Fraction or Decimal J failed in the solve
    spec = ChainSpec(n, j, 0.3)
    assert (type(spec.n_sites), type(spec.hopping)) == (int, float)
    want = solve_spectrum(ChainSpec(9, 1.0, 0.3))
    got = solve_spectrum(spec)
    assert got.k.tobytes() == want.k.tobytes()
    assert got.energies.tobytes() == want.energies.tobytes()


@pytest.mark.parametrize("j,gamma", [(Decimal("NaN"), 0.0), (1.0, Decimal("NaN")),
                                     (Decimal("sNaN"), 0.0)], ids=repr)
def test_a_decimal_nan_is_a_value_error(j, gamma):
    # 1e-300 <= Decimal('NaN') signals: it raised decimal.InvalidOperation,
    # an ArithmeticError, where a float NaN raises ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            ChainSpec(8, j, gamma)


def test_numpy_n_and_j_reach_the_bisection_and_the_metric():
    assert locate_critical_gamma(np.int64(9)) == locate_critical_gamma(9)
    # a float32 J made gamma/J a float32, which failed the reciprocal pairing
    got = equivalent_hermitian(ChainSpec(8, np.float32(1.0), 0.5)).h_matrix
    assert np.array_equal(got, equivalent_hermitian(ChainSpec(8, 1.0, 0.5)).h_matrix)


def test_apply_pt_definition():
    out = apply_pt(np.array([1.0, 1.0j]))
    assert np.array_equal(out, np.array([-1.0j, 1.0]))


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False), min_size=2, max_size=16))
def test_apply_pt_involution(values):
    v = np.array(values)
    assert np.array_equal(apply_pt(apply_pt(v)), v)


def test_apply_pt_fixed_point():
    v = np.array([0.3, -1.2, -1.2, 0.3])
    assert np.array_equal(apply_pt(v), v)


@pytest.mark.parametrize("n,gamma", [(5, 0.4), (6, 0.9), (9, 1.01)])
def test_hamiltonian_pt_invariant(n, gamma):
    h = build_hamiltonian(ChainSpec(n, 1.0, gamma))
    # PT H PT: reversed sites, conjugated (PT is antilinear)
    assert np.max(np.abs(np.conj(h[::-1, ::-1]) - h)) == 0.0


def test_hamiltonian_dagger_flips_gamma():
    h = build_hamiltonian(ChainSpec(6, 1.0, 0.7))
    flipped = h.copy()
    flipped[0, 0], flipped[-1, -1] = -h[0, 0], -h[-1, -1]
    assert np.array_equal(h.conj().T, flipped)


def test_gamma_critical_values():
    assert gamma_critical(7) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-15)
    assert gamma_critical(8) == 1.0
    assert gamma_critical(2) == 1.0
    assert gamma_critical(5, hopping=2.0) == pytest.approx(2 * np.sqrt(1.5), abs=1e-15)


def test_gamma_critical_rejects_a_chain_below_two_sites():
    with pytest.raises(ValueError, match="n_sites must be an integer >= 2, got 1"):
        gamma_critical(1)


@pytest.mark.parametrize("n,j,message", [
    (7.5, 1.0, "n_sites must be an integer"),
    (8, -1.0, "hopping must be finite"),
    (8, math.nan, "hopping must be finite"),
    (8, math.inf, "hopping must be finite"),
])
def test_gamma_critical_rejects_what_a_chain_spec_rejects(n, j, message):
    # the closed form alone would return a number for each: 1.1547, -1, NaN, inf
    with pytest.raises(ValueError, match=message):
        gamma_critical(n, j)


def test_gamma_critical_odd_decreasing_to_one():
    ratios = [gamma_critical(2 * n + 1) for n in range(1, 40)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=0.02)


def test_classify_phase():
    assert classify_phase(ChainSpec(8, 1.0, 0.5)) is Phase.UNBROKEN
    assert classify_phase(ChainSpec(8, 1.0, 1.2)) is Phase.BROKEN
    assert classify_phase(ChainSpec(8, 1.0, 1.0)) is Phase.CRITICAL
    # no band: one ulp from an exact coalescence is already a phase
    assert classify_phase(ChainSpec(8, 1.0, math.nextafter(1.0, 0.0))) is Phase.UNBROKEN
    assert classify_phase(ChainSpec(8, 1.0, math.nextafter(1.0, 2.0))) is Phase.BROKEN
    # odd N: c0 = (N - 1) r^2 - (N + 1) is rounded once from the exact r, so
    # no odd N is Critical ((N + 1)/(N - 1) is no square of a binary
    # fraction); at this float, where r*r rounded made c0 exactly 0, c0 < 0
    r = Fraction(0.5773502691896257) / Fraction(0.5)
    assert 6 * r * r - 8 < 0
    assert classify_phase(ChainSpec(7, 0.5, 0.5773502691896257)) is Phase.UNBROKEN
    assert classify_phase(ChainSpec(9, 1.0, 1e150)) is Phase.BROKEN
    with pytest.raises(TypeError):
        classify_phase(ChainSpec(8, 1.0, 1.0), tol=1e-9)


def test_every_export_resolves():
    # a name deleted from a module but left in __all__ would break the star import
    import ptchain
    assert len(set(ptchain.__all__)) == len(ptchain.__all__)
    assert all(hasattr(ptchain, name) for name in ptchain.__all__)
    namespace = {}
    exec("from ptchain import *", namespace)
    assert set(ptchain.__all__) <= namespace.keys()
