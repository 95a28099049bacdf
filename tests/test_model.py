import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptchain import (ChainSpec, Phase, apply_pt, build_hamiltonian,
                     classify_phase, gamma_critical, pt_conjugate)


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
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ChainSpec(**{"hopping": 1.0, "gamma": 0.0, **kwargs})


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
    assert np.max(np.abs(pt_conjugate(h) - h)) == 0.0


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


def test_gamma_critical_odd_decreasing_to_one():
    ratios = [gamma_critical(2 * n + 1) for n in range(1, 40)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=0.02)


def test_classify_phase():
    assert classify_phase(ChainSpec(8, 1.0, 0.5)) is Phase.UNBROKEN
    assert classify_phase(ChainSpec(8, 1.0, 1.2)) is Phase.BROKEN
    assert classify_phase(ChainSpec(8, 1.0, 1.0), tol=1e-9) is Phase.CRITICAL
    with pytest.raises(ValueError):
        classify_phase(ChainSpec(8, 1.0, 1.0), tol=0.0)
