"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from ptchain import (ChainSpec, build_c_operator, build_eigenbasis,
                     build_hamiltonian, build_metric, canonical_basis,
                     cpt_inner, critical_levels, equivalent_hermitian,
                     gamma_critical, gauged_factor,
                     locate_critical_gamma, oracle_spectrum, repulsion_law,
                     solve_kappa, solve_spectrum, spectral_distance)
from ptchain.metric import reflection_matrix

REF_COUPLINGS_7 = {
    0.00: [0.6242, 1.0068, 0.2997, 0.0830, 0.2071, 1.2071],
    0.50: [0.5703, 0.9731, 0.3089, 0.0883, 0.2039, 1.2075],
    0.99: [0.3355, 0.8949, 0.3280, 0.0774, 0.1468, 1.2089],
}
REF_COUPLINGS_8 = {
    0.00: [0.5627, 0.9300, 0.2994, 0.1199, 0.1954, 1.1615, 1.2411, 0.0914,
           0.3333, 0.0277],
    0.50: [0.5153, 0.8918, 0.3057, 0.1304, 0.1909, 1.1527, 1.2469, 0.0972,
           0.3461, 0.0310],
    0.99: [0.1766, 0.9005, 0.3157, 0.1458, 0.1005, 1.0333, 1.3522, 0.0627,
           0.3505, 0.0143],
}
MULT_7 = [2, 2, 2, 2, 2, 2]
MULT_8 = [2, 2, 2, 1, 2, 2, 1, 2, 1, 1]


def _report(index: int, name: str, failures: list[str], elapsed: float,
            limit: float) -> None:
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    detail = "" if not failures else " | " + "; ".join(failures)
    print(f"ACCEPTANCE {index} ({name}): {status} [{elapsed:.2f}s]{detail}")
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s"
    assert not failures, "\n".join(failures)


def test_criterion_1_coupling_tables():
    start = time.perf_counter()
    failures = []
    for n, table, mult in ((7, REF_COUPLINGS_7, MULT_7), (8, REF_COUPLINGS_8, MULT_8)):
        for gamma, values in table.items():
            eq = equivalent_hermitian(ChainSpec(n, 1.0, gamma))
            got = np.sort(np.abs(eq.block_a).ravel())
            want = np.sort(np.repeat(values, mult))
            dev = float(np.max(np.abs(got - want)))
            if dev > 2e-4:
                failures.append(f"N={n} gamma={gamma}: coupling dev {dev:.2e}")
            a = eq.block_a
            refl = (a.T[::-1, ::-1] if n % 2 == 0 else a[::-1, ::-1])
            rdev = float(np.max(np.abs(a - refl)))
            if rdev > 1e-8:
                failures.append(f"N={n} gamma={gamma}: reflection dev {rdev:.2e}")
    _report(1, "coupling tables", failures, time.perf_counter() - start, 1.0)


def test_criterion_2_phase_boundary():
    start = time.perf_counter()
    failures = []
    for n in list(range(2, 13)) + [19, 20]:
        err = abs(locate_critical_gamma(n) - gamma_critical(n))
        if err > 1e-6:
            failures.append(f"N={n}: boundary error {err:.2e}")
    _report(2, "phase boundary", failures, time.perf_counter() - start, 5.0)


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    for n in range(2, 13):
        gc = gamma_critical(n)
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 1.3, 1.6):
            spec = ChainSpec(n, 1.0, frac * gc)
            dist = spectral_distance(solve_spectrum(spec).energies,
                                     oracle_spectrum(spec))
            if dist > 1e-8:
                failures.append(f"N={n} gamma={frac}gc: distance {dist:.2e}")
    _report(3, "oracle equivalence", failures, time.perf_counter() - start, 10.0)


def test_criterion_4_critical_behavior():
    start = time.perf_counter()
    failures = []
    for n in (19, 20, 199, 200):
        gc = gamma_critical(n)
        offsets = gc * np.logspace(-4, -2, 9)
        mags = []
        for off in offsets:
            levels, _ = critical_levels(ChainSpec(n, 1.0, gc - off))
            mags.append(abs(levels[0].real))
        for off in offsets:
            kappa = solve_kappa(ChainSpec(n, 1.0, gc + off))
            mags.append(2 * math.sinh(kappa))
        logs = np.log(np.concatenate([offsets, offsets]))
        slope = float(np.polyfit(logs, np.log(mags), 1)[0])
        if abs(slope - 0.5) > 0.05:
            failures.append(f"N={n}: log-log slope {slope:.4f}")

        # the leading-order law needs N |gamma - gamma_c| / gamma_c << 1, so
        # the agreement point sits at the same scaled distance for every N
        scaled = 0.2
        off = scaled * gc / n
        below = ChainSpec(n, 1.0, gc - off)
        above = ChainSpec(n, 1.0, gc + off)
        levels, _ = critical_levels(below)
        numeric = {"unbroken": abs(levels[0].real),
                   "broken": 2 * math.sinh(solve_kappa(above))}
        for side, value in numeric.items():
            spec = below if side == "unbroken" else above
            predicted = repulsion_law(spec)[0]
            rel = abs(predicted - value) / value
            if rel > 0.05:
                failures.append(
                    f"N={n} {side} at N|gamma-gamma_c|/gamma_c={scaled}: "
                    f"asymptotic dev {rel:.1%} "
                    f"(numeric {value:.6f} vs predicted {predicted:.6f})")
    _report(4, "critical-point behavior", failures, time.perf_counter() - start, 60.0)


def test_criterion_5_cpt_formalism():
    start = time.perf_counter()
    failures = []
    for n in range(2, 13):
        spec = ChainSpec(n, 1.0, 0.5 * gamma_critical(n))
        h = build_hamiltonian(spec)
        basis = build_eigenbasis(spec)
        c = build_c_operator(basis)
        eye, p = np.eye(n), np.eye(n)[::-1]
        fs = basis.f.T
        checks = {
            "CPT gram": np.max(np.abs(np.array(
                [[cpt_inner(c, fa, fb) for fb in fs] for fa in fs]) - eye)),
            "biorthonormal gram": np.max(np.abs(basis.g.conj().T @ basis.f - eye)),
            "C^2": np.max(np.abs(c @ c - eye)),
            "[C,H]": np.max(np.abs(c @ h - h @ c)),
            "[C,PT]": np.max(np.abs(c @ p - p @ c.conj())),
        }
        for name, dev in checks.items():
            if dev > 1e-8:
                failures.append(f"N={n} {name}: {dev:.2e}")
    _report(5, "CPT formalism", failures, time.perf_counter() - start, 10.0)


def test_criterion_6_metric_identities():
    start = time.perf_counter()
    failures = []
    for n in range(2, 13):
        spec = ChainSpec(n, 1.0, 0.5 * gamma_critical(n))
        h = build_hamiltonian(spec)
        basis = build_eigenbasis(spec)
        eta, w = build_metric(basis), gauged_factor(basis)
        eta_r = w @ w.T
        refl = reflection_matrix(n)
        decomp = canonical_basis(w)
        # each vector's eps from the metric, its Rayleigh quotient |W^T p|^2
        rec = np.sum((w.T @ decomp.basis) ** 2, axis=0)
        eye, p = np.eye(n), np.eye(n)[::-1]
        checks = {
            "hermitian": np.max(np.abs(eta - eta.conj().T)),
            "positive definite": max(0.0, 1e-12 - float(np.min(np.linalg.eigvalsh(eta)))),
            "inverse = conjugate": np.max(np.abs(eta.conj() @ eta - eye)),
            "PT invariant": np.max(np.abs(p @ eta.conj() @ p - eta)),
            "bisymmetric": np.max(np.abs(refl @ eta_r @ refl - eta_r)),
            "reciprocal pairs": np.max(np.abs(rec * rec[list(decomp.pairing)] - 1.0)),
            "det = 1": abs(np.linalg.det(eta_r) - 1.0),
            "pseudo-hermiticity": np.max(np.abs(eta @ h - h.conj().T @ eta)),
        }
        for name, dev in checks.items():
            if dev > 1e-8:
                failures.append(f"N={n} {name}: {dev:.2e}")
    _report(6, "metric identities", failures, time.perf_counter() - start, 10.0)


def test_criterion_7_hermitian_equivalence():
    start = time.perf_counter()
    failures = []
    for n in range(2, 13):
        gc = gamma_critical(n)
        for frac in (0.3, 0.6, 0.9):
            spec = ChainSpec(n, 1.0, frac * gc)
            eq = equivalent_hermitian(spec)
            hm = eq.h_matrix
            na, _ = eq.sublattice_sizes
            got = np.linalg.eigvalsh(hm)
            want = np.sort(solve_spectrum(spec).energies.real)
            checks = {
                "spectrum": float(np.max(np.abs(np.sort(got) - want))),
                "symmetric": float(np.max(np.abs(hm - hm.T))),
                "diag blocks": max(float(np.max(np.abs(hm[:na, :na]))),
                                   float(np.max(np.abs(hm[na:, na:])))),
            }
            limits = {"spectrum": 1e-8, "symmetric": 1e-9, "diag blocks": 1e-8}
            for name, dev in checks.items():
                if dev > limits[name]:
                    failures.append(f"N={n} gamma={frac}gc {name}: {dev:.2e}")
    _report(7, "Hermitian equivalence", failures, time.perf_counter() - start, 10.0)


def test_criterion_8_analytic_micro_cases():
    start = time.perf_counter()
    failures = []

    def check(label, got, want, tol=1e-10):
        dev = spectral_distance(got, want)
        if dev > tol:
            failures.append(f"{label}: {dev:.2e}")

    for gamma in (0.3, 0.6, 0.9):
        sol = solve_spectrum(ChainSpec(2, 1.0, gamma))
        e = math.sqrt(1 - gamma * gamma)
        check(f"N=2 gamma={gamma}", sol.energies, [-e, e])
    for gamma in (1.2, math.sqrt(2.0), 1.8):
        spec = ChainSpec(2, 1.0, gamma)
        e = math.sqrt(gamma * gamma - 1)
        check(f"N=2 gamma={gamma}", solve_spectrum(spec).energies,
              [-1j * e, 1j * e])
        kappa = solve_kappa(spec)
        want_kappa = math.asinh(e / 2.0)
        if abs(kappa - want_kappa) > 1e-10:
            failures.append(f"N=2 gamma={gamma} kappa: {abs(kappa - want_kappa):.2e}")
    for gamma in (0.5, 1.0, 1.3):
        sol = solve_spectrum(ChainSpec(3, 1.0, gamma))
        e = math.sqrt(2 - gamma * gamma)
        check(f"N=3 gamma={gamma}", sol.energies, [-e, 0.0, e])
    _report(8, "analytic micro-cases", failures, time.perf_counter() - start, 1.0)
