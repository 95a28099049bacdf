"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import dataclasses
import importlib
import pathlib
import sys
from types import FunctionType

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ptchain  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import NONFINITE, OFF, Op  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    def first(seed, k=3):
        stream = workloads.passes(name, seed)
        return [next(stream) for _ in range(k)]

    assert first(7) == first(7)
    assert first(7) != first(8)
    workload = workloads.WORKLOADS[name]
    for batch in first(7):
        assert sorted(op.n for op in batch) == sorted(workload.grid * len(workload.kinds))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_seed_runs_the_same_ops(name):
    # the seed only orders a pass, so `attempted` and `failed` are the same
    # for every seed
    def ops(seed, k=3):
        stream = workloads.passes(name, seed)
        return [sorted(next(stream), key=repr) for _ in range(k)]

    assert ops(7) == ops(8)


def test_pass_count_depends_on_seconds_only():
    import run
    assert {name: run.pass_count(name, 20) for name in workloads.WORKLOADS} == {
        "spectra": 2, "hermitian": 3, "verify": 2, "scan": 2}
    assert run.pass_count("hermitian", 40) == 6
    assert all(run.pass_count(name, 0.1) == 1 for name in workloads.WORKLOADS)


def test_sweep_ranges_never_hit_gamma_c():
    for batch in zip(range(22), workloads.passes("scan", 1)):
        for op in batch[1]:
            if op.kind == "sweep":
                steps = np.linspace(op.gamma, op.gamma_hi, workloads.SWEEP_STEPS)
                gap = np.min(np.abs(steps - workloads.gamma_c(op.n)))
                assert gap > 1e-4 * workloads.gamma_c(op.n)


def test_self_time_on_synthetic_span_tree():
    # op(10) -> solve_spectrum(6) -> [raw_amplitude(1), raw_amplitude(2)]
    #        -> states.build_eigenbasis(3) -> raw_amplitude(0.5)
    root = tracing.Span("metric.equivalent_hermitian", None, 10.0, 9.0)
    solve = tracing.Span("bethe.solve_spectrum", root, 6.0, 3.0)
    basis = tracing.Span("states.build_eigenbasis", root, 3.0, 0.5)
    spans = [root, solve,
             tracing.Span("bethe.raw_amplitude", solve, 1.0),
             tracing.Span("bethe.raw_amplitude", solve, 2.0),
             basis, tracing.Span("bethe.raw_amplitude", basis, 0.5)]
    t = tracing.fold(spans)
    assert t["metric.self"] == pytest.approx(1.0)
    assert t["bethe.self"] == pytest.approx(3.0 + 3.5)
    assert t["states.self"] == pytest.approx(2.5)
    assert t["null_filter"] == pytest.approx(3.0)
    assert t["null_filter.calls"] == 2
    assert t["bethe.raw_amplitude.calls"] == 3
    metrics = tracing.layer_metrics([t], op_seconds=10.0)
    assert sum(metrics[f"{layer}.share"][0] for layer in tracing.LAYERS) == pytest.approx(1.0)


def test_recursive_spans_are_not_double_counted():
    outer = tracing.Span("metric.jacobi_eigensystem", None, 4.0, 1.0)
    inner = tracing.Span("metric.jacobi_eigensystem", outer, 1.0)
    t = tracing.fold([outer, inner])
    assert t["metric.jacobi_eigensystem"] == pytest.approx(4.0)
    assert t["metric.jacobi_eigensystem.self"] == pytest.approx(4.0)
    assert t["metric.jacobi_eigensystem.calls"] == 2


def _namespace_functions():
    modules = [ptchain] + [importlib.import_module(f"ptchain.{m}") for m in tracing.LAYERS]
    return {(m.__name__, name): value for m in modules
            for name, value in vars(m).items() if isinstance(value, FunctionType)}


def test_every_wrapped_function_is_restored():
    before = _namespace_functions()
    with tracing.Tracer() as tracer:
        during = _namespace_functions()
        ptchain.solve_spectrum(ptchain.ChainSpec(8, 1.0, 0.5))
    # the re-exports in the package, cli and states are wrapped too
    for key in [("ptchain", "solve_spectrum"), ("ptchain.cli", "solve_spectrum"),
                ("ptchain.states", "raw_amplitude"), ("ptchain.bethe", "raw_amplitude")]:
        assert during[key] is not before[key]
    assert {s.key for s in tracer.spans} >= {"bethe.solve_spectrum", "bethe.raw_amplitude"}
    assert _namespace_functions() == before
    assert all(a is b for a, b in zip(_namespace_functions().values(), before.values()))


def test_tracer_restores_after_an_exception():
    before = _namespace_functions()
    with pytest.raises(OverflowError):
        with tracing.Tracer():
            ptchain.solve_spectrum(ptchain.ChainSpec(1000, 1.0, 1.5))
    assert _namespace_functions() == before


def test_scaling_exponent_recovers_a_power_law():
    sizes = [16, 32, 64, 128]
    per_op = [{"metric.jacobi_eigensystem": 1e-6 * n ** 3} for n in sizes]
    exps = tracing.scaling_exponents(sizes, per_op)
    assert exps["metric.jacobi_exp"] == pytest.approx(3.0)
    assert exps["oracle.roots_exp"] is None


def test_spectra_gate_rejects_a_dropped_level():
    op = Op("spectra", 300, 0.7)
    energies = workloads.run_op(op)
    assert workloads.check(op, energies) is None
    assert workloads.check(op, np.delete(energies, 5)) == OFF
    shifted = energies.copy()
    shifted[3] += 1e-6
    assert workloads.check(op, shifted) == OFF


def test_verify_gate_rejects_nan_roots_with_zero_distance():
    op = Op("verify", 8, 0.6)
    roots, energies, distance = workloads.run_op(op)
    assert workloads.check(op, (roots, energies, distance)) is None
    nan_roots = np.full_like(roots, np.nan)
    assert workloads.check(op, (nan_roots, energies, 0.0)) == NONFINITE
    assert workloads.match_distance(nan_roots, roots) > workloads.SPECTRAL_BOUND
    drifted = roots + 2e-8
    assert workloads.check(op, (drifted, energies, 0.0)) == OFF


def test_hermitian_gate_rejects_a_wrong_matrix():
    op = Op("hermitian", 9, 0.4)
    h = workloads.run_op(op)
    assert workloads.check(op, h) is None
    assert workloads.check(op, h * (1 + 1e-6)) == OFF


@pytest.mark.parametrize("kind", ["sweep", "phase", "critical"])
def test_scan_gates_accept_the_program_and_reject_tampering(kind):
    op = Op(kind, 9, 0.8, 1.3)
    out = workloads.run_op(op)
    assert workloads.check(op, out) is None
    if kind == "critical":
        bad = dataclasses.replace(out[0], two_levels=(0.5 + 0j, -0.5 + 0j))
        assert workloads.check(op, [bad] + list(out[1:])) == OFF
    else:
        code, text = out
        lines = text.splitlines()
        assert workloads.check(op, (code, "\n".join(lines[:-1]) + "\n")) == OFF
        assert workloads.check(op, (code, text.replace(lines[-1].split(",")[4], "nan"))) in (
            OFF, NONFINITE)


def test_only_the_listed_defects_leave_correct_true():
    gc = workloads.gamma_c(1001)
    assert workloads.known_defect(Op("spectra", 1001, 1.2 * gc), "raised:OverflowError")
    assert not workloads.known_defect(Op("spectra", 1001, 0.8 * gc), "raised:OverflowError")
    assert not workloads.known_defect(Op("spectra", 1001, 1.2 * gc), OFF)
    assert workloads.known_defect(Op("verify", 35, 0.5), OFF)
    assert workloads.known_defect(Op("verify", 48, 0.5), NONFINITE)
    assert not workloads.known_defect(Op("verify", 20, 0.5), OFF)
    assert not workloads.known_defect(Op("verify", 35, 0.5), NONFINITE)
    for kind in ("hermitian", "sweep", "phase", "critical"):
        assert not workloads.known_defect(Op(kind, 64, 0.5), OFF)


@pytest.mark.parametrize("name", ["spectra", "hermitian", "verify"])
def test_every_pass_holds_each_gamma_stratum_once(name):
    workload = workloads.WORKLOADS[name]
    lo, hi = workload.gammas
    count = len(workload.grid)
    stream = workloads.passes(name, 3)
    for _ in range(3):
        strata = sorted(int((op.gamma / workloads.gamma_c(op.n) - lo) / (hi - lo) * count)
                        for op in next(stream))
        assert strata == list(range(count))


def test_reference_kernel_calls_no_ptchain_function():
    import run
    with tracing.Tracer() as tracer:
        assert run.reference_seconds() > 0.0
    assert tracer.spans == []


@pytest.mark.parametrize("q", [0.5, 0.9])
def test_harrell_davis_matches_the_reference_implementation(q):
    import run
    mstats = pytest.importorskip("scipy.stats.mstats")
    x = np.random.default_rng(4).lognormal(size=97)
    assert run.harrell_davis(x, q) == pytest.approx(mstats.hdquantiles(x, prob=[q])[0],
                                                    rel=1e-6)
    assert run.harrell_davis(np.full(30, 2.5), q) == pytest.approx(2.5)
