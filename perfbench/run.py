#!/usr/bin/env python3
"""ptchain benchmark: closed loop, one client, one op in flight.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --workload verify --trace 1      # per-layer run

Run from the repository root; ptchain is imported from ./src.  The loop runs
a number of whole passes of the workload (see workloads.py) fixed by
--seconds, timing each op until it returns or raises and checking it
afterwards, outside the timed region.  Before each op, also outside the timed
region, it times a fixed reference kernel; each op's time is reported in
units of that kernel's median time around the op too.  The last line of standard output
is one JSON object: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  See perfbench/README.md for the metrics.
"""

import os

# Pinned before numpy is imported, here and in the set-up interpreters.
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import ptchain  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Passes per run at --seconds 20, scaled in proportion to --seconds.  A run
# holds a count of passes, not a deadline, so that how many ops it attempts
# and fails does not depend on the machine's speed.  On a 2-vCPU x86 VM one
# pass takes about 8 s (spectra), 6.5 s (hermitian), 15 s (verify), 7.5 s (scan).
PASSES_AT_20S = {"spectra": 2, "hermitian": 3, "verify": 2, "scan": 2}
NEIGHBOURS = 4      # reference kernels on each side of an op that set its unit
SETUP_PER_GAP = 4   # fresh-import samples before, between and after the passes


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]}


def fresh_import_seconds(count: int) -> list[float]:
    """Wall times of `count` new interpreters, each running `import ptchain`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import ptchain"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - start)
    return times


def pass_count(name: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_20S[name] * seconds / 20.0))


def reference_seconds() -> float:
    """Wall time of the speed reference: a fixed loop of Python float
    arithmetic and small numpy calls, the two kinds of work ptchain's ops do.

    It calls nothing in ptchain, so a change to the program does not move it
    directly; the speed of the machine does.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 3.0
    a = np.arange(32.0)
    for _ in range(40):
        a = np.abs(np.sqrt(a * a + 1.0) - 0.5)
    return time.perf_counter() - start


class Record(NamedTuple):
    op: workloads.Op
    seconds: float          # the op, until it returned or raised
    ref_seconds: float      # the reference kernel, just before the op
    reason: str | None      # failure class, None when verified
    totals: dict            # per-op span totals of a traced run


def execute(op, tracer=None) -> Record:
    """Time the reference kernel, then run, time and check one op."""
    ref = reference_seconds()
    start = time.perf_counter()
    try:
        out = workloads.run_op(op)
        reason = None
    except Exception as exc:  # every raise is a counted failure, not a crash
        reason = f"raised:{type(exc).__name__}"
    seconds = time.perf_counter() - start
    if reason is None:
        reason = workloads.check(op, out)
    totals = {}
    if tracer is not None:
        totals = tracing.fold(tracer.spans)
        tracer.spans.clear()
        if op.kind in ("sweep", "phase") and reason is None:
            totals["cli.bytes_out"] = len(out[1].encode())
    return Record(op, seconds, ref, reason, totals)


def closed_loop(name: str, seed: int, seconds: float, tracer=None):
    """The run's passes; returns (set-up s, records).

    Set-up is the median fresh `import ptchain` plus the time to make the
    first pass.  Untraced, the import is sampled before, between and after
    the passes, so that the median spans the run's whole stretch of time.
    """
    start = time.perf_counter()
    stream = workloads.passes(name, seed)
    batch = next(stream)
    make_s = time.perf_counter() - start
    sample = tracer is None
    imports = fresh_import_seconds(SETUP_PER_GAP) if sample else []
    records = []
    for index in range(pass_count(name, seconds)):
        if index:
            batch = next(stream)
        records.extend(execute(op, tracer) for op in batch)
        if sample:
            imports += fresh_import_seconds(SETUP_PER_GAP)
    return (statistics.median(imports) if sample else 0.0) + make_s, records


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    mass of each interval (i-1)/n..i/n.  Ops near a percentile are few and
    each is timed once, so the single order statistic that np.percentile
    picks moves with every timing jitter; this estimate averages over them.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, steps = len(x), 64
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    u = np.linspace(0.0, 1.0, steps * n + 1)
    with np.errstate(divide="ignore"):
        pdf = np.exp((a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::steps])
    return float(weights @ x / weights.sum())


def wall_clock(records) -> dict:
    """Goodput and latency percentiles in seconds of wall time."""
    times = np.array([r.seconds for r in records])
    verified = sum(r.reason is None for r in records)
    return {"ops_per_s": verified / times.sum(),
            "op_p50_ms": 1e3 * harrell_davis(times, 0.5),
            "op_p90_ms": 1e3 * harrell_davis(times, 0.9),
            "ref_ms": 1e3 * statistics.median(r.ref_seconds for r in records)}


def local_reference(records) -> np.ndarray:
    """Each op's unit: the median reference time of the kernels timed before
    it and before the NEIGHBOURS ops on either side, so the speed the machine
    ran at around the op, not on average over the run."""
    ref = np.array([r.ref_seconds for r in records])
    return np.array([np.median(ref[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
                     for i in range(len(ref))])


def end_to_end(records, setup: float) -> dict:
    """The gated metrics: each op's time in units of its local reference time.

    On a shared virtual machine whose speed shifts by up to a quarter, for
    seconds to minutes at a time, this unit removes most of the run-to-run
    spread of the wall times, which stay in the report line.
    """
    times = np.array([r.seconds for r in records]) / local_reference(records)
    verified = sum(r.reason is None for r in records)
    return {
        "ops_per_kref": (1e3 * verified / times.sum(), "1/kref"),
        "op_p50_ref": (harrell_davis(times, 0.5), "ref"),
        "op_p90_ref": (harrell_davis(times, 0.9), "ref"),
        "verified_frac": (verified / len(records), "fraction"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    with tracing.Tracer() as tracer:
        _, records = closed_loop(name, seed, seconds, tracer)
    per_op = [r.totals for r in records]
    metrics = tracing.layer_metrics(per_op, sum(r.seconds for r in records))
    # the first pass again, each op untraced and then traced back to back, so
    # that drift in machine speed does not enter the tracing overhead
    first = next(workloads.passes(name, seed))
    plain_s = traced_s = 0.0
    for op in first:
        plain_s += execute(op).seconds
        with tracing.Tracer() as again:
            traced_s += execute(op, again).seconds
    extra = {
        "scaling_exponents": tracing.scaling_exponents(
            [r.op.n for r in records if r.reason is None],
            [r.totals for r in records if r.reason is None]),
        "tracing_overhead": {"traced_ops_per_s": len(first) / traced_s,
                             "untraced_ops_per_s": len(first) / plain_s,
                             "overhead_frac": traced_s / plain_s - 1.0},
    }
    return metrics, records, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, records, extra = traced_run(name, seed, seconds)
    else:
        setup, records = closed_loop(name, seed, seconds)
        metrics, extra = end_to_end(records, setup), {"wall_clock": wall_clock(records)}
    reasons = Counter(r.reason for r in records if r.reason is not None)
    unexpected = Counter(f"{r.op.kind}:N={r.op.n}:{r.reason}" for r in records
                         if r.reason is not None
                         and not workloads.known_defect(r.op, r.reason))
    report = {"workload": name, "seed": seed, "trace": int(trace), "ops": len(records),
              "failures": dict(sorted(reasons.items())),
              "unexpected_failures": dict(sorted(unexpected.items())),
              "fail_frac": sum(reasons.values()) / len(records), **extra}
    print(json.dumps(report))
    for metric, (value, unit) in metrics.items():
        print(f"{name:10s} {metric:32s} {value:14.6g} {unit}")
    return {"correct": not unexpected, "attempted": len(records),
            "failed": sum(reasons.values()),
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not pathlib.Path(ptchain.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"ptchain imported from {ptchain.__file__}, not from {SRC}")

    if args.workload == "all":
        return run_all(args)
    print(json.dumps({"environment": environment()}))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so that peak_rss_mb is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{n}.{m}": v for n, r in results.items()
                                  for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
