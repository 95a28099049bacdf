"""Seeded workloads of the ptchain benchmark: op generation, execution and checks.

A workload is a fixed, dense grid of chain lengths N.  One *pass* runs every
grid point once (once per call kind for `scan`), in a shuffled order.  The
gamma range is cut into one narrow stratum per grid point; every pass holds
each stratum once, at its centre, and the assignment of strata to N moves
from pass to pass.  The seed sets the order of the ops in each pass.  A run
of k passes therefore holds the same ops for every seed: it pays the same
work, so goodput and the latency percentiles compare across seeds although
op cost grows like N^2 to N^4 and changes up to twofold with gamma at fixed
N, and it fails the same ops, so `failed` is the same on every run.

Each op is checked after it returns, outside the timed region, against a
reference built here from the model definition alone (a dense matrix, the
trace identities, the closed-form phase boundary, a three-term recurrence),
never from ptchain itself.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass

import numpy as np

import ptchain
from ptchain import cli

J = 1.0
SPECTRAL_BOUND = 1e-8   # the bound `ptchain verify` applies to oracle_match
SWEEP_STEPS = 21
OFF = "off_reference"
NONFINITE = "nonfinite"


@dataclass(frozen=True)
class Op:
    kind: str            # spectra | hermitian | verify | sweep | phase | critical
    n: int
    gamma: float = 0.0   # sweep: lower end of the gamma range
    gamma_hi: float = 0.0  # sweep: upper end of the gamma range


@dataclass(frozen=True)
class Workload:
    grid: tuple[int, ...]
    kinds: tuple[str, ...]
    gammas: tuple[float, float] = (0.0, 0.0)  # gamma range, units of gamma_c


def log_grid(lo: int, hi: int, points: int) -> tuple[int, ...]:
    """Distinct integers log-spaced from lo to hi: the deterministic log-uniform N."""
    return tuple(sorted({round(lo * (hi / lo) ** (i / (points - 1)))
                         for i in range(points)}))


# Why each workload exists is set out in README.md.
WORKLOADS = {
    # bethe: O(N^2) null filter, per-bracket refinement; the broken half
    # reaches the kappa overflow
    "spectra": Workload(log_grid(256, 4096, 24), ("spectra",), (0.0, 2.0)),
    # metric: Jacobi; both parities, so both canonical_basis branches
    "hermitian": Workload(tuple(n for n in range(8, 65) if n % 4 < 2), ("hermitian",),
                          (0.0, 0.95)),
    # oracle: Durand-Kerner; N=35 drifts past 1e-8 and N>=44 gives NaN roots
    # at every gamma, while N=21-34 and 36-43 cost seconds or flip with gamma.
    # N=2-20 appear three times, so the latency percentiles, which fall
    # there, rest on many ops and not on the one 5 s op at N=35.
    "verify": Workload(tuple(range(2, 21)) * 3 + (35, 44, 48, 56, 64), ("verify",),
                       (0.0, 2.0)),
    # many small bethe calls under the cli and exceptional layers
    "scan": Workload(log_grid(8, 256, 22), ("sweep", "phase", "critical")),
}


def gamma_c(n: int) -> float:
    """Closed-form phase boundary: J sqrt((m+1)/m) for N = 2m+1, J for even N."""
    if n % 2:
        m = (n - 1) // 2
        return J * math.sqrt((m + 1) / m)
    return J


def stratum(i: int, index: int, count: int) -> int:
    """Gamma stratum of grid point i in pass `index`, out of `count`.

    A fixed step near count/golden ratio, coprime to count, sends neighbouring
    N to distant strata; each pass shifts the assignment by one.
    """
    step = round(0.618 * count)
    while math.gcd(step, count) != 1:
        step += 1
    return (i * step + index) % count


def centre(lo: float, hi: float, s: int, count: int) -> float:
    """Centre of stratum s of [lo, hi] cut into `count` equal strata.

    Not a random point: near N=420-710 the kappa overflow on `spectra`
    depends on gamma, and a drawn gamma would let the seed move `failed`.
    """
    return lo + (hi - lo) * (s + 0.5) / count


def make_pass(workload: Workload, rng: random.Random, index: int) -> list[Op]:
    """One op per grid point and kind; each gamma stratum once per pass.

    The rng only shuffles the pass.
    """
    ops = []
    count = len(workload.grid)
    for i, n in enumerate(workload.grid):
        gc = gamma_c(n)
        s = stratum(i, index, count)
        for kind in workload.kinds:
            if kind == "sweep":
                # both ends in stratum s: ends in mirrored strata would
                # centre the range on gamma_c, which step 10 would hit exactly
                ops.append(Op(kind, n, gc * centre(0.5, 0.95, s, count),
                              gc * centre(1.05, 1.5, s, count)))
            elif kind in ("phase", "critical"):
                ops.append(Op(kind, n))
            else:
                ops.append(Op(kind, n, gc * centre(*workload.gammas, s, count)))
    rng.shuffle(ops)
    return ops


def passes(name: str, seed: int):
    """Endless stream of passes; the same (name, seed) gives the same stream."""
    rng = random.Random(f"{name}:{seed}")
    workload = WORKLOADS[name]
    index = 0
    while True:
        yield make_pass(workload, rng, index)
        index += 1


def critical_grid(n: int) -> np.ndarray:
    """The +-log grid of scripts/level_repulsion_sweep.py: 1e-4..1e-2 gamma_c each side."""
    gc = gamma_c(n)
    offsets = gc * np.logspace(-4.0, -2.0, 13)
    return np.concatenate([gc - offsets[::-1], gc + offsets])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_op(op: Op):
    """Call the public entry point for one op; everything here is timed.

    Functions are looked up on their module at call time so that the traced
    run's wrappers see every call.
    """
    if op.kind == "spectra":
        return ptchain.solve_spectrum(ptchain.ChainSpec(op.n, J, op.gamma)).energies
    if op.kind == "hermitian":
        return ptchain.equivalent_hermitian(ptchain.ChainSpec(op.n, J, op.gamma)).h_matrix
    if op.kind == "verify":
        spec = ptchain.ChainSpec(op.n, J, op.gamma)
        roots = ptchain.oracle_spectrum(spec)
        energies = ptchain.solve_spectrum(spec).energies
        return roots, energies, ptchain.spectral_distance(energies, roots)
    if op.kind == "sweep":
        return _run_cli(["sweep", "--n", str(op.n), "--gamma-min", repr(op.gamma),
                         "--gamma-max", repr(op.gamma_hi), "--steps", str(SWEEP_STEPS)])
    if op.kind == "phase":
        return _run_cli(["phase", "--n", str(op.n)])
    if op.kind == "critical":
        return ptchain.critical_sweep(op.n, critical_grid(op.n))
    raise ValueError(f"unknown op kind {op.kind!r}")


# ---------------------------------------------------------------- references

def dense_hamiltonian(n: int, gamma: float) -> np.ndarray:
    h = np.diag(np.full(n - 1, -J + 0j), 1)
    h = h + h.T
    h[0, 0], h[-1, -1] = 1j * gamma, -1j * gamma
    return h


def match_distance(a, b) -> float:
    """Symmetric Hausdorff distance of two equal-size point sets.

    The chain's eigenvalues are distinct, so a set that is within d of the
    other in both directions is a pairing within d.  A size mismatch or a
    non-finite entry gives inf, so it cannot pass any bound.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if (a.shape != b.shape or a.ndim != 1
            or not (np.isfinite(a).all() and np.isfinite(b).all())):
        return math.inf
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def spectrum_reason(energies, n: int, gamma: float, tol: float) -> str | None:
    """O(N) gate: mode count, chiral pairing and the traces of H and H^2.

    tr H = i gamma - i gamma = 0 and tr H^2 = 2(N-1)J^2 - 2 gamma^2.
    """
    e = np.asarray(energies, dtype=complex)
    if not np.isfinite(e).all():
        return NONFINITE
    if e.shape != (n,):
        return OFF
    if (abs(e.sum()) > tol * n
            or abs((e * e).sum() - (2 * (n - 1) * J * J - 2 * gamma * gamma)) > tol * n):
        return OFF
    re, im = np.sort(e.real), np.sort(e.imag)
    if np.max(np.abs(re + re[::-1])) > tol or np.max(np.abs(im + im[::-1])) > tol:
        return OFF
    return None


def newton_steps(n: int, gammas, xs) -> np.ndarray:
    """|D_N(x) / D_N'(x)| for det(H - x): to first order, the distance to an eigenvalue.

    D_m = (d_m - x) D_{m-1} - J^2 D_{m-2} with d_1 = i gamma, d_N = -i gamma,
    rescaled against overflow; vectorized over (gamma, x) pairs.
    """
    x = np.asarray(xs, dtype=complex)
    g = np.asarray(gammas, dtype=float)
    jj = J * J
    d_prev, d = np.ones_like(x), 1j * g - x
    p_prev, p = np.zeros_like(x), -np.ones_like(x)
    for m in range(2, n + 1):
        diag = -1j * g if m == n else 0.0
        d_next = (diag - x) * d - jj * d_prev
        p_next = -d + (diag - x) * p - jj * p_prev
        d_prev, d, p_prev, p = d, d_next, p, p_next
        scale = np.maximum(np.abs(d), np.abs(p))
        scale = np.where(scale > 1e100, scale, 1.0)
        d_prev, d, p_prev, p = d_prev / scale, d / scale, p_prev / scale, p / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(d / p)


def _csv_rows(text: str, header: str) -> list[list[float]] | None:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None
    try:
        return [[float(v) for v in line.split(",")[:6]] for line in lines[1:]]
    except ValueError:
        return None


def _check_sweep(op: Op, result) -> str | None:
    code, text = result
    rows = _csv_rows(text, "gamma,level_index,k_re,k_im,energy_re,energy_im,phase")
    if code != 0 or rows is None or len(rows) != SWEEP_STEPS * op.n:
        return OFF
    table = np.array(rows)
    if not np.isfinite(table).all():
        return NONFINITE
    gammas = np.linspace(op.gamma, op.gamma_hi, SWEEP_STEPS)
    for step, block in enumerate(table.reshape(SWEEP_STEPS, op.n, 6)):
        if np.max(np.abs(block[:, 0] - gammas[step])) > 1e-9:
            return OFF
        reason = spectrum_reason(block[:, 4] + 1j * block[:, 5], op.n, gammas[step], 1e-9)
        if reason:
            return reason
    return None


def _check_phase(op: Op, result) -> str | None:
    code, text = result
    rows = _csv_rows(text, "n,j,gamma_c_analytic,gamma_c_numeric,abs_error")
    if code != 0 or rows is None or len(rows) != 1:
        return OFF
    n, j, analytic, numeric, error = rows[0][:5]
    if not all(map(math.isfinite, (analytic, numeric, error))):
        return NONFINITE
    gc = gamma_c(op.n)
    if n != op.n or j != J or abs(analytic - gc) > 1e-11 or abs(numeric - gc) > 1e-6:
        return OFF
    return None


def _check_critical(op: Op, reports) -> str | None:
    grid = critical_grid(op.n)
    if len(reports) != len(grid) or any(r.skipped for r in reports):
        return OFF
    gammas = np.array([r.gamma for r in reports])
    levels = np.array([r.two_levels for r in reports])
    if not np.isfinite(levels).all():
        return NONFINITE
    unbroken = gammas < gamma_c(op.n)
    if (np.max(np.abs(gammas - grid)) > 1e-15 * gammas.max()
            or np.max(np.abs(levels[:, 0] + levels[:, 1])) > 1e-12
            or np.max(np.abs(levels[unbroken].imag), initial=0.0) > 1e-12
            or np.max(np.abs(levels[~unbroken].real), initial=0.0) > 1e-12):
        return OFF
    steps = newton_steps(op.n, np.repeat(gammas, 2), levels.ravel())
    if not np.all(steps <= 1e-8):
        return OFF
    return None


def check(op: Op, result) -> str | None:
    """None when the op's output matches its reference, else the failure class."""
    if op.kind == "spectra":
        return spectrum_reason(result, op.n, op.gamma, 1e-10)
    if op.kind == "hermitian":
        h = np.asarray(result)
        if not np.isfinite(h).all():
            return NONFINITE
        if h.shape != (op.n, op.n) or np.max(np.abs(h - h.T)) > 1e-9:
            return OFF
        ref = np.sort(np.linalg.eigvals(dense_hamiltonian(op.n, op.gamma)).real)
        got = np.linalg.eigvalsh(0.5 * (h + h.T))
        return OFF if np.max(np.abs(got - ref)) > SPECTRAL_BOUND else None
    if op.kind == "verify":
        roots, energies, distance = result
        if not (np.isfinite(roots).all() and np.isfinite(energies).all()
                and math.isfinite(distance)):
            return NONFINITE
        ref = np.linalg.eigvals(dense_hamiltonian(op.n, op.gamma))
        if (match_distance(roots, ref) > SPECTRAL_BOUND
                or match_distance(energies, ref) > SPECTRAL_BOUND
                or distance > SPECTRAL_BOUND):
            return OFF
        return None
    if op.kind == "sweep":
        return _check_sweep(op, result)
    if op.kind == "phase":
        return _check_phase(op, result)
    if op.kind == "critical":
        return _check_critical(op, result)
    raise ValueError(f"unknown op kind {op.kind!r}")


def known_defect(op: Op, reason: str) -> bool:
    """True for the failures README.md lists as known solver defects.

    They are counted in `failed` but leave `correct` true; any other failure
    makes the run incorrect.  spectra: the kappa OverflowError, broken phase
    only (ROADMAP item 2).  verify: the oracle drift at N=35 and its NaN roots
    at N>=44 (ROADMAP item 3).
    """
    if op.kind == "spectra":
        return reason == "raised:OverflowError" and op.gamma > gamma_c(op.n)
    if op.kind == "verify":
        return (op.n == 35 and reason == OFF) or (op.n >= 44 and reason == NONFINITE)
    return False
