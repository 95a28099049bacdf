"""Command-line front end: spectra, sweeps, phase boundary, metric, lambda table, verify.

Output is byte-deterministic for a fixed invocation: floats are printed with
12 significant digits, rows end with a bare newline, CSV uses ','.
Exit codes: 0 success, 1 computation/verification failure, 2 invalid arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .bethe import SpectralSolution, locate_critical_gamma, solve_spectra, solve_spectrum
from .errors import PTChainError
from .metric import (build_metric, canonical_basis, equivalent_hermitian, gauged_factor,
                     hermitian_equivalent, reflection_matrix)
from .model import ChainSpec, _check_gamma, build_hamiltonian, gamma_critical
from .oracle import oracle_spectrum, spectral_distance
from .states import _eigenbasis, build_c_operator, build_eigenbasis, cpt_inner


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _rounded(record: dict) -> dict:
    return {h: float(_fmt(v)) if isinstance(v, float) else v for h, v in record.items()}


def _emit(rows: list[tuple], header: list[str], args, meta: dict) -> None:
    """Write `rows`, tuples in `header` order whose columns keep one type each."""
    if args.format == "csv":
        # one template per table: %.12g prints a float as _fmt does, %s as str
        template = ",".join("%.12g" if isinstance(v, float) else "%s"
                            for v in (rows[0] if rows else ()))
        text = "\n".join([",".join(header), *(template % row for row in rows)]) + "\n"
    else:
        payload = {"meta": _rounded(meta),
                   "records": [_rounded(dict(zip(header, row))) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _meta(args, **extra) -> dict:
    base = {"version": __version__, "n_sites": args.n, "hopping": args.j}
    base.update(extra)
    return base


def _spectrum_rows(sol: SpectralSolution) -> list[tuple]:
    gamma, phase = sol.spec.gamma, sol.phase.value
    return [(gamma, idx, k.real, k.imag, e.real, e.imag, phase)
            for idx, (k, e) in enumerate(zip(sol.k.tolist(), sol.energies.tolist()))]


SPECTRUM_HEADER = ["gamma", "level_index", "k_re", "k_im",
                   "energy_re", "energy_im", "phase"]


def cmd_spectrum(args) -> int:
    sol = solve_spectrum(ChainSpec(args.n, args.j, args.gamma))
    _emit(_spectrum_rows(sol), SPECTRUM_HEADER, args,
          _meta(args, gamma=args.gamma, command="spectrum"))
    return 0


def cmd_sweep(args) -> int:
    for end in (args.gamma_min, args.gamma_max):  # as gammas: linspace makes a nan of an inf
        _check_gamma(end)
    if not args.gamma_min < args.gamma_max:
        raise ValueError("--gamma-min must be below --gamma-max")
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.steps)
    rows = [row for sol in solve_spectra(args.n, args.j, gammas)
            for row in _spectrum_rows(sol)]
    _emit(rows, SPECTRUM_HEADER, args,
          _meta(args, gamma_min=args.gamma_min, gamma_max=args.gamma_max,
                steps=args.steps, command="sweep"))
    return 0


def cmd_phase(args) -> int:
    analytic = gamma_critical(args.n, args.j)
    numeric = locate_critical_gamma(args.n, args.j)
    rows = [(args.n, args.j, analytic, numeric, abs(analytic - numeric))]
    _emit(rows, ["n", "j", "gamma_c_analytic", "gamma_c_numeric", "abs_error"],
          args, _meta(args, command="phase"))
    return 0


def cmd_metric(args) -> int:
    spec = ChainSpec(args.n, args.j, args.gamma)
    w = gauged_factor(build_eigenbasis(spec))
    eta = w @ w.T
    rows = [(args.n, args.gamma, i + 1, k + 1, value)
            for i, line in enumerate(eta.tolist()) for k, value in enumerate(line)]
    _emit(rows, ["n", "gamma", "row", "col", "value"], args,
          _meta(args, gamma=args.gamma, command="metric"))
    return 0


def cmd_hermitian(args) -> int:
    spec = ChainSpec(args.n, args.j, args.gamma)
    block = equivalent_hermitian(spec).block_a
    rows = [(args.n, args.gamma, i + 1, j + 1, value)
            for i, line in enumerate(block.tolist()) for j, value in enumerate(line)]
    _emit(rows, ["n", "gamma", "i", "j", "lambda"], args,
          _meta(args, gamma=args.gamma, command="hermitian"))
    return 0


def _verify_checks(n_max: int, hopping: float):
    """Yield (check, n, ok) triples for the invariant suite.

    Bounds on energies and on commutators with H are in units of J; those
    on dimensionless quantities (C, the metric, the Gram matrices) are
    absolute.  The Bethe spectra and the bisection for gamma_c take no
    tolerance: the bisection ends where the phase rule flips, within 2 ulp
    of the closed form (`locate_critical_gamma`), the bound of its check.
    """
    ident_tol = 1e-8
    energy_tol = ident_tol * hopping
    for n in range(2, n_max + 1):
        gc, found = gamma_critical(n, hopping), locate_critical_gamma(n, hopping)
        yield ("phase_boundary", n, abs(found - gc) <= 2 * np.spacing(gc))
        solved = {}
        for frac in (0.5, 1.3):
            spec = ChainSpec(n, hopping, frac * gc)
            solved[frac] = solve_spectrum(spec)
            dist = spectral_distance(solved[frac].energies, oracle_spectrum(spec))
            yield (f"oracle_match_{frac}", n, dist <= energy_tol)

        spec = solved[0.5].spec
        h = build_hamiltonian(spec)
        # unbroken at 0.5 gamma_c, so its k are the N real roots, ascending in E
        basis = _eigenbasis(solved[0.5])
        c = build_c_operator(basis)
        eye = np.eye(n)
        yield ("c_squared", n, np.max(np.abs(c @ c - eye)) <= ident_tol)
        yield ("c_commutes_h", n, np.max(np.abs(c @ h - h @ c)) <= energy_tol)
        # C P - P C* with the site exchange P, as reversed columns and rows
        yield ("c_commutes_pt", n, np.max(np.abs(c[:, ::-1] - c.conj()[::-1])) <= ident_tol)
        # the CPT and the Euclidean inner product <g|f> over every pair of states
        gram = cpt_inner(c, basis.f, basis.f)
        yield ("cpt_gram", n, np.max(np.abs(gram - eye)) <= ident_tol)
        bio = basis.g.conj().T @ basis.f
        yield ("biorthonormal", n, np.max(np.abs(bio - eye)) <= ident_tol)

        # eta's own identities from the complex product; the gauged metric
        # and the canonical basis from its real factor, as in the pipeline
        eta, w = build_metric(basis), gauged_factor(basis)
        eta_r = w @ w.T
        refl = reflection_matrix(n)
        yield ("metric_hermitian", n, np.max(np.abs(eta - eta.conj().T)) <= ident_tol)
        yield ("metric_inverse_conjugate", n,
               np.max(np.abs(eta.conj() @ eta - eye)) <= ident_tol)
        yield ("metric_pseudo_hermiticity", n,
               np.max(np.abs(eta @ h - h.conj().T @ eta)) <= energy_tol)
        yield ("metric_pt_invariant", n,
               np.max(np.abs(eta.conj()[::-1, ::-1] - eta)) <= ident_tol)
        yield ("metric_bisymmetric", n,
               np.max(np.abs(refl @ eta_r @ refl - eta_r)) <= ident_tol)
        yield ("metric_det_one", n, abs(np.linalg.det(eta_r) - 1.0) <= ident_tol)
        decomp = canonical_basis(w)
        yield ("metric_reciprocal_pairs", n,
               np.max(np.abs(decomp.eigenvalues * decomp.eigenvalues[list(decomp.pairing)] - 1.0))
               <= ident_tol)

        hm = hermitian_equivalent(decomp, spec).h_matrix
        spec_h = np.sort(np.linalg.eigvalsh(hm))
        spec_site = np.sort(solved[0.5].energies.real)
        yield ("hermitian_equiv_spectrum", n,
               float(np.max(np.abs(spec_h - spec_site))) <= energy_tol)
        yield ("hermitian_equiv_symmetric", n,
               np.max(np.abs(hm - hm.T)) <= 1e-9 * hopping)


def cmd_verify(args) -> int:
    # checked before the first line is written: an error leaves no output
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2")
    failures = 0
    for check, n, ok in _verify_checks(args.n_max, args.j):
        sys.stdout.write(f"{check},{n},{'pass' if ok else 'FAIL'}\n")
        failures += 0 if ok else 1
    sys.stdout.write(f"total_failures,,{failures}\n")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ptchain",
        description="Exact solver for the PT-symmetric chain with imaginary end potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gamma=False, grange=False):
        p.add_argument("--n", type=int, required=True, help="number of sites N >= 2")
        p.add_argument("--j", type=float, default=1.0, help="hopping J (default 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if gamma:
            p.add_argument("--gamma", type=float, required=True)
        if grange:
            p.add_argument("--gamma-min", type=float, required=True)
            p.add_argument("--gamma-max", type=float, required=True)
            p.add_argument("--steps", type=int, required=True)

    common(sub.add_parser("spectrum", help="eigenmodes at one gamma"), gamma=True)
    common(sub.add_parser("sweep", help="spectra over a gamma grid"), grange=True)
    common(sub.add_parser("phase", help="phase boundary, analytic vs bisection on the phase rule"))
    common(sub.add_parser("metric", help="gauged real metric operator entries"), gamma=True)
    common(sub.add_parser("hermitian", help="coupling table of the Hermitian equivalent"),
           gamma=True)
    vp = sub.add_parser("verify", help="run the invariant suite")
    vp.add_argument("--n-max", type=int, default=8)
    vp.add_argument("--j", type=float, default=1.0)
    return parser


_DISPATCH = {"spectrum": cmd_spectrum, "sweep": cmd_sweep, "phase": cmd_phase,
             "metric": cmd_metric, "hermitian": cmd_hermitian, "verify": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be opened
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PTChainError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
