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


def _emit(header: list[str], rows: list[tuple], args) -> None:
    """Write `rows`, tuples in `header` order whose columns keep one type each.

    The JSON meta holds the version, the subcommand and its options, less
    --format and --out.
    """
    if args.format == "csv":
        # one template per table: %.12g prints a float as _fmt does, %s as str
        template = ",".join("%.12g" if isinstance(v, float) else "%s"
                            for v in (rows[0] if rows else ()))
        text = "\n".join([",".join(header), *(template % row for row in rows)]) + "\n"
    else:
        options = {k: v for k, v in vars(args).items()
                   if k not in ("n", "j", "format", "out", "table")}
        meta = {"version": __version__, "n_sites": args.n, "hopping": args.j, **options}
        payload = {"meta": _rounded(meta),
                   "records": [_rounded(dict(zip(header, row))) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _spectrum_rows(sol: SpectralSolution) -> list[tuple]:
    gamma, phase = sol.spec.gamma, sol.phase.value
    return [(gamma, idx, k.real, k.imag, e.real, e.imag, phase)
            for idx, (k, e) in enumerate(zip(sol.k.tolist(), sol.energies.tolist()))]


def _matrix_rows(args, matrix: np.ndarray) -> list[tuple]:
    return [(args.n, args.gamma, i + 1, k + 1, value)
            for i, line in enumerate(matrix.tolist()) for k, value in enumerate(line)]


SPECTRUM_HEADER = ["gamma", "level_index", "k_re", "k_im",
                   "energy_re", "energy_im", "phase"]


def cmd_spectrum(args) -> tuple[list[str], list[tuple]]:
    return SPECTRUM_HEADER, _spectrum_rows(solve_spectrum(ChainSpec(args.n, args.j, args.gamma)))


def cmd_sweep(args) -> tuple[list[str], list[tuple]]:
    for end in (args.gamma_min, args.gamma_max):  # as gammas: linspace makes a nan of an inf
        _check_gamma(end)
    if not args.gamma_min < args.gamma_max:
        raise ValueError("--gamma-min must be below --gamma-max")
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.steps)
    return SPECTRUM_HEADER, [row for sol in solve_spectra(args.n, args.j, gammas)
                             for row in _spectrum_rows(sol)]


def cmd_phase(args) -> tuple[list[str], list[tuple]]:
    analytic = gamma_critical(args.n, args.j)
    numeric = locate_critical_gamma(args.n, args.j)
    return (["n", "j", "gamma_c_analytic", "gamma_c_numeric", "abs_error"],
            [(args.n, args.j, analytic, numeric, abs(analytic - numeric))])


def cmd_metric(args) -> tuple[list[str], list[tuple]]:
    w = gauged_factor(build_eigenbasis(ChainSpec(args.n, args.j, args.gamma)))
    return ["n", "gamma", "row", "col", "value"], _matrix_rows(args, w @ w.T)


def cmd_hermitian(args) -> tuple[list[str], list[tuple]]:
    block = equivalent_hermitian(ChainSpec(args.n, args.j, args.gamma)).block_a
    return ["n", "gamma", "i", "j", "lambda"], _matrix_rows(args, block)


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
        # each vector's eps from the metric, its Rayleigh quotient |W^T p|^2:
        # the stored eps of a partner is 1/eps of its leader by construction
        rec = np.sum((w.T @ decomp.basis) ** 2, axis=0)
        yield ("metric_reciprocal_pairs", n,
               np.max(np.abs(rec * rec[list(decomp.pairing)] - 1.0)) <= ident_tol)

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


_GAMMA = (("--gamma", float),)
# name, function, help, and each option past --n, --j, --format and --out
# (all required), in the order --help lists them
_TABLES = (
    ("spectrum", cmd_spectrum, "eigenmodes at one gamma", _GAMMA),
    ("sweep", cmd_sweep, "spectra over a gamma grid",
     (("--gamma-min", float), ("--gamma-max", float), ("--steps", int))),
    ("phase", cmd_phase, "phase boundary, analytic vs bisection on the phase rule", ()),
    ("metric", cmd_metric, "gauged real metric operator entries", _GAMMA),
    ("hermitian", cmd_hermitian, "coupling table of the Hermitian equivalent", _GAMMA),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ptchain",
        description="Exact solver for the PT-symmetric chain with imaginary end potentials")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table, text, options in _TABLES:
        p = sub.add_parser(name, help=text)
        p.set_defaults(table=table)
        p.add_argument("--n", type=int, required=True, help="number of sites N >= 2")
        p.add_argument("--j", type=float, default=1.0, help="hopping J (default 1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        for flag, kind in options:
            p.add_argument(flag, type=kind, required=True)
    vp = sub.add_parser("verify", help="run the invariant suite")
    vp.add_argument("--n-max", type=int, default=8)
    vp.add_argument("--j", type=float, default=1.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        _emit(*args.table(args), args)
        return 0
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be opened
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PTChainError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
