"""Exact solver for the open PT-symmetric tight-binding chain.

An N-site chain with uniform hopping J and conjugate imaginary potentials
+i*gamma / -i*gamma at its ends: quantization-condition spectra in both
symmetry phases, CPT formalism, exceptional-point asymptotics, the metric
operator, and the equivalent Hermitian bipartite hopping model, all checked
against an independent characteristic-polynomial oracle.
"""

__version__ = "0.1.0"

from .model import ChainSpec, Phase, apply_pt, build_hamiltonian, gamma_critical
from .bethe import (SpectralSolution, classify_phase, locate_critical_gamma,
                    solve_kappa, solve_spectra, solve_spectrum)
from .states import (EigenBasis, build_c_operator, build_eigenbasis, cpt_inner,
                     pt_norm)
from .exceptional import (CriticalReport, alpha_parameter, coalescence_gap,
                          critical_levels, critical_sweep, delta_approx,
                          kappa_approx, repulsion_law)
from .metric import (HermitianEquivalent, MetricDecomposition, build_metric,
                     canonical_basis, equivalent_hermitian, gauged_factor,
                     hermitian_equivalent, metric_decomposition)
from .oracle import oracle_eigenvector, oracle_spectrum, spectral_distance
from . import errors

__all__ = [
    "ChainSpec", "Phase", "apply_pt", "build_hamiltonian", "classify_phase",
    "gamma_critical",
    "SpectralSolution", "locate_critical_gamma", "solve_kappa", "solve_spectra",
    "solve_spectrum",
    "EigenBasis", "build_c_operator", "build_eigenbasis",
    "cpt_inner", "pt_norm",
    "CriticalReport", "alpha_parameter", "coalescence_gap", "critical_levels",
    "critical_sweep", "delta_approx", "kappa_approx", "repulsion_law",
    "HermitianEquivalent", "MetricDecomposition", "build_metric",
    "canonical_basis", "equivalent_hermitian", "gauged_factor",
    "hermitian_equivalent", "metric_decomposition",
    "oracle_eigenvector", "oracle_spectrum", "spectral_distance",
    "errors",
]
