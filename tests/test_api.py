import ptchain

# The public names of the package, one per row of the census of exported
# names in CHANGES.md: a name is added or removed here and there together.
PUBLIC = [
    "ChainSpec", "CriticalReport", "EigenBasis", "HermitianEquivalent", "MetricDecomposition",
    "Phase", "SpectralSolution", "alpha_parameter", "apply_pt", "build_c_operator",
    "build_eigenbasis", "build_hamiltonian", "build_metric", "canonical_basis",
    "classify_phase", "coalescence_gap", "cpt_inner", "critical_levels", "critical_sweep",
    "delta_approx", "equivalent_hermitian", "errors", "gamma_critical", "gauged_factor",
    "hermitian_equivalent", "kappa_approx", "locate_critical_gamma", "metric_decomposition",
    "oracle_eigenvector", "oracle_spectrum", "pt_norm", "repulsion_law",
    "solve_kappa", "solve_spectra", "solve_spectrum", "spectral_distance",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 36
    assert sorted(ptchain.__all__) == PUBLIC
    namespace = {}
    exec("from ptchain import *", namespace)
    assert all(namespace[name] is getattr(ptchain, name) for name in PUBLIC)
