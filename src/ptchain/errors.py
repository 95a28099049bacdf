"""Exception types shared across the solver modules."""


class PTChainError(Exception):
    """Base class for all ptchain errors."""


class NonConvergence(PTChainError):
    """An iterative solver exhausted its iteration budget."""


class PhaseError(PTChainError):
    """Operation requested in the wrong symmetry phase."""


class DomainError(PTChainError):
    """A formula or solver evaluated outside its domain of validity."""


class GaugeError(PTChainError):
    """The gauged duals give no real metric factor: non-finite, or not on chiral roots."""


class DegeneracyError(PTChainError):
    """Reciprocal pairing of metric eigenvalues could not be established."""


class StructureError(PTChainError):
    """Block structure of the equivalent Hamiltonian failed to emerge."""

