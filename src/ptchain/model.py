"""Chain specification, Hamiltonian matrix, PT action, and the phase labels.

The model is an open N-site tight-binding chain with uniform real hopping J
and a conjugate pair of imaginary on-site potentials +i*gamma / -i*gamma on
the first and last site.  Sites are labelled 1..N in all formulas; arrays use
the usual 0-based offsets internally.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

# Largest gamma/J of a chain.  Every condition the solvers take depends on
# gamma and J only through r = gamma/J.  Above it the oracle's levels came
# back 4e-3 J off with no warning at N = 8 and gamma/J = 1e154, numpy
# overflowed at N = 30, and from 1.4e154 gamma^2 raised OverflowError
_MAX_RATIO = 1e150
# Bound on N max(1, r^2): below it the phase rule's coefficient c0 = (N - 1) r^2
# - (N + 1) is a float.  Past it every phase read raised OverflowError (N =
# 10^9 + 1 at gamma/J = 1e150)
_MAX_SCALE = 1e308


class Phase(Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    CRITICAL = "critical"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ChainSpec:
    """The triple (N, J, gamma) defining one chain.

    Attributes
    ----------
    n_sites : int
        Chain length N >= 2.
    hopping : float
        Hopping energy J in [1e-300, 1e300]; the energy unit (default 1).
    gamma : float
        Finite strength gamma >= 0 of the imaginary end potentials, in units of J;
        kept as a Python float whatever number type is passed.

    A bad N, J or gamma raises ValueError.  gamma/J above 1e150, where
    (gamma/J)^2 leaves the float range, and N max(1, (gamma/J)^2) from 1e308
    on, where the phase rule's (N - 1)(gamma/J)^2 - (N + 1) nears the end of
    that range, raise DomainError: every solver's domain.
    """

    n_sites: int
    hopping: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites}")
        if not 1e-300 <= self.hopping <= 1e300:  # the range the pipelines are tested over
            raise ValueError(f"hopping must be finite and in [1e-300, 1e+300], got {self.hopping}")
        _check_gamma(self.gamma)
        object.__setattr__(self, "gamma", float(self.gamma))  # one type, whatever was passed
        r = self.gamma / self.hopping
        if r > _MAX_RATIO:
            raise DomainError(f"gamma/J = {r:.3g} is above {_MAX_RATIO:.0e}, "
                              f"where (gamma/J)^2 leaves the float range")
        if self.n_sites >= _MAX_SCALE / max(r * r, 1.0):  # an int and a float compare exactly
            raise DomainError(f"N max(1, (gamma/J)^2) is not below {_MAX_SCALE:.0e} at N = "
                              f"{self.n_sites}, gamma/J = {r:.3g}: the phase rule overflows")

    @property
    def gamma_c(self) -> float:
        """Exact phase boundary: J*sqrt((n+1)/n) for N = 2n+1, J for N = 2n."""
        n = self.n_sites // 2  # (N - 1)/2 for odd N
        return self.hopping * math.sqrt((n + 1) / n) if self.n_sites % 2 else float(self.hopping)


def _check_gamma(gamma) -> None:
    """ValueError unless 0 <= gamma <= the largest float: NaN, inf and an int past it fail."""
    if not 0 <= gamma <= sys.float_info.max:
        raise ValueError(f"gamma must be non-negative and finite, got {gamma}")


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Complex N x N matrix: -J on the two off-diagonals, +-i*gamma at the ends."""
    n = spec.n_sites
    h = np.zeros((n, n), dtype=complex)
    for l in range(n - 1):
        h[l, l + 1] = h[l + 1, l] = -spec.hopping
    h[0, 0] = 1j * spec.gamma
    h[-1, -1] = -1j * spec.gamma
    return h


def apply_pt(v: np.ndarray) -> np.ndarray:
    """PT action on site amplitudes: (PT v)_l = conj(v_{N+1-l})."""
    return np.conj(np.asarray(v)[::-1])


def gamma_critical(n_sites: int, hopping: float = 1.0) -> float:
    """Exact phase boundary `ChainSpec.gamma_c`; a bad N or J raises."""
    return ChainSpec(n_sites, hopping).gamma_c
