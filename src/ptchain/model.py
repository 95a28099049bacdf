"""Chain specification, Hamiltonian matrix, PT action, and phase classification.

The model is an open N-site tight-binding chain with uniform real hopping J
and a conjugate pair of imaginary on-site potentials +i*gamma / -i*gamma on
the first and last site.  Sites are labelled 1..N in all formulas; arrays use
the usual 0-based offsets internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


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
        Finite hopping energy J > 0; the energy unit (default 1).
    gamma : float
        Finite strength gamma >= 0 of the imaginary end potentials, in units of J.
    """

    n_sites: int
    hopping: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites}")
        if not (math.isfinite(self.hopping) and self.hopping > 0):
            raise ValueError(f"hopping must be positive and finite, got {self.hopping}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")

    @property
    def gamma_c(self) -> float:
        return gamma_critical(self.n_sites, self.hopping)


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


def pt_conjugate(matrix: np.ndarray) -> np.ndarray:
    """Matrix of PT M PT for a linear operator M (antilinear conjugation)."""
    return np.conj(matrix[::-1, ::-1])


def gamma_critical(n_sites: int, hopping: float = 1.0) -> float:
    """Exact phase boundary: J*sqrt((n+1)/n) for N = 2n+1, J for N = 2n."""
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")
    if n_sites % 2:
        n = (n_sites - 1) // 2
        return hopping * math.sqrt((n + 1) / n)
    return float(hopping)


def classify_phase(spec: ChainSpec, tol: float | None = None) -> Phase:
    """Unbroken / Broken by comparison with gamma_c; Critical inside the tol band.

    The default band is 1e-9 * J.  The classification is cross-checked
    downstream by the real-root count of the quantization condition.
    """
    if tol is None:
        tol = 1e-9 * spec.hopping
    if not tol > 0:
        raise ValueError("tol must be positive")
    gc = spec.gamma_c
    if spec.gamma < gc - tol:
        return Phase.UNBROKEN
    if spec.gamma > gc + tol:
        return Phase.BROKEN
    return Phase.CRITICAL
