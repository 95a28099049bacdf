"""Metric operator, canonical basis, and the equivalent Hermitian Hamiltonian.

Pipeline (unbroken phase):

1. eta = sum_k |g_k><g_k| over the CPT-normalized dual states; Hermitian,
   positive-definite, eta^-1 = eta^*, PT-invariant, det = 1.
2. Gauge |l> -> i^(l mod 2) |l>: eta becomes real symmetric, H becomes purely
   imaginary.  The gauged eta commutes with a reflection operator: the plain
   site exchange for even N, the sign-twisted exchange (exchange o R) for odd
   N, where R|l> = (-1)^l |l>.
3. Project the real eta onto the orthonormal parity basis
   (e_l + s refl e_l)/|.| of each reflection sector s = +-1 and
   Jacobi-diagonalize one sector block at a time, so every eigenvector has
   exact parity.  Eigenvalues come in reciprocal pairs (eps, 1/eps) mapped
   onto each other by R.  For even N, R swaps the two sectors, so only the
   N/2 x N/2 + block is solved and R supplies the other half; for odd N, R
   keeps each sector, whose blocks are sized (N-1)/2 and (N+1)/2.  Matrix
   elements of the gauged H between equal-parity vectors vanish identically,
   which is what makes the final block structure possible.
4. Order the basis into two parity-uniform halves paired through R, scale by
   sqrt(eps_m/eps_n), and twist the second half by i.  The result is a real
   symmetric matrix with vanishing diagonal blocks: a bipartite hopping model
   whose hopping amplitudes are the lambda table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, GaugeError, NonConvergence, StructureError
from .model import ChainSpec, build_hamiltonian
from .states import EigenBasis, build_eigenbasis

# Below this gamma the metric is numerically degenerate (all eps -> 1) and the
# canonical basis is defined by continuity: evaluate at GAMMA_FLOOR instead.
GAMMA_FLOOR = 1e-6

# Largest imaginary residue of the gauged metric, and largest error of a
# reciprocal pair eps * (1/eps) or of the self-paired vector's R eigenvalue.
GAUGE_TOL = 1e-8
PAIRING_TOL = 1e-8


def build_metric(basis: EigenBasis) -> np.ndarray:
    """eta[m,n] = sum_k g_k^m conj(g_k^n), i.e. sum_k |g_k><g_k|.

    Positive-definite and Hermitian; satisfies eta H = H^dagger eta.
    """
    return basis.g @ basis.g.conj().T


def exchange_matrix(n: int) -> np.ndarray:
    """Site reflection l -> N+1-l."""
    return np.eye(n)[::-1]


def alternating_matrix(n: int) -> np.ndarray:
    """R|l> = (-1)^l |l>, sites numbered 1..N."""
    return np.diag((-1.0) ** np.arange(1, n + 1))


def reflection_matrix(n: int) -> np.ndarray:
    """The reflection that commutes with the gauged metric.

    Plain exchange for even N; for odd N the gauge twists the exchange
    symmetry into (exchange o R).
    """
    p = exchange_matrix(n)
    return p if n % 2 == 0 else p @ alternating_matrix(n)


def _gauge_phases(n: int) -> np.ndarray:
    return 1j ** (np.arange(1, n + 1) % 2)


def gauge_real(eta: np.ndarray) -> np.ndarray:
    """Conjugate by diag(i^(l mod 2)); the result is real symmetric.

    Raises GaugeError when the imaginary residue exceeds GAUGE_TOL, which
    signals that the input was not a valid metric of this model.
    """
    n = eta.shape[0]
    d = _gauge_phases(n)
    gauged = np.conj(d)[:, None] * eta * d[None, :]
    resid = float(np.max(np.abs(gauged.imag)))
    if resid > GAUGE_TOL:
        raise GaugeError(f"imaginary residue {resid:.2e} after gauging")
    return gauged.real


def _round_robin(m: int) -> np.ndarray:
    """The m-1 rounds of m/2 disjoint index pairs that cover every pair once (m even).

    Circle method: index 0 stays put while the others rotate one place per
    round, and a round pairs position i with position m-1-i.  Returns an
    (m-1, m/2, 2) array of (p, q) rows.
    """
    shift = np.arange(m - 1)
    ring = (shift[None, :] - shift[:, None]) % (m - 1) + 1
    players = np.hstack((np.zeros((shift.size, 1), dtype=int), ring))
    return np.stack((players[:, : m // 2], players[:, ::-1][:, : m // 2]), axis=2)


def jacobi_eigensystem(sym: np.ndarray, tol: float = 1e-12,
                       max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real symmetric matrix.

    Parallel-ordered Jacobi (Brent & Luk, SIAM J. Sci. Stat. Comput. 6 (1985)
    69-84): each sweep runs the m-1 round-robin rounds of m/2 disjoint (p, q)
    pairs, m = n rounded up to even; odd n gets one zero pad row and column.
    Rotations on disjoint pairs commute and leave each other's (p, q) entries
    alone, so a round applies all its rotations at once.  Each angle is the
    small one, |phi| <= pi/4, and a pair with an exactly-zero a[p, q] is not
    rotated, so the pad is never mixed in.  Sweeps run until the off-diagonal
    Frobenius mass drops below `tol`.  Returns (values, vectors) with vectors
    in columns.
    """
    a = np.asarray(sym, dtype=float)
    n = a.shape[0]
    if (a.shape != (n, n) or not np.allclose(
            a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.linalg.norm(a))))):
        raise ValueError("input must be real symmetric")
    m = n + n % 2
    # x = [a | V^T]: a rotation G acts on the rows of both (G^T a, G^T V^T),
    # and the column half of G^T a G is the same row rotation applied to a^T.
    x = np.zeros((m, 2 * m))
    x[:n, :n] = a
    x[:, m:] = np.eye(m)
    a = x[:, :m]
    a_t, diag = a.T, a.diagonal()
    rounds = _round_robin(m)
    for _ in range(max_sweeps):
        if np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2) < tol:
            break
        for pairs in rounds:
            p, q = pairs[:, 0], pairs[:, 1]
            apq = a[p, q]
            live = apq != 0.0
            theta = (diag[q] - diag[p]) / (2.0 * np.where(live, apq, 1.0))
            t = np.where(live, np.copysign(
                1.0 / (np.abs(theta) + np.hypot(theta, 1.0)), theta), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rot = np.array(((c, -s), (s, c))).transpose(2, 0, 1)
            x[pairs] = rot @ x[pairs]
            a_t[pairs] = rot @ a_t[pairs]
            a[p, q] = a[q, p] = 0.0
    else:
        raise NonConvergence(f"Jacobi sweeps exceeded {max_sweeps}")
    order = np.argsort(diag[:n])
    return diag[order], x[order, m:m + n].T


@dataclass(frozen=True)
class MetricDecomposition:
    """Canonical eigensystem of the gauged metric.

    `basis` holds real orthonormal columns ordered into the two parity-uniform
    halves; `eigenvalues` follows the same order; `pairing[i] = j` means
    basis[:, i] is R basis[:, j] up to sign (the middle column of odd N pairs
    with itself).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    pairing: tuple[int, ...]
    first_half: int


@dataclass(frozen=True)
class HermitianEquivalent:
    """Real symmetric equivalent Hamiltonian with its bipartite coupling block."""

    h_matrix: np.ndarray
    block_a: np.ndarray
    sublattice_sizes: tuple[int, int]


def _sector_basis(refl: np.ndarray, s: float) -> np.ndarray:
    """Orthonormal columns (e_l + s refl e_l)/|.| spanning the sector refl = s."""
    n = refl.shape[0]
    cols = (np.eye(n) + s * refl)[:, : (n + 1) // 2]
    norms = np.linalg.norm(cols, axis=0)
    return cols[:, norms > 0] / norms[norms > 0]


def _fix_pair_signs(basis: np.ndarray, pairing: tuple[int, ...]) -> None:
    # Deterministic gauge: each vector's first significant component is made
    # non-negative.  Partners flip together so the pairing signs survive.
    for i, partner in enumerate(pairing):
        if partner < i:
            continue
        v = basis[:, i]
        lead = v[np.nonzero(np.abs(v) > 1e-8)[0][0]]
        if lead < 0:
            basis[:, i] = -v
            if partner != i:
                basis[:, partner] = -basis[:, partner]


def canonical_basis(eta_real: np.ndarray) -> MetricDecomposition:
    """Order the metric eigensystem into reciprocal-paired, parity-definite halves.

    eta_real is projected onto the orthonormal parity basis (e_l + s refl e_l)/|.|
    of each reflection sector s = +-1 and diagonalized one sector block at a
    time, so every eigenvector has exact parity.  Even N: only the + block
    (N/2 x N/2) is solved; it is the first half (descending eigenvalue) and R
    maps it onto the - sector with reciprocal eigenvalues, which is the second
    half.  Odd N: R preserves the sectors, so each block, sized (N-1)/2 and
    (N+1)/2, is its own half: eps > 1 (descending), the self-paired eps = 1
    vector of the odd-sized block, then the R-partners of the eps > 1 vectors.
    Every R-partner is checked against eta through its Rayleigh quotient, to
    PAIRING_TOL.
    """
    n = eta_real.shape[0]
    refl = reflection_matrix(n)
    r = alternating_matrix(n)
    jacobi_tol = 1e-14 * max(1.0, float(np.linalg.norm(eta_real)))

    def sector_solve(s: float) -> tuple[np.ndarray, np.ndarray]:
        p = _sector_basis(refl, s)
        w, u = jacobi_eigensystem(p.T @ eta_real @ p, tol=jacobi_tol)
        return w[::-1], p @ u[:, ::-1]

    h = n // 2
    if n % 2 == 0:
        w, v = sector_solve(1.0)
        basis = np.hstack((v, r @ v[:, ::-1]))
        eps = np.concatenate((w, 1.0 / w[::-1]))
        pairing = tuple(range(n - 1, -1, -1))
    else:
        # The self-paired eps = 1 vector lives in the odd-sized sector; the
        # other eigenvalues pair up inside their own sector.
        halves = []
        for w, v in sorted((sector_solve(s) for s in (1.0, -1.0)),
                           key=lambda e: e[0].size):
            odd = w.size % 2 == 1
            single = int(np.argmin(np.abs(w - 1.0)))
            if (abs(w[single] - 1.0) <= 1e-8) != odd:
                raise DegeneracyError(
                    f"self-paired eigenvalue {'missing from' if odd else 'found in'} "
                    f"a sector of size {w.size}")
            rest = [i for i in range(w.size) if not (odd and i == single)]
            ups = [i for i in rest if w[i] > 1.0]
            if 2 * len(ups) != len(rest):
                raise DegeneracyError("reciprocal pairs unbalanced inside a sector")
            halves.append((w, v, ups, [single] if odd else []))

        s_vec = next(v[:, mid[0]] for _, v, _, mid in halves if mid)
        sigma = float(s_vec @ r @ s_vec)
        if abs(abs(sigma) - 1.0) > PAIRING_TOL:
            raise DegeneracyError(
                f"self-paired vector is not an R eigenvector ({sigma:.3f})")
        # Partner-sign convention that makes the coupling block reflection-symmetric:
        # the singleton's half uses sigma, the other half -sigma.
        sigma = 1.0 if sigma > 0 else -1.0
        cols, eps = [], []
        for w, v, ups, mid in halves:
            sign = sigma if mid else -sigma
            cols += [v[:, ups + mid], sign * (r @ v[:, ups[::-1]])]
            eps += [w[ups + mid], 1.0 / w[ups[::-1]]]
        basis, eps = np.hstack(cols), np.concatenate(eps)
        pairing = tuple(range(h - 1, -1, -1)) + tuple(range(n - 1, h - 1, -1))

    # Each R-partner is the later column of its pair: one diagonal of
    # (RV)^T eta (RV) checks them all against 1/eps of the earlier one.
    later = [j for j, i in enumerate(pairing) if j > i]
    rv = basis[:, later]
    rec = np.einsum("ij,ij->j", rv, eta_real @ rv)
    w = eps[[pairing[j] for j in later]]
    bad = np.flatnonzero(~(np.abs(w * rec - 1.0) <= PAIRING_TOL))  # NaN never passes
    if bad.size:
        raise DegeneracyError(
            f"reciprocal pairing failed: eps={w[bad[0]]:.6g}, R-partner "
            f"Rayleigh quotient {rec[bad[0]]:.6g}")
    _fix_pair_signs(basis, pairing)
    return MetricDecomposition(eps, basis, pairing, h)


def hermitian_equivalent(decomp: MetricDecomposition,
                         hamiltonian: np.ndarray) -> HermitianEquivalent:
    """Real symmetric block-anti-diagonal equivalent of the (site-basis) Hamiltonian.

    Forms sqrt(eps_m/eps_n) <eps_m|H|eps_n> in the canonical basis of the
    gauged metric and twists the second half by i, which renders the matrix
    real with vanishing diagonal blocks.  Raises StructureError when the
    diagonal-block residue exceeds 1e-6 (an ordering/sign convention failure).
    """
    n = decomp.basis.shape[0]
    d = _gauge_phases(n)
    h_gauged = np.conj(d)[:, None] * hamiltonian * d[None, :]
    eps = decomp.eigenvalues
    core = decomp.basis.T @ h_gauged @ decomp.basis
    pre = np.sqrt(np.outer(eps, 1.0 / eps)) * core

    h = decomp.first_half
    diag_resid = max(float(np.max(np.abs(pre[:h, :h]))),
                     float(np.max(np.abs(pre[h:, h:]))))
    if diag_resid > 1e-6:
        raise StructureError(f"diagonal-block residue {diag_resid:.2e}")

    twist = 1j ** np.concatenate([np.zeros(h, dtype=int), np.ones(n - h, dtype=int)])
    full = np.conj(twist)[:, None] * pre * twist[None, :]
    imag_resid = float(np.max(np.abs(full.imag)))
    if imag_resid > 1e-6:
        raise StructureError(f"imaginary residue {imag_resid:.2e} after phase twist")

    h_matrix = full.real  # diagonal-block residues kept; callers assert on them
    return HermitianEquivalent(h_matrix=h_matrix, block_a=h_matrix[:h, h:].copy(),
                               sublattice_sizes=(h, n - h))


def _at_floor(spec: ChainSpec) -> ChainSpec:
    return ChainSpec(spec.n_sites, spec.hopping, max(spec.gamma, GAMMA_FLOOR))


def metric_decomposition(spec: ChainSpec) -> MetricDecomposition:
    """Full pipeline from a chain spec to the canonical metric eigensystem.

    Below GAMMA_FLOOR the metric is fully degenerate (eta -> identity), so the
    canonical basis is taken from the continuity limit: the pipeline runs at
    gamma = GAMMA_FLOOR instead.
    """
    return canonical_basis(gauge_real(build_metric(build_eigenbasis(_at_floor(spec)))))


def equivalent_hermitian(spec: ChainSpec) -> HermitianEquivalent:
    """Equivalent Hermitian Hamiltonian of the chain (unbroken phase).

    Like `metric_decomposition`, it runs at gamma = GAMMA_FLOOR below the floor.
    """
    return hermitian_equivalent(metric_decomposition(spec), build_hamiltonian(_at_floor(spec)))
