"""Metric operator, canonical basis, and the equivalent Hermitian Hamiltonian.

Pipeline (unbroken phase):

1. eta = sum_k |g_k><g_k| over the CPT-normalized dual states; Hermitian,
   positive-definite, eta^-1 = eta^*, PT-invariant, det = 1.
2. Gauge |l> -> i^(l mod 2) |l>: eta becomes real symmetric, H becomes purely
   imaginary.  The gauged eta commutes with a reflection operator: the plain
   site exchange for even N, the sign-twisted exchange (exchange o R) for odd
   N, where R|l> = (-1)^l |l>.
3. Jacobi-diagonalize the real eta.  Eigenvalues come in reciprocal pairs
   (eps, 1/eps) mapped onto each other by R; eigenvectors carry a definite
   reflection parity.  Matrix elements of the gauged H between equal-parity
   vectors vanish identically, which is what makes the final block structure
   possible.
4. Order the basis into two parity-uniform halves paired through R, scale by
   sqrt(eps_m/eps_n), and twist the second half by i.  The result is a real
   symmetric matrix with vanishing diagonal blocks: a bipartite hopping model
   whose couplings are the lambda table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, GaugeError, NonConvergence, PhaseError, StructureError
from .model import ChainSpec, Phase, build_hamiltonian
from .states import EigenBasis, build_eigenbasis

# Below this gamma the metric is numerically degenerate (all eps -> 1) and the
# canonical basis is defined by continuity: evaluate at GAMMA_FLOOR instead.
GAMMA_FLOOR = 1e-6


def build_metric(basis: EigenBasis) -> np.ndarray:
    """eta[m,n] = sum_k g_k^m conj(g_k^n), i.e. sum_k |g_k><g_k|.

    Positive-definite and Hermitian; satisfies eta H = H^dagger eta.
    """
    if basis.phase is not Phase.UNBROKEN:
        raise PhaseError("the metric operator exists only in the unbroken phase")
    g = np.array([state for _, state in basis.g_states])
    return g.T @ g.conj()


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


def gauge_real(eta: np.ndarray, imag_tol: float = 1e-8) -> np.ndarray:
    """Conjugate by diag(i^(l mod 2)); the result is real symmetric.

    Raises GaugeError when the imaginary residue exceeds `imag_tol`, which
    signals that the input was not a valid metric of this model.
    """
    n = eta.shape[0]
    d = _gauge_phases(n)
    gauged = np.conj(d)[:, None] * eta * d[None, :]
    resid = float(np.max(np.abs(gauged.imag)))
    if resid > imag_tol:
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

    eta_real: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray
    pairing: tuple[int, ...]
    first_half: int


@dataclass(frozen=True)
class HermitianEquivalent:
    """Real symmetric equivalent Hamiltonian with its bipartite coupling block."""

    h_matrix: np.ndarray
    block_a: np.ndarray
    couplings: dict[tuple[int, int], float]
    sublattice_sizes: tuple[int, int]


def _purified_parity(vectors: np.ndarray,
                     refl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project each column onto its dominant reflection-parity component."""
    _, m = vectors.shape
    out = np.empty_like(vectors)
    parity = np.empty(m)
    for i in range(m):
        v = vectors[:, i]
        pv = refl @ v
        q = float(v @ pv)
        if abs(abs(q) - 1.0) > 0.1:
            raise DegeneracyError(
                f"eigenvector {i} has no dominant parity (q={q:.3f}); "
                "degenerate cluster not resolved")
        sgn = 1.0 if q >= 0 else -1.0
        w = v + sgn * pv
        out[:, i] = w / np.linalg.norm(w)
        parity[i] = sgn
    return out, parity


def _fix_pair_signs(basis: np.ndarray, pairing: list[int]) -> None:
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


def canonical_basis(eta_real: np.ndarray, tol: float = 1e-8) -> MetricDecomposition:
    """Order the metric eigensystem into reciprocal-paired, parity-definite halves.

    Degenerate eigenvalue clusters are resolved by diagonalizing the
    reflection inside each cluster; every vector is then purified to an exact
    parity eigenvector.  The first half collects one member per reciprocal
    pair (descending eigenvalue); the partner positions are constructed
    explicitly through R so the pairing is exact.
    """
    n = eta_real.shape[0]
    w, v = jacobi_eigensystem(
        eta_real, tol=1e-13 * max(1.0, float(np.linalg.norm(eta_real))))
    refl = reflection_matrix(n)
    r = alternating_matrix(n)

    # Resolve near-degenerate clusters by simultaneous reflection diagonalization.
    start = 0
    while start < n:
        end = start + 1
        while end < n and w[end] - w[end - 1] < 1e-9 * max(1.0, w[end]):
            end += 1
        if end - start > 1:
            block = v[:, start:end]
            s, u = jacobi_eigensystem(block.T @ refl @ block, tol=1e-13)
            v[:, start:end] = block @ u
        start = end
    v, parity = _purified_parity(v, refl)

    def rayleigh(vec: np.ndarray) -> float:
        return float(vec @ eta_real @ vec)

    half = n // 2
    basis = np.empty((n, n))
    eps = np.empty(n)
    pairing = list(range(n))

    if n % 2 == 0:
        plus = [i for i in range(n) if parity[i] > 0]
        if len(plus) != half:
            raise DegeneracyError(
                f"expected {half} positive-parity vectors, found {len(plus)}")
        plus.sort(key=lambda i: -w[i])
        for pos, i in enumerate(plus):
            partner = r @ v[:, i]
            rec = rayleigh(partner)
            if abs(w[i] * rec - 1.0) > tol:
                raise DegeneracyError(
                    f"reciprocal pairing failed: eps={w[i]:.6g}, R-partner "
                    f"Rayleigh quotient {rec:.6g}")
            basis[:, pos] = v[:, i]
            basis[:, n - 1 - pos] = partner
            eps[pos], eps[n - 1 - pos] = w[i], 1.0 / w[i]
            pairing[pos], pairing[n - 1 - pos] = n - 1 - pos, pos
        _fix_pair_signs(basis, pairing)
        return MetricDecomposition(eta_real, eps, basis, tuple(pairing), half)

    # Odd N: halves are the two reflection sectors, sized (N-1)/2 and (N+1)/2;
    # the self-paired eps = 1 vector lives in the odd-sized sector, and each
    # reciprocal pair stays inside one sector (R preserves the parity here).
    sector_a = [i for i in range(n) if parity[i] > 0]
    sector_b = [i for i in range(n) if parity[i] < 0]
    rows_sec, cols_sec = ((sector_a, sector_b) if len(sector_a) < len(sector_b)
                          else (sector_b, sector_a))
    if {len(rows_sec), len(cols_sec)} != {half, half + 1}:
        raise DegeneracyError(
            f"reflection sectors sized {len(rows_sec)}/{len(cols_sec)}, "
            f"expected {half}/{half + 1}")

    def split_sector(sec: list[int], expect_single: bool):
        single = min(sec, key=lambda i: abs(w[i] - 1.0))
        has_single = abs(w[single] - 1.0) <= 1e-8
        if has_single != expect_single:
            raise DegeneracyError(
                f"self-paired eigenvalue {'missing from' if expect_single else 'found in'} "
                f"a sector of size {len(sec)}")
        rest = [i for i in sec if not (expect_single and i == single)]
        ups = sorted([i for i in rest if w[i] > 1.0], key=lambda i: -w[i])
        if 2 * len(ups) != len(rest):
            raise DegeneracyError("reciprocal pairs unbalanced inside a sector")
        return ups, (single if expect_single else None)

    rows_single = len(rows_sec) % 2 == 1
    rows_ups, rows_s = split_sector(rows_sec, rows_single)
    cols_ups, cols_s = split_sector(cols_sec, not rows_single)

    single_idx = rows_s if rows_single else cols_s
    s_vec = v[:, single_idx]
    sigma = float(s_vec @ r @ s_vec)
    if abs(abs(sigma) - 1.0) > tol:
        raise DegeneracyError(f"self-paired vector is not an R eigenvector ({sigma:.3f})")
    sigma = 1.0 if sigma > 0 else -1.0
    # Partner-sign convention that makes the coupling block reflection-symmetric:
    # the singleton's half uses sigma, the other half -sigma.
    sign_rows, sign_cols = (sigma, -sigma) if rows_single else (-sigma, sigma)

    def layout(ups: list[int], single: int | None, sign: float, offset: int):
        seq_vecs, seq_eps, seq_pair = [], [], []
        width = 2 * len(ups) + (1 if single is not None else 0)
        for i in ups:
            seq_vecs.append(v[:, i])
            seq_eps.append(w[i])
        if single is not None:
            seq_vecs.append(v[:, single])
            seq_eps.append(w[single])
        for i in reversed(ups):
            partner = sign * (r @ v[:, i])
            rec = rayleigh(partner)
            if abs(w[i] * rec - 1.0) > tol:
                raise DegeneracyError(
                    f"reciprocal pairing failed: eps={w[i]:.6g} vs {rec:.6g}")
            seq_vecs.append(partner)
            seq_eps.append(1.0 / w[i])
        for local in range(width):
            seq_pair.append(offset + width - 1 - local)
        return seq_vecs, seq_eps, seq_pair

    rv, re, rp = layout(rows_ups, rows_s, sign_rows, 0)
    cv, ce, cp = layout(cols_ups, cols_s, sign_cols, len(rv))
    for pos, vec in enumerate(rv + cv):
        basis[:, pos] = vec
    eps[:] = np.array(re + ce)
    pairing = rp + cp
    _fix_pair_signs(basis, pairing)
    return MetricDecomposition(eta_real, eps, basis, tuple(pairing), len(rv))


def hermitian_equivalent(decomp: MetricDecomposition,
                         hamiltonian: np.ndarray) -> HermitianEquivalent:
    """Real symmetric block-anti-diagonal equivalent of the (site-basis) Hamiltonian.

    Forms sqrt(eps_m/eps_n) <eps_m|H|eps_n> in the canonical basis of the
    gauged metric and twists the second half by i, which renders the matrix
    real with vanishing diagonal blocks.  Raises StructureError when the
    diagonal-block residue exceeds 1e-6 (an ordering/sign convention failure).
    """
    n = decomp.eta_real.shape[0]
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
    block_a = h_matrix[:h, h:].copy()
    couplings = {(i + 1, j + 1): float(block_a[i, j])
                 for i in range(h) for j in range(n - h)}
    return HermitianEquivalent(h_matrix=h_matrix, block_a=block_a,
                               couplings=couplings, sublattice_sizes=(h, n - h))


def metric_decomposition(spec: ChainSpec, tol: float = 1e-8) -> MetricDecomposition:
    """Full pipeline from a chain spec to the canonical metric eigensystem.

    Below GAMMA_FLOOR the metric is fully degenerate (eta -> identity), so the
    canonical basis is taken from the continuity limit: the pipeline runs at
    gamma = GAMMA_FLOOR instead.
    """
    gamma = max(spec.gamma, GAMMA_FLOOR)
    eff = ChainSpec(spec.n_sites, spec.hopping, gamma)
    basis = build_eigenbasis(eff)
    return canonical_basis(gauge_real(build_metric(basis)), tol)


def equivalent_hermitian(spec: ChainSpec, tol: float = 1e-8) -> HermitianEquivalent:
    """Equivalent Hermitian Hamiltonian of the chain (unbroken phase)."""
    gamma = max(spec.gamma, GAMMA_FLOOR)
    eff = ChainSpec(spec.n_sites, spec.hopping, gamma)
    decomp = metric_decomposition(eff, tol)
    return hermitian_equivalent(decomp, build_hamiltonian(eff))
