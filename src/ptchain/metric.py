"""Metric operator, canonical basis, and the equivalent Hermitian Hamiltonian.

Pipeline (unbroken phase):

1. eta = sum_k |g_k><g_k| = G G^dagger over the CPT-normalized dual states;
   Hermitian, positive-definite, eta^-1 = eta^*, PT-invariant, det = 1.
2. Gauge |l> -> i^(l mod 2) |l>: the gauged duals G~ = conj(D) G, with
   D = diag(i^(l mod 2)), give the gauged metric G~ G~^dagger, and H
   becomes iA with A real.  So the gauged dual at pi - k is a unit-modulus
   multiple of the conjugate of the one at k, and each chiral pair adds
   2 Re(g~ g~^dagger) of its dual at k >= pi/2, which no phase of g~
   changes: the real factor W = [Re G~, Im G~] of those columns, scaled by
   sqrt(2) (by 1 for the zero mode of odd N, its own partner) and turned by
   e^(i pi/4) for even N, is N x (N + N mod 2) and carries the real
   symmetric metric as eta_g = W W^T, which is never formed.  eta_g
   commutes with a reflection operator refl: the plain site exchange for
   even N, the sign-twisted exchange (exchange o R) for odd N, where
   R|l> = (-1)^l |l>.  The first half of W's columns lies in its sector
   s = +1, the second half in s = -1, up to rounding.
3. A vector of sector s is fixed by its first ceil(N/2) sites, so each
   sector's block of eta_g in the orthonormal parity basis
   (e_l + s refl e_l)/|.| is Z Z^T, with Z sliced from the sector's own
   columns of W: sqrt(2) times their first floor(N/2) rows, plus the middle
   row of odd N where that site lies in the sector.  Every eigenvector then
   has exact parity, unfolded from its sector rows by the mirror, and
   carries no rounding of the other sector.  Eigenvalues come in reciprocal
   pairs (eps, 1/eps) mapped onto each other by R.  For even N, R swaps the
   two sectors, so only the + sector is solved: the SVD of its square
   N/2 x N/2 block Z^T gives the eigenvectors of Z Z^T, with eps = sigma^2,
   and R supplies the other half.  For odd N, R keeps each sector, sized
   (N-1)/2 and (N+1)/2, and is +-1 on each of its sites, so in R-order
   R B R = B^-1 gives a sector block B = [[A, K], [K^T, D]] the difference
   B - B^-1 = [[0, 2K], [2K^T, 0]]: the sector follows from the SVD of its
   sublattice block K = Z[R = +1] Z[R = -1]^T, of half its size, with
   eps - 1/eps = 2 sigma, and both sectors' K are one stack.  Every SVD is
   one-sided Jacobi, which rotates the block's own columns in parallel
   rounds over odd-even ordered pairs of column blocks, each round's angles
   from its pairs' Gram blocks, formed afresh from the current columns; no
   block of eta is ever formed.
   Matrix elements of the gauged H between equal-parity vectors vanish
   identically, which is what makes the final block structure possible.
4. One rule orders the basis for both parities: each solved sector, with
   eigenvalues descending, contributes its leading vectors, then their
   R-partners in reverse, and each column pairs with its mirror inside the
   sector's columns.  For even N the whole + sector leads; for odd N the
   vectors (u, v)/sqrt(2) of K's singular triples K v = sigma u lead, with
   eps > 1, plus the self-paired eps = 1 vector (0, v) of K's null column in
   the middle of the odd-sized sector; the R-partner of (u, v) is (u, -v) up
   to sign.  This gives two parity-uniform halves, the sectors' columns for
   odd N.  The gauged H is iA, A the real
   tridiagonal matrix of the chain's three-term recurrence: A[l, l+1] =
   (-1)^(l+1) J = -A[l+1, l], A[1, 1] = gamma and A[N, N] = -gamma (sites
   l = 1..N).  So A times the basis is three shifted row products, and
   sqrt(eps_m/eps_n) <eps_m|A|eps_n> is one real product, whose diagonal
   blocks vanish; twisting the second half by i turns i times it into a
   real symmetric matrix: a bipartite hopping model whose hopping amplitudes
   are the lambda table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, GaugeError, NonConvergence, StructureError
from .model import ChainSpec
from .states import EigenBasis, build_eigenbasis

# Below this gamma/J the metric is numerically degenerate (all eps -> 1) and
# the canonical basis is defined by continuity: evaluate at GAMMA_FLOOR J instead.
GAMMA_FLOOR = 1e-6

# Largest relative error of a basis vector's Rayleigh quotient |W^T p|^2
# against its eps, which for an R-partner is that of the pair eps * (1/eps).
PAIRING_TOL = 1e-8


def build_metric(basis: EigenBasis) -> np.ndarray:
    """eta[m,n] = sum_k g_k^m conj(g_k^n), i.e. sum_k |g_k><g_k|.

    Positive-definite and Hermitian; satisfies eta H = H^dagger eta.
    """
    return basis.g @ basis.g.conj().T


def reflection_matrix(n: int) -> np.ndarray:
    """The reflection that commutes with the gauged metric.

    Plain exchange for even N; for odd N the gauge twists the exchange
    symmetry into (exchange o R), the exchange with alternating column signs
    (R|l> = (-1)^l |l>, sites numbered 1..N).
    """
    p = np.eye(n)[::-1]  # the site exchange l -> N+1-l
    return p if n % 2 == 0 else p * (-1.0) ** np.arange(1, n + 1)


def _gauge_phases(n: int) -> np.ndarray:
    return 1j ** (np.arange(1, n + 1) % 2)


def gauged_factor(basis: EigenBasis) -> np.ndarray:
    """The real factor W of the gauged metric eta_g = W W^T, one dual per chiral pair.

    G~ = conj(D) G are the dual states in the gauge D = diag(i^(l mod 2)),
    where H is iA with A real, so the dual at pi - k is a unit-modulus
    multiple of conj(g~_k) and the pair adds 2 Re(g~_k g~_k^dagger) to the
    gauged metric G~ G~^dagger.  W = [Re G~, Im G~] of the columns with
    k >= pi/2, each scaled by sqrt(2) but the zero mode of odd N, its own
    partner: N x (N + N mod 2), and W W^T is real symmetric by construction.
    A phase of a dual leaves W W^T unchanged, and for even N each is turned
    by e^(i pi/4), which with the sqrt(2) is one factor 1 + i: its columns
    become Re - Im and Re + Im.  Then for both parities the first half of
    W's columns lies in the reflection sector +1 and the second half in -1
    (`canonical_basis`), up to a leak of a few N eps max|W|.
    GaugeError is raised for non-finite duals and for roots that are not
    chiral pairs, k_i + k_(N-1-i) more than a few ulp from pi.
    """
    n, k = basis.g.shape[0], basis.k
    if not np.all(np.isfinite(basis.g)):
        raise GaugeError("non-finite dual states")
    if not np.all(np.abs(k + k[::-1] - np.pi) <= 4 * np.spacing(np.pi)):  # NaN never passes
        raise GaugeError("roots are not chiral pairs k, pi - k")
    g = np.conj(_gauge_phases(n))[:, None] * basis.g[:, n // 2:]
    g[:, n % 2:] *= np.sqrt(2.0) if n % 2 else 1.0 + 1.0j  # sqrt(2) e^(i pi/4)
    return np.hstack((g.real, g.imag))


# Columns per block of the block rounds, at most.  Up to 2 * _BLOCK columns,
# as in every solve the metric makes up to N = 65, one block pair spans them
# all.  Against 16, _BLOCK = 8 measured level at N = 256 and 1024, up to 25%
# slower at N = 512, and 1.3-2.4x slower at N = 64, which it splits into two
# block pairs (measured on an N/2 x N/2 Gram matrix, the size of even N's
# square block Z^T).
_BLOCK = 16

# Sweeps of `_one_sided_jacobi` before it gives up.
_MAX_SWEEPS = 100


def _pivot_slices(m: int) -> list[tuple[slice, ...]]:
    """Flat slices of each odd-even round's (pp, qq, pq, qp) entries of an m x m matrix (m even).

    Even rounds pivot on (2i, 2i+1), odd rounds on (2i+1, 2i+2), which
    leaves rows 0 and m-1 idle.  Each pivot's entries sit 2(m+1) apart in
    the flat matrix, so each set is one plain slice.
    """
    step = 2 * (m + 1)
    return [tuple(slice(first + at, first + at + step * pairs, step) for at in (0, m + 1, 1, m))
            for first, pairs in ((0, m // 2), (m + 1, m // 2 - 1))]


def _odd_even_sweeper(y: np.ndarray):
    """sweep() -> one in-place sweep of odd-even rounds on a stack y = [a; V] of shape (k, 2m, m).

    A round rotates its disjoint pairs of every stack entry at once and
    swaps each rotated pair, as one dense G: [a G; V G], then G (a G).  Each
    angle is the small one, |phi| <= pi/4, that zeroes a[p, q], which is then
    set to exactly 0; rotating and then swapping a pair gives the symmetric
    block [[s, c], [c, -s]], so G = G^T, and its entries sit at fixed places.
    The two G buffers and all reads and writes are slices made here, once.
    A zero a[p, q] gives c = 1, s = +-0, an exact swap, so a zero pad row
    never mixes in.  After the m rounds of a sweep, the indices are in
    reversed order.
    """
    k, m = y.shape[0], y.shape[2]
    a, v = y[:, :m], y[:, m:]
    flat = y.reshape(k, -1)
    t = np.empty((k, 2 * m, m))
    rounds = []
    for kind, cuts in enumerate(_pivot_slices(m)):
        g = np.zeros((k, m, m))
        if kind:
            g[:, 0, 0] = g[:, -1, -1] = 1.0  # idle rows
        g_flat = g.reshape(k, -1)
        rounds.append((g, *(flat[:, cut] for cut in cuts), *(g_flat[:, cut] for cut in cuts)))

    def sweep() -> None:
        for g, pp, qq, pq, qp, g_pp, g_qq, g_pq, g_qp in rounds * (m // 2):
            d = qq - pp
            phi = 0.5 * np.arctan2(pq * np.copysign(2.0, d), np.abs(d))
            np.sin(phi, out=g_pp)
            np.negative(g_pp, out=g_qq)
            np.cos(phi, out=g_pq)
            g_qp[...] = g_pq
            np.matmul(y, g, out=t)
            np.matmul(g, t[:, :m], out=a)
            v[...] = t[:, m:]
            pq[...] = 0.0
            qp[...] = 0.0
    return sweep


def _block_rounds(xv: np.ndarray, rows: int, count: int, gram: np.ndarray):
    """sweep() -> one in-place sweep of odd-even block rounds on the rows of xv, of shape (k, m, rows + m).

    Row j of each stack entry holds column j of X (its first `rows` entries)
    and then column j of V, so a rotation of two columns of [X; V] mixes two
    rows.  The m rows are `count` blocks of m / count rows (count even).
    Even rounds pair the blocks (2i, 2i+1), odd rounds (2i+1, 2i+2), which
    leaves the first and last blocks idle (count = 2 has no odd round).  A
    round takes the Gram block x x^T of each pair's rows x (their X parts),
    runs one `_odd_even_sweeper` sweep on [x x^T; I] for all pairs of every
    stack entry as one stack, and applies the accumulated rotation u to the
    pair's rows as u^T.  Every round forms its Gram blocks from the current
    rows, but the first of a sweep, which reads them off the diagonal of
    `gram`: sweep() is called with X^T X of the current rows in `gram`
    (k x m x m).  An odd-even sweep reverses each pair's indices, so its two
    blocks trade places, and after the `count` rounds of a sweep every block
    pair has met once and all m indices are reversed.  This is parallel-ordered
    Jacobi (Brent & Luk, SIAM J. Sci. Stat. Comput. 6 (1985) 69-84) in the
    odd-even ordering (Luk & Park, SIAM J. Sci. Stat. Comput. 10 (1989)
    18-26) one level up; no proof cited here covers that block order, whose
    convergence is measured.  A pair's rows are contiguous, so every read
    and write is a view made here, once.
    """
    k, m = xv.shape[:2]
    span = 2 * m // count
    eye, rounds = np.eye(span), []
    for first, pairs in ((0, count // 2), (span // 2, count // 2 - 1)):
        if pairs:
            pair = xv[:, first:first + pairs * span].reshape(k, pairs, span, -1)
            y = np.empty((k, pairs, 2 * span, span))
            rounds.append((pair, pair[..., :rows], y[:, :, :span], y[:, :, span:],
                           _odd_even_sweeper(y.reshape(-1, 2 * span, span))))
    start = np.einsum("kiaib->kiab", gram.reshape(k, count // 2, span, count // 2, span))

    def sweep() -> None:
        for r, (pair, x, pair_gram, u, pair_sweep) in enumerate(rounds * (count // 2)):
            pair_gram[...] = x @ x.swapaxes(2, 3) if r else start
            u[...] = eye
            pair_sweep()
            pair[...] = u.swapaxes(2, 3) @ pair
    return sweep


def _one_sided_jacobi(blocks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """[(K V, V, sigma)] for each p x q block K: V orthogonal, the columns of K V relatively orthogonal.

    One-sided Jacobi (Hestenes, J. SIAM 6 (1958) 51-90) on all blocks at
    once, stacked and padded by zero rows and columns to m columns, with
    [X; V] = [K; I] stored transposed, one column per row.  The columns are
    split into the fewest blocks of at most _BLOCK, in pairs (one pair of
    all columns up to 2 * _BLOCK), and each sweep is one `_block_rounds`
    sweep on them: each rotation's angle comes from the current columns of
    X, whose Gram blocks are formed afresh for every round (the first from
    the sweep's full Gram matrix).  So V is the
    eigenbasis of K^T K and sigma^2 its eigenvalues, and X^T X is never
    diagonalized as a whole, which would square sigma_max / sigma_min: the
    one-sided method keeps its relative accuracy (Demmel & Veselic, SIAM J.
    Matrix Anal. Appl. 13 (1992) 1204-1245).  Sweeps run until the full Gram
    matrix X^T X, formed at the start of each, has every pair of columns
    relatively orthogonal, |x_p . x_q| <= m eps |x_p| |x_q|, where a column
    whose norm is at most 8 m eps times the largest of the stack counts as
    zero.  On the sublattice blocks of odd N up to 513, a null column kept
    at most 29 eps times the largest norm (N = 45 at 0.95 gamma_c; 0.3, 0.5
    and 0.95 gamma_c and gamma_c (1 - 1e-7) measured) under a cut of 8 m eps,
    and the smallest singular value stayed above 6e-10 times the largest up
    to gamma_c (1 - 1e-7); on the square blocks Z^T of even N up to 512 it
    stayed above 7e-6 times the largest up to gamma_c (1 - 1e-13).
    NonConvergence is raised after _MAX_SWEEPS sweeps.  sigma holds the
    column norms of K V, 0 for the zero columns.  A zero pad column never
    mixes in, and a sweep leaves the columns reversed, so after an even
    number of sweeps each block's own columns are its first q.
    """
    rows, n = (max(block.shape[axis] for block in blocks) for axis in (0, 1))
    count = -(-n // (2 * _BLOCK)) * 2
    m = count * -(-n // count)
    xv = np.zeros((len(blocks), m, rows + m))
    for x, block in zip(xv, blocks):
        x[: block.shape[1], : block.shape[0]] = block.T
    xv[:, :, rows:] = np.eye(m)
    gram = np.empty((len(blocks), m, m))
    top, tol, sweep = xv[:, :, :rows], m * np.finfo(float).eps, _block_rounds(xv, rows, count, gram)
    for sweeps in range(_MAX_SWEEPS):
        np.matmul(top, top.swapaxes(1, 2), out=gram)
        norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        norms = np.where(norms > 8 * tol * np.max(norms), norms, 0.0)
        bound = tol * norms[:, :, None] * norms[:, None, :]
        if np.all((np.abs(gram) <= bound) | (bound == 0.0) | np.eye(m, dtype=bool)):  # NaN never passes
            break
        sweep()
    else:
        raise NonConvergence(f"one-sided Jacobi sweeps exceeded {_MAX_SWEEPS}")
    if sweeps % 2:  # undo the reversal
        xv, norms = xv[:, ::-1], norms[:, ::-1]
    return [(x[:q, :p].T, x[:q, rows:rows + q].T, sigma[:q])
            for (p, q), x, sigma in zip((block.shape for block in blocks), xv, norms)]


@dataclass(frozen=True)
class MetricDecomposition:
    """Canonical eigensystem of the gauged metric.

    `basis` holds real orthonormal columns ordered into the two parity-uniform
    halves; `eigenvalues` follows the same order; `pairing[i] = j` means
    basis[:, i] is R basis[:, j] up to sign (for odd N, the column in the
    middle of the odd-sized sector's columns pairs with itself).
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


def _fix_pair_signs(basis: np.ndarray, pairing: tuple[int, ...]) -> None:
    # Deterministic gauge: the first significant component of the earlier
    # vector of each pair is made non-negative, and its partner flips with it
    # so the pairing signs survive.
    n = basis.shape[1]
    lead = basis[np.argmax(np.abs(basis) > 1e-8, axis=0), np.arange(n)]
    basis *= np.where(lead[np.minimum(np.arange(n), pairing)] < 0, -1.0, 1.0)


def _even_sector(halves: list[np.ndarray]) -> list:
    """Even N: the + block B = Z Z^T from the SVD of the square Z^T, all of whose vectors lead.

    `_one_sided_jacobi` on Z^T gives V, the eigenbasis of B, with
    eps = sigma^2; a zero sigma means eta is not positive definite.
    """
    ((_, v, sigma),) = _one_sided_jacobi([halves[0].T])
    if not np.all(sigma > 0):  # NaN never passes
        raise DegeneracyError("metric is not positive definite")
    order = np.argsort(-sigma, kind="stable")
    return [(v[:, order], sigma[order] ** 2, 0)]


def _odd_sectors(halves: list[np.ndarray]) -> list:
    """Odd N: each sector from the SVD of its sublattice block K_s, both in one solve.

    Sector row j is site l = j + 1, on which R = (-1)^l, so in R-order a
    sector block B = Z Z^T is [[A, K], [K^T, D]] with K = Z[R = +1 rows]
    Z[R = -1 rows]^T, which has no more rows than columns.  R B R = B^-1
    gives B - B^-1 = [[0, 2K], [2K^T, 0]], and eps - 1/eps increases, so
    each singular triple K v = sigma u gives the leader (u, v)/sqrt(2), with
    eps - 1/eps = 2 sigma, and a zero column of K V the self-paired (0, v),
    with eps = 1.  A zero diagonal entry of B, |row of Z|^2, means eta is
    not positive definite.
    """
    if not all(np.all(np.sum(half ** 2, axis=1) > 0) for half in halves):  # NaN never passes
        raise DegeneracyError("metric is not positive definite")
    solved = []
    for half, (x, v, sigma) in zip(halves, _one_sided_jacobi(
            [half[1::2] @ half[0::2].T for half in halves])):
        k = half.shape[0]
        order = np.argsort(-sigma, kind="stable")
        ups, mid = order[sigma[order] > 0], order[sigma[order] == 0]
        if len(mid) != k % 2:  # a wide K leaves at least k % 2 null columns
            raise DegeneracyError(f"self-paired eigenvalue found in a sector of size {k}")
        lead = np.zeros((k, len(order)))
        lead[1::2, : len(ups)] = x[:, ups] / (np.sqrt(2.0) * sigma[ups])
        lead[0::2] = v[:, order] / np.where(sigma[order] > 0, np.sqrt(2.0), 1.0)
        w = sigma[ups] + np.sqrt(sigma[ups] ** 2 + 1.0)
        solved.append((lead, np.append(w, np.ones(len(mid))), len(mid)))
    return solved


def canonical_basis(factor: np.ndarray) -> MetricDecomposition:
    """Order the metric eigensystem into reciprocal-paired, parity-definite halves.

    `factor` is a real factor W of the gauged metric eta_g = W W^T laid out
    as `gauged_factor`'s: the first half of its columns W+ in the reflection
    sector s = +1, the second half W- in s = -1.  A vector of sector s is
    fixed by its first ceil(N/2) sites, the others being their mirror images
    times s t_l, where t_l = (-1)^l for odd N and 1 for even N (refl l ->
    N+1-l, twisted by R for odd N).  So the sector block of eta_g in the
    orthonormal parity basis (e_l + s refl e_l)/|.| is Z Z^T, with Z the
    sector's rows: sqrt(2) W_s on the first floor(N/2) sites, plus the middle
    site of odd N where that site lies in the sector; no parity basis is
    formed.  Both parities take their eigensystem from singular values, in
    one `_one_sided_jacobi` call.  Even N: R maps the + sector onto the -
    sector with reciprocal eigenvalues, so only the + sector is solved,
    through the SVD of its square N/2 x N/2 block Z^T (`_even_sector`), and
    all its vectors lead.  Odd N: R keeps each sector, sized (N-1)/2 and
    (N+1)/2, and each is solved through the SVD of its sublattice block
    (`_odd_sectors`); its leading vectors are those with eps > 1 and, in the
    odd-sized sector, the self-paired eps = 1 vector, an R = -1 vector by
    construction.  Each leader is unfolded from its sector rows by the
    mirror.  One rule then orders the basis: each solved sector, smaller
    first, with eigenvalues descending, contributes its leading vectors and
    then their R-partners s R v in reverse, so each column pairs with its
    mirror inside the sector's columns.  Each vector p is checked against
    its eps through its Rayleigh quotient p^T eta_g p = |W^T p|^2 over the
    whole factor, a sum of squares, to PAIRING_TOL: the leaders against eps,
    the self-paired one against 1, and the R-partners against 1/eps.  So a
    factor off this layout is caught there.  A non-finite factor raises
    GaugeError, as `gauged_factor` does for non-finite duals, before any
    arithmetic.
    """
    if not np.all(np.isfinite(factor)):
        raise GaugeError("non-finite metric factor")
    n, c = factor.shape[0], factor.shape[1] // 2
    h = n // 2
    r = (-1.0) ** np.arange(1, n + 1)  # R|l> = (-1)^l |l>, as a sign vector
    t = r if n % 2 else np.ones(n)  # refl e_l = t_l e_(N+1-l)
    scale = np.append(np.full(h, np.sqrt(2.0)), 1.0)
    # (sign, size) of each solved sector; for odd N the middle site lies in
    # sector t_m, and the smaller sector goes first: its vectors are the
    # basis's first half
    sectors = [(-t[h], h), (t[h], h + 1)] if n % 2 else [(1.0, h)]
    halves = [(factor[:, :c] if s > 0 else factor[:, c:])[:k] * scale[:k, None] for s, k in sectors]
    solve = _odd_sectors if n % 2 else _even_sector

    cols, eps, pairing = [], [], ()
    for (s, k), (lead, w, mid) in zip(sectors, solve(halves)):
        v = np.zeros((n, len(w)))
        v[:k] = lead / scale[:k, None]
        v[n - h:] = s * (t[:h, None] * v[:h])[::-1]
        back = np.arange(len(w) - mid - 1, -1, -1)
        # The partners are s R v, the sign that makes the coupling block
        # reflection-symmetric.
        cols.append(np.hstack((v, s * r[:, None] * v[:, back])))
        eps.append(np.concatenate((w, 1.0 / w[back])))
        rec = np.sum((factor.T @ cols[-1]) ** 2, axis=0)
        bad = np.flatnonzero(~(np.abs(rec / eps[-1] - 1.0) <= PAIRING_TOL))  # NaN never passes
        if bad.size:
            raise DegeneracyError(f"reciprocal pairing failed: eps={eps[-1][bad[0]]:.6g}, "
                                  f"Rayleigh quotient {rec[bad[0]]:.6g}")
        pairing += tuple(range(len(pairing) + len(w) + len(back) - 1, len(pairing) - 1, -1))
    # column-major: the layout picks the BLAS path of hermitian_equivalent's
    # products, and so the last bits of the tables
    basis = np.asfortranarray(np.hstack(cols))
    _fix_pair_signs(basis, pairing)
    return MetricDecomposition(np.concatenate(eps), basis, pairing, h)


def hermitian_equivalent(decomp: MetricDecomposition, spec: ChainSpec) -> HermitianEquivalent:
    """Real symmetric block-anti-diagonal equivalent of the chain `spec`.

    `decomp` is the canonical basis of the chain's gauged metric.  In the
    gauge D = diag(i^(l mod 2)), conj(D) H D = iA with A real and
    tridiagonal (module docstring, step 4); A times the basis is formed from
    the recurrence row by row, and pre = sqrt(eps_m/eps_n) <eps_m|A|eps_n>
    is real.  Matrix elements between equal-parity vectors vanish, so pre
    has empty diagonal blocks; twisting the second half by i makes i pre
    real symmetric: the coupling block is -pre above the diagonal blocks
    and pre below.  Raises StructureError when the diagonal-block residue
    exceeds 1e-6 J (an ordering or sign convention failure of the basis).
    """
    b, eps, h = decomp.basis, decomp.eigenvalues, decomp.first_half
    n = b.shape[0]
    hop = spec.hopping * (-1.0) ** np.arange(n - 1)[:, None]  # A[l, l+1]
    ab = np.zeros_like(b)
    ab[:-1] = hop * b[1:]
    ab[1:] -= hop * b[:-1]
    ab[0] += spec.gamma * b[0]
    ab[-1] -= spec.gamma * b[-1]
    pre = np.sqrt(np.outer(eps, 1.0 / eps)) * (b.T @ ab)

    diag_resid = float(np.maximum(np.max(np.abs(pre[:h, :h])), np.max(np.abs(pre[h:, h:]))))
    if not diag_resid <= 1e-6 * spec.hopping:  # NaN never passes
        raise StructureError(f"diagonal-block residue {diag_resid:.2e}")

    h_matrix = np.zeros((n, n))
    h_matrix[:h, h:] = -pre[:h, h:]
    h_matrix[h:, :h] = pre[h:, :h]
    return HermitianEquivalent(h_matrix=h_matrix, block_a=h_matrix[:h, h:].copy(),
                               sublattice_sizes=(h, n - h))


def _at_floor(spec: ChainSpec) -> ChainSpec:
    return ChainSpec(spec.n_sites, spec.hopping, max(spec.gamma, GAMMA_FLOOR * spec.hopping))


def metric_decomposition(spec: ChainSpec) -> MetricDecomposition:
    """Full pipeline from a chain spec to the canonical metric eigensystem.

    Below GAMMA_FLOOR J the metric is fully degenerate (eta -> identity), so
    the canonical basis is taken from the continuity limit: the pipeline runs
    at gamma = GAMMA_FLOOR J instead.  Above gamma_c (1 - reach), reach = 1e-7
    for odd N and 1e-13 for even N, it raises DegeneracyError: there the
    tables were measured to break their bounds or the pairing check to fail
    (odd N at 1 - 1e-8, even N at 1 - 1e-14).
    """
    basis = build_eigenbasis(_at_floor(spec))
    reach = 1e-7 if spec.n_sites % 2 else 1e-13
    if spec.gamma > spec.gamma_c * (1.0 - reach):
        raise DegeneracyError(f"gamma past gamma_c (1 - {reach:g}), the metric's reach")
    return canonical_basis(gauged_factor(basis))


def equivalent_hermitian(spec: ChainSpec) -> HermitianEquivalent:
    """Equivalent Hermitian Hamiltonian of the chain (unbroken phase).

    Like `metric_decomposition`, it runs at gamma = GAMMA_FLOOR J below the
    floor.
    """
    return hermitian_equivalent(metric_decomposition(spec), _at_floor(spec))
