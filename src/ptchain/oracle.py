"""Brute-force diagonalization oracle, independent of the Bethe solvers.

Expanding D_N(x) = det(H - x I) along both end sites, which carry the
potentials +-i*gamma, leaves the free chain between them:

    D_N(x) = (x^2 + gamma^2 - J^2) P_{N-2}(x) + J^2 x P_{N-3}(x),

where P_m is the determinant of the free m-site chain (P_m = -x P_{m-1} -
J^2 P_{m-2}, P_0 = 1, P_{-1} = 0), so D_N is real for real x.  The chain is
bipartite, so P_m = x^(m mod 2) U_m(x^2) and D_N(x) = x^(N mod 2) Q(x^2):
every level is +-sqrt(t) at a root t of Q, with an exact zero mode for odd
N, and at the exceptional point the coalescing pair (with the zero mode of
odd N) is one simple root t = 0 of Q.  The pair (P_k, P_{k-1}) is the first
column of the k-th power of the free transfer matrix [[-x, -J^2], [1, 0]],
so squaring that power gives P_{2k} = P_k^2 - J^2 P_{k-1}^2 and P_{2k-1} =
(2 P_k + x P_{k-1}) P_{k-1}, which in t = x^2 carry no odd power of x.

Binary powering over the bits of N-2 (one doubling per bit, one recurrence
step per set bit, derivatives by the product rule) evaluates Q and Q' in t
pointwise in O(log N) operations, with no coefficient expansion.  One
Aberth-Ehrlich iteration on Q / Q' (O. Aberth, Math. Comp. 27 (1973) 339;
D. A. Bini, Numer. Algorithms 13 (1996)) finds all N//2 roots in t: on
Python complex scalars up to `_SCALAR_ESTIMATES` roots, where a numpy call
costs more than its arithmetic, and on arrays above.  Both paths share the
doubling.  Seeds above gamma_c put one estimate near the broken pair.
D_N / D_N' from the same (Q, Q') Newton-refines one level in x.
Eigenvectors come from the three-term recurrence of H, twisted where it
is stable (`oracle_eigenvector`).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import NonConvergence
from .model import ChainSpec

# Aberth in t from the free-chain seeds takes 2-15 iterations at N <= 80 and
# 7-15 at N = 128 and 200 (measured for J in {0.5, 1, 3} and gamma from 0 to
# 1e3 gamma_c, at gamma_c and within 1e-9 of it too), then 17-22 at N = 500,
# 34-38 at N = 1000, 65-66 at N = 2000 and 126 at N = 4001 (J = 1; 0.5 to
# 1e100 gamma_c up to N = 1001, 0.5 and 1.3 gamma_c above): about N/32 at
# large N
_ORACLE_MAX_ITER = 1000
_REFINE_MAX_ITER = 100
_ROOT_TOL = 1e-13  # Aberth's last step, relative to max(J, |E|) in x and max(J^2, |E|^2) in t
_PIVMIN = 2.0 ** -970  # in place of an exact zero pivot of the twisted factorization

# The common offset of the free-chain seeds in t, in units of J^2
_SEED_OFFSET = cmath.rect(0.01, 0.5)

# Aberth on Python complex scalars up to this many estimates (N <= 21), on
# arrays above it.  One oracle_spectrum call at 0.5 gamma_c and N = 8 / 16 /
# 20 / 24 / 32 took a median 140 / 183 / 262 / 406 / 433 us on scalars and
# 318 / 216 / 267 / 371 / 272 us on arrays, whose numpy calls cost about the
# same for 1 value as for 32 (BENCH_35.json)
_SCALAR_ESTIMATES = 10


def char_poly_ratio(spec: ChainSpec, x):
    """D_N(x) / D_N'(x) by end-site expansion and transfer-matrix doubling.

    Elementwise on an array of points; a scalar gives a complex.  The chain
    with hopping J has D_N(x) = J^N D_N(x/J) of the unit chain (J = 1,
    gamma/J), so the ratio is J times the unit chain's at x/J, which keeps
    J^2 and every power of J out of the arithmetic for any J.  A non-finite
    point raises ValueError.
    """
    j, x = spec.hopping, np.asarray(x, dtype=complex)
    if not np.all(np.isfinite(x)):
        raise ValueError("char_poly_ratio needs finite points")
    return j * _unit_ratio(spec.n_sites, spec.gamma / j, x / j)


def _unit_ratio(n: int, gamma: float, x: np.ndarray):
    """D_N(x) / D_N'(x) of the unit chain (J = 1) at the complex points x.

    D_N is Q(x^2) for even N and x Q(x^2) for odd N, so with r = Q / Q' at
    t = x^2 the ratio is r / (2x) and x r / (r + 2t).  It is 0 wherever D_N
    is, a multiple root included: the coalesced pair at x = 0.
    """
    r = _t_ratio(n, gamma, x * x)
    num, den = (x * r, r + 2 * x * x) if n % 2 else (r, 2 * x)
    if np.any((den == 0) & (num != 0)):
        raise NonConvergence("vanishing derivative in recurrence Newton")
    return num / np.where(num == 0, 1.0, den)


def _t_ratio(n: int, gamma: float, t):
    """Q(t) / Q'(t) of the unit chain (J = 1) at t = x^2: one complex, or an array.

    P_k = x^(k mod 2) U(t) and P_{k-1} = x^((k-1) mod 2) V(t) are doubled in
    t, with no odd power of x; the recurrence step k -> k + 1 follows a
    doubling, so it always starts from an even k.  A doubling and step take
    the largest of |U|, |V|, |U'|, |V'| from B to at most 14 T B^2, and Q and
    Q' are at most 14 T B, with T = max(1, |t|, gamma^2).  So a log2 bound on
    B, `size`, decides when to scale the four by a power of two, which keeps
    every product in range for any N and up to gamma/J = 1e150 and leaves
    the ratio unchanged.  The scale brings the larger of |U|, |V| below 1,
    not the largest of the four: U' / U grows like k^2 near the band edge,
    and squaring a U scaled down by U' underflows to 0 at N = 8194.
    The doubling is plain arithmetic, and numpy is called only for the
    bound on |t| and the zero-derivative test of an array and for the rare
    rescale, so one complex t costs no numpy call.
    """
    point = isinstance(t, complex)
    m = n - 2
    # (U, V, U', V') at k = 1, or at k = 0 when N = 2
    u, v, du, dv = (-1.0, 1.0, 0.0, 0.0) if m else (1.0, 0.0, 0.0, 0.0)
    top = abs(t) if point else float(np.max(np.abs(t)))
    grow, size = math.log2(14 * max(1.0, gamma ** 2, top)), 0.0
    for last, bit in zip(bin(m)[2:], bin(m)[3:]):  # k -> 2k, then k -> k + 1 on a set bit
        if last == "1":  # k is odd: P_k = x U, P_{k-1} = V
            s, tu = 2 * u + v, t * u
            u, v, du, dv = (tu * u - v * v, s * v, u * u + 2 * (tu * du - v * dv),
                            (2 * du + dv) * v + s * dv)
        else:  # P_k = U, P_{k-1} = x V
            tv = t * v
            s = 2 * u + tv
            u, v, du, dv = (u * u - tv * v, s * v, 2 * (u * du - tv * dv) - v * v,
                            (2 * du + v + t * dv) * v + s * dv)
        if bit == "1":
            u, v, du, dv = -u - v, u, -du - dv, du
        size = 2 * size + grow
        if 2 * size + grow > 1020:  # the next doubling could pass 2^1024
            scale = np.ldexp(1.0, -np.frexp(np.maximum(np.abs(u), np.abs(v)))[1])
            u, v, du, dv = u * scale, v * scale, du * scale, dv * scale
            size = float(np.max(np.frexp(np.maximum(np.abs(du), np.abs(dv)))[1].clip(0)))
    c = t + (gamma ** 2 - 1.0)
    q, dq = (c * u + v, u + c * du + dv) if n % 2 else (c * u + t * v, u + c * du + v + t * dv)
    if (dq == 0) if point else (dq == 0).any():
        raise NonConvergence("vanishing derivative in recurrence Newton")
    return q / dq


def _aberth(ratio, seeds: np.ndarray, max_iter: int) -> np.ndarray:
    """Roots by Aberth-Ehrlich simultaneous iteration, sorted (real, imag).

    `ratio(z)` is p(z)/p'(z), of one complex or elementwise of an array.
    Each estimate moves by w_i = r_i / (1 - r_i sum_{j != i} 1/(z_i - z_j)),
    which is Newton for a single estimate, until every |w_i| < `_ROOT_TOL`
    max(1, |z_i|).  The steps shrink quadratically near a simple root (every
    root in t is one) and by half per step near a double one; a step that
    never shrinks is no root, and raises once `max_iter` is spent.
    A non-finite step raises, without a numpy warning, so the iteration
    never converges on NaN.  Up to `_SCALAR_ESTIMATES` estimates the
    iteration runs on Python complex scalars, with its own O(k^2) sum and
    the same checks; more run on arrays.  The crossover is measured: at
    N <= 64 an array step costs numpy's per-call overhead, about the same
    for 1 value as for 32, and the scalars win up to about 10 estimates.
    The two orders of arithmetic agree to rounding in t.
    """
    z = np.array(seeds, dtype=complex)
    roots = (_scalar_aberth if len(z) <= _SCALAR_ESTIMATES else _array_aberth)(ratio, z, max_iter)
    if roots is None:
        raise NonConvergence(f"Aberth stalled after {max_iter} iterations")
    return np.sort(np.array(roots, dtype=complex))


def _array_aberth(ratio, z: np.ndarray, max_iter: int):
    """`_aberth` on arrays: the roots, or None once `max_iter` is spent."""
    inv = np.empty((len(z), len(z)), dtype=complex)  # one buffer: N^2 arrays bound large N
    diagonal = inv.reshape(-1)[::len(z) + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN steps raise below
        for _ in range(max_iter):
            r = ratio(z)
            np.divide(1.0, np.subtract.outer(z, z, out=inv), out=inv)
            diagonal[:] = 0.0
            step = r / (1.0 - r * inv.sum(axis=1))
            if not np.isfinite(step).all():
                raise NonConvergence("Aberth step is not finite")
            z -= step
            if (np.abs(step) < _ROOT_TOL * np.maximum(1.0, np.abs(z))).all():
                return z
    return None


def _scalar_aberth(ratio, z: np.ndarray, max_iter: int):
    """`_aberth` on Python complex scalars: the roots, or None once `max_iter` is spent."""
    z, k = z.tolist(), len(z)
    for _ in range(max_iter):
        sums = [0j] * k
        try:
            for i in range(k):  # each pair once: 1/(z_j - z_i) = -1/(z_i - z_j)
                for j in range(i + 1, k):
                    w = 1 / (z[i] - z[j])
                    sums[i] += w
                    sums[j] -= w
            step = [r / (1 - r * s) for r, s in zip(map(ratio, z), sums)]
        except ZeroDivisionError:  # where an array gets inf or NaN
            raise NonConvergence("Aberth step is not finite") from None
        if not all(map(cmath.isfinite, step)):
            raise NonConvergence("Aberth step is not finite")
        z = [a - w for a, w in zip(z, step)]
        if all(abs(w) < _ROOT_TOL * max(1.0, abs(a)) for a, w in zip(z, step)):
            return z
    return None


def oracle_spectrum(spec: ChainSpec) -> np.ndarray:
    """All N eigenvalues: +-sqrt(t) at the N//2 roots t of Q, and 0 for odd N.

    Up to gamma_c, Aberth in t is seeded at the squared free-chain levels
    4J^2 cos^2(m pi/(N+1)), m = 1..N//2, which are the roots at gamma = 0
    and sit close to all but the critical pair's for gamma > 0.  Above
    gamma_c the pair has left the band: N//2 - 1 seeds sit at the levels
    4J^2 cos^2(m pi/(N-1)) of the N-2 inner sites, which the end sites leave
    behind as gamma grows, and the last at -(gamma - J^2/gamma)^2, the
    pair's limit E = +-i (gamma - J^2/gamma) where kappa N is large (the
    bound state of one end site).  A seed moves the iteration count, and
    the roots only by rounding.  Every seed is moved by the same offset
    J^2 0.01 e^{0.5i}: Q is real for real t, and real seeds would stay on
    the real axis.  Up to N = 21 (`_SCALAR_ESTIMATES` roots in t) Aberth
    runs on Python complex scalars, above on arrays (`_aberth`).  The roots
    are those of the unit chain (J = 1, gamma/J) times J, so `_ROOT_TOL` is
    relative to max(J^2, |E|^2) in t.  The levels are sorted (real, imag);
    each level's negative is bit for bit its partner.
    """
    n, j, gamma = spec.n_sites, spec.hopping, spec.gamma / spec.hopping
    if spec.gamma > spec.gamma_c:  # the N-2 inner sites' levels, and the pair's limit
        inner = 4 * np.cos(np.pi * np.arange(1, n // 2) / (n - 1)) ** 2
        seeds = np.append(inner, -(gamma - 1 / gamma) ** 2)
    else:
        seeds = 4 * np.cos(np.pi * np.arange(1, n // 2 + 1) / (n + 1)) ** 2
    t = _aberth(lambda z: _t_ratio(n, gamma, z), seeds + _SEED_OFFSET, _ORACLE_MAX_ITER)
    x = j * np.sqrt(t)
    return np.sort(np.concatenate([x, -x, np.zeros(n % 2, complex)]))


def refine_eigenvalue(spec: ChainSpec, guess: complex) -> complex:
    """Newton on the unit chain: in t = x^2 on Q / Q' for even N, in x on D_N / D_N' for odd N.

    Even N has D_N(x) = Q(x^2), and the pair coalesced at an exceptional
    point is a simple root t = 0 of Q but a double root of D_N, where Newton
    in x only halves its step; the level is +-sqrt(t) on the guess's side.
    A guess of 0 has no side, and D_N' vanishes there, so it raises unless
    Q(0) = 0, as Newton in x does.  Odd N steps in x (`char_poly_ratio`), so
    that its zero mode, the root x = 0 of the factor x, stays exact.  One
    estimate runs on Python complex scalars (`_aberth`).  A non-finite guess
    raises ValueError.
    """
    if not cmath.isfinite(guess):
        raise ValueError("refine_eigenvalue needs a finite guess")
    n, j, gamma = spec.n_sites, spec.hopping, spec.gamma / spec.hopping
    x = complex(guess) / j
    ratio = _unit_ratio if n % 2 else _t_ratio
    root = complex(_aberth(lambda z: ratio(n, gamma, z), np.array([x if n % 2 else x * x]),
                           _REFINE_MAX_ITER)[0])  # the level x, or t = x^2
    if n % 2:
        return j * root
    if x == 0 and root != 0:
        raise NonConvergence("vanishing derivative in recurrence Newton")
    root = cmath.sqrt(root)
    return j * (-root if (root * x.conjugate()).real < 0 else root)


def spectral_distance(a, b) -> float:
    """Largest pairing distance between two equal-size eigenvalue multisets.

    Greedy nearest-neighbour matching, in the order of `a`; adequate when the
    sets agree far better than their internal spacing, which is what every
    caller asserts.  When the nearest neighbours in `b` of the entries of `a`
    are all distinct, no entry's first choice is ever taken by another, so
    the greedy pairing is the nearest-neighbour one and needs no loop.  A
    non-finite entry in either set gives math.inf, so NaN never passes a bound.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return math.inf
    if not len(a):
        return 0.0
    diff = a[:, None] - b[None, :]
    dist = np.hypot(diff.real, diff.imag)  # abs() of each; np.abs can be 1 ulp off
    nearest = np.argmin(dist, axis=1)
    if len(set(nearest.tolist())) == len(a):
        return float(dist[np.arange(len(a)), nearest].max())
    worst, free = 0.0, np.arange(len(b))
    for row in dist:
        m = int(np.argmin(row[free]))
        worst = max(worst, row[free[m]])
        free = np.delete(free, m)
    return float(worst)


def oracle_eigenvector(spec: ChainSpec, levels) -> np.ndarray:
    """Unit eigenvectors at the given levels, one row per level, by twisted factorization.

    Row l of H v = E v reads v_(l-1) + v_(l+1) = d_l v_l with d_l = (a_l -
    E)/J, a_1 = i gamma, a_N = -i gamma and a_l = 0 between (v_0 = v_(N+1)
    = 0).  The ratios p_l = v_(l-1)/v_l follow p_1 = 0, p_(l+1) = 1/(d_l -
    p_l) from site 1, and q_l = v_(l+1)/v_l is the same run from site N:
    the p of the mirror chain, whose end potentials are swapped.  Every row
    but row k then holds for any twist k, and row k is off by (d_k - p_k -
    q_k) v_k, so k is where that is smallest (Fernando, SIAM J. Matrix Anal.
    Appl. 18 (1997) 1013; Parlett and Dhillon, Linear Algebra Appl. 267
    (1997) 247).  The vector is unrolled from k in log magnitude, by sums
    of log p and log q outward from it, and then measured from the peak,
    so it neither overflows nor depends on the twist where |d_k - p_k -
    q_k| is flat at rounding (the broken pair's bulk).  An exact 0 of
    d_l - p_l is replaced by `_PIVMIN`, after LAPACK's pivmin: at gamma
    = 0 the free chain has exact zero pivots where N + 1 is composite, and
    at the odd-N zero mode.  The largest component is real and positive.
    ||H v - E v||_inf / ||v||_inf stayed below 4.1 N eps max(J, |E|) in
    both phases, at every level of solve_spectrum up to N = 1001 and at
    the band edges, centre and broken pair up to N = 10^5 + 1.  The sites
    are a Python loop and the levels numpy arrays, so the memory is O(N)
    per level.  A non-finite level raises ValueError.
    """
    e = np.atleast_1d(np.asarray(levels, dtype=complex))
    if not np.all(np.isfinite(e)):
        raise ValueError("oracle_eigenvector needs finite levels")
    n, m, gamma = spec.n_sites, len(e), spec.gamma / spec.hopping
    d = np.tile(-np.concatenate([e, e]) / spec.hopping, (n, 1))  # the chain's, then its mirror's
    d[[0, -1]] += 1j * gamma * np.repeat([[1.0, -1.0], [-1.0, 1.0]], m, axis=1)
    r = np.zeros((n, 2 * m), dtype=complex)
    for l in range(1, n):
        pivot = d[l - 1] - r[l - 1]
        np.copyto(pivot, _PIVMIN, where=pivot == 0)
        np.divide(1, pivot, out=r[l])
    p, q = r[:, :m], r[::-1, m:]
    k = np.argmin(np.abs(d[:, :m] - p - q), axis=0)
    below = np.arange(n - 1)[:, None] < k  # v_l = p_(l+1) v_(l+1) below k, v_(l+1) = q_l v_l on
    ratio = np.where(below, p[1:], q[:-1])
    log_ratio = np.log(np.abs(ratio)) + 1j * np.angle(ratio)  # 5 times faster than complex log
    log_v = np.zeros((n, m), dtype=complex)  # log v_l - log v_k
    log_v[:-1] = np.cumsum(np.where(below, log_ratio, 0)[::-1], axis=0)[::-1]
    log_v[1:] += np.cumsum(np.where(below, 0, log_ratio), axis=0)
    v = np.ascontiguousarray(np.exp(log_v - log_v[np.argmax(log_v.real, axis=0), np.arange(m)]).T)
    return v / np.linalg.norm(v, axis=1, keepdims=True)  # a pairwise sum along each row
