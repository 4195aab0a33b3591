"""Homogeneous polynomials in d real variables, and the dense coefficient
engine behind exact tightness certificates.

The engine stores a homogeneous polynomial of degree k as a float vector
over the C(d+k-1, k) monomials of that degree.  A monomial is named by the
sorted tuple c_0 <= ... <= c_{k-1} of its variable indices (x_0^2 x_2 is
(0, 0, 2)), and its position in the vector is the colexicographic rank

    sum_i C(c_i + i, i + 1),

so x_0^k comes first, then x_0^(k-1) x_1, x_0^(k-2) x_1^2, ..., and
x_{d-1}^k last.  The product of two monomials is the sorted concatenation
of their tuples, so the table that sends a pair of monomials of degrees
(k-2, 2) to the rank of their product is a few numpy operations.
``weighted_power_sum`` expands sum_j w_j q_j^p for many quadratic forms
q_j = ||F_j^T x||^2 at once, the members given as stacks of equal-width
F_j: each chunk's projectors are one batched product F F^T, powers grow by
one quadratic factor per step, each step an outer product per member summed
into monomials by ``np.bincount``, and the last step is a single matrix
product summed over the members.  At p = 1 the sum is the quadratic form of
sum_j w_j F_j F_j^T, one product over each whole stack.  ``lie_residual``
runs on the same tables in the d(d+1)/2 variables of a symmetric matrix,
for the cubature certificate: each monomial's commutator norm comes from
the 2p rows of its coefficient matrix.  Tables are cached per (d, degree);
members and monomials go in chunks of a fixed element budget.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import SizeGuardExceeded

# Elements of the largest temporary array of a chunk of members or of a
# table build block.
_CHUNK_ELEMENTS = 1 << 14


def monomial_count(d: int, degree: int) -> int:
    """Number of monomials of the given total degree in d variables."""
    return comb(d + degree - 1, degree)


def check_size_guard(d: int, degree: int, limit: int) -> None:
    n = monomial_count(d, degree)
    if n > limit:
        raise SizeGuardExceeded(
            f"degree-{degree} expansion in {d} variables has {n} monomials > limit {limit}"
        )


# ---------------------------------------------------------------------------
# dense coefficient engine

def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def _rank_binomials(d: int, degree: int) -> np.ndarray:
    """C(v + i, i + 1) for positions i < degree and variables v < d."""
    return _frozen(np.array([[comb(v + i, i + 1) for v in range(d)]
                             for i in range(degree)], dtype=np.int64).reshape(degree, d))


def monomial_rank(indices: np.ndarray, d: int) -> np.ndarray:
    """Ranks of monomials given as sorted variable-index tuples along the
    last axis."""
    degree = indices.shape[-1]
    return _rank_binomials(d, degree)[np.arange(degree), indices].sum(axis=-1)


def monomials(d: int, degree: int) -> np.ndarray:
    """The degree-``degree`` monomials in rank order, one sorted
    variable-index tuple per row.  The rows of degree k ending in variable v
    follow those ending below v, and their heads are the first
    C(v + k - 1, k - 1) rows of degree k - 1, so each degree is the one
    below, gathered and extended by one column."""
    out = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, degree + 1):
        counts = np.array([comb(v + k - 1, k - 1) for v in range(d)], dtype=np.intp)
        heads = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        out = np.column_stack([out[heads], np.repeat(np.arange(d), counts)])
    return out


@lru_cache(maxsize=32)
def product_table(d: int, degree: int) -> np.ndarray:
    """(m_{degree-2}, m_2) ranks of the products of a degree-(degree - 2)
    monomial with a degree-2 monomial, for degree >= 2."""
    left, right = monomials(d, degree - 2), monomials(d, 2)
    table = np.empty((len(left), len(right)), dtype=np.intp)
    block = max(1, _CHUNK_ELEMENTS // (len(right) * degree))
    for lo in range(0, len(left), block):
        part = left[lo:lo + block]
        shape = (len(part), len(right))
        merged = np.concatenate([np.broadcast_to(part[:, None, :], shape + (degree - 2,)),
                                 np.broadcast_to(right[None, :, :], shape + (2,))], axis=-1)
        table[lo:lo + block] = monomial_rank(np.sort(merged, axis=-1), d)
    return _frozen(table)


@lru_cache(maxsize=32)
def _quadratic_pairs(d: int) -> tuple:
    """The variable pairs a <= b of the degree-2 monomials in rank order, and
    the factor 1/2 on the diagonal pairs."""
    b, a = np.tril_indices(d)
    return _frozen(a), _frozen(b), _frozen(np.where(a == b, 0.5, 1.0))


def quadratic_rows(mats: np.ndarray) -> np.ndarray:
    """Degree-2 coefficient vectors of x^T M x, one row per matrix in a
    stack of shape (n, d, d); M need not be symmetric."""
    mats = np.asarray(mats, dtype=float)
    a, b, half = _quadratic_pairs(mats.shape[-1])
    return (mats[:, a, b] + mats[:, b, a]) * half


def weighted_gram(stacks) -> np.ndarray:
    """sum_j w_j F_j F_j^T over members given as (bases, weights) pairs, one
    pair per stack of shape (m, d, k); one matrix product per stack."""
    d = stacks[0][0].shape[1]
    out = np.zeros((d, d))
    for bases, weights in stacks:
        m, _, k = bases.shape
        flat = bases.transpose(1, 0, 2).reshape(d, m * k)
        out += (flat * np.repeat(weights, k)) @ flat.T
    return out


def weighted_power_sum(stacks, p: int) -> np.ndarray:
    """Coefficients of sum_j w_j ||F_j^T x||^(2p) over the degree-2p
    monomials, for members given as (bases, weights) pairs: an (m, d, k)
    stack of d x k matrices F_j (k differs between stacks) and the array of
    its m weights, p >= 1.  At p = 1 this is the quadratic form of
    ``weighted_gram``."""
    if p == 1:
        return quadratic_rows(weighted_gram(stacks)[None])[0]
    d = stacks[0][0].shape[1]
    last = product_table(d, 2 * p)
    top = np.zeros(last.shape)     # sum_j w_j q_j^(p-1) (x) q_j
    # per member: a projector, q^(p-1), and the outer product of the last
    # power step
    step = product_table(d, 2 * p - 2).size if p > 2 else 0
    chunk = max(1, _CHUNK_ELEMENTS // max(d * d, last.shape[0], step))
    for bases, weights in stacks:
        for lo in range(0, len(bases), chunk):
            f = bases[lo:lo + chunk]
            q = quadratic_rows(f @ np.swapaxes(f, -1, -2))
            c = len(q)
            power = q     # q^(s-1) entering step s
            for s in range(2, p):
                m = monomial_count(d, 2 * s)
                outer = power[:, :, None] * q[:, None, :]
                idx = np.arange(0, c * m, m)[:, None, None] + product_table(d, 2 * s)
                power = np.bincount(idx.ravel(), weights=outer.ravel(),
                                    minlength=c * m).reshape(c, m)
            top += (weights[lo:lo + chunk, None] * power).T @ q
    return np.bincount(last.ravel(), weights=top.ravel(),
                       minlength=monomial_count(d, 2 * p))


@lru_cache(maxsize=32)
def multinomials(d: int, degree: int) -> np.ndarray:
    """degree! / prod_v c_v! for each monomial prod_v x_v^(c_v) of the given
    degree, in rank order: the coefficients of (x_1 + ... + x_d)^degree."""
    mons, pos = monomials(d, degree), np.arange(degree)
    start = np.maximum.accumulate(np.where(np.diff(mons, axis=1, prepend=-1) != 0, pos, 0), axis=1)
    runs = (pos - start + 1).astype(object).prod(axis=1)   # prod_v c_v! in Python integers
    return _frozen((factorial(degree) // runs).astype(float))


@lru_cache(maxsize=32)
def sum_of_squares_coeffs(d: int, p: int) -> np.ndarray:
    """Coefficients of (x_1^2 + ... + x_d^2)^p over the degree-2p monomials:
    the multinomial p! / prod_v c_v! at prod_v x_v^(2 c_v), zero elsewhere."""
    out = np.zeros(monomial_count(d, 2 * p))
    out[monomial_rank(np.repeat(monomials(d, p), 2, axis=1), d)] = multinomials(d, p)
    return _frozen(out)


@lru_cache(maxsize=32)
def factor_table(d: int, degree: int) -> tuple:
    """The degree-``degree`` monomials (rows, rank order) and, for each
    position i of a row, the rank of the degree-(degree - 1) monomial left
    without its factor c_i."""
    mons = monomials(d, degree)
    return _frozen(mons), _frozen(np.stack([monomial_rank(np.delete(mons, i, axis=1), d)
                                            for i in range(degree)], axis=1))


def lie_residual(stacks, p: int) -> tuple:
    """sqrt(sum_E ||D_E g||^2) / (p ||g||) for g(y) = sum_j w_j (l_j . y)^p,
    l_j = svec(F_j F_j^T), in the apolar norm ||f||^2 = sum_a f_a^2 /
    multinomial_a, E over the orthonormal basis (e_a e_b^T - e_b e_a^T) /
    sqrt(2) of so(d); members as in ``weighted_power_sum``.  Returned with
    ||g||^2 at unit total weight, which is the potential sum_{i,j} w_i w_j
    tr(P_i P_j)^p / (sum_j w_j)^2: the apolar product of (a . y)^p and
    (b . y)^p is (a . b)^p, and l_i . l_j = tr(P_i P_j).

    y holds the D = d(d+1)/2 svec coordinates of a symmetric Y (diagonal,
    then sqrt(2) times the upper entries), so l_j . y = tr(P_j Y).  With
    H(y) = sum_j w_j (l_j . y)^(p-1) P_j, summed over the members first,
    g = tr(YH) and D_E g = p tr(E K), K = YH - HY.  At each degree-p
    monomial a, R_a = (YH)_a = sum_v Y_v H_(a - e_v) over the distinct
    variables v of a, and g_a = tr R_a.  R_a is zero off its rows a_v, b_v
    (the ends): added into a zeroed d x d buffer, which sums the rows of an
    end met twice, those rows split into the ends x ends block B and the
    rest X, and ||K_a||_F^2 = 2 ||X||^2 + ||B - B^T||^2, each entry squared
    once (no difference of large sums, which would cancel at a cubature).
    At p = 1, H = S, the frame operator, ||g||^2 = ||S||_F^2 and
    sum_E ||[S, E]||^2 = d ||S - (tr S / d) I||^2."""
    d = stacks[0][0].shape[1]
    total = sum(weights.sum() for _, weights in stacks)
    if p == 1:
        s = weighted_gram(stacks)
        g_sq = float(((s / total) ** 2).sum())
        s /= np.trace(s)
        return float(np.sqrt(d) * np.linalg.norm(s - np.eye(d) / d) / np.linalg.norm(s)), g_sq
    big = d * (d + 1) // 2
    a, b, _ = _quadratic_pairs(d)      # svec coordinate v is the pair a <= b
    half = np.where(a == b, 0.5, np.sqrt(0.5))   # Y_v = half_v (e_a e_b^T + e_b e_a^T)
    lower, lower_mult = monomials(big, p - 1), multinomials(big, p - 1)
    h = np.zeros((len(lower), d * d))
    chunk = max(1, _CHUNK_ELEMENTS // max(d * d, lower.size))
    for bases, weights in stacks:
        for lo in range(0, len(bases), chunk):
            f = bases[lo:lo + chunk]
            proj = f @ np.swapaxes(f, -1, -2)
            ell = 2 * half * proj[:, a, b]      # svec(P_j), up to the order of coordinates
            powers = lower_mult * ell[:, lower].prod(axis=-1)   # (l_j . y)^(p-1)
            h += (weights[lo:lo + chunk, None] / total * powers).T @ proj.reshape(len(f), -1)
    h = h.reshape(-1, d, d)

    mons, rest = factor_table(big, p)
    apolar = 1.0 / multinomials(big, p)
    chunk = max(1, _CHUNK_ELEMENTS // (2 * p * d))
    r = np.zeros((chunk, d, d))         # R_a per monomial; zero between chunks
    lie_sq = g_sq = 0.0
    for lo in range(0, len(mons), chunk):
        v, m = mons[lo:lo + chunk], rest[lo:lo + chunk]
        s = half[v] * (np.diff(v, axis=1, prepend=-1) != 0)     # repeats once
        c = np.arange(len(v))
        for i in range(p):      # Y_v H has row a_v = half_v H[b_v] and row b_v = half_v H[a_v]
            r[c, a[v[:, i]]] += s[:, i, None] * h[m[:, i], b[v[:, i]]]
            r[c, b[v[:, i]]] += s[:, i, None] * h[m[:, i], a[v[:, i]]]
        ends = np.sort(np.concatenate([a[v], b[v]], axis=1), axis=1)
        once = np.diff(ends, axis=1, prepend=-1) != 0       # repeated ends once
        rows = r[c[:, None], ends]
        r[c[:, None], ends] = 0
        square = (c[:, None, None], np.arange(2 * p)[:, None], ends[:, None, :])
        block = rows[square]        # R_a on ends x ends; the rows keep the rest
        rows[square] = 0
        k_ends = (block - np.swapaxes(block, 1, 2)) * once[:, None, :]     # K_a there
        k_sq = 2 * (rows ** 2).sum(axis=2) + (k_ends ** 2).sum(axis=2)
        lie_sq += (k_sq * once).sum(axis=1) @ apolar[lo:lo + chunk]
        g_sq += (2 * s * h[m, a[v], b[v]]).sum(axis=1) ** 2 @ apolar[lo:lo + chunk]   # tr R_a
    return float(np.sqrt(lie_sq / g_sq)), float(g_sq)
