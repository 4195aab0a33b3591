"""The order-p fusion frame potential and its lower bounds.

FFP(F, p) = sum_{i,j} w_i w_j trace(P_i P_j)^p, diagonal included.  Three
bounds are provided: the generalized simplex bound (any frame), its pairwise
max form, and the mixed-dimension moment-matrix bound from the exact Haar
moments.  Equality in the simplex bound characterizes equiangular tight
collections, which is what the equiangularity report detects.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import EQUALITY_TOL, GRAM_BUDGET, GROUP_ORTHO_TOL, SingleSubspace, check_order
from .frames import WeightedFrame, _side_by_side, certify_tight
from .moments import _check_moment_args, _moment_weights, _pochhammer_int


def gram_matrix(frame: WeightedFrame) -> np.ndarray:
    """Pairwise table G[i, j] = trace(P_i P_j) = ||B_i^T B_j||_F^2, built in
    blocks of member rows whose cross products hold at most ``GRAM_BUDGET``
    entries (one member at least)."""
    bases, starts = _side_by_side(frame)
    dims, n = frame.dims, len(frame)
    step = max(1, GRAM_BUDGET // (bases.shape[1] * int(dims.max())))
    g = np.empty((n, n))
    for lo in range(0, n, step):
        block = starts[lo:lo + step]
        rows = bases[:, block[0]:block[-1] + dims[lo + len(block) - 1]]
        cross = rows.T @ bases     # squares summed per (row block, column block)
        g[lo:lo + step] = np.add.reduceat(np.add.reduceat(cross * cross, block - block[0], axis=0),
                                          starts, axis=1)
    g[np.arange(n), np.arange(n)] = dims
    return g


def ffp(frame: WeightedFrame, p: int) -> float:
    """The order-p potential, diagonal terms included."""
    check_order(p)
    w = frame.weights
    g = gram_matrix(frame)
    return float(np.einsum("i,j,ij->", w, w, g ** p))


def _simplex_pieces(frame: WeightedFrame):
    w = frame.weights
    dims = frame.dims
    m = float(w @ dims)
    diag = float((w * w) @ dims)
    cross = float(w.sum() ** 2 - (w * w).sum())
    return m, diag, cross


def simplex_bound_rhs(frame: WeightedFrame) -> float:
    """(m^2/d - sum w_j^2 dim V_j) / sum_{i != j} w_i w_j, the floor under the
    largest off-diagonal trace(P_i P_j)."""
    if len(frame) < 2:
        raise SingleSubspace("simplex bound needs n >= 2")
    m, diag, cross = _simplex_pieces(frame)
    return (m * m / frame.ambient_dim - diag) / cross


def max_offdiagonal(frame: WeightedFrame) -> float:
    if len(frame) < 2:
        raise SingleSubspace("max_offdiagonal needs n >= 2")
    g = gram_matrix(frame)
    mask = ~np.eye(len(frame), dtype=bool)
    return float(g[mask].max())


def ffp_lower_bound_p(frame: WeightedFrame, p: int) -> float:
    """Generalized simplex lower bound on FFP(F, p).

    The cross term (m^2/d - sum w_j^2 dim V_j)^p / (sum_{i!=j} w_i w_j)^{p-1}
    is added to the diagonal sum sum w_j^2 dim(V_j)^p.  A negative numerator
    (possible for wildly unequal weights) is clamped to zero, leaving the
    diagonal sum as the bound.
    """
    check_order(p)
    if len(frame) < 2:
        raise SingleSubspace("bound needs n >= 2")
    w = frame.weights
    dims = frame.dims
    m, diag, cross = _simplex_pieces(frame)
    numerator = max(m * m / frame.ambient_dim - diag, 0.0)
    diag_p = float((w * w) @ (dims.astype(float) ** p))
    return numerator ** p / cross ** (p - 1) + diag_p


@dataclass(frozen=True)
class EquiangularityReport:
    is_equiangular: bool
    common_value: float | None
    spread: float
    n_distinct: int
    all_distinct: bool
    gerzon_ok: bool          # n <= C(d+1, 2)
    predicted_common_value: float | None  # k(nk-d)/((n-1)d) when tight, equal dims/weights


def equiangularity(frame: WeightedFrame, tol: float = EQUALITY_TOL) -> EquiangularityReport:
    """Detect a constant off-diagonal trace(P_i P_j) and run the counting
    checks that a genuine equiangular system must satisfy.

    ``n_distinct`` counts distinct subspaces: a scan in frame order drops a
    member within ``EQUALITY_TOL`` in max-norm of a kept one's projector, so
    ``all_distinct`` means that no two projectors agree to that tolerance;
    the counting bound C(d+1,2) applies only to distinct members, so a valid
    equiangular system needs is_equiangular, all_distinct, and gerzon_ok
    simultaneously.
    """
    if len(frame) < 2:
        raise SingleSubspace("equiangularity needs n >= 2")
    n, d, dims = len(frame), frame.ambient_dim, frame.dims
    g = gram_matrix(frame)
    np.fill_diagonal(g, g[0, 1])    # so g's extremes are those off the diagonal
    spread = float(g.max() - g.min())
    is_eq = spread <= tol
    common = float(g[~np.eye(n, dtype=bool)].mean()) if is_eq else None

    # such a pair has equal k and 2k - 2 G_ij <= d^2 EQUALITY_TOL^2 if exact. A basis
    # orthonormal to GROUP_ORTHO_TOL (an orbit image; every other stored basis is to
    # ORTHO_TOL) moves tr(P^2) by 2k GROUP_ORTHO_TOL; 4k covers G's rounding too
    floor = dims - d * d * EQUALITY_TOL ** 2 / 2 - 4 * dims * GROUP_ORTHO_TOL
    lo, hi = np.divmod(np.flatnonzero(g >= floor), n)
    lo, hi = np.compress((lo < hi) & (dims[lo] == dims[hi]), [lo, hi], axis=1)
    state, step = np.zeros(n, dtype=int), max(1, GRAM_BUDGET // (d * d))    # 1 kept, -1 dropped
    while not state.all():      # the first undecided member is decided each round
        test = np.flatnonzero((state[lo] == 1) & (state[hi] == 0))
        for idx, bases, _ in frame.groups:      # projector pairs, GRAM_BUDGET entries at once
            pairs = test[np.isin(lo[test], idx)]
            for part in np.split(pairs, range(step, len(pairs), step)):
                a, b = (bases[np.searchsorted(idx, x[part])] for x in (lo, hi))
                gap = a @ np.swapaxes(a, 1, 2) - b @ np.swapaxes(b, 1, 2)
                state[hi[part[np.abs(gap).max(axis=(1, 2)) <= EQUALITY_TOL]]] = -1
        state[(state == 0) & (np.bincount(hi[state[lo] == 0], minlength=n) == 0)] = 1
    n_distinct = int((state == 1).sum())

    predicted = None
    if frame.equal_dims():
        w = frame.weights
        if np.ptp(w) <= EQUALITY_TOL * w.max():
            k = int(frame.dims[0])
            if certify_tight(frame, 1).tight:
                predicted = k * (n * k - d) / ((n - 1) * d)

    return EquiangularityReport(
        is_equiangular=is_eq,
        common_value=common,
        spread=spread,
        n_distinct=n_distinct,
        all_distinct=n_distinct == n,
        gerzon_ok=n <= comb(d + 1, 2),
        predicted_common_value=predicted,
    )


def ffp_lower_bound_mixed(frame: WeightedFrame, p: int) -> float:
    """M T M^T = sum_kappa w_kappa (sum_k m_k N_kappa(k))^2 / q, with m_k the
    total weight of the dimension-k members and T[k, l] = t(k, l, d, p) =
    sum_kappa w_kappa N_kappa(k) N_kappa(l) / q (``moments._moment_weights``),
    summed over the rationals and rounded once."""
    d = frame.ambient_dim
    _check_moment_args(1, 1, d, p)
    mass = {k: Fraction(m) for k, m in frame.mass_by_dim().items()}
    kappas, weights, q = _moment_weights(d, p, max(mass))
    return float(sum(w * sum(m * _pochhammer_int(kappa, k) for k, m in mass.items()) ** 2
                     for kappa, w in zip(kappas, weights)) / q)
