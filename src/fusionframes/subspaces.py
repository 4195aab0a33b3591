"""Linear subspaces of R^d: orthonormal bases, principal angles, Haar-random
sampling, and orthogonal complements.

A k-dimensional subspace is its d x k basis array with orthonormal columns,
and m of them of one dimension are an (m, d, k) stack.  Bases are not
canonical (any rotation of the columns spans the same space), so two bases
are compared through their projectors B B^T.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.linalg._umath_linalg import qr_complete as _qr_complete, qr_reduced as _qr_reduced

from .errors import (EQUALITY_TOL, ORTHO_TOL, RANK_TOL, READ_CORRECTION_TOL, DimensionError,
                     RankDeficient, check_range)


def _first_bad(bad: np.ndarray, members, exc, message) -> None:
    """Raise ``exc`` for the first flagged row, named by its member index
    when ``members`` is given."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        where = "" if members is None else f"member {members[i]}: "
        raise exc(where + message(i))


def orthonormal_stack(raw, members=None) -> tuple:
    """Validate an (m, d, k) stack of full-column-rank matrices and return
    their sign-fixed QR orthonormalizations, every member at once, and the
    largest entry by which the QR moved each member (m,).

    The checks are, in order: 1 <= k <= d-1 (``DimensionError``), finite
    entries (``RankDeficient``), smallest singular value above ``RANK_TOL``
    times the largest (``RankDeficient``), and the Gram matrix of each result within
    ``ORTHO_TOL`` of the identity (``RankDeficient``).  The rank SVD runs
    only when the QR moves some entry by more than ``READ_CORRECTION_TOL``:
    a basis that close to its QR has full rank.  The diagonal of R is forced
    positive, so the result is a deterministic function of the input.
    ``members`` (one label per row) names the failing member in messages.
    """
    a = np.asarray(raw, dtype=float)
    if 1 <= a.shape[2] < a.shape[1]:    # else the core reports the dimension first
        _first_bad(~np.isfinite(a).all(axis=(1, 2)), members, RankDeficient,
                   lambda i: "basis entries must be finite")
    return _orthonormalized(a, members)


def _orthonormalized(a: np.ndarray, members) -> tuple:
    """``orthonormal_stack`` after its finiteness check, which the frame loader makes itself."""
    _, d, k = a.shape
    if not 1 <= k <= d - 1:
        where = "" if members is None else f"member {members[0]}: "
        raise DimensionError(f"{where}subspace dimension {k} not in [1, {d - 1}]")
    q = _signed_qr(a)
    moved = np.abs(q - a).max(axis=(1, 2))
    if not (moved <= READ_CORRECTION_TOL).all():
        smax, smin = np.linalg.svd(a, compute_uv=False)[:, [0, -1]].T
        _first_bad(smin <= RANK_TOL * smax, members, RankDeficient,
                   lambda i: f"smallest singular value {smin[i]:.2e} <= {RANK_TOL} x {smax[i]:.2e}")
    return check_orthonormal(q, members), moved


# np.linalg.qr's raw Householder kernel; numpy 1.x has one per shape, rows <= columns or not
_QR_R_RAW = ((_umath_linalg.qr_r_raw,) * 2 if hasattr(_umath_linalg, "qr_r_raw")
             else (_umath_linalg.qr_r_raw_m, _umath_linalg.qr_r_raw_n))


def _signed_qr(a: np.ndarray, complement: bool = False):
    """Q (..., d, k) of a stacked QR with the diagonal of R forced positive;
    with ``complement``, the first k and the last d - k columns of the
    complete Q, the basis and one of its complement.  Each is bitwise the Q
    of ``np.linalg.qr`` in that mode: its kernels, called directly on a
    float copy of ``a``, which the raw kernel overwrites with its factors."""
    h = np.array(a, dtype=float)
    d, k = h.shape[-2:]
    tau = _QR_R_RAW[d > k](h, signature="d->d")
    signs = np.sign(np.diagonal(h, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    q = (_qr_complete if complement else _qr_reduced)(h, tau, signature="dd->d")
    basis = q[..., :k] * signs[..., None, :]
    return (basis, q[..., k:]) if complement else basis


def check_orthonormal(bases: np.ndarray, members=None, tol: float = ORTHO_TOL) -> np.ndarray:
    """Return an (m, d, k) stack unchanged after checking that every Gram
    matrix B^T B is within ``tol`` of the identity (a non-finite entry
    fails)."""
    k = bases.shape[-1]
    with np.errstate(invalid="ignore"):     # inf * 0 in the Gram matrix
        err = np.abs(np.swapaxes(bases, -1, -2) @ bases - np.eye(k)).max(axis=(-2, -1))
    _first_bad(~(err <= tol), members, RankDeficient,
               lambda i: f"basis columns not orthonormal (deviation {err[i]:.2e})")
    return bases


def row_keys(rows: np.ndarray) -> list:
    """The 6-decimal key rint(1e6 x) of each row of an (n, D) array, as
    bytes: the hash under which ``first_occurrences`` and ``close_group``
    file rows (the cast folds -0.0 into 0)."""
    keys = np.rint(rows * 1e6).astype(np.int64)
    return keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel().tolist()


def first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Positions of the (n, D) rows, ascending, that a linear scan keeps: a
    row is dropped when a kept row with the same ``row_keys`` key lies
    within ``EQUALITY_TOL`` in max-norm.  Rows with a new key are kept
    without a comparison; the others are compared with the first row of
    their key at once, and only rows far from it meet the rest of their
    key's rows in Python."""
    names, seen = row_keys(rows), {}
    head = [seen.setdefault(k, i) for i, k in enumerate(names)]
    if len(seen) == len(names):                     # every key is new
        return np.arange(len(names))
    head = np.array(head, dtype=np.intp)
    dup = head != np.arange(len(rows))              # an earlier row has the key
    later = np.flatnonzero(dup)
    near = np.abs(rows[later] - rows[head[later]]).max(axis=1) <= EQUALITY_TOL
    for i in later[~near]:
        same = np.flatnonzero((head[:i] == head[i]) & ~dup[:i])
        dup[i] = bool((np.abs(rows[same] - rows[i]).max(axis=1) <= EQUALITY_TOL).any())
    return np.flatnonzero(~dup)


def make_subspace(raw) -> np.ndarray:
    """The (d, k) orthonormal basis of the column space of any full-column-rank
    d x k matrix: its sign-fixed QR orthonormalization, checked by
    ``orthonormal_stack``."""
    a = np.atleast_2d(np.asarray(raw, dtype=float))
    return orthonormal_stack(a[None])[0][0]


def principal_angles(a, b) -> np.ndarray:
    """Squared cosines of the principal angles between paired members of an
    (m, d, k) and an (m, d, l) stack of orthonormal bases, one pass for all
    pairs: (m, min(k, l)), each row descending and clamped to [0, 1].  They
    are the squared singular values of A_i^T B_i, equivalently the nonzero
    eigenvalues of P_i Q_i, and sum to trace(P_i Q_i)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-2] != b.shape[-2]:
        raise DimensionError("ambient dimensions differ")
    sv = np.linalg.svd(np.swapaxes(a, -1, -2) @ b, compute_uv=False)
    return np.clip(sv * sv, 0.0, 1.0)


def haar_basis_batch(d: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, d, k) stack of independent Haar orthonormal bases.

    Standard Gaussian d x k matrices are orthonormalized with the sign-fixed
    QR of ``orthonormal_stack`` without its checks (a Gaussian matrix has
    full rank with probability 1); the sign convention makes each column
    frame exactly Haar-distributed rather than merely Haar up to signs."""
    check_range("d", d, 2)
    check_range("k", k, 1, d - 1)
    check_range("count", count, 1)
    return _signed_qr(rng.standard_normal((count, d, k)))


def complement(basis) -> np.ndarray:
    """A (d, d - k) orthonormal basis of the orthogonal complement of the
    column space of a (d, k) orthonormal basis, 1 <= k <= d - 1: the last
    d - k columns of ``_signed_qr``'s complete Q."""
    a = np.asarray(basis, dtype=float)
    if a.ndim != 2 or not 1 <= a.shape[1] < a.shape[0]:
        raise DimensionError(f"basis of shape {a.shape} is not d x k with 1 <= k < d")
    return _signed_qr(check_orthonormal(a[None]), complement=True)[1][0]
