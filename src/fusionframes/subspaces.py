"""Linear subspaces of R^d: orthonormal bases, projectors, principal angles,
Haar-random sampling, and orthogonal complements.

A subspace is stored by a d x k matrix with orthonormal columns.  Bases are
not canonical (any rotation of the columns spans the same space), so equality
is always tested through projectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import qr_complete as _qr_complete, qr_reduced as _qr_reduced

from .errors import (EQUALITY_TOL, ORTHO_TOL, RANK_TOL, READ_CORRECTION_TOL, DimensionError,
                     RankDeficient, check_range)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^d, 1 <= k <= d-1.

    Attributes
    ----------
    ambient_dim : int
        The dimension d of the surrounding space.
    basis : ndarray of shape (d, k)
        Orthonormal columns spanning the subspace.
    """

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionError(
                f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}"
            )
        k = b.shape[1]
        if not 1 <= k <= self.ambient_dim - 1:
            raise DimensionError(f"subspace dimension {k} not in [1, {self.ambient_dim - 1}]")
        check_orthonormal(b[None])
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


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
    _, d, k = a.shape
    if not 1 <= k <= d - 1:
        where = "" if members is None else f"member {members[0]}: "
        raise DimensionError(f"{where}subspace dimension {k} not in [1, {d - 1}]")
    _first_bad(~np.isfinite(a).all(axis=(1, 2)), members, RankDeficient,
               lambda i: "basis entries must be finite")
    q = _signed_qr(a)
    moved = np.abs(q - a).max(axis=(1, 2))
    if not (moved <= READ_CORRECTION_TOL).all():
        smax, smin = np.linalg.svd(a, compute_uv=False)[:, [0, -1]].T
        _first_bad(smin <= RANK_TOL * smax, members, RankDeficient,
                   lambda i: f"smallest singular value {smin[i]:.2e} <= {RANK_TOL} x {smax[i]:.2e}")
    return check_orthonormal(q, members), moved


def _signed_qr(a: np.ndarray, complement: bool = False):
    """Q (..., d, k) of a stacked QR with the diagonal of R forced positive;
    with ``complement``, the first k and the last d - k columns of the
    complete Q, the basis and one of its complement.  Each is bitwise the Q
    of ``np.linalg.qr`` in that mode: its kernels on its raw factors."""
    h, tau = np.linalg.qr(a, mode="raw")    # h: the factored matrices, transposed
    signs = np.sign(np.diagonal(h, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    q = (_qr_complete if complement else _qr_reduced)(h.swapaxes(-1, -2), tau, signature="dd->d")
    k = a.shape[-1]
    basis = q[..., :k] * signs[..., None, :]
    return (basis, q[..., k:]) if complement else basis


def check_orthonormal(bases: np.ndarray, members=None) -> np.ndarray:
    """Return an (m, d, k) stack unchanged after checking that every Gram
    matrix B^T B is within ``ORTHO_TOL`` of the identity (a non-finite
    entry fails)."""
    k = bases.shape[-1]
    with np.errstate(invalid="ignore"):     # inf * 0 in the Gram matrix
        err = np.abs(np.swapaxes(bases, -1, -2) @ bases - np.eye(k)).max(axis=(-2, -1))
    _first_bad(~(err <= ORTHO_TOL), members, RankDeficient,
               lambda i: f"basis columns not orthonormal (deviation {err[i]:.2e})")
    return bases


def first_occurrences(rows: np.ndarray, start: int = 0, buckets=None) -> np.ndarray:
    """Positions in ``rows[start:]`` (D columns), ascending, of the rows
    that a linear scan keeps: a row is dropped when a kept row with the
    same 6-decimal key rint(1e6 x) lies within ``EQUALITY_TOL`` in
    max-norm.  A scan over several calls puts the rows kept so far in
    ``rows[:start]``, filed in ``buckets`` (key bytes -> positions), which
    the kept rows join at the positions they take when packed after them.
    Rows with a new key are kept without a comparison; the others are
    compared with the first row of their key at once, and only rows far
    from it meet the rest of their bucket in Python."""
    new = rows[start:]
    keys = np.rint(new * 1e6).astype(np.int64)      # the cast folds -0.0 into 0
    names = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()
    old, seen = buckets or {}, {}
    head = [old[k][0] if k in old else seen.setdefault(k, i) for i, k in enumerate(names, start)]
    if len(seen) == len(names):                     # every key is new
        kept = np.arange(len(names))
    else:
        head = np.array(head, dtype=np.intp)
        dup = head != np.arange(start, len(rows))   # an earlier row has the key
        later = np.flatnonzero(dup)
        near = np.abs(new[later] - rows[head[later]]).max(axis=1) <= EQUALITY_TOL
        for i in later[~near]:
            mine = start + np.flatnonzero((head[:i] == head[i]) & ~dup[:i])
            same = [*old.get(names[i], ()), *mine]
            dup[i] = bool((np.abs(rows[same] - new[i]).max(axis=1) <= EQUALITY_TOL).any())
        kept = np.flatnonzero(~dup)
    if buckets is not None:
        for pos, i in enumerate(kept.tolist(), start):
            buckets.setdefault(names[i], []).append(pos)
    return kept


def stack_subspaces(bases: np.ndarray) -> list:
    """Subspaces on the rows of a stack that passed ``check_orthonormal``;
    the per-member check of direct construction is not repeated."""
    out = [object.__new__(Subspace) for _ in bases]
    for s, b in zip(out, bases):
        s.__dict__.update(ambient_dim=bases.shape[1], basis=b)
    return out


def make_subspace(raw) -> Subspace:
    """Build a Subspace from any full-column-rank d x k matrix.

    The column space is preserved; the stored basis is the sign-fixed QR
    orthonormalization of ``raw``.
    """
    a = np.atleast_2d(np.asarray(raw, dtype=float))
    return stack_subspaces(orthonormal_stack(a[None])[0])[0]


def projector(s: Subspace) -> np.ndarray:
    """Orthogonal projection matrix B B^T onto the subspace."""
    return s.basis @ s.basis.T


def hs_inner(s1: Subspace, s2: Subspace) -> float:
    """trace(P1 P2), computed as the squared Frobenius norm of B1^T B2."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    m = s1.basis.T @ s2.basis
    return float((m * m).sum())


def principal_angles(s1: Subspace, s2: Subspace) -> np.ndarray:
    """Squared cosines of the principal angles, descending, clamped to [0, 1].

    These are the squared singular values of B1^T B2, equivalently the
    nonzero eigenvalues of P1 P2; their sum equals hs_inner(s1, s2).
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    sv = np.linalg.svd(s1.basis.T @ s2.basis, compute_uv=False)
    return np.clip(sv * sv, 0.0, 1.0)


def chordal_distance_sq(s1: Subspace, s2: Subspace) -> float:
    """k - trace(P1 P2) for two subspaces of equal dimension k."""
    if s1.dim != s2.dim:
        raise DimensionError("chordal distance requires equal dimensions")
    return float(s1.dim - hs_inner(s1, s2))


def haar_random(d: int, k: int, rng: np.random.Generator) -> Subspace:
    """Draw a uniformly distributed k-dimensional subspace of R^d.

    A d x k standard Gaussian matrix is orthonormalized with the sign-fixed
    QR factorization; the sign convention makes the column frame exactly
    Haar-distributed rather than merely Haar up to signs.
    """
    check_range("d", d, 2)
    check_range("k", k, 1, d - 1)
    return make_subspace(rng.standard_normal((d, k)))


def haar_basis_batch(d: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, d, k) stack of independent Haar orthonormal bases; bulk sampler
    for Monte-Carlo estimates.  The sign-fixed QR of ``orthonormal_stack``
    without its checks: a Gaussian matrix has full rank with probability 1."""
    return _signed_qr(rng.standard_normal((count, d, k)))


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement: the last d - k columns of ``_signed_qr``'s complete Q."""
    return Subspace(s.ambient_dim, _signed_qr(s.basis[None], complement=True)[1][0])


def subspaces_equal(s1: Subspace, s2: Subspace, tol: float = EQUALITY_TOL) -> bool:
    """Projector comparison in max-norm; basis matrices are not canonical."""
    if s1.ambient_dim != s2.ambient_dim or s1.dim != s2.dim:
        return False
    return bool(np.abs(projector(s1) - projector(s2)).max() <= tol)
