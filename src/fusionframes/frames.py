"""Weighted fusion frames: the frame object, its operators, exact tightness
certificates, and the weight/subspace transformations that preserve tightness.
A frame is its per-dimension stacks (``groups``): ``_from_stacks`` assembles
every frame, and every routine reads the stacks.

Tightness of order p means sum_j w_j ||P_j x||^(2p) = A ||x||^(2p) for every
x.  Both sides are homogeneous polynomials of degree 2p, so the identity is
certified exactly by comparing coefficients; no sampling is involved.  The
left side is expanded for all members at once by the dense coefficient
engine of ``homogeneous``, and the largest coefficient gap is normalized by
the largest coefficient of the right side before it meets the tolerance.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import prod

import numpy as np

from .errors import (CERTIFY_TOL, POWER_FORM_GUARD, RANK_TOL, READ_CORRECTION_TOL, DimensionError,
                     FrameFormatError, LengthMismatch, MixedDimensions, NotAFrame, check_order,
                     check_range)
from .homogeneous import check_size_guard, sum_of_squares_coeffs, weighted_gram, weighted_power_sum
from .subspaces import _first_bad, _signed_qr, check_orthonormal, orthonormal_stack


@dataclass(frozen=True, init=False, eq=False)
class WeightedFrame:
    """An ordered collection of (subspace, positive weight) pairs sharing one
    ambient dimension, stored by dimension: ``groups`` holds, per member
    dimension k, smallest first, the ascending frame positions of the
    dimension-k members, the (m_k, d, k) stack of their orthonormal bases
    and their (m_k,) weights.  ``build_frame`` builds one from raw bases."""

    ambient_dim: int
    groups: tuple = field(repr=False)   # of (positions, bases, weights)

    @classmethod
    def _from_stacks(cls, ambient_dim: int, groups) -> "WeightedFrame":
        """The one place a frame is assembled; refuses an empty frame and bad weights."""
        frame = object.__new__(cls)
        frame.__dict__.update(ambient_dim=ambient_dim, groups=tuple(groups))
        weights = frame.weights
        if len(weights) < 1:
            raise DimensionError("a frame needs at least one subspace")
        _first_bad(~((weights > 0) & np.isfinite(weights)), None, DimensionError,
                   lambda i: f"weights must be positive and finite, got {weights[i]}")
        return frame

    def __len__(self) -> int:
        return sum(len(idx) for idx, _, _ in self.groups)

    @property
    def bases(self) -> list:
        """The (d, k) orthonormal basis of every member, in frame order: rows
        of the stacks, not copies."""
        out = [None] * len(self)
        for idx, bases, _ in self.groups:
            for i, basis in zip(idx.tolist(), bases):
                out[i] = basis
        return out

    @property
    def weights(self) -> np.ndarray:
        out = np.empty(len(self))
        for idx, _, weights in self.groups:
            out[idx] = weights
        return out

    @property
    def dims(self) -> np.ndarray:
        out = np.empty(len(self), dtype=int)
        for idx, bases, _ in self.groups:
            out[idx] = bases.shape[2]
        return out

    def mass_by_dim(self) -> dict:
        """m_k, the dimension-k weights added one by one in frame order (cumsum,
        not the pairwise np.sum); keys in order of first appearance."""
        return {bases.shape[2]: float(np.cumsum(weights)[-1])
                for _, bases, weights in sorted(self.groups, key=lambda g: g[0][0])}

    @property
    def stacks(self) -> tuple:
        """One (bases, weights) pair per dimension k, smallest first: the (m_k,
        d, k) stack of the dimension-k bases and their weights, in frame order."""
        return tuple((bases, weights) for _, bases, weights in self.groups)

    def equal_dims(self) -> bool:
        return len(self.groups) == 1

    def rescaled(self, factor: float) -> "WeightedFrame":
        return self._from_stacks(self.ambient_dim,
                                 [(idx, bases, w * factor) for idx, bases, w in self.groups])

    def normalized(self) -> "WeightedFrame":
        """Same subspaces with weights scaled to sum to 1."""
        return self.rescaled(1.0 / float(self.weights.sum()))


def _positions_by_value(values: np.ndarray) -> list:
    """Ascending positions of each distinct value, smallest value first."""
    return [np.flatnonzero(values == v) for v in np.unique(values)]


@dataclass(frozen=True)
class TightnessCertificate:
    """Outcome of an exact order-p tightness check.

    ``abs_residual`` is the largest coefficient gap between
    sum_j w_j ||P_j x||^(2p) and A ||x||^(2p); ``residual`` is that gap over
    the largest coefficient of A ||x||^(2p), and the frame is tight when it
    is at most ``tol``."""

    p: int
    target_A: float
    residual: float
    tol: float
    abs_residual: float

    @property
    def tight(self) -> bool:
        return self.residual <= self.tol


def build_frame(bases, weights=None) -> WeightedFrame:
    """Frame from raw d x k basis matrices, weights 1 by default; per width k,
    smallest first, one ``orthonormal_stack`` validates and orthonormalizes
    them (an orthonormal input may move by rounding)."""
    bases = list(bases)
    weights = np.ones(len(bases)) if weights is None else np.array([float(w) for w in weights])
    if len(weights) != len(bases):
        raise LengthMismatch("weights and bases differ in length")
    if not bases:
        raise DimensionError("a frame needs at least one subspace")
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in bases]
    if len({a.shape[0] for a in mats}) > 1:
        raise DimensionError("bases differ in ambient dimension")
    groups = [(idx, orthonormal_stack(np.stack([mats[i] for i in idx]), idx)[0], weights[idx])
              for idx in _positions_by_value(np.array([a.shape[1] for a in mats], dtype=int))]
    return WeightedFrame._from_stacks(len(mats[0]), groups)


# ---------------------------------------------------------------------------
# operators

def frame_operator(frame: WeightedFrame) -> np.ndarray:
    """S = sum_j w_j P_j, symmetric positive semidefinite."""
    return weighted_gram(frame.stacks)


def _side_by_side(frame: WeightedFrame) -> tuple:
    """The members' bases side by side in frame order, (d, sum of dims), and their first columns."""
    dims = frame.dims
    starts = np.cumsum(dims) - dims
    flat = np.empty((frame.ambient_dim, int(dims.sum())))
    for idx, bases, _ in frame.groups:
        flat[:, starts[idx, None] + np.arange(bases.shape[2])] = bases.transpose(1, 0, 2)
    return flat, starts


def analysis(frame: WeightedFrame, x) -> list:
    """Project x onto every member subspace."""
    x = np.asarray(x, dtype=float)
    if x.shape != (frame.ambient_dim,):
        raise DimensionError(f"x must have length {frame.ambient_dim}")
    flat, starts = _side_by_side(frame)
    return list(np.add.reduceat(flat.T * (x @ flat)[:, None], starts))


def synthesis(frame: WeightedFrame, fs) -> np.ndarray:
    """Weighted sum of one vector per member."""
    if len(fs) != len(frame):
        raise LengthMismatch(f"expected {len(frame)} vectors, got {len(fs)}")
    out = np.zeros(frame.ambient_dim)
    for w, f in zip(frame.weights.tolist(), fs):
        f = np.asarray(f, dtype=float)
        if f.shape != (frame.ambient_dim,):
            raise DimensionError("component vector has wrong length")
        out += w * f
    return out


def reconstruct(frame: WeightedFrame, fs) -> np.ndarray:
    """S^{-1} applied to the synthesis of fs; ``NotAFrame`` when the smallest
    eigenvalue of S is at most ``RANK_TOL`` times its largest."""
    s = frame_operator(frame)
    eig = np.linalg.eigvalsh(s)
    if eig[0] <= RANK_TOL * eig[-1]:
        raise NotAFrame(f"frame operator is singular (eigenvalues {eig[0]:.2e} to {eig[-1]:.2e})")
    return np.linalg.solve(s, synthesis(frame, fs))


# ---------------------------------------------------------------------------
# tightness certificate

def power_form(frame: WeightedFrame, p: int) -> np.ndarray:
    """Exact expansion of sum_j w_j (x^T P_j x)^p, every member at once: its
    coefficients over the degree-2p monomials, in the row order of
    ``homogeneous.monomials(d, 2p)``."""
    check_order(p)
    check_size_guard(frame.ambient_dim, 2 * p, POWER_FORM_GUARD)
    return weighted_power_sum(frame.stacks, p)


@lru_cache(maxsize=1024)
def pochhammer_ratio(k: int, d: int, p: int) -> Fraction:
    """(k/2)_p / (d/2)_p as an exact rational, cached per (k, d, p)."""
    return Fraction(prod(k + 2 * i for i in range(p)), prod(d + 2 * i for i in range(p)))


def tightness_constant(frame: WeightedFrame, p: int) -> float:
    """The only constant a tight order-p frame can have:
    sum_k m_k (k/2)_p / (d/2)_p."""
    check_order(p)
    d = frame.ambient_dim
    total = 0.0
    for k, mass in frame.mass_by_dim().items():
        total += mass * float(pochhammer_ratio(k, d, p))
    return total


def certify_tight(frame: WeightedFrame, p: int, tol: float = CERTIFY_TOL) -> TightnessCertificate:
    """Exact order-p tightness certificate by coefficient comparison.

    The forced constant is computed in closed form, never fitted.  Two
    homogeneous polynomials agree on all of R^d iff their coefficients agree,
    so the largest coefficient mismatch is a complete certificate.  It is
    divided by the largest coefficient of A (x_1^2 + ... + x_d^2)^p before
    the comparison with ``tol``, so the verdict does not depend on the
    weight scale.
    """
    coeffs = power_form(frame, p)     # first: it validates p
    a = tightness_constant(frame, p)
    rhs = a * sum_of_squares_coeffs(frame.ambient_dim, p)
    gap = float(np.abs(coeffs - rhs).max())
    return TightnessCertificate(p=p, target_A=a, residual=gap / float(rhs.max()),
                                tol=tol, abs_residual=gap)


def evaluate_power_form(frame: WeightedFrame, p: int, xs: np.ndarray) -> np.ndarray:
    """sum_j w_j ||P_j x||^(2p) for each row x of xs, the members added in
    frame order; sampling route, independent of the polynomial expansion."""
    check_order(p)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1:] != (frame.ambient_dim,):
        raise DimensionError(f"rows of xs must have length {frame.ambient_dim}")
    overlaps = np.empty((len(frame), len(xs)))     # ||P_j x||^2
    for idx, bases, _ in frame.groups:
        overlaps[idx] = ((xs @ bases) ** 2).sum(axis=-1)
    return np.cumsum(frame.weights[:, None] * overlaps ** p, axis=0)[-1]


# ---------------------------------------------------------------------------
# tightness-preserving transformations

def reweight_down(frame: WeightedFrame, p: int) -> WeightedFrame:
    """Weight map w_j -> w_j (p - 1 + dim(V_j)/2); sends tight order-p frames
    to tight order-(p-1) frames."""
    check_range("p", p, 2)
    return WeightedFrame._from_stacks(frame.ambient_dim, [
        (idx, bases, w * (p - 1 + bases.shape[2] / 2.0)) for idx, bases, w in frame.groups])


def complement_frame(frame: WeightedFrame) -> WeightedFrame:
    """Replace every subspace by its orthogonal complement, keeping weights.
    Requires equal dimensions; preserves tightness at every order."""
    if not frame.equal_dims():
        raise MixedDimensions("complement_frame requires all subspaces of equal dimension")
    (idx, bases, weights), = frame.groups
    perp = np.ascontiguousarray(_signed_qr(bases, complement=True)[1])
    return WeightedFrame._from_stacks(frame.ambient_dim, [(idx, check_orthonormal(perp), weights)])


def union(f1: WeightedFrame, f2: WeightedFrame) -> WeightedFrame:
    """Concatenation; unions of tight order-p frames are tight with the
    constants adding."""
    if f1.ambient_dim != f2.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    groups = f1.groups + tuple((idx + len(f1), bases, w) for idx, bases, w in f2.groups)
    same_k = _positions_by_value(np.array([bases.shape[2] for _, bases, _ in groups]))
    return WeightedFrame._from_stacks(f1.ambient_dim, [
        tuple(map(np.concatenate, zip(*[groups[i] for i in same]))) for same in same_k])


# ---------------------------------------------------------------------------
# frame JSON

def frame_to_dict(frame: WeightedFrame) -> dict:
    flat, starts = _side_by_side(frame)
    return {"ambient_dim": frame.ambient_dim,
            "entries": [{"basis": cols.tolist(), "weight": w}
                        for cols, w in zip(np.split(flat.T, starts[1:]), frame.weights.tolist())]}


def _numbers(item, name: str) -> np.ndarray:
    """A JSON array of numbers as floats.  Every entry must be an int or a
    float by its Python type, so strings and booleans are refused; the
    nesting must be rectangular and every integer must fit a float."""
    try:
        a = np.asarray(item)
        leaves = [item]
        for _ in range(a.ndim):
            leaves = list(chain.from_iterable(leaves))
        if set(map(type, leaves)) <= {int, float}:
            return a.astype(float)
    except (ValueError, OverflowError) as exc:
        raise FrameFormatError(f"{name}: {exc}") from exc
    raise FrameFormatError(f"{name}: entries must be numbers")


def _width_groups(cols: list, d: int):
    """(positions, (m, d, k) float stack) per basis width k, or None if one is malformed."""
    groups = []
    for idx in _positions_by_value(np.array([len(c) for c in cols], dtype=int)):
        raw = np.array([cols[i] for i in idx], dtype=float)
        if raw.ndim != 3 or raw.shape[2] != d:
            return None
        groups.append((idx, np.swapaxes(raw, 1, 2)))
    return groups


def frame_from_dict(data: dict) -> WeightedFrame:
    """Parse the frame JSON structure; bases are lists of k columns of length
    d and are re-orthonormalized on read.

    ``ambient_dim`` must be a JSON integer and each weight a JSON number.
    Types and shapes are checked in bulk, one array per basis width, and
    member by member in file order (``_numbers``) only when a bulk check
    fails; then finiteness over all members; then the members are validated
    in batches of equal dimension k, smallest k first (dimension range,
    rank, orthonormality, read correction).  Errors name the first failing
    member by its position in the file.
    """
    try:
        d = data["ambient_dim"]
        raw_entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise FrameFormatError(f"malformed frame data: {exc}") from exc
    if not isinstance(d, int) or isinstance(d, bool):
        raise FrameFormatError(f"ambient_dim must be an integer, got {d!r}")
    if not isinstance(raw_entries, list):
        raise FrameFormatError("entries must be a list")
    try:
        cols = [ent["basis"] for ent in raw_entries]
        weights = [ent["weight"] for ent in raw_entries]
        numbers = set(map(type, chain(weights, chain.from_iterable(chain.from_iterable(cols)))))
        groups = _width_groups(cols, d)
    except (KeyError, TypeError, ValueError, OverflowError):
        groups = None
    if groups is None or not numbers <= {int, float}:
        for j, ent in enumerate(raw_entries):   # raises at the first malformed member
            try:
                basis, weight = ent["basis"], ent["weight"]
            except (KeyError, TypeError) as exc:
                raise FrameFormatError(f"malformed frame entry {j}: {exc}") from exc
            member = _numbers(basis, f"member {j}")     # stored as columns
            if _numbers(weight, f"member {j}").ndim:
                raise FrameFormatError(f"member {j}: basis entries and weight must be numbers")
            if member.ndim != 2 or member.shape[1] != d:
                raise FrameFormatError(f"member {j}: basis columns must have length {d}")
    try:
        weights = np.array(weights, dtype=float)
    except OverflowError:       # an integer beyond the float range is not finite
        weights = np.array([w if abs(w) <= sys.float_info.max else np.inf for w in weights])
    finite = np.isfinite(weights)
    for idx, raw in groups:
        finite[idx] &= np.isfinite(raw).all(axis=(1, 2))
    _first_bad(~finite, range(len(finite)), FrameFormatError,
               lambda i: "basis entries and weights must be finite")
    stacks = []
    for idx, raw in groups:
        q, correction = orthonormal_stack(raw, idx)
        _first_bad(correction > READ_CORRECTION_TOL, idx, FrameFormatError,
                   lambda i: f"basis needed correction {correction[i]:.2e} > {READ_CORRECTION_TOL}")
        stacks.append((idx, q, weights[idx]))
    return WeightedFrame._from_stacks(d, stacks)


def save_frame(frame: WeightedFrame, path) -> None:
    """Write the frame JSON: the bytes of ``json.dump(frame_to_dict(frame),
    indent=2)`` and a newline, spelled from the stacks by one %r template
    per dimension (json writes a float as its ``repr``)."""
    members = [None] * len(frame)
    for idx, bases, weights in frame.groups:
        col = "[\n          " + ",\n          ".join(["%r"] * bases.shape[1]) + "\n        ]"
        template = ('{\n      "basis": [\n        ' + ",\n        ".join([col] * bases.shape[2])
                    + '\n      ],\n      "weight": %r\n    }')
        rows = np.column_stack([np.swapaxes(bases, 1, 2).reshape(len(idx), -1), weights])
        for i, row in zip(idx.tolist(), rows.tolist()):
            members[i] = template % tuple(row)
    with open(path, "w") as fh:
        fh.write(f'{{\n  "ambient_dim": {frame.ambient_dim},\n  "entries": [\n    '
                 + ",\n    ".join(members) + "\n  ]\n}\n")


def load_frame(path) -> WeightedFrame:
    with open(path) as fh:
        return frame_from_dict(json.load(fh))
