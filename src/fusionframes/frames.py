"""Weighted fusion frames: the frame object, its operators, exact tightness
certificates, and the weight/subspace transformations that preserve tightness.

Tightness of order p means sum_j w_j ||P_j x||^(2p) = A ||x||^(2p) for every
x.  Both sides are homogeneous polynomials of degree 2p, so the identity is
certified exactly by comparing coefficients; no sampling is involved.  The
left side is expanded for all members at once by the dense coefficient
engine of ``homogeneous``, and the largest coefficient gap is normalized by
the largest coefficient of the right side before it meets the tolerance.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionError,
    FrameFormatError,
    LengthMismatch,
    MixedDimensions,
    NotAFrame,
    check_integer,
)
from .homogeneous import (
    HomogeneousPoly,
    check_size_guard,
    sum_of_squares_coeffs,
    weighted_gram,
    weighted_power_sum,
)
from .subspaces import Subspace, complement, orthonormal_stack, stack_subspaces

# Largest degree-2p monomial count accepted by the certificate expansion.
POWER_FORM_GUARD = 10 ** 6
# Default tolerance on the normalized coefficient residual of a certificate.
CERTIFY_TOL = 1e-9
# Frame files must be orthonormal to this much before re-orthonormalization.
READ_CORRECTION_TOL = 1e-6


@dataclass(frozen=True)
class WeightedFrame:
    """An ordered collection of (subspace, positive weight) pairs sharing one
    ambient dimension."""

    ambient_dim: int
    entries: tuple  # of (Subspace, float)

    def __post_init__(self):
        entries = tuple((s, float(w)) for s, w in self.entries)
        if len(entries) < 1:
            raise DimensionError("a frame needs at least one subspace")
        for s, w in entries:
            if s.ambient_dim != self.ambient_dim:
                raise DimensionError("subspace ambient dimension differs from frame")
            if not (w > 0 and np.isfinite(w)):
                raise DimensionError(f"weights must be positive and finite, got {w}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def subspaces(self) -> list:
        return [s for s, _ in self.entries]

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.entries])

    @property
    def dims(self) -> np.ndarray:
        return np.array([s.dim for s, _ in self.entries])

    def mass_by_dim(self) -> dict:
        """m_k = total weight carried by dimension-k members."""
        out: dict = {}
        for s, w in self.entries:
            out[s.dim] = out.get(s.dim, 0.0) + w
        return out

    @cached_property
    def stacks(self) -> tuple:
        """Members grouped by dimension, smallest first: one (bases, weights)
        pair per dimension k, the (m_k, d, k) stack of the dimension-k bases
        and their weights, each in frame order.  Built once per frame."""
        groups: dict = {}
        for i, (s, _) in enumerate(self.entries):
            groups.setdefault(s.dim, []).append(i)
        weights = self.weights
        return tuple((np.stack([self.entries[i][0].basis for i in idx]), weights[idx])
                     for _, idx in sorted(groups.items()))

    def equal_dims(self) -> bool:
        return len({s.dim for s, _ in self.entries}) == 1

    def rescaled(self, factor: float) -> "WeightedFrame":
        return WeightedFrame(self.ambient_dim,
                             tuple((s, w * factor) for s, w in self.entries))

    def normalized(self) -> "WeightedFrame":
        """Same subspaces with weights scaled to sum to 1."""
        return self.rescaled(1.0 / float(self.weights.sum()))


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


def _stacked_subspaces(mats: list, members, correction_tol=None) -> tuple:
    """Subspaces of raw d x k_j matrices, validated by one
    ``orthonormal_stack`` per width k, smallest k first.  With
    ``correction_tol``, a basis the orthonormalization moves further than
    that is a FrameFormatError.  ``members`` names the matrices in errors.
    Returns the Subspaces in input order and the (positions, bases) of each
    validated stack."""
    subs = [None] * len(mats)
    groups = []
    widths = [a.shape[1] for a in mats]
    for k in sorted(set(widths)):
        idx = [i for i, w in enumerate(widths) if w == k]
        raw = np.stack([mats[i] for i in idx])
        q = orthonormal_stack(raw, [members[i] for i in idx])
        if correction_tol is not None:
            correction = np.abs(q - raw).max(axis=(1, 2))
            bad = np.flatnonzero(correction > correction_tol)
            if bad.size:
                raise FrameFormatError(
                    f"member {members[idx[bad[0]]]}: basis needed correction "
                    f"{correction[bad[0]]:.2e} > {correction_tol}")
        for i, sub in zip(idx, stack_subspaces(q)):
            subs[i] = sub
        groups.append((idx, q))
    return subs, groups


def build_frame(bases, weights=None) -> WeightedFrame:
    """Convenience constructor from raw basis matrices or Subspaces; weights
    default to 1.  Raw matrices are validated in batches of equal k."""
    bases = list(bases)
    if weights is None:
        weights = [1.0] * len(bases)
    if len(weights) != len(bases):
        raise LengthMismatch("weights and bases differ in length")
    if not bases:
        raise DimensionError("a frame needs at least one subspace")
    raw = [i for i, b in enumerate(bases) if not isinstance(b, Subspace)]
    mats = [np.atleast_2d(np.asarray(bases[i], dtype=float)) for i in raw]
    if len({a.shape[0] for a in mats}) > 1:
        raise DimensionError("bases differ in ambient dimension")
    for i, s in zip(raw, _stacked_subspaces(mats, raw)[0]):
        bases[i] = s
    return WeightedFrame(bases[0].ambient_dim, tuple(zip(bases, weights)))


# ---------------------------------------------------------------------------
# operators

def frame_operator(frame: WeightedFrame) -> np.ndarray:
    """S = sum_j w_j P_j, symmetric positive semidefinite."""
    return weighted_gram(frame.stacks)


def analysis(frame: WeightedFrame, x) -> list:
    """Project x onto every member subspace."""
    x = np.asarray(x, dtype=float)
    if x.shape != (frame.ambient_dim,):
        raise DimensionError(f"x must have length {frame.ambient_dim}")
    return [sub.basis @ (sub.basis.T @ x) for sub, _ in frame.entries]


def synthesis(frame: WeightedFrame, fs) -> np.ndarray:
    """Weighted sum of one vector per member."""
    if len(fs) != len(frame):
        raise LengthMismatch(f"expected {len(frame)} vectors, got {len(fs)}")
    out = np.zeros(frame.ambient_dim)
    for (sub, w), f in zip(frame.entries, fs):
        f = np.asarray(f, dtype=float)
        if f.shape != (frame.ambient_dim,):
            raise DimensionError("component vector has wrong length")
        out += w * f
    return out


def reconstruct(frame: WeightedFrame, fs) -> np.ndarray:
    """S^{-1} applied to the synthesis of fs; inverts analysis when the
    collection actually spans R^d."""
    s = frame_operator(frame)
    eigmin = float(np.linalg.eigvalsh(s)[0])
    if eigmin <= 1e-10:
        raise NotAFrame(f"frame operator is singular (smallest eigenvalue {eigmin:.2e})")
    return np.linalg.solve(s, synthesis(frame, fs))


# ---------------------------------------------------------------------------
# tightness certificate

def _power_coeffs(frame: WeightedFrame, p: int) -> np.ndarray:
    """Dense coefficients of sum_j w_j (x^T P_j x)^p over the degree-2p
    monomials, every member at once."""
    check_integer("p", p)
    if p < 1:
        raise DimensionError("p must be >= 1")
    check_size_guard(frame.ambient_dim, 2 * p, POWER_FORM_GUARD)
    return weighted_power_sum(frame.stacks, p)


def power_form(frame: WeightedFrame, p: int) -> HomogeneousPoly:
    """Exact expansion of sum_j w_j (x^T P_j x)^p as a degree-2p polynomial."""
    return HomogeneousPoly.from_dense(frame.ambient_dim, 2 * p, _power_coeffs(frame, p))


@lru_cache(maxsize=1024)
def pochhammer_ratio(k: int, d: int, p: int) -> Fraction:
    """(k/2)_p / (d/2)_p as an exact rational, cached per (k, d, p)."""
    num, den = Fraction(1), Fraction(1)
    for i in range(p):
        num *= Fraction(k, 2) + i
        den *= Fraction(d, 2) + i
    return num / den


def tightness_constant(frame: WeightedFrame, p: int) -> float:
    """The only constant a tight order-p frame can have:
    sum_k m_k (k/2)_p / (d/2)_p."""
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
    coeffs = _power_coeffs(frame, p)     # first: it validates p
    a = tightness_constant(frame, p)
    rhs = a * sum_of_squares_coeffs(frame.ambient_dim, p)
    gap = float(np.abs(coeffs - rhs).max())
    return TightnessCertificate(p=p, target_A=a, residual=gap / float(rhs.max()),
                                tol=tol, abs_residual=gap)


def evaluate_power_form(frame: WeightedFrame, p: int, xs: np.ndarray) -> np.ndarray:
    """sum_j w_j ||P_j x||^(2p) for each row x of xs; sampling route,
    independent of the polynomial expansion."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    out = np.zeros(xs.shape[0])
    for sub, w in frame.entries:
        proj_sq = ((xs @ sub.basis) ** 2).sum(axis=1)
        out += w * proj_sq ** p
    return out


# ---------------------------------------------------------------------------
# tightness-preserving transformations

def reweight_down(frame: WeightedFrame, p: int) -> WeightedFrame:
    """Weight map w_j -> w_j (p - 1 + dim(V_j)/2); sends tight order-p frames
    to tight order-(p-1) frames."""
    if p < 2:
        raise DimensionError("reweight_down needs p >= 2")
    return WeightedFrame(
        frame.ambient_dim,
        tuple((s, w * (p - 1 + s.dim / 2.0)) for s, w in frame.entries),
    )


def complement_frame(frame: WeightedFrame) -> WeightedFrame:
    """Replace every subspace by its orthogonal complement, keeping weights.
    Requires equal dimensions; preserves tightness at every order."""
    if not frame.equal_dims():
        raise MixedDimensions("complement_frame requires all subspaces of equal dimension")
    return WeightedFrame(
        frame.ambient_dim,
        tuple((complement(s), w) for s, w in frame.entries),
    )


def union(f1: WeightedFrame, f2: WeightedFrame) -> WeightedFrame:
    """Concatenation; unions of tight order-p frames are tight with the
    constants adding."""
    if f1.ambient_dim != f2.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    return WeightedFrame(f1.ambient_dim, f1.entries + f2.entries)


# ---------------------------------------------------------------------------
# frame JSON

def frame_to_dict(frame: WeightedFrame) -> dict:
    return {
        "ambient_dim": frame.ambient_dim,
        "entries": [
            {"basis": [list(map(float, col)) for col in sub.basis.T], "weight": w}
            for sub, w in frame.entries
        ],
    }


def frame_from_dict(data: dict) -> WeightedFrame:
    """Parse the frame JSON structure; bases are lists of k columns of length
    d and are re-orthonormalized on read.

    ``ambient_dim`` must be a JSON integer and each weight a JSON number.
    Types and shapes are checked member by member in file order, then
    finiteness over all members; then the members are validated in batches
    of equal dimension k, smallest k first (dimension range, rank,
    orthonormality, read correction).  Errors name the first failing member
    by its position in the file.
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
    mats, weights = [], []
    for j, ent in enumerate(raw_entries):
        try:
            cols = np.asarray(ent["basis"])     # stored as columns
            weight = ent["weight"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameFormatError(f"malformed frame entry {j}: {exc}") from exc
        if (cols.dtype.kind not in "fi" or isinstance(weight, bool)
                or not isinstance(weight, (int, float))):
            raise FrameFormatError(f"member {j}: basis entries and weight must be numbers")
        if cols.ndim != 2 or cols.shape[1] != d:
            raise FrameFormatError(f"member {j}: basis columns must have length {d}")
        mats.append(cols.T)
        weights.append(weight)
    weights = np.array(weights, dtype=float)
    if not np.isfinite(np.concatenate([weights, *mats], axis=None)).all():
        j = next(j for j, a in enumerate(mats)
                 if not (np.isfinite(a).all() and np.isfinite(weights[j])))
        raise FrameFormatError(f"member {j}: basis entries and weights must be finite")
    subs, groups = _stacked_subspaces(mats, range(len(mats)), READ_CORRECTION_TOL)
    frame = WeightedFrame(d, tuple(zip(subs, weights)))
    # the validated stacks are the frame's per-dimension stacks
    frame.__dict__["stacks"] = tuple((q, weights[idx]) for idx, q in groups)
    return frame


def save_frame(frame: WeightedFrame, path) -> None:
    """Write the frame JSON: the bytes of ``json.dump(frame_to_dict(frame),
    indent=2)`` and a newline, spelled directly from the basis arrays (json
    writes a float as its ``repr``)."""
    num = ",\n          ".join
    members = ",\n    ".join(
        '{\n      "basis": [\n        '
        + ",\n        ".join("[\n          " + num(map(repr, col)) + "\n        ]"
                              for col in sub.basis.T.tolist())
        + '\n      ],\n      "weight": ' + repr(w) + "\n    }"
        for sub, w in frame.entries)
    with open(path, "w") as fh:
        fh.write(f'{{\n  "ambient_dim": {frame.ambient_dim},\n  "entries": [\n    '
                 f"{members}\n  ]\n}}\n")


def load_frame(path) -> WeightedFrame:
    with open(path) as fh:
        return frame_from_dict(json.load(fh))
