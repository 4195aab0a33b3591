"""Constructions of tight frames: finite-group orbits, extension of a frame
through another, realified complex line sets, and a small built-in catalog.

The orbit route rests on an invariant-theory criterion: if the only degree-2p
polynomials fixed by a finite orthogonal group are the multiples of
(x_1^2+...+x_d^2)^p, then every orbit of a subspace under that group is a
tight order-p frame.  The criterion is decided by counting those invariants
with Molien's formula (Molien 1897; Sloane 1977): the group mean of the
complete homogeneous symmetric polynomial of degree 2p in the eigenvalues
of each element, computed from the traces of its powers.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import (EQUALITY_TOL, GROUP_ORTHO_TOL, MOLIEN_TOL, ORTHO_TOL, P_MAX, POWER_FORM_GUARD,
                     DimensionError, FrameFormatError, GroupTooLarge, NotOrthogonal, UnknownName,
                     check_range)
from .frames import WeightedFrame, _numbers, build_frame
from .homogeneous import check_size_guard
from .subspaces import check_orthonormal, distinct_rows, make_subspace, score_vector

DEFAULT_MAX_ORDER = 20_000
# Largest n of equispaced-lines(n) and d of cross-polytope-lines(d).
CATALOG_ARG_MAX = 1000


@dataclass(frozen=True)
class MatrixGroup:
    """A finite subgroup of the orthogonal group: its elements as one
    (|G|, d, d) array, identity first.  Non-finite elements are refused
    (NotOrthogonal)."""

    d: int
    elements: np.ndarray
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=float))
        if not np.isfinite(self.elements).all():
            raise NotOrthogonal("group elements are not finite")

    def __len__(self) -> int:
        return len(self.elements)


def close_group(generators, max_order: int = DEFAULT_MAX_ORDER) -> MatrixGroup:
    """Closure of the generators under multiplication by Dimino's algorithm
    (Butler, LNCS 559, 1991).

    The group P of the first i generators grows to that of the first i+1 by
    whole right cosets P t, one batched product each, identity first and
    then each coset in the order it was found.  The candidates t = r g, r a
    coset's first element and g one of the first i+1 generators, are the
    only products tested for membership: t is new unless an element lies within
    ``EQUALITY_TOL``, looked up in two buckets of ``score_vector`` scores.  Raises
    GroupTooLarge before a coset would take the order past max_order,
    NotOrthogonal for bad or non-finite generators, ParameterError unless
    max_order is an integer >= 1.
    """
    check_range("max_order", max_order, 1)
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise DimensionError("need at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise DimensionError("generators must share one square shape")
        if not (np.isfinite(g).all() and np.abs(g.T @ g - np.eye(d)).max() <= GROUP_ORTHO_TOL):
            raise NotOrthogonal("generator fails the orthogonality check")

    right = np.stack(gens)
    group = np.eye(d)[None]
    # filed under floor(score / (4 slack)), an element within EQUALITY_TOL of t
    # is in the bucket of t's score minus or plus 2 slack (entries below 2)
    r, slack = score_vector(d * d)
    r, half = r / (4 * slack), np.array([[-0.5], [0.5]])
    bucket = lambda block, shift=0.0: np.floor(block.reshape(len(block), -1) @ r + shift)
    buckets = {int(bucket(group)[0]): [0]}      # bucket -> positions
    for i in range(1, len(gens) + 1):
        m, cosets = len(group), [group]     # element at position j: cosets[j // m][j % m]
        for coset in cosets:                # grows while it is read
            cands = coset[0] @ right[:i]
            for t, *near in zip(cands, *bucket(cands, half).tolist()):
                if any(np.abs(cosets[j // m][j % m] - t).max() <= EQUALITY_TOL
                       for b in near for j in buckets.get(b, ())):
                    continue
                n = m * len(cosets)
                if n + m > max_order:
                    raise GroupTooLarge(f"closure exceeded max_order={max_order}")
                cosets.append(group @ t)
                for j, b in enumerate(bucket(cosets[-1]).tolist(), n):
                    buckets.setdefault(b, []).append(j)
        group = np.concatenate(cosets)
    return MatrixGroup(d=d, elements=group, generators=tuple(gens))


@dataclass(frozen=True)
class InvarianceReport:
    invariant_dim: int
    passes: bool     # invariant space is exactly the line of (sum x_i^2)^p


def invariance_check(group: MatrixGroup, p: int) -> InvarianceReport:
    """Dimension of the degree-2p invariants of the group, by Molien's formula.

    The dimension is the group mean of h_2p(eigenvalues of g), h_n the
    complete homogeneous symmetric polynomial, got from the power sums
    tr(g^i) by Newton's identities n h_n = sum_{i<=n} tr(g^i) h_{n-i}.
    Dimension 1 means the invariants are the multiples of (sum x_i^2)^p,
    which every orthogonal matrix fixes, and all orbits of the group are
    tight at p.  |h_2p| <= C(d+2p-1, 2p), so the monomial guard keeps the
    mean exact to rounding; a mean more than ``MOLIEN_TOL`` from an integer
    means the elements are not an orthogonal group (NotOrthogonal).
    """
    check_range("p", p, 1, P_MAX)
    check_size_guard(group.d, 2 * p, POWER_FORM_GUARD)
    g = group.elements
    power, traces = np.broadcast_to(np.eye(group.d), g.shape), []
    for _ in range(2 * p):          # traces[i] = tr(g^(i+1)) per element
        power = power @ g
        traces.append(np.trace(power, axis1=1, axis2=2))
    h = [np.ones(len(g))]           # h[n] = h_n(eigenvalues of g) per element
    for n in range(1, 2 * p + 1):
        h.append(sum(t * h_rest for t, h_rest in zip(traces, reversed(h))) / n)
    mean = float(h[-1].mean())
    count = round(mean)
    if abs(mean - count) > MOLIEN_TOL:
        raise NotOrthogonal(f"Molien mean {mean!r} is not an integer: "
                            "the elements are not an orthogonal group")
    return InvarianceReport(invariant_dim=count, passes=count == 1)


def orbit_frame(group: MatrixGroup, seed) -> WeightedFrame:
    """The orbit {g V} of the subspace V with (d, k) orthonormal basis
    ``seed`` as a frame with unit weights, one entry per distinct image
    (stabilizer duplicates collapse).  The seed is checked to ``ORTHO_TOL``
    and the kept images to ``GROUP_ORTHO_TOL``, the orthogonality that
    ``close_group`` asks of a generator, so the image under an element that
    is not orthogonal is refused with RankDeficient.  Images are the same
    within ``EQUALITY_TOL``: the kept ones are those of ``distinct_rows``."""
    seed = np.asarray(seed, dtype=float)
    if seed.ndim != 2 or seed.shape[0] != group.d or not 1 <= seed.shape[1] < group.d:
        raise DimensionError(f"seed basis of shape {seed.shape} is not d x k with "
                             f"d = {group.d} and 1 <= k < d")
    images = group.elements @ check_orthonormal(seed[None])[0]
    kept = distinct_rows((images @ images.transpose(0, 2, 1)).reshape(len(images), -1))
    n = len(kept)
    return WeightedFrame._from_stacks(
        group.d, [(np.arange(n), check_orthonormal(images[kept], tol=GROUP_ORTHO_TOL), np.ones(n))])


def extend(inner: WeightedFrame, outer: WeightedFrame) -> WeightedFrame:
    """Refine ``outer`` by planting a copy of ``inner`` inside each subspace.

    Each basis of ``outer`` is an isometry from R^ell into the ambient space
    (ell = ambient dimension of ``inner``); composing it with the bases of
    ``inner`` gives dim-preserving images with product weights.  Tightness
    orders multiply through: if both inputs are tight at p, so is the result,
    with constant equal to the product.
    """
    ell = inner.ambient_dim
    for k in outer.dims.tolist():
        if k != ell:
            raise DimensionError(f"outer frame member has dim {k}, expected {ell}")
    (_, outer_bases, _), = outer.groups
    m, n = len(outer), len(inner)
    # outer member a carrying inner member j sits at position a n + j
    weights = np.outer(outer.weights, inner.weights).ravel()
    groups = []
    for idx, bases, _ in inner.groups:
        pos = (n * np.arange(m)[:, None] + idx).ravel()
        # one product per pair, already orthonormal columns
        images = (outer_bases[:, None] @ bases[None]).reshape(len(pos), outer.ambient_dim, -1)
        groups.append((pos, check_orthonormal(images), weights[pos]))
    return WeightedFrame._from_stacks(outer.ambient_dim, groups)


# ---------------------------------------------------------------------------
# complex lines and realification

@dataclass(frozen=True)
class ComplexLineSet:
    """Unit vectors in C^d as the rows of one (n, 2d) real array, re/im
    interleaved."""

    d_complex: int
    vectors: np.ndarray

    def __post_init__(self):
        width = 2 * self.d_complex
        vecs = [np.asarray(v, dtype=float) for v in self.vectors]
        for v in vecs:
            if v.shape != (width,):
                raise DimensionError(f"interleaved vector must have length {width}")
            norm_sq = float(v @ v)
            if not abs(norm_sq - 1.0) <= ORTHO_TOL:     # NaN fails
                raise FrameFormatError(f"vector has hermitian norm^2 {norm_sq!r} != 1")
        object.__setattr__(self, "vectors", np.array(vecs, dtype=float).reshape(len(vecs), width))

    @classmethod
    def from_complex(cls, vectors) -> "ComplexLineSet":
        rows = [np.asarray(z, dtype=complex) for z in vectors]
        if not rows:
            raise DimensionError("an empty line set has no dimension")
        return cls(d_complex=len(rows[0]),
                   vectors=[np.column_stack([z.real, z.imag]).ravel() for z in rows])

    def as_complex(self) -> list:
        return [v[0::2] + 1j * v[1::2] for v in self.vectors]


def realify(lines: ComplexLineSet) -> WeightedFrame:
    """Each complex line becomes the real 2-plane spanned by the realified
    vector and its multiplication by i, inside R^(2 d_complex); weights 1.

    The two columns are exactly orthonormal because the vector has unit
    hermitian norm, and the spanned plane does not depend on the phase of
    the representative.
    """
    if lines.d_complex < 2:
        raise DimensionError("realification needs d_complex >= 2 for proper subspaces")
    n, v = len(lines.vectors), lines.vectors
    # i z by complex multiplication: negating the real parts instead would
    # turn the zeros it writes into -0.0
    z = v[:, 0::2] + 1j * v[:, 1::2]
    cols = np.stack([z, 1j * z], axis=-1)       # (n, d, 2): z and i z
    cols = np.stack([cols.real, cols.imag], axis=2).reshape(n, 2 * lines.d_complex, 2)
    return WeightedFrame._from_stacks(2 * lines.d_complex,
                                      [(np.arange(n), check_orthonormal(cols), np.ones(n))])


# ---------------------------------------------------------------------------
# catalog

def weyl_a2_group() -> MatrixGroup:
    """Symmetries of the equilateral triangle: two mirror lines 60 deg apart."""
    return close_group([_reflection(0.0), _reflection(np.pi / 3)])


def _reflection(theta: float) -> np.ndarray:
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [s, -c]])


def _equispaced_lines(n: int) -> WeightedFrame:
    check_range("equispaced-lines(n)", n, 2, CATALOG_ARG_MAX)
    cols = [np.array([[np.cos(j * np.pi / n)], [np.sin(j * np.pi / n)]])
            for j in range(n)]
    return build_frame(cols)


def _cross_polytope_lines(d: int) -> WeightedFrame:
    check_range("cross-polytope-lines(d)", d, 2, CATALOG_ARG_MAX)
    eye = np.eye(d)
    return build_frame([eye[:, [j]] for j in range(d)])


def _weyl_a2_orbit(k: int) -> WeightedFrame:
    if k != 1:
        raise UnknownName("weyl-a2-orbit supports k=1 only (ambient dimension 2)")
    return orbit_frame(weyl_a2_group(), make_subspace(np.array([[1.0], [0.0]])))


def mub_lines_c2() -> ComplexLineSet:
    """The six states of the three mutually unbiased bases of C^2."""
    s = 1 / np.sqrt(2)
    return ComplexLineSet.from_complex([
        [1, 0], [0, 1],
        [s, s], [s, -s],
        [s, 1j * s], [s, -1j * s],
    ])


# name -> (builder, whether the name takes an integer argument "(n)")
_CATALOG = {
    "mercedes": (lambda: _equispaced_lines(3), False),
    "equispaced-lines": (_equispaced_lines, True),
    "mub-planes-r4": (lambda: realify(mub_lines_c2()), False),
    "cross-polytope-lines": (_cross_polytope_lines, True),
    "weyl-a2-orbit": (_weyl_a2_orbit, True),
}


def catalog(name: str) -> WeightedFrame:
    """Built-in frames by name.

    Names: "mercedes", "equispaced-lines(n)", "mub-planes-r4",
    "cross-polytope-lines(d)", "weyl-a2-orbit(k)".  Tightness orders:
    equispaced-lines(n) is tight at p exactly when n >= p+1 (so mercedes,
    the n=3 alias, is tight at 2 and not 3); mub-planes-r4 is tight at 3 and
    not 4; cross-polytope-lines at 1 only; weyl-a2-orbit(1) reproduces
    mercedes through the group machinery.
    """
    m = re.fullmatch(r"([a-z0-9-]+?)(?:\((\d+)\))?", name.strip())
    if not m:
        raise UnknownName(f"cannot parse catalog name {name!r}")
    base, arg = m.group(1), m.group(2)
    if base not in _CATALOG or _CATALOG[base][1] != (arg is not None):
        raise UnknownName(f"no catalog entry named {name!r}")
    builder, takes_arg = _CATALOG[base]
    return builder(int(arg)) if takes_arg else builder()


def catalog_names() -> list:
    return list(_CATALOG)


# ---------------------------------------------------------------------------
# file formats

def load_generators(path) -> list:
    """Generator file: JSON list of d x d row-major matrices."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise FrameFormatError("generator file must be a nonempty JSON list")
    mats = [_numbers(item, f"generator {j}") for j, item in enumerate(data)]
    for j, g in enumerate(mats):
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise FrameFormatError(f"generator {j}: must be a square matrix")
    return mats


def save_generators(mats, path) -> None:
    with open(path, "w") as fh:
        json.dump([np.asarray(m, dtype=float).tolist() for m in mats], fh, indent=2)
        fh.write("\n")


def load_line_set(path) -> ComplexLineSet:
    """Complex line file: JSON list of 2d-length real arrays, re/im interleaved."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise FrameFormatError("line-set file must be a nonempty JSON list")
    vecs = [_numbers(v, f"line vector {j}") for j, v in enumerate(data)]
    if vecs[0].ndim != 1 or len(vecs[0]) % 2 != 0:
        raise FrameFormatError("line vectors must be flat arrays of even length")
    return ComplexLineSet(d_complex=len(vecs[0]) // 2, vectors=vecs)


def save_line_set(lines: ComplexLineSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(lines.vectors.tolist(), fh, indent=2)
        fh.write("\n")
