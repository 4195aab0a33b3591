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
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    FrameFormatError,
    GroupTooLarge,
    NotOrthogonal,
    ParameterError,
    UnknownName,
    check_integer,
)
from .frames import POWER_FORM_GUARD, WeightedFrame, build_frame
from .homogeneous import check_size_guard
from .moments import P_MAX
from .potential import GRAM_BUDGET
from .subspaces import (Subspace, check_orthonormal, first_occurrences, make_subspace,
                        stack_subspaces)

GROUP_ORTHO_TOL = 1e-10
# Largest gap of a Molien mean from the nearest integer.
MOLIEN_TOL = 1e-6
DEFAULT_MAX_ORDER = 20_000
# Largest n of equispaced-lines(n) and d of cross-polytope-lines(d).
CATALOG_ARG_MAX = 1000


@dataclass(frozen=True)
class MatrixGroup:
    """A finite subgroup of the orthogonal group, listed element by element."""

    d: int
    elements: tuple   # of d x d arrays, identity first
    generators: tuple

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def stack(self) -> np.ndarray:
        """The elements as one (|G|, d, d) array, in order."""
        return np.stack(self.elements)


def close_group(generators, max_order: int = DEFAULT_MAX_ORDER) -> MatrixGroup:
    """Breadth-first closure of the generators under multiplication.

    A level's products come from batched matmuls in (element, generator)
    order, at most ``GRAM_BUDGET`` entries at a time, and ``first_occurrences``
    keeps those new at ``EQUALITY_TOL``.  Raises GroupTooLarge when the
    closure exceeds max_order, NotOrthogonal for bad or non-finite generators.
    """
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
    buf, buckets = np.eye(d).reshape(1, d * d), {}
    first_occurrences(buf, 0, buckets)      # files the identity
    chunk = max(1, GRAM_BUDGET // (len(gens) * d * d))
    lo, n = 0, 1
    while lo < n:
        hi = n
        for start in range(lo, hi, chunk):
            left = buf[start:min(start + chunk, hi)].reshape(-1, 1, d, d)
            prods = (left @ right).reshape(-1, d * d)
            if n + len(prods) > len(buf):   # grow by doubling: no copy per level
                buf = np.concatenate([buf[:n], np.empty((n + 2 * len(prods), d * d))])
            buf[n:n + len(prods)] = prods
            kept = first_occurrences(buf[:n + len(prods)], n, buckets)
            if len(kept) < len(prods):
                buf[n:n + len(kept)] = buf[n + kept]
            n += len(kept)
            if n > max_order:
                raise GroupTooLarge(f"closure exceeded max_order={max_order}")
        lo = hi
    stack = buf[:n].reshape(-1, d, d).copy()
    group = MatrixGroup(d=d, elements=tuple(stack), generators=tuple(gens))
    group.__dict__["stack"] = stack
    return group


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
    check_integer("p", p)
    if not 1 <= p <= P_MAX:
        raise ParameterError(f"p={p} not in [1, {P_MAX}]")
    check_size_guard(group.d, 2 * p, POWER_FORM_GUARD)
    g = group.stack
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


def orbit_frame(group: MatrixGroup, seed: Subspace) -> WeightedFrame:
    """The orbit {g V} as a frame with unit weights, one entry per distinct
    image (stabilizer duplicates collapse)."""
    if seed.ambient_dim != group.d:
        raise DimensionError("seed ambient dimension differs from the group")
    images = group.stack @ seed.basis
    projs = images @ images.transpose(0, 2, 1)
    kept = first_occurrences(projs.reshape(len(projs), -1))
    subs = stack_subspaces(check_orthonormal(images[kept]))
    return WeightedFrame(group.d, tuple((s, 1.0) for s in subs))


def extend(inner: WeightedFrame, outer: WeightedFrame) -> WeightedFrame:
    """Refine ``outer`` by planting a copy of ``inner`` inside each subspace.

    Each basis of ``outer`` is an isometry from R^ell into the ambient space
    (ell = ambient dimension of ``inner``); composing it with the bases of
    ``inner`` gives dim-preserving images with product weights.  Tightness
    orders multiply through: if both inputs are tight at p, so is the result,
    with constant equal to the product.
    """
    ell = inner.ambient_dim
    for s, _ in outer.entries:
        if s.dim != ell:
            raise DimensionError(
                f"outer frame member has dim {s.dim}, expected {ell}"
            )
    entries = []
    for w_sub, w_weight in outer.entries:
        for v_sub, v_weight in inner.entries:
            basis = w_sub.basis @ v_sub.basis     # already orthonormal columns
            entries.append((Subspace(outer.ambient_dim, basis), w_weight * v_weight))
    return WeightedFrame(outer.ambient_dim, tuple(entries))


# ---------------------------------------------------------------------------
# complex lines and realification

@dataclass(frozen=True)
class ComplexLineSet:
    """Unit vectors in C^d stored as length-2d real arrays, re/im interleaved."""

    d_complex: int
    vectors: tuple   # of 1-D float arrays, length 2 * d_complex

    def __post_init__(self):
        vecs = []
        for v in self.vectors:
            v = np.asarray(v, dtype=float)
            if v.shape != (2 * self.d_complex,):
                raise DimensionError(
                    f"interleaved vector must have length {2 * self.d_complex}"
                )
            norm_sq = float(v @ v)
            if abs(norm_sq - 1.0) > 1e-12:
                raise FrameFormatError(f"vector has hermitian norm^2 {norm_sq!r} != 1")
            vecs.append(v)
        object.__setattr__(self, "vectors", tuple(vecs))

    @classmethod
    def from_complex(cls, vectors) -> "ComplexLineSet":
        rows = []
        dc = None
        for z in vectors:
            z = np.asarray(z, dtype=complex)
            dc = len(z) if dc is None else dc
            inter = np.empty(2 * len(z))
            inter[0::2] = z.real
            inter[1::2] = z.imag
            rows.append(inter)
        return cls(d_complex=dc, vectors=tuple(rows))

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
    entries = []
    for v in lines.vectors:
        z = v[0::2] + 1j * v[1::2]
        iz = 1j * z
        cols = np.empty((2 * lines.d_complex, 2))
        cols[0::2, 0] = z.real
        cols[1::2, 0] = z.imag
        cols[0::2, 1] = iz.real
        cols[1::2, 1] = iz.imag
        entries.append((Subspace(2 * lines.d_complex, cols), 1.0))
    return WeightedFrame(2 * lines.d_complex, tuple(entries))


# ---------------------------------------------------------------------------
# catalog

def weyl_a2_group() -> MatrixGroup:
    """Symmetries of the equilateral triangle: two mirror lines 60 deg apart."""
    return close_group([_reflection(0.0), _reflection(np.pi / 3)])


def _reflection(theta: float) -> np.ndarray:
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [s, -c]])


def _equispaced_lines(n: int) -> WeightedFrame:
    cols = [np.array([[np.cos(j * np.pi / n)], [np.sin(j * np.pi / n)]])
            for j in range(n)]
    return build_frame(cols)


def mub_lines_c2() -> ComplexLineSet:
    """The six states of the three mutually unbiased bases of C^2."""
    s = 1 / np.sqrt(2)
    return ComplexLineSet.from_complex([
        [1, 0], [0, 1],
        [s, s], [s, -s],
        [s, 1j * s], [s, -1j * s],
    ])


_CATALOG_DOC = {
    # name -> (builder, highest tight order, description)
    "mercedes": (lambda: _equispaced_lines(3), 2, "3 equispaced lines in R^2"),
    "equispaced-lines": (None, None, "n equispaced lines in R^2; tight up to n-1"),
    "mub-planes-r4": (lambda: realify(mub_lines_c2()), 3,
                      "realified mutually unbiased bases of C^2: 6 planes in R^4"),
    "cross-polytope-lines": (None, None, "the d coordinate lines of R^d; tight at 1"),
    "weyl-a2-orbit": (None, None, "orbit of a coordinate line under the A2 Weyl group"),
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
    if base == "mercedes" and arg is None:
        return _equispaced_lines(3)
    if base == "equispaced-lines" and arg is not None:
        n = int(arg)
        if n < 2:
            raise UnknownName("equispaced-lines needs n >= 2")
        if n > CATALOG_ARG_MAX:
            raise ParameterError(f"equispaced-lines needs n <= {CATALOG_ARG_MAX}")
        return _equispaced_lines(n)
    if base == "mub-planes-r4" and arg is None:
        return realify(mub_lines_c2())
    if base == "cross-polytope-lines" and arg is not None:
        d = int(arg)
        if d < 2:
            raise UnknownName("cross-polytope-lines needs d >= 2")
        if d > CATALOG_ARG_MAX:
            raise ParameterError(f"cross-polytope-lines needs d <= {CATALOG_ARG_MAX}")
        eye = np.eye(d)
        return build_frame([eye[:, [j]] for j in range(d)])
    if base == "weyl-a2-orbit" and arg is not None:
        k = int(arg)
        if k != 1:
            raise UnknownName("weyl-a2-orbit supports k=1 only (ambient dimension 2)")
        seed = make_subspace(np.array([[1.0], [0.0]]))
        return orbit_frame(weyl_a2_group(), seed)
    raise UnknownName(f"no catalog entry named {name!r}")


def catalog_names() -> list:
    return list(_CATALOG_DOC)


# ---------------------------------------------------------------------------
# file formats

def _numbers(item, name: str) -> np.ndarray:
    """A JSON array of numbers as floats; strings, booleans, ragged nesting refused."""
    try:
        a = np.asarray(item)
    except ValueError as exc:
        raise FrameFormatError(f"{name}: {exc}") from exc
    if a.dtype.kind not in "fi":
        raise FrameFormatError(f"{name}: entries must be numbers")
    return a.astype(float)


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
    return ComplexLineSet(d_complex=len(vecs[0]) // 2, vectors=tuple(vecs))


def save_line_set(lines: ComplexLineSet, path) -> None:
    with open(path, "w") as fh:
        json.dump([list(map(float, v)) for v in lines.vectors], fh, indent=2)
        fh.write("\n")
