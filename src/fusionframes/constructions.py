"""Constructions of tight frames: finite-group orbits, extension of a frame
through another, realified complex line sets, and a small built-in catalog.

The orbit route rests on an invariant-theory criterion: if the only degree-2p
polynomials fixed by a finite orthogonal group are the multiples of
(x_1^2+...+x_d^2)^p, then every orbit of a subspace under that group is a
tight order-p frame.  The criterion is decided numerically by the rank of
the group-averaging (Reynolds) operator on monomial coefficients.
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
    SizeGuardExceeded,
    UnknownName,
)
from .frames import WeightedFrame, build_frame
from .homogeneous import HomogeneousPoly, monomial_count
from .potential import GRAM_BUDGET
from .subspaces import (Subspace, check_orthonormal, first_occurrences, make_subspace,
                        stack_subspaces)

GROUP_ORTHO_TOL = 1e-10
REYNOLDS_GUARD = 10 ** 5
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


def _monomial_basis(d: int, degree: int) -> list:
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], degree, d)
    return out


def _substitution_matrix(g: np.ndarray, basis: list, pos: dict, degree: int) -> np.ndarray:
    """Action of x -> g x on degree-`degree` monomial coefficients."""
    d = g.shape[0]
    n = len(basis)
    # row i of g^T gives the linear form substituted for x_i
    linear = []
    for i in range(d):
        coeffs = {}
        for j in range(d):
            if g[j, i] != 0.0:
                e = [0] * d
                e[j] = 1
                coeffs[tuple(e)] = float(g[j, i])
        linear.append(HomogeneousPoly(d, 1, coeffs))
    mat = np.zeros((n, n))
    cache: dict = {}

    def power_of(i: int, e: int) -> HomogeneousPoly:
        key = (i, e)
        if key not in cache:
            cache[key] = linear[i].power(e)
        return cache[key]

    for col, expo in enumerate(basis):
        poly = None
        for i, e in enumerate(expo):
            if e == 0:
                continue
            factor = power_of(i, e)
            poly = factor if poly is None else poly * factor
        for e, c in poly.coeffs.items():
            mat[pos[e], col] = c
    return mat


def invariance_check(group: MatrixGroup, p: int) -> InvarianceReport:
    """Rank of the Reynolds operator on degree-2p monomial coefficients.

    Rank 1 means the invariant polynomials of degree 2p form a single line;
    since (sum x_i^2)^p is invariant under every orthogonal matrix, that line
    is necessarily its span, and all orbits of the group are tight at p.
    """
    d, degree = group.d, 2 * p
    if monomial_count(d, degree) > REYNOLDS_GUARD:
        raise SizeGuardExceeded(
            f"{monomial_count(d, degree)} monomials exceed the Reynolds guard"
        )
    basis = _monomial_basis(d, degree)
    pos = {e: i for i, e in enumerate(basis)}
    n = len(basis)
    reynolds = np.zeros((n, n))
    for g in group.elements:
        reynolds += _substitution_matrix(g, basis, pos, degree)
    reynolds /= len(group.elements)
    rank = int(np.linalg.matrix_rank(reynolds, tol=1e-8))
    return InvarianceReport(invariant_dim=rank, passes=rank == 1)


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

def load_generators(path) -> list:
    """Generator file: JSON list of d x d row-major matrices."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise FrameFormatError("generator file must be a nonempty JSON list")
    mats = []
    for item in data:
        g = np.asarray(item, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise FrameFormatError("each generator must be a square matrix")
        mats.append(g)
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
    first = np.asarray(data[0], dtype=float)
    if first.ndim != 1 or len(first) % 2 != 0:
        raise FrameFormatError("line vectors must be flat arrays of even length")
    return ComplexLineSet(d_complex=len(first) // 2,
                          vectors=tuple(np.asarray(v, dtype=float) for v in data))


def save_line_set(lines: ComplexLineSet, path) -> None:
    with open(path, "w") as fh:
        json.dump([list(map(float, v)) for v in lines.vectors], fh, indent=2)
        fh.write("\n")
