import json
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionframes import (
    ComplexLineSet,
    DimensionError,
    FrameFormatError,
    GroupTooLarge,
    MatrixGroup,
    NotOrthogonal,
    ParameterError,
    RankDeficient,
    SizeGuardExceeded,
    UnknownName,
    build_frame,
    catalog,
    catalog_names,
    certify_tight,
    close_group,
    equiangularity,
    extend,
    haar_basis_batch,
    invariance_check,
    load_generators,
    load_line_set,
    make_subspace,
    mub_lines_c2,
    orbit_frame,
    realify,
    save_generators,
    save_line_set,
    tightness_constant,
    union,
    weyl_a2_group,
)
import fusionframes.constructions as constructions
from fusionframes.constructions import CATALOG_ARG_MAX, _reflection
from fusionframes.errors import EQUALITY_TOL, P_MAX
from test_frames import projectors


def same_members(a, b):
    """Whether the members of frames ``a`` and ``b`` of one width span the
    same subspaces in the same order: projectors within ``EQUALITY_TOL``."""
    gaps = projectors(np.stack(a.bases)) - projectors(np.stack(b.bases))
    return bool(np.abs(gaps).max() <= EQUALITY_TOL)


def members_among(a, b):
    """Whether every member of frame ``a`` spans some member of ``b``."""
    pa, pb = projectors(np.stack(a.bases)), projectors(np.stack(b.bases))
    gaps = np.abs(pa[:, None] - pb[None]).max(axis=(2, 3))
    return bool((gaps <= EQUALITY_TOL).any(axis=1).all())


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# groups

def test_close_group_orders():
    assert len(close_group([rotation(2 * np.pi / 3)])) == 3
    assert len(weyl_a2_group()) == 6
    assert len(close_group([np.eye(2)])) == 1


def test_close_group_closure_property():
    g = weyl_a2_group()
    assert np.array_equal(g.elements[0], np.eye(2))
    for a in g.elements:
        for b in g.elements:
            prod = a @ b
            assert any(np.abs(prod - e).max() <= 1e-8 for e in g.elements)


def test_close_group_errors():
    with pytest.raises(NotOrthogonal):
        close_group([np.array([[1.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(GroupTooLarge):
        close_group([rotation(2 * np.pi / 360)], max_order=100)
    with pytest.raises(DimensionError):
        close_group([])
    with pytest.raises(DimensionError, match="one square shape"):
        close_group([np.eye(2), np.eye(3)])


def test_invariance_check_examples():
    assert invariance_check(weyl_a2_group(), 2).invariant_dim == 1
    assert invariance_check(weyl_a2_group(), 2).passes
    assert not invariance_check(weyl_a2_group(), 3).passes

    refl = close_group([_reflection(0.0)])
    rep = invariance_check(refl, 1)
    assert rep.invariant_dim == 2 and not rep.passes

    triv = close_group([np.eye(2)])
    rep = invariance_check(triv, 1)
    assert rep.invariant_dim == 3 and not rep.passes

    big = MatrixGroup(12, (np.eye(12),), (np.eye(12),))
    assert invariance_check(big, 5).invariant_dim == comb(21, 10) == 352716
    with pytest.raises(SizeGuardExceeded):
        invariance_check(big, 7)


def test_invariance_check_refuses_bad_orders_and_non_groups():
    for p in (0, -1, P_MAX + 1, 2.0, 1.5, True):
        with pytest.raises(ParameterError):
            invariance_check(weyl_a2_group(), p)
    assert invariance_check(weyl_a2_group(), np.int64(2)).passes
    # closed under nothing: diag(1, -1) diag(-1, 1) = -I is missing, and
    # the Molien mean is 5/3
    not_a_group = MatrixGroup(2, (np.eye(2), np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])),
                              (np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])))
    with pytest.raises(NotOrthogonal, match="not an orthogonal group"):
        invariance_check(not_a_group, 1)


def test_orbit_frame(rng):
    w = weyl_a2_group()
    x_axis = make_subspace(np.array([[1.0], [0.0]]))
    orb = orbit_frame(w, x_axis)
    assert len(orb) == 3
    assert members_among(orb, catalog("mercedes"))

    refl = close_group([_reflection(0.0)])
    assert len(orbit_frame(refl, x_axis)) == 1   # seed is group-invariant

    with pytest.raises(DimensionError):
        orbit_frame(w, haar_basis_batch(3, 1, 1, rng)[0])


def test_orbit_theorem_round_trip(rng):
    w = weyl_a2_group()
    for _ in range(5):
        seed = haar_basis_batch(2, 1, 1, rng)[0]
        assert certify_tight(orbit_frame(w, seed), 2).tight

    refl = close_group([_reflection(0.0)])
    failures = sum(
        not certify_tight(orbit_frame(refl, haar_basis_batch(2, 1, 1, rng)[0]), 1).tight
        for _ in range(50))
    assert failures >= 1


def coxeter_roots(branches) -> np.ndarray:
    """Unit simple roots of a linear Coxeter diagram, as rows: the Cholesky
    factor of the root Gram matrix."""
    r = len(branches) + 1
    gram = np.eye(r)
    for i, m in enumerate(branches):
        gram[i, i + 1] = gram[i + 1, i] = -np.cos(np.pi / m)
    return np.linalg.cholesky(gram)


@pytest.mark.parametrize("branches, order, sizes", [
    ((3,), 6, (6, 3)),              # A2: -I is not in the group
    ((5, 3), 120, (60, 30)),        # H3
    ((3, 4, 3), 1152, (576, 288)),  # F4
])
def test_orbit_sizes_follow_orbit_stabilizer(branches, order, sizes, rng):
    roots = coxeter_roots(branches)
    group = close_group([np.eye(len(roots)) - 2 * np.outer(r, r) for r in roots])
    assert len(group) == order
    generic = rng.standard_normal(len(roots))
    on_mirror = generic - (generic @ roots[0]) * roots[0]
    elements = np.stack(group.elements)
    for v, size in zip((generic, on_mirror), sizes):
        v = v / np.linalg.norm(v)
        stabilizer = int((np.abs(np.abs(elements @ v @ v) - 1) < 1e-9).sum())
        orbit = orbit_frame(group, make_subspace(v[:, None]))
        assert len(orbit) == order // stabilizer == size
        # members come in the order of their first image, as in a linear scan
        images = elements @ v
        first = [i for i in range(order)
                 if not (np.abs(np.abs(images[:i] @ images[i]) - 1)
                         <= EQUALITY_TOL).any()]
        for i, basis in zip(first, orbit.bases):
            assert np.abs(projectors(basis) - np.outer(images[i], images[i])).max() < 1e-12


def test_orbit_checks_images_to_the_group_tolerance(rng):
    # H3 reflections rounded to 10 decimals pass the group check (defect
    # 2.5e-11 <= GROUP_ORTHO_TOL), and move the images' Gram matrices by up
    # to 1.5e-11 > ORTHO_TOL; the orbits are still the tight 60-member ones
    gens = [np.round(g, 10) for g in coxeter_generators((5, 3))]
    group = close_group(gens)
    assert len(group) == 120
    for k in (1, 2):
        seed = haar_basis_batch(3, k, 1, rng)[0]
        orbit = orbit_frame(group, seed)
        assert len(orbit) == 60
        assert np.array_equal(orbit.bases[0], seed)       # the identity's image
        assert [certify_tight(orbit, p).tight for p in (1, 2, 3)] == [True, True, False]
        # the pairs of copies of one image sit within the equiangularity
        # scan's floor, so the union's distinct count is the orbit's
        assert equiangularity(union(orbit, orbit)).n_distinct == 60
    # a seed off orthonormal by more than ORTHO_TOL is refused
    with pytest.raises(RankDeficient, match="not orthonormal"):
        orbit_frame(group, np.array([[1.0 + 1e-9], [0.0], [0.0]]))
    # so is a hand-built group with an element that is not orthogonal: its
    # kept image fails the check at GROUP_ORTHO_TOL; a non-finite element
    # is refused when the group is built
    seed = np.array([[0.0], [1.0]])
    for bad in (2 * np.eye(2), np.diag([1.0, 1.0 + 1e-6])):
        with pytest.raises(RankDeficient, match="not orthonormal"):
            orbit_frame(MatrixGroup(2, (np.eye(2), bad), (bad,)), seed)
    with pytest.raises(NotOrthogonal, match="not finite"):
        MatrixGroup(2, (np.eye(2), np.full((2, 2), np.nan)), ())


# ---------------------------------------------------------------------------
# batched closure and the shared dedup, against per-item references

def rounded_key(x):
    return tuple(np.round(x, 6).ravel())


def reference_closure(gens, max_order=constructions.DEFAULT_MAX_ORDER):
    """Breadth-first closure one product at a time, in (element, generator)
    order: a product is new unless an element with the same 6-decimal key
    lies within EQUALITY_TOL."""
    d = gens[0].shape[0]
    elements = [np.eye(d)]
    index = {rounded_key(elements[0]): [0]}
    frontier = [elements[0]]
    while frontier:
        fresh = []
        for left in frontier:
            for g in gens:
                prod = left @ g
                bucket = index.setdefault(rounded_key(prod), [])
                if not any(np.abs(prod - elements[i]).max() <= EQUALITY_TOL
                           for i in bucket):
                    bucket.append(len(elements))
                    elements.append(prod)
                    fresh.append(prod)
                    if len(elements) > max_order:
                        raise GroupTooLarge(f"closure exceeded max_order={max_order}")
        frontier = fresh
    return np.stack(elements)


def dimino_reference(gens):
    """Dimino's closure one candidate, one membership check and one coset
    row at a time: the group of the first i generators grows by the right
    coset of each candidate r g (r a coset's first element, g one of the
    first i generators) that no element with its 6-decimal key lies within
    EQUALITY_TOL of."""
    d = gens[0].shape[0]
    elements = [np.eye(d)]
    index = {rounded_key(elements[0]): [0]}
    for i in range(1, len(gens) + 1):
        m, start = len(elements), 0
        while start < len(elements):    # the first element of each coset
            for g in gens[:i]:
                cand = elements[start] @ g
                if any(np.abs(cand - elements[j]).max() <= EQUALITY_TOL
                       for j in index.get(rounded_key(cand), ())):
                    continue
                for row in elements[:m]:
                    prod = row @ cand
                    index.setdefault(rounded_key(prod), []).append(len(elements))
                    elements.append(prod)
            start += m
    return np.stack(elements)


def assert_same_elements(got, want):
    """``got`` and ``want`` hold the same number of orthogonal matrices,
    and each element of ``got`` lies within EQUALITY_TOL of its own element
    of ``want``: the nearest in Frobenius norm, the largest trace of
    got_i^T want_j."""
    assert len(got) == len(want)
    a, b = got.reshape(len(got), -1), want.reshape(len(want), -1)
    nearest = np.concatenate([(a[i:i + 1024] @ b.T).argmax(axis=1)
                              for i in range(0, len(a), 1024)])
    assert len(np.unique(nearest)) == len(a)
    assert np.abs(a - b[nearest]).max() <= EQUALITY_TOL


def coxeter_generators(branches):
    roots = coxeter_roots(branches)
    return [np.eye(len(roots)) - 2 * np.outer(r, r) for r in roots]


CLOSURE_CASES = {
    "A2": lambda: [_reflection(0.0), _reflection(np.pi / 3)],
    "C7": lambda: [rotation(2 * np.pi / 7)],
    "H3": lambda: coxeter_generators((5, 3)),
    "A4": lambda: coxeter_generators((3, 3, 3)),
    "B4": lambda: coxeter_generators((4, 3, 3)),
    "F4": lambda: coxeter_generators((3, 4, 3)),
}


@lru_cache(maxsize=None)
def closed(name):
    return close_group(CLOSURE_CASES[name]())


@pytest.mark.parametrize("name", list(CLOSURE_CASES))
def test_closure_equals_per_product_reference(name):
    gens = CLOSURE_CASES[name]()
    want = dimino_reference(gens)
    group = closed(name)
    assert group.elements.tobytes() == want.tobytes()
    assert np.array_equal(group.elements[0], np.eye(group.d))
    # the order bound is inclusive
    with pytest.raises(GroupTooLarge, match=f"max_order={len(want) - 1}"):
        close_group(gens, max_order=len(want) - 1)
    assert len(close_group(gens, max_order=len(want))) == len(want)


@pytest.mark.parametrize("name", [*CLOSURE_CASES, "H4"])
def test_closure_is_the_breadth_first_group(name):
    group = h4() if name == "H4" else closed(name)
    want = reference_closure(list(group.generators))
    assert_same_elements(group.elements, want)
    assert np.array_equal(group.elements[0], np.eye(group.d))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "H3", "B4", "C"]), st.integers(1, 12), st.data())
def test_closure_ignores_generator_order_repeats_and_identity(name, n, data):
    # C is the cyclic group of order n
    gens = [rotation(2 * np.pi / n)] if name == "C" else CLOSURE_CASES[name]()
    want = close_group(gens).elements
    assert len(want) == {"A2": 6, "H3": 120, "B4": 384, "C": n}[name]
    order = data.draw(st.permutations(range(len(gens))))
    assert_same_elements(close_group([gens[i] for i in order]).elements, want)
    repeated = list(gens)
    repeated.insert(data.draw(st.integers(0, len(gens))),
                    gens[data.draw(st.integers(0, len(gens) - 1))])
    assert_same_elements(close_group(repeated).elements, want)
    assert_same_elements(close_group([*gens, np.eye(len(gens[0]))]).elements, want)
    # conjugating the generators by a Haar orthogonal Q conjugates the group
    q, r = np.linalg.qr(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
                        .standard_normal((len(gens[0]),) * 2))
    q *= np.sign(np.diag(r))
    conj = close_group([q @ g @ q.T for g in gens])
    assert_same_elements(conj.elements, q @ want @ q.T)


def test_non_finite_generators_are_not_orthogonal():
    for bad in (np.nan, np.inf, -np.inf):
        g = np.eye(2)
        g[0, 1] = bad
        with pytest.raises(NotOrthogonal):
            close_group([rotation(0.3), g])


def pairwise_first_occurrences(projs):
    kept = []
    for i, p in enumerate(projs):
        if not kept or not (np.abs(projs[kept] - p).max(axis=(1, 2))
                            <= EQUALITY_TOL).any():
            kept.append(i)
    return kept


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "C7", "H3", "A4", "B4", "F4"]), st.integers(1, 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_orbit_keeps_the_pairwise_first_occurrences(assert_same_frame, name, k, on_mirror,
                                                     seed):
    group = closed(name)
    d = group.d
    k = min(k, d - 1)
    raw = np.random.default_rng(seed).standard_normal((d, k))
    if on_mirror:
        # inside the mirror of the first generator; in the reflection
        # groups the seed then has a stabilizer
        normal = np.linalg.svd(group.generators[0] - np.eye(d))[2][0]
        raw -= np.outer(normal, normal @ raw)
    seed = make_subspace(raw)
    images = group.elements @ seed
    kept = pairwise_first_occurrences(images @ images.transpose(0, 2, 1))
    orbit = orbit_frame(group, seed)
    assert len(orbit) == len(kept)
    for i, basis in zip(kept, orbit.bases):
        assert np.array_equal(basis, images[i])
    # the deduplicated stack and its frame-order bases regrouped agree
    assert_same_frame(orbit)


# ---------------------------------------------------------------------------
# Molien counts

def chevalley_count(degrees, degree):
    """Invariants of a reflection group in one degree: the ways to write it
    as a sum of basic-invariant degrees (Chevalley)."""
    ways = [1] + [0] * degree
    for deg in degrees:
        for t in range(deg, degree + 1):
            ways[t] += ways[t - deg]
    return ways[degree]


BASIC_DEGREES = {"H3": (2, 6, 10), "A4": (2, 3, 4, 5), "B4": (2, 4, 6, 8),
                 "F4": (2, 6, 8, 12), "H4": (2, 12, 20, 30)}


@lru_cache(maxsize=None)
def h4():
    return close_group(coxeter_generators((5, 3, 3)))


@pytest.mark.parametrize("name", list(BASIC_DEGREES))
def test_molien_counts_equal_chevalley_counts(name):
    group = h4() if name == "H4" else closed(name)
    for p in range(1, 7):
        want = chevalley_count(BASIC_DEGREES[name], 2 * p)
        rep = invariance_check(group, p)
        assert rep.invariant_dim == want and rep.passes == (want == 1), (name, p)


def test_molien_counts_of_groups_without_reflections():
    for d in (2, 3, 5):
        triv = close_group([np.eye(d)])
        for p in range(1, 7):
            assert invariance_check(triv, p).invariant_dim == comb(d + 2 * p - 1, 2 * p)
    # a 7-fold rotation fixes z^a zbar^b exactly when 7 divides a - b, so in
    # degree 2p <= 12 only |z|^2p; its line orbits are the 7 equispaced lines
    counts = [invariance_check(closed("C7"), p).invariant_dim for p in range(1, 8)]
    assert counts == [1] * 6 + [3]
    # S_7 by permutation matrices: the invariants are polynomials in the
    # elementary symmetric functions of degrees 1..7
    swap, cycle = np.eye(7)[[1, 0, 2, 3, 4, 5, 6]], np.roll(np.eye(7), 1, axis=0)
    sym = close_group([swap, cycle])
    assert len(sym) == 5040
    for p in range(1, 7):
        assert invariance_check(sym, p).invariant_dim == chevalley_count(range(1, 8), 2 * p)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["A2", "C7", "H3", "A4", "B4", "F4"]), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_molien_count_is_conjugation_invariant(name, p, seed):
    group = closed(name)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((group.d, group.d)))
    q *= np.sign(np.diag(r))      # Haar orthogonal
    conj = close_group([q @ g @ q.T for g in group.generators])
    assert len(conj) == len(group)
    assert invariance_check(conj, p) == invariance_check(group, p)


def test_h4_pipeline_counts_match_certified_orbit(rng):
    # close, count, take the orbit of a generic line, certify: the count is
    # 1 exactly at the orders where the 7200-line orbit is tight
    group = h4()
    assert len(group) == 14400
    counts = [invariance_check(group, p).invariant_dim for p in range(1, 7)]
    assert counts == [1, 1, 1, 1, 1, 2]
    orbit = orbit_frame(group, haar_basis_batch(4, 1, 1, rng)[0])
    assert len(orbit) == 7200
    for p, count in zip(range(1, 7), counts):
        assert certify_tight(orbit, p).tight == (count == 1), p


# ---------------------------------------------------------------------------
# extension

def test_extend_mercedes_into_mub(mercedes, mub_planes):
    big = extend(mercedes, mub_planes)
    assert big.ambient_dim == 4 and len(big) == 18
    assert set(big.dims) == {1}
    cert = certify_tight(big, 2)
    assert cert.tight
    product = tightness_constant(mercedes, 2) * tightness_constant(mub_planes, 2)
    assert cert.target_A == pytest.approx(product, abs=1e-9)
    assert np.allclose(big.weights, 1.0)         # unit weights multiply to 1


def test_extend_refinement_into_lines(mub_planes):
    ortho = catalog("cross-polytope-lines(2)")
    lines = extend(ortho, mub_planes)
    assert len(lines) == 12 and set(lines.dims) == {1}
    cert = certify_tight(lines, 1)
    assert cert.tight
    assert cert.target_A == pytest.approx(
        tightness_constant(ortho, 1) * tightness_constant(mub_planes, 1),
        abs=1e-9)


def test_extend_dimension_error(mercedes):
    with pytest.raises(DimensionError):
        extend(mub := catalog("mub-planes-r4"), mercedes)  # noqa: F841


# ---------------------------------------------------------------------------
# realification

def test_realify_mub(mub_planes):
    lines = mub_lines_c2()
    f = realify(lines)
    assert f.ambient_dim == 4 and len(f) == 6 and set(f.dims) == {2}
    assert certify_tight(f, 2).tight
    assert same_members(f, mub_planes)


def test_realify_projection_norm_identity(rng):
    lines = mub_lines_c2()
    f = realify(lines)
    zs = lines.as_complex()
    for _ in range(100):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x /= np.sqrt(float((x.conj() * x).real.sum()))
        kx = np.empty(4)
        kx[0::2], kx[1::2] = x.real, x.imag
        j = int(rng.integers(0, 6))
        h = complex((x.conj() * zs[j]).sum())
        norm_sq = float(((f.bases[j].T @ kx) ** 2).sum())
        assert abs(norm_sq - abs(h) ** 2) < 1e-12


def test_realify_phase_invariance():
    z = np.array([0.6, 0.8j])
    for phase in (0.3, 1.1, 2.9):
        p1 = projectors(realify(ComplexLineSet.from_complex([z])).bases[0])
        p2 = projectors(realify(ComplexLineSet.from_complex([np.exp(1j * phase) * z])).bases[0])
        assert np.abs(p1 - p2).max() < 1e-12


def test_complex_line_set_validation():
    with pytest.raises(FrameFormatError):
        ComplexLineSet(2, (np.array([1.0, 0.0, 1.0, 0.0]),))
    # a NaN norm passed, and save_line_set then wrote NaN, which is not JSON
    for bad in (np.nan, np.inf):
        with pytest.raises(FrameFormatError, match="norm"):
            ComplexLineSet(2, (np.array([bad, 0.0, 0.0, 0.0]),))
    with pytest.raises(DimensionError):
        ComplexLineSet(2, (np.array([1.0, 0.0]),))
    with pytest.raises(DimensionError):
        realify(ComplexLineSet(1, (np.array([1.0, 0.0]),)))
    # the dimension was read off a first vector that is not there (IndexError)
    with pytest.raises(DimensionError):
        ComplexLineSet.from_complex([])


@pytest.mark.parametrize("vectors, exc, message", [
    # ragged and wrong-length sets: the shape check of the first bad vector
    (([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), DimensionError,
     "interleaved vector must have length 4"),
    ([[1.0, 0.0]], DimensionError, "interleaved vector must have length 4"),
    (([0.0, 1.0, 0.0, 0.0], np.ones(4) / 2, [[1.0, 0.0, 0.0, 0.0]]), DimensionError,
     "interleaved vector must have length 4"),
    # non-unit vectors: the norm of the first bad one, before a later bad shape
    (([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.5, 0.0, 0.0, 0.0], [1.0]),
     FrameFormatError, "vector has hermitian norm^2 2.0 != 1"),
    (([0.5, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]), FrameFormatError,
     "vector has hermitian norm^2 0.25 != 1"),
], ids=["ragged", "wrong-length", "nested", "non-unit-first", "short"])
def test_bad_line_sets_name_the_first_bad_vector(vectors, exc, message):
    with pytest.raises(exc) as info:
        ComplexLineSet(2, vectors)
    assert str(info.value) == message


def test_groups_and_line_sets_store_one_array():
    elements = (np.eye(2), np.diag([1.0, -1.0]))
    group = MatrixGroup(2, elements, elements[1:])
    assert isinstance(group.elements, np.ndarray) and group.elements.shape == (2, 2, 2)
    assert np.array_equal(group.elements, np.stack(elements)) and len(group) == 2
    closed = weyl_a2_group()
    assert closed.elements.shape == (6, 2, 2)
    vectors = (np.array([1.0, 0.0, 0.0, 0.0]), [0.0, 0.0, 0.0, 1.0])
    for given_vectors in (vectors, list(vectors), np.stack(vectors)):
        lines = ComplexLineSet(2, given_vectors)
        assert lines.vectors.dtype == float and lines.vectors.shape == (2, 4)
        assert np.array_equal(lines.vectors, np.stack(vectors))
    assert mub_lines_c2().vectors.shape == (6, 4)


def test_construction_arguments_must_be_integers():
    gens = [rotation(2 * np.pi / 3)]
    for bad in (2.5, True, 0, -1):
        with pytest.raises(ParameterError, match="max_order"):
            close_group(gens, max_order=bad)
    assert len(close_group(gens, max_order=np.int64(3))) == 3


def _realify_by_member(lines):
    """Realification one line at a time: the bases, in frame order."""
    bases = []
    for v in lines.vectors:
        z = v[0::2] + 1j * v[1::2]
        iz = 1j * z
        cols = np.empty((2 * lines.d_complex, 2))
        cols[0::2, 0], cols[1::2, 0] = z.real, z.imag
        cols[0::2, 1], cols[1::2, 1] = iz.real, iz.imag
        bases.append(cols)
    return bases


def _extend_by_member(inner, outer):
    """Extension one pair of members at a time: the bases and the weights,
    in frame order."""
    pairs = [(w_basis @ v_basis, w_weight * v_weight)
             for w_basis, w_weight in zip(outer.bases, outer.weights.tolist())
             for v_basis, v_weight in zip(inner.bases, inner.weights.tolist())]
    return [b for b, _ in pairs], [w for _, w in pairs]


def _line_sets(rng):
    yield mub_lines_c2()
    for _ in range(8):
        dc, n = int(rng.integers(2, 5)), int(rng.integers(1, 7))
        v = rng.standard_normal((n, 2 * dc))
        # zero real and imaginary parts, of either sign: the signed-zero case
        v[rng.random(v.shape) < 0.3] = 0.0
        v[rng.random(v.shape) < 0.2] = -0.0
        v[:, 0] += (v == 0).all(axis=1)
        yield ComplexLineSet(dc, v / np.sqrt((v * v).sum(axis=1, keepdims=True)))


def test_realify_matches_per_member_construction(assert_same_frame, regroup):
    rng = np.random.default_rng(17)
    negative_zeros = 0
    for lines in _line_sets(rng):
        v = np.asarray(lines.vectors)
        negative_zeros += int((np.signbit(v) & (v == 0)).sum())
        bases = _realify_by_member(lines)
        assert_same_frame(realify(lines), regroup(bases, np.ones(len(bases))))
    assert negative_zeros > 0
    with pytest.raises(DimensionError, match="at least one subspace"):
        realify(ComplexLineSet(2, ()))


def test_extend_matches_per_member_construction(assert_same_frame, regroup, mercedes,
                                                mub_planes, ortho_lines_r2):
    rng = np.random.default_rng(23)
    cases = [(mercedes, mub_planes), (ortho_lines_r2, mub_planes)]
    for _ in range(10):
        ell, big = int(rng.integers(2, 5)), int(rng.integers(5, 8))
        dims = rng.integers(1, ell, size=int(rng.integers(1, 6)))
        inner = build_frame([rng.standard_normal((ell, k)) for k in dims],
                            rng.uniform(0.2, 2.0, size=len(dims)))
        m = int(rng.integers(1, 4))
        outer = build_frame(rng.standard_normal((m, big, ell)), rng.uniform(0.2, 2.0, size=m))
        cases.append((inner, outer))
    for inner, outer in cases:
        assert_same_frame(extend(inner, outer), regroup(*_extend_by_member(inner, outer)))
    # the first outer member of a wrong dimension is named; weights that
    # multiply to zero are refused
    eye = np.eye(4)
    with pytest.raises(DimensionError, match="has dim 3, expected 2"):
        extend(mercedes, build_frame([eye[:, :2], eye[:, :3], eye[:, :1]]))
    tiny = build_frame([np.eye(2)[:, :1]], [1e-200])
    with pytest.raises(DimensionError, match="positive and finite"):
        extend(tiny, build_frame([np.eye(3)[:, :2]], [1e-200]))


# ---------------------------------------------------------------------------
# catalog

def test_catalog_names_and_aliases():
    assert set(catalog_names()) == {
        "mercedes", "equispaced-lines", "mub-planes-r4",
        "cross-polytope-lines", "weyl-a2-orbit"}
    merc = catalog("mercedes")
    three = catalog("equispaced-lines(3)")
    assert same_members(merc, three)
    assert members_among(catalog("weyl-a2-orbit(1)"), merc)


def test_equispaced_lines_tightness_sweep():
    # tight at p exactly when the number of lines exceeds p
    for n in range(2, 9):
        f = catalog(f"equispaced-lines({n})")
        for p in range(1, 6):
            assert certify_tight(f, p).tight == (n >= p + 1), (n, p)


def test_cross_polytope_tightness():
    for d in (2, 3, 4):
        f = catalog(f"cross-polytope-lines({d})")
        assert certify_tight(f, 1).tight
        assert not certify_tight(f, 2).tight


def test_mub_planes_tightness_order(mub_planes):
    assert certify_tight(mub_planes, 3).tight
    assert not certify_tight(mub_planes, 4).tight


def test_catalog_unknown_names():
    for bad in ("nope", "equispaced-lines", "mercedes(3)", "weyl-a2-orbit(2)"):
        with pytest.raises(UnknownName):
            catalog(bad)
    # an integer out of range is a ParameterError, below 2 as above 1000
    for bad in ("equispaced-lines(1)", "cross-polytope-lines(1)"):
        with pytest.raises(ParameterError, match=r"\(\w\)=1 not in \[2, "):
            catalog(bad)
    with pytest.raises(UnknownName, match="cannot parse"):
        catalog("Mercedes")


def test_every_catalog_name_builds_with_its_arity():
    args = {"equispaced-lines": 5, "cross-polytope-lines": 3, "weyl-a2-orbit": 1}
    for name in catalog_names():
        if name in args:
            assert len(catalog(f"{name}({args[name]})")) > 0
            with pytest.raises(UnknownName, match="no catalog entry"):
                catalog(name)
        else:
            assert len(catalog(name)) > 0
            with pytest.raises(UnknownName, match="no catalog entry"):
                catalog(f"{name}(3)")


def test_catalog_size_guards():
    assert len(catalog(f"equispaced-lines({CATALOG_ARG_MAX})")) == CATALOG_ARG_MAX
    for name in ("equispaced-lines", "cross-polytope-lines"):
        with pytest.raises(ParameterError):
            catalog(f"{name}({CATALOG_ARG_MAX + 1})")


# ---------------------------------------------------------------------------
# file formats

def test_generator_file_round_trip(tmp_path):
    path = tmp_path / "gens.json"
    save_generators(list(weyl_a2_group().generators), path)
    mats = load_generators(path)
    assert len(mats) == 2
    assert len(close_group(mats)) == 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1.0, 0.0]]))
    with pytest.raises(FrameFormatError):
        load_generators(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    with pytest.raises(FrameFormatError):
        load_generators(empty)
    # strict types, as in frame files: no coercion of strings or booleans
    # (a boolean next to a float once read as 1.0, and the third file as a
    # group of order 12)
    for text in ('[[["1", "0"], ["0", "-1"]]]', "[[[true, false], [false, true]]]",
                 "[[[true, 0.0], [0.0, -1.0]], [[0.5, 0.8660254037844386], "
                 "[0.8660254037844386, -0.5]]]",
                 "[[[1.0, 0.0], [0.0, 1.0]], [[1.0, [0.0]], [0.0, 1.0]]]"):
        bad.write_text(text)
        with pytest.raises(FrameFormatError, match="generator [01]"):
            load_generators(bad)


def test_line_set_file_round_trip(tmp_path):
    path = tmp_path / "lines.json"
    save_line_set(mub_lines_c2(), path)
    lines = load_line_set(path)
    assert lines.d_complex == 2 and len(lines.vectors) == 6
    assert certify_tight(realify(lines), 3).tight
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps([[1.0, 0.0, 0.0]]))
    with pytest.raises(FrameFormatError):
        load_line_set(odd)
    odd.write_text("[]")
    with pytest.raises(FrameFormatError, match="nonempty"):
        load_line_set(odd)
    odd.write_text("[[NaN, 0.0, 0.0, 0.0]]")
    with pytest.raises(FrameFormatError, match="norm"):
        load_line_set(odd)
    for text in ('[[1.0, 0.0, 0.0, 0.0], ["1", "0", "0", "0"]]',
                 "[[true, false, false, false]]", "[[true, 0.0, 0.0, 0.0]]"):
        odd.write_text(text)
        with pytest.raises(FrameFormatError, match="line vector [01]"):
            load_line_set(odd)
