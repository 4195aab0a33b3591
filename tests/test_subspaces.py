import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionframes import (
    DimensionError,
    ParameterError,
    RankDeficient,
    build_frame,
    close_group,
    complement,
    haar_basis_batch,
    make_subspace,
    orbit_frame,
    principal_angles,
)
from fusionframes.errors import EQUALITY_TOL
from fusionframes.subspaces import (_signed_qr, check_orthonormal, distinct_rows,
                                   first_occurrences)
from test_frames import projectors


def same_span(a, b):
    """Projector comparison in max-norm: a basis is not canonical."""
    return a.shape == b.shape and np.abs(projectors(a) - projectors(b)).max() <= EQUALITY_TOL


def test_subspace_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        make_subspace(np.eye(2))        # k = d is not a proper subspace
    with pytest.raises(RankDeficient):
        make_subspace(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    # an orbit seed is taken as given; only its shape is checked
    group = close_group([np.diag([1.0, -1.0, 1.0])])
    for seed in (np.eye(2)[:, :1], np.eye(3), np.eye(3)[:, :0], np.ones(3)):
        with pytest.raises(DimensionError, match="seed basis"):
            orbit_frame(group, seed)
    with pytest.raises(RankDeficient):
        orbit_frame(group, np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))


def test_non_finite_bases_are_rejected():
    # NaN fails every comparison, so the orthonormality check must not read
    # it as a pass (a certificate would then report residual NaN)
    for bad in (np.nan, np.inf):
        with pytest.raises(RankDeficient):
            make_subspace(np.array([[bad], [0.0]]))
        stack = np.stack([np.eye(3)[:, :2]] * 3)
        stack[1, 2, 0] = bad
        with pytest.raises(RankDeficient, match="member 1:"):
            check_orthonormal(stack, members=[0, 1, 2])


def test_make_subspace_preserves_span():
    raw = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
    bad = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    # the rank test weighs the smallest singular value against the largest,
    # so neither verdict depends on the scale of the basis
    for scale in 10.0 ** np.arange(-100, 101, 10):
        s = make_subspace(scale * raw)
        # same column space: projector leaves the raw columns fixed
        assert np.allclose(projectors(s) @ raw, raw, atol=1e-12), scale
        with pytest.raises(RankDeficient, match="smallest singular value"):
            make_subspace(scale * bad)
    frame = build_frame([1e-11 * np.eye(3)[:, :1], np.eye(3)[:, 1:]])
    assert [b.shape[2] for _, b, _ in frame.groups] == [1, 2]


def test_projector_properties(rng):
    for _ in range(20):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d))
        p = projectors(haar_basis_batch(d, k, 1, rng)[0])
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p - p.T).max() < 1e-10
        assert abs(np.trace(p) - k) < 1e-10


def test_complement_examples():
    c = complement(np.array([[1.0], [0.0], [0.0]]))
    assert same_span(c, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    # a basis leaving no complement, or none at all, is refused, and so is
    # one that is not orthonormal
    for bad in (np.eye(3), np.eye(3)[:, :0], np.ones(3)):
        with pytest.raises(DimensionError, match="is not d x k"):
            complement(bad)
    with pytest.raises(RankDeficient, match="not orthonormal"):
        complement(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


def test_complement_involution_and_resolution(rng):
    for _ in range(10):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d))
        s = haar_basis_batch(d, k, 1, rng)[0]
        sc = complement(s)
        assert same_span(complement(sc), s)
        assert np.abs(projectors(s) + projectors(sc) - np.eye(d)).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1),
                                                     st.integers(1, d - 1))),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
@example((2, 1, 1), 1, 0)
@example((8, 7, 3), 2, 1)
def test_principal_angle_sum_property(dkl, m, seed):
    # the batched pass equals a per-pair SVD, and the squared cosines of each
    # pair sum to trace(P_a P_b)
    d, k, l = dkl
    rng = np.random.default_rng(seed)
    a, b = haar_basis_batch(d, k, m, rng), haar_basis_batch(d, l, m, rng)
    if k == l:      # pair 0: one subspace in two bases
        b[0] = a[0] @ np.linalg.qr(rng.standard_normal((k, k)))[0]
    y = principal_angles(a, b)
    assert y.shape == (m, min(k, l))
    for ya, ba, bb in zip(y, a, b):
        sv = np.linalg.svd(ba.T @ bb, compute_uv=False)
        assert np.abs(ya - np.clip(sv * sv, 0.0, 1.0)).max() <= 1e-14
        assert np.all((0.0 <= ya) & (ya <= 1.0)) and np.all(np.diff(ya) <= 0)
        assert abs(ya.sum() - np.trace(projectors(ba) @ projectors(bb))) < 1e-12
    if k == l:     # the chordal distance k - trace(P_a P_b) lies in [0, k]; 0 on one span
        chordal = k - y.sum(axis=1)
        assert np.all((-1e-12 <= chordal) & (chordal <= k + 1e-12))
        assert abs(chordal[0]) < 1e-12
    assert np.abs(principal_angles(a[0], b[0]) - y[0]).max() <= 1e-14    # one pair, unstacked
    with pytest.raises(DimensionError, match="ambient dimensions differ"):
        principal_angles(a, haar_basis_batch(d + 1, 1, m, rng))


def test_subspaces_equal_ignores_basis_choice(rng):
    s = haar_basis_batch(5, 2, 1, rng)[0]
    # rotate the basis inside the subspace
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    assert same_span(s, s @ rot)
    assert not same_span(s, haar_basis_batch(5, 2, 1, rng)[0])
    # a plane is never equal to a line or to a plane of another space
    assert not same_span(s, s[:, :1])
    assert not same_span(s, haar_basis_batch(4, 2, 1, rng)[0])


def test_haar_first_moment(rng):
    # E ||P_V x||^2 = k/d for any fixed unit x
    d, k, n = 5, 2, 20000
    bases = haar_basis_batch(d, k, n, rng)
    vals = (bases[:, 0, :] ** 2).sum(axis=1)    # x = e1
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - k / d) < 3 * stderr


def test_haar_pair_moment(rng):
    # E trace(P_V P_W) = kl/d with W frozen to a coordinate span
    d, k, l, n = 6, 3, 2, 20000
    bases = haar_basis_batch(d, k, n, rng)
    vals = (bases[:, :l, :] ** 2).sum(axis=(1, 2))
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - k * l / d) < 3 * stderr


def test_haar_determinism_and_batch_consistency():
    a = haar_basis_batch(4, 2, 1, np.random.default_rng(42))
    b = haar_basis_batch(4, 2, 1, np.random.default_rng(42))
    assert np.array_equal(a, b)
    for k in (0, 4):
        with pytest.raises(ParameterError, match=f"k={k} not in \\[1, 3\\]"):
            haar_basis_batch(4, k, 1, np.random.default_rng(42))
    for k in (1.5, 2.0, True):
        with pytest.raises(ParameterError, match="k must be an integer"):
            haar_basis_batch(4, k, 1, np.random.default_rng(42))
    with pytest.raises(ParameterError, match="d=1 not in"):
        haar_basis_batch(1, 1, 1, np.random.default_rng(42))
    for count in (0, -1):
        with pytest.raises(ParameterError, match=f"count={count} not in \\[1, inf\\]"):
            haar_basis_batch(4, 2, count, np.random.default_rng(42))
    for count in (2.5, True):
        with pytest.raises(ParameterError, match="count must be an integer"):
            haar_basis_batch(4, 2, count, np.random.default_rng(42))
    # one draw is the sign-fixed QR of make_subspace on the same Gaussian matrix
    for d, k in ((2, 1), (4, 2), (8, 3)):
        raw = np.random.default_rng(d).standard_normal((d, k))
        one = haar_basis_batch(d, k, 1, np.random.default_rng(d))[0]
        assert one.tobytes() == make_subspace(raw).tobytes()
    batch = haar_basis_batch(4, 2, 3, np.random.default_rng(7))
    for i in range(3):
        g = batch[i].T @ batch[i]
        assert np.abs(g - np.eye(2)).max() < 1e-12


def pairwise_scan(rows):
    """One row at a time: a row is new unless a kept row lies within
    EQUALITY_TOL."""
    kept = []
    for i, r in enumerate(rows):
        if not any(np.abs(r - rows[j]).max() <= EQUALITY_TOL for j in kept):
            kept.append(i)
    return kept


# offsets that stay inside a 6-decimal key but leave the tolerance, cross a
# key boundary, or stay within the tolerance
OFFSETS = (0.0, -0.0, 3e-9, 4e-7, -4e-7, 4e-7 + 3e-9, 2e-6)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(OFFSETS),
                          st.integers(0, 2)), min_size=1, max_size=40))
def test_first_occurrences_matches_the_pairwise_scan(picks):
    centres = np.array([[0.0, 0.5, -0.25], [1.0, 0.0, 0.0], [0.125, 0.125, 0.0],
                        [-0.5, 0.0, 1.0]])
    rows = np.array([centres[c] + np.eye(3)[axis] * off for c, off, axis in picks])
    want = pairwise_scan(rows)
    assert distinct_rows(rows).tolist() == want
    # any labels that put every two rows within the tolerance in one group:
    # one group, or one per centre (the rows of two centres are far apart)
    same = lambda i, j: np.abs(rows[i] - rows[j]).max(axis=1) <= EQUALITY_TOL
    assert first_occurrences(np.zeros(len(rows), dtype=int), same).tolist() == want
    assert first_occurrences(np.array([c for c, _, _ in picks]), same).tolist() == want


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
       st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example((2, 1), 1, True, 0)
@example((8, 7), 1, False, 1)
@example((8, 7), 3, True, 2)
def test_signed_qr_is_numpys_qr_with_signs_fixed(dk, m, orthonormal, seed):
    # the basis is bitwise the sign-fixed Q of np.linalg.qr in the same mode,
    # and basis and complement together are one orthogonal matrix
    d, k = dk
    rng = np.random.default_rng(seed)
    if orthonormal:     # signed coordinate vectors: exactly orthonormal
        a = np.stack([np.eye(d)[:, rng.permutation(d)[:k]] * rng.choice([-1.0, 1.0], k)
                      for _ in range(m)])
    else:
        a = rng.standard_normal((m, d, k))
    assert_qr_is_numpys(a)
    # non-contiguous inputs: the loader's view of stored columns, and a
    # strided slice of a larger stack
    assert_qr_is_numpys(np.ascontiguousarray(np.swapaxes(a, 1, 2)).swapaxes(1, 2))
    assert_qr_is_numpys(np.repeat(a, 2, axis=0)[::2])
    out = _signed_qr(a, complement=True)
    whole = np.concatenate(out, axis=-1)
    assert whole.shape == (m, d, d)
    assert np.abs(np.swapaxes(whole, -1, -2) @ whole - np.eye(d)).max() <= 1e-14


def assert_qr_is_numpys(a):
    """``_signed_qr`` of a is bitwise the sign-fixed Q of np.linalg.qr, in
    both modes."""
    k = a.shape[-1]
    for mode, complement in (("reduced", False), ("complete", True)):
        q, r = np.linalg.qr(a, mode=mode)
        signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)
        out = _signed_qr(a, complement)
        basis = out[0] if complement else out
        assert basis.tobytes() == (q[..., :k] * signs[..., None, :]).tobytes()
        if complement:
            assert out[1].tobytes() == q[..., k:].tobytes()


def test_signed_qr_raises_no_floating_point_error():
    # the kernels run without np.linalg.qr's errstate, and the CLI raises on
    # overflow, division and invalid results: tiny and huge columns and an
    # exact zero column give numpy's Q and no error
    a = np.random.default_rng(3).standard_normal((3, 5, 3))
    a[0] *= 1e-300
    a[1] *= 1e300
    a[2, :, 1] = 0.0
    with np.errstate(all="raise"):
        outs = [_signed_qr(a), _signed_qr(a, complement=True)]
    assert outs[0].tobytes() == outs[1][0].tobytes()
    assert_qr_is_numpys(a)
