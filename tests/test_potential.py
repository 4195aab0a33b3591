from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionframes import (
    ParameterError,
    SingleSubspace,
    build_frame,
    catalog,
    certify_tight,
    equiangularity,
    evaluate_power_form,
    ffp,
    ffp_gradient,
    ffp_lower_bound_mixed,
    ffp_lower_bound_p,
    frame_operator,
    haar_basis_batch,
    power_form,
    reweight_down,
    simplex_bound_rhs,
    sphere_bounds,
    sphere_extrema,
    t_exact,
    t_matrix,
    tightness_constant,
    union,
)
from fusionframes import potential
from fusionframes.errors import GRAM_BUDGET
from fusionframes.potential import gram_matrix, max_offdiagonal

from test_frames import random_frame


def test_ffp_examples(mercedes):
    for d in (2, 3, 4):
        ortho = catalog(f"cross-polytope-lines({d})")
        for p in (1, 2, 3):
            assert ffp(ortho, p) == pytest.approx(d, abs=1e-12)
    assert ffp(mercedes, 1) == pytest.approx(4.5, abs=1e-12)
    assert ffp(mercedes, 2) == pytest.approx(27 / 8, abs=1e-12)


def test_ffp_one_is_trace_of_squared_operator(rng):
    for _ in range(20):
        f = random_frame(rng)
        s = frame_operator(f)
        assert abs(ffp(f, 1) - np.trace(s @ s)) < 1e-10


@pytest.mark.parametrize("routine", [
    ffp, ffp_lower_bound_p, ffp_lower_bound_mixed, sphere_bounds, sphere_extrema, ffp_gradient,
    power_form, certify_tight, tightness_constant,
    pytest.param(lambda f, p: evaluate_power_form(f, p, np.eye(2)), id="evaluate_power_form")])
@pytest.mark.parametrize("p", [0, -1, 2.5, 2.0, True])
def test_orders_must_be_positive_integers(mercedes, routine, p):
    # ffp(mercedes, 2.5) returned 3.1875 and ffp(mercedes, True) 4.5
    with pytest.raises(ParameterError):
        routine(mercedes, p)


def test_reweight_down_order(mercedes):
    # reweight_down(mercedes, 2.5) returned weights
    for p in (2.5, 3.0, True, 1, 0, -1):
        with pytest.raises(ParameterError):
            reweight_down(mercedes, p)


def test_gram_matrix(mercedes):
    g = gram_matrix(mercedes)
    assert np.allclose(np.diag(g), 1.0)
    off = g[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.25, atol=1e-12)


def _check_rows_against_pairwise_loop(f, g, rows):
    for i in rows:
        bi = f.bases[i]
        for j, bj in enumerate(f.bases):
            m = bi.T @ bj
            want = bi.shape[1] if i == j else (m * m).sum()
            assert g[i, j] == pytest.approx(want, abs=1e-12)


def test_gram_matrix_matches_pairwise_loop(rng, monkeypatch):
    frames = [random_frame(rng) for _ in range(30)]
    for f in frames:
        _check_rows_against_pairwise_loop(f, gram_matrix(f), range(len(f)))
    # mixed dimensions in R^4, enough members that the cross products of
    # all of them exceed the budget: the table is built in several blocks
    n = 600
    big = build_frame([rng.standard_normal((4, int(k))) for k in rng.integers(1, 4, n)])
    step = GRAM_BUDGET // (int(big.dims.sum()) * int(big.dims.max()))
    assert 0 < step < n / 2     # members per block
    edges = [i for b in range(step, n, step) for i in (b - 1, b)]
    g = gram_matrix(big)
    _check_rows_against_pairwise_loop(big, g, [0, n - 1, *edges,
                                               *rng.integers(0, n, 20)])
    assert np.abs(g - g.T).max() <= 1e-12
    # a budget of a few entries puts every member in a block of its own
    monkeypatch.setattr(potential, "GRAM_BUDGET", 8)
    for f in frames[:10]:
        _check_rows_against_pairwise_loop(f, gram_matrix(f), range(len(f)))


def test_simplex_bound_examples(mercedes):
    assert simplex_bound_rhs(mercedes) == pytest.approx(0.25, abs=1e-12)
    assert max_offdiagonal(mercedes) == pytest.approx(0.25, abs=1e-12)

    ortho = catalog("cross-polytope-lines(2)")
    assert simplex_bound_rhs(ortho) == pytest.approx(0.0, abs=1e-12)
    assert max_offdiagonal(ortho) == pytest.approx(0.0, abs=1e-12)

    single = build_frame([np.array([[1.0], [0.0]])])
    # max_offdiagonal raised numpy's zero-size reduction ValueError
    for routine in (simplex_bound_rhs, lambda f: ffp_lower_bound_p(f, 2), equiangularity,
                    max_offdiagonal):
        with pytest.raises(SingleSubspace):
            routine(single)


def test_simplex_bound_chordal_translation(rng):
    # k - rhs equals k(d-k)/d * n/(n-1) for equal dims and unit weights
    d, k, n = 4, 2, 10
    f = build_frame(rng.standard_normal((n, d, k)))
    rhs = simplex_bound_rhs(f)
    assert k - rhs == pytest.approx(k * (d - k) / d * n / (n - 1), abs=1e-12)


def test_ffp_lower_bound_examples(mercedes):
    assert ffp_lower_bound_p(mercedes, 2) == pytest.approx(27 / 8, abs=1e-12)
    assert ffp_lower_bound_p(mercedes, 1) == pytest.approx(4.5, abs=1e-12)
    ortho = catalog("cross-polytope-lines(2)")
    assert ffp_lower_bound_p(ortho, 2) == pytest.approx(2.0, abs=1e-12)
    assert ffp(ortho, 2) == pytest.approx(2.0, abs=1e-12)


def test_ffp_lower_bound_clamps_negative_numerator(rng):
    # one heavy subspace makes the cross numerator negative; the bound then
    # degrades to the diagonal sum but must stay a valid bound
    f = build_frame(rng.standard_normal((2, 4, 1)), [100.0, 0.01])
    m, = {float(f.weights @ f.dims)}
    assert m * m / 4 - float((f.weights ** 2) @ f.dims) < 0
    for p in (1, 2, 3):
        bound = ffp_lower_bound_p(f, p)
        assert bound == pytest.approx(float((f.weights ** 2) @ f.dims ** p))
        assert ffp(f, p) >= bound - 1e-9


def test_bounds_hold_on_random_corpus(rng):
    for _ in range(300):
        f = random_frame(rng)
        assert max_offdiagonal(f) >= simplex_bound_rhs(f) - 1e-9
        for p in (1, 2, 3):
            assert ffp(f, p) >= ffp_lower_bound_p(f, p) - 1e-9


def test_equiangularity_mercedes(mercedes):
    rep = equiangularity(mercedes)
    assert rep.is_equiangular
    assert rep.common_value == pytest.approx(0.25, abs=1e-12)
    assert rep.spread < 1e-12
    assert rep.all_distinct and rep.n_distinct == 3
    assert rep.gerzon_ok
    # corollary cross-check: k(nk-d)/((n-1)d) = 1/4
    assert rep.predicted_common_value == pytest.approx(0.25, abs=1e-12)
    # the prediction needs equal weights at every weight scale: these six
    # lines are tight at p = 1 with weights 1 and 2
    angles = np.deg2rad([30.0, 90.0, 150.0])
    lines = build_frame([np.array([[np.cos(t)], [np.sin(t)]]) for t in angles])
    six = union(mercedes, lines.rescaled(2.0))
    assert certify_tight(six, 1).tight
    for scale in (1.0, 1e-12):
        assert equiangularity(six.rescaled(scale)).predicted_common_value is None
        assert equiangularity(mercedes.rescaled(scale)).predicted_common_value == pytest.approx(
            0.25, abs=1e-12)
    # nor at any spread tolerance, however loose: the weights are compared
    # at EQUALITY_TOL, not at the caller's tol
    for tol in (1e-8, 0.5, 1.0):
        assert equiangularity(six, tol=tol).predicted_common_value is None


def test_equiangularity_gerzon_and_distinctness(rng):
    four = catalog("equispaced-lines(4)")
    rep = equiangularity(four)
    assert not rep.gerzon_ok                     # 4 > C(3,2) = 3
    assert not (rep.is_equiangular and rep.all_distinct and rep.gerzon_ok)

    f = random_frame(rng, d=5)
    assert equiangularity(f).spread > 1e-8

    s = rng.standard_normal((4, 2))
    dup = build_frame([s, s])
    rep = equiangularity(dup)
    assert not rep.all_distinct and rep.n_distinct == 1


def test_equiangularity_counts_distinct_members_like_a_pairwise_scan(rng):
    # repeated members, the same subspace under another basis, and
    # perturbations just inside and far outside the equality tolerance
    base = [haar_basis_batch(4, int(k), 1, rng)[0] for k in rng.integers(1, 4, size=30)]
    members = []
    for s in base:
        members.append(s)
        members.append(s @ np.linalg.qr(rng.standard_normal((s.shape[1],) * 2))[0])
        members.append(s + 1e-10)
        members.append(s + 1e-3 * rng.standard_normal(s.shape))
    frame = build_frame([members[i] for i in rng.permutation(len(members))])
    projs = np.stack([b @ b.T for b in frame.bases])
    distinct = []
    for p in projs:
        if not any(np.abs(p - q).max() <= 1e-8 for q in distinct):
            distinct.append(p)
    rep = equiangularity(frame)
    assert rep.n_distinct == len(distinct) == 60
    assert not rep.all_distinct


def test_equiangularity_sees_near_members_across_a_key_boundary():
    # cos^2 t = 0.2500005 -+ 2e-9: the projectors agree to 4e-9, but their
    # diagonals round to other 6-decimal keys
    lines = [np.array([[np.sqrt(c)], [np.sqrt(1 - c)]])
             for c in (0.2500005 - 2e-9, 0.2500005 + 2e-9, 0.9)]
    frame = build_frame(lines)
    projs = np.stack([b @ b.T for b in frame.bases])
    assert np.abs(projs[0] - projs[1]).max() <= 1e-8
    assert (np.rint(projs[0] * 1e6) != np.rint(projs[1] * 1e6)).any()
    rep = equiangularity(frame)
    assert rep.n_distinct == 2
    assert not rep.all_distinct


def test_mixed_bound(rng, mercedes):
    for _ in range(50):
        f = random_frame(rng, d=3)
        bound = ffp_lower_bound_mixed(f, 1)
        m = float(f.weights @ f.dims)
        assert bound == pytest.approx(m * m / 3, abs=1e-10)
        assert ffp(f, 1) >= bound - 1e-9

    t42 = t_matrix(4, 2)
    f = build_frame(rng.standard_normal((5, 4, 2)))
    bound = ffp_lower_bound_mixed(f, 2)
    # equal dims: reduces to (sum w)^2 T_{ k,k }
    assert bound == pytest.approx(25 * t42.values[1, 1], abs=1e-10)
    assert not t42.errors.any()
    # a cubature of strength 4 attains the bound
    assert ffp_lower_bound_mixed(mercedes, 2) == pytest.approx(ffp(mercedes, 2), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 12), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_mixed_bound_is_the_rounded_moment_sum(d, n, p, seed):
    # below the potential, equal to the moment table's M T M^T up to the
    # table's roundings, and (sum w)^2 t(k, k, d, p) rounded once at one dimension
    rng = np.random.default_rng(seed)
    raw, weights = zip(*((rng.standard_normal((d, int(rng.integers(1, d)))),
                          float(rng.uniform(0.1, 3.0))) for _ in range(n)))
    frame = build_frame(raw, weights)
    bound = ffp_lower_bound_mixed(frame, p)
    assert bound <= ffp(frame, p)
    m = np.zeros(d - 1)
    for k, mass in frame.mass_by_dim().items():
        m[k - 1] = mass
    assert abs(bound - m @ t_matrix(d, p).values @ m) <= 1e-14 * bound
    if frame.equal_dims():
        k = int(frame.dims[0])
        assert bound == float(Fraction(m[k - 1]) ** 2 * t_exact(k, k, d, p))

