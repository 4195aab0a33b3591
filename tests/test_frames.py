import copy
import hashlib
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionframes import (
    DimensionError,
    FrameFormatError,
    LengthMismatch,
    MixedDimensions,
    NotAFrame,
    ParameterError,
    RankDeficient,
    SizeGuardExceeded,
    WeightedFrame,
    analysis,
    build_frame,
    catalog,
    certify_cubature,
    certify_tight,
    complement,
    complement_frame,
    evaluate_power_form,
    extend,
    frame_from_dict,
    frame_operator,
    frame_to_dict,
    haar_basis_batch,
    load_frame,
    make_subspace,
    monomials,
    pochhammer_ratio,
    power_form,
    reconstruct,
    reweight_down,
    save_frame,
    synthesis,
    tightness_constant,
    union,
)
import fusionframes as ff
import fusionframes.frames as frames
from fusionframes import subspaces
from fusionframes.errors import EQUALITY_TOL, POWER_FORM_GUARD, READ_CORRECTION_TOL
from fusionframes.homogeneous import monomial_count, sum_of_squares_coeffs


def projectors(bases):
    """B B^T for a (d, k) basis, or for every member of an (m, d, k) stack."""
    return bases @ np.swapaxes(bases, -1, -2)


def random_frame(rng, d=None, mixed=True):
    """Haar members, each the sign-fixed QR of a Gaussian matrix, with random weights."""
    d = d or int(rng.integers(2, 6))
    n = int(rng.integers(2, 6))
    raw, weights = [], []
    for _ in range(n):
        k = int(rng.integers(1, d)) if mixed else 1
        raw.append(rng.standard_normal((d, k)))
        weights.append(float(rng.uniform(0.2, 2.0)))
    return build_frame(raw, weights)


# ---------------------------------------------------------------------------
# construction and invariants

def test_frame_invariants():
    s = np.array([[1.0], [0.0]])
    with pytest.raises(DimensionError):
        build_frame([s], weights=[-1.0])
    for bad in (np.inf, np.nan):
        with pytest.raises(DimensionError, match="finite"):
            build_frame([s], weights=[bad])
    with pytest.raises(LengthMismatch):
        build_frame([s], weights=[1.0, 2.0])
    with pytest.raises(DimensionError, match="at least one subspace"):
        build_frame([])
    with pytest.raises(DimensionError, match="ambient dimension"):
        build_frame([np.eye(2)[:, :1], np.eye(3)[:, :1]])


def test_frame_accessors(mercedes):
    assert len(mercedes) == 3
    assert mercedes.equal_dims()
    assert mercedes.mass_by_dim() == {1: 3.0}
    assert np.allclose(mercedes.normalized().weights, 1 / 3)


# ---------------------------------------------------------------------------
# operators

def test_frame_operator_examples(mercedes):
    ortho = build_frame([np.eye(2)[:, [0]], np.eye(2)[:, [1]]])
    assert np.allclose(frame_operator(ortho), np.eye(2), atol=1e-12)
    assert np.allclose(frame_operator(mercedes), 1.5 * np.eye(2), atol=1e-12)
    s = haar_basis_batch(4, 2, 1, np.random.default_rng(1))[0]
    f = build_frame([s], [0.7])
    assert np.allclose(frame_operator(f), 0.7 * s @ s.T, atol=1e-12)


def test_frame_operator_trace_identity(rng):
    for _ in range(20):
        f = random_frame(rng)
        tr = np.trace(frame_operator(f))
        assert abs(tr - float(f.weights @ f.dims)) < 1e-10


def test_analysis_synthesis(mercedes):
    f = build_frame([np.array([[1.0], [0.0]])])
    out = analysis(f, [3.0, 4.0])
    assert np.allclose(out[0], [3.0, 0.0])
    with pytest.raises(DimensionError):
        analysis(f, [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        synthesis(mercedes, [np.zeros(2)])
    with pytest.raises(DimensionError, match="wrong length"):
        synthesis(mercedes, [np.zeros(2), np.zeros(3), np.zeros(2)])
    x = np.array([0.4, -1.2])
    assert np.allclose(synthesis(mercedes, analysis(mercedes, x)),
                       frame_operator(mercedes) @ x, atol=1e-12)


def test_reconstruct(mercedes):
    x = np.array([0.3, -0.7])
    assert np.allclose(reconstruct(mercedes, analysis(mercedes, x)), x,
                       atol=1e-10)
    ortho = build_frame([np.eye(3)[:, [i]] for i in range(3)])
    x3 = np.array([1.0, 2.0, 3.0])
    assert np.allclose(reconstruct(ortho, analysis(ortho, x3)), x3, atol=1e-12)
    # singularity is relative to the largest eigenvalue, so the weight
    # scale decides nothing
    for scale in (1e-11, 1e-6, 1e6):
        tiny = mercedes.rescaled(scale)
        assert np.allclose(reconstruct(tiny, analysis(tiny, x)), x, atol=1e-10)
    single = build_frame([np.array([[1.0], [0.0]])])
    for scale in (2.0 ** -40, 1.0, 2.0 ** 40):
        with pytest.raises(NotAFrame):
            reconstruct(single.rescaled(scale), analysis(single, np.array([0.0, 1.0])))


# ---------------------------------------------------------------------------
# power form and certificates

def test_power_form_examples(mercedes):
    f = build_frame([np.array([[1.0], [0.0]])])
    pf = power_form(f, 2)     # x^4, the first of x^4, x^3 y, ..., y^4
    assert pf.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    ortho = catalog("cross-polytope-lines(2)")
    pf1 = power_form(ortho, 1)
    assert np.abs(pf1 - sum_of_squares_coeffs(2, 1)).max() < 1e-15

    pf2 = power_form(mercedes, 2)
    assert np.abs(pf2 - 9 / 8 * sum_of_squares_coeffs(2, 2)).max() < 1e-12
    # evaluation route agrees with the expansion
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((20, 2))
    sampled = evaluate_power_form(mercedes, 2, xs)
    for x, v in zip(xs, sampled):
        assert abs(np.prod(x[monomials(2, 4)], axis=-1) @ pf2 - v) < 1e-10
    # rows of the wrong width raised numpy's matmul ValueError
    for bad in (np.ones((4, 3)), np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(DimensionError, match="rows of xs must have length 2"):
            evaluate_power_form(mercedes, 2, bad)


def test_tightness_constant(mercedes):
    single = build_frame([np.array([[1.0], [0.0]])])
    assert tightness_constant(single, 1) == pytest.approx(0.5, abs=1e-15)
    assert tightness_constant(mercedes, 2) == pytest.approx(9 / 8, abs=1e-15)
    doubled = mercedes.rescaled(2.0)
    assert tightness_constant(doubled, 2) == pytest.approx(9 / 4, abs=1e-15)
    assert float(pochhammer_ratio(1, 2, 2)) == 0.375


def test_p1_certificate_on_many_coordinate_lines():
    # at p = 1 the certificate is the quadratic form of the frame operator,
    # so d = 1000 needs no member-by-member projectors
    cert = certify_tight(catalog("cross-polytope-lines(1000)"), 1)
    assert cert.tight and cert.residual == 0.0 and cert.target_A == 1.0


def test_certify_tight_examples(mercedes, mub_planes):
    for d in (2, 3, 4):
        ortho = catalog(f"cross-polytope-lines({d})")
        cert = certify_tight(ortho, 1)
        assert cert.tight and cert.residual == 0.0
    ortho2 = catalog("cross-polytope-lines(2)")
    assert not certify_tight(ortho2, 2).tight
    cert = certify_tight(mercedes, 2)
    assert cert.tight and cert.residual < 1e-12
    assert certify_tight(mub_planes, 2).tight


def test_certifier_completeness(rng):
    # random frames are almost surely non-tight and both detection routes
    # (coefficient residual, sphere min/max) must agree on that
    sphere = rng.standard_normal((10 ** 4, 6))
    for _ in range(200):
        f = random_frame(rng)
        p = int(rng.integers(1, 4))
        cert = certify_tight(f, p)
        assert cert.residual > 1e-9
        xs = sphere[:, :f.ambient_dim]
        xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
        vals = evaluate_power_form(f, p, xs)
        assert vals.max() - vals.min() > 1e-9


def test_certifier_soundness_on_catalog():
    names = ["mercedes", "equispaced-lines(4)", "mub-planes-r4",
             "cross-polytope-lines(3)", "weyl-a2-orbit(1)"]
    orders = {"mercedes": 2, "equispaced-lines(4)": 3, "mub-planes-r4": 3,
              "cross-polytope-lines(3)": 1, "weyl-a2-orbit(1)": 2}
    rng = np.random.default_rng(5)
    for name in names:
        f = catalog(name)
        p = orders[name]
        cert = certify_tight(f, p)
        assert cert.tight and cert.residual <= 1e-10
        xs = rng.standard_normal((10 ** 4, f.ambient_dim))
        xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
        vals = evaluate_power_form(f, p, xs)
        assert abs(vals.max() - cert.target_A) < 1e-8
        assert abs(vals.min() - cert.target_A) < 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_power_form_matches_sampling(d, p, n, seed):
    # mixed member dimensions and weights; evaluate_power_form never expands
    rng = np.random.default_rng(seed)
    raw, weights = zip(*((rng.standard_normal((d, int(rng.integers(1, d)))),
                          float(rng.uniform(0.1, 3.0))) for _ in range(n)))
    frame = build_frame(raw, weights)
    coeffs = power_form(frame, p)
    xs = rng.standard_normal((8, d))
    for x, v in zip(xs, evaluate_power_form(frame, p, xs)):
        assert (abs(np.prod(x[monomials(d, 2 * p)], axis=-1) @ coeffs - v)
                <= 1e-12 * frame.weights.sum() * (x @ x) ** p)


def e8_root_lines() -> list:
    """One unit vector from each of the 120 pairs +-r of E8 roots."""
    roots = []
    for i, j in itertools.combinations(range(8), 2):
        for sj in (1.0, -1.0):
            v = np.zeros(8)
            v[i], v[j] = 1.0, sj
            roots.append(v)
    for signs in itertools.product((0.5, -0.5), repeat=7):
        if signs[0] > 0:
            last = 0.5 if signs.count(-0.5) % 2 == 0 else -0.5
            roots.append(np.array(signs + (last,)))
    return [r[:, None] / np.linalg.norm(r) for r in roots]


def test_e8_root_lines_tight_through_p3():
    # the E8 roots form a spherical 7-design and not an 8-design
    frame = build_frame(e8_root_lines())
    assert len(frame) == 120
    for p in (1, 2, 3):
        assert certify_tight(frame, p).tight, p
    assert not certify_tight(frame, 4).tight


def test_certify_size_guard():
    # degree-6 monomials in 30 variables exceed the guard
    assert monomial_count(30, 6) > POWER_FORM_GUARD
    frame = build_frame([np.eye(30)[:, [0]]])
    with pytest.raises(SizeGuardExceeded):
        certify_tight(frame, 3)
    with pytest.raises(SizeGuardExceeded):
        power_form(frame, 3)
    # the cubature certificate's degree-p forms live in d(d+1)/2 variables:
    # 1 562 340 cubic monomials at d = 20
    assert monomial_count(210, 3) > POWER_FORM_GUARD
    with pytest.raises(SizeGuardExceeded):
        certify_cubature(build_frame([np.eye(20)[:, :2]]), 3)


def test_certify_refuses_non_integer_orders(mercedes):
    # certify_tight(mercedes, 2.0) died in range() with a bare TypeError
    for p in (2.0, 1.5, True):
        with pytest.raises(ParameterError, match="must be an integer"):
            certify_tight(mercedes, p)
        with pytest.raises(ParameterError, match="must be an integer"):
            power_form(mercedes, p)
    assert certify_tight(mercedes, np.int64(2)).tight


def test_out_of_range_integers_share_one_message(mercedes):
    # six message shapes and two exception classes before
    group = ff.weyl_a2_group()
    calls = [(lambda: certify_tight(mercedes, 0), "p=0 not in [1, inf]"),
             (lambda: reweight_down(mercedes, 1), "p=1 not in [2, inf]"),
             (lambda: ff.OptimizerConfig(n=0, k=1, d=2, p=1), "n=0 not in [1, inf]"),
             (lambda: ff.OptimizerConfig(n=3, k=2, d=2, p=1), "k=2 not in [1, 1]"),
             (lambda: ff.sphere_bounds(mercedes, 2, restarts=0), "restarts=0 not in [1, inf]"),
             (lambda: ff.close_group(group.generators, max_order=0), "max_order=0 not in [1, inf]"),
             (lambda: ff.invariance_check(group, 21), "p=21 not in [1, 20]"),
             (lambda: ff.t_exact(1, 3, 3, 2), "l=3 not in [1, 2]"),
             (lambda: ff.t_matrix(101, 2), "d=101 not in [2, 100]"),
             (lambda: catalog("equispaced-lines(1001)"),
              "equispaced-lines(n)=1001 not in [2, 1000]")]
    for call, message in calls:
        with pytest.raises(ParameterError) as info:
            call()
        assert str(info.value) == message


def test_verdict_ignores_weight_scale(mercedes):
    # an absolute gap of 1.2e-12 passed a 1e-9 tolerance, and 1.2e-7 failed it
    assert not certify_tight(catalog("cross-polytope-lines(3)").rescaled(1e-12), 2).tight
    cert = certify_tight(mercedes.rescaled(1e8), 2)
    assert cert.tight
    # residual = gap / largest coefficient of A (x^2 + y^2)^2, which is 2A
    assert cert.abs_residual == pytest.approx(2 * cert.target_A * cert.residual, rel=1e-12)


def _mixed_tight_frame():
    mercedes, mub = catalog("mercedes"), catalog("mub-planes-r4")
    return union(extend(mercedes, mub), mub)


INVARIANCE_CASES = [
    (lambda: catalog("mercedes"), (2, 3)),
    (lambda: catalog("mub-planes-r4"), (3, 4)),
    (lambda: catalog("cross-polytope-lines(3)"), (1, 2)),
    (lambda: catalog("equispaced-lines(5)"), (4, 5)),
    (lambda: reweight_down(_mixed_tight_frame(), 2), (2, 3)),
    (_mixed_tight_frame, (2, 3)),
]


def _restacked(frame, change):
    """``frame`` with every (positions, bases, weights) group replaced by
    ``change`` of it, assembled from the stacks without a QR."""
    return WeightedFrame._from_stacks(frame.ambient_dim,
                                      [change(*group) for group in frame.groups])


def _rotated_bases(frame, q):
    """Q B_j for every member, for one orthogonal d x d matrix Q = ``q``."""
    return _restacked(frame, lambda idx, bases, w: (idx, q @ bases, w))


def _other_representatives(frame, rng):
    """B_j R_j for every member, each R_j a random orthogonal k x k matrix."""
    def turn(idx, bases, w):
        k = bases.shape[2]
        return idx, bases @ np.linalg.qr(rng.standard_normal((len(idx), k, k)))[0], w
    return _restacked(frame, turn)


def _permuted(frame, perm):
    """Member perm[i] of ``frame`` at position i."""
    where = np.argsort(perm)       # where[j]: the position member j moves to

    def move(idx, bases, w):
        order = np.argsort(where[idx])
        return where[idx][order], bases[order], w[order]
    return _restacked(frame, move)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(INVARIANCE_CASES))), st.floats(-12.0, 8.0),
       st.integers(0, 2 ** 32 - 1))
def test_verdict_invariances(case, log_scale, seed):
    # each case is tight at its first order and not at its second
    build, orders = INVARIANCE_CASES[case]
    frame = build()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(frame))
    q, _ = np.linalg.qr(rng.standard_normal((frame.ambient_dim,) * 2))
    variants = {
        "scaled": frame.rescaled(10.0 ** log_scale),
        "rotated": _rotated_bases(frame, q),
        "representatives": _other_representatives(frame, rng),
        "permuted": _permuted(frame, perm),
    }
    for p, want in zip(orders, (True, False)):
        assert certify_tight(frame, p).tight == want
        for label, variant in variants.items():
            assert certify_tight(variant, p).tight == want, (label, p)


# ---------------------------------------------------------------------------
# transformations

def test_reweight_down(mercedes):
    rw = reweight_down(mercedes, 2)
    assert np.allclose(rw.weights, 1.5)          # w * (2 - 1 + 1/2)
    assert certify_tight(rw, 1).tight
    with pytest.raises(ParameterError, match=r"p=1 not in \[2, inf\]"):
        reweight_down(mercedes, 1)


def test_reweight_iterated_matches_product_formula(mub_planes):
    # two single steps from order 3 equal the one-shot product weights
    assert certify_tight(mub_planes, 3).tight
    step = reweight_down(reweight_down(mub_planes, 3), 2)
    assert certify_tight(step, 1).tight and certify_tight(step, 1).residual < 1e-9
    prod = mub_planes.weights * np.prod([l + mub_planes.dims / 2 for l in range(1, 3)], axis=0)
    assert np.allclose(step.weights, prod, atol=1e-12)


def test_reweight_mixed_dimension_frame(mercedes, mub_planes):
    # a mixed tight 2-frame: lines from the extension glued to the planes
    from fusionframes import extend
    mixed = union(extend(mercedes, mub_planes), mub_planes)
    assert not mixed.equal_dims()
    assert certify_tight(mixed, 2).tight
    assert certify_tight(reweight_down(mixed, 2), 1).residual < 1e-9


def test_complement_frame(mercedes, mub_planes):
    comp = complement_frame(mercedes)
    assert certify_tight(comp, 2).tight
    (orig, _), = mercedes.stacks
    (twice, _), = complement_frame(comp).stacks
    assert np.abs(projectors(orig) - projectors(twice)).max() <= EQUALITY_TOL
    assert certify_tight(complement_frame(mub_planes), 2).tight
    mixed = build_frame([np.eye(3)[:, :1], np.eye(3)[:, 1:]])
    with pytest.raises(MixedDimensions):
        complement_frame(mixed)


def test_complement_frame_matches_per_member_construction(assert_same_frame, mub_planes):
    rng = np.random.default_rng(29)
    frames_in = [mub_planes]
    for _ in range(12):
        d = int(rng.integers(2, 7))
        k, n = int(rng.integers(1, d)), int(rng.integers(1, 6))
        frames_in.append(build_frame(rng.standard_normal((n, d, k)), rng.uniform(0.2, 2.0, size=n)))
    for frame in frames_in:
        (idx, bases, weights), = frame.groups
        reference = WeightedFrame._from_stacks(
            frame.ambient_dim, [(idx, np.stack([complement(b) for b in bases]), weights)])
        assert_same_frame(complement_frame(frame), reference)


def test_union(mercedes):
    both = union(mercedes, mercedes.rescaled(2.0))
    cert = certify_tight(both, 2)
    assert cert.tight
    assert cert.target_A == pytest.approx(9 / 8 * 3, abs=1e-12)
    rotated = build_frame(
        [np.array([[np.cos(t + np.deg2rad(10))], [np.sin(t + np.deg2rad(10))]])
         for t in (0, np.pi / 3, 2 * np.pi / 3)])
    assert certify_tight(union(mercedes, rotated), 2).tight
    with pytest.raises(DimensionError):
        union(mercedes, catalog("mub-planes-r4"))


# ---------------------------------------------------------------------------
# frame JSON

def test_json_round_trip(tmp_path, mub_planes):
    path = tmp_path / "mub.json"
    save_frame(mub_planes, path)
    loaded = load_frame(path)
    assert loaded.ambient_dim == 4 and len(loaded) == 6
    for a, b in zip(mub_planes.bases, loaded.bases):
        assert np.abs(a - b).max() < 1e-14
    assert np.allclose(loaded.weights, mub_planes.weights)
    # dict form inverts too, without touching the filesystem
    again = frame_from_dict(frame_to_dict(mub_planes))
    for a, b in zip(mub_planes.bases, again.bases):
        assert np.abs(a - b).max() < 1e-14


def test_round_trip_correction_is_tiny(tmp_path, mercedes):
    path = tmp_path / "m.json"
    save_frame(mercedes, path)
    data = json.loads(path.read_text())
    for ent in data["entries"]:
        cols = np.asarray(ent["basis"]).T
        correction = np.abs(make_subspace(cols) - cols).max()
        assert correction <= 1e-10


def test_frame_format_errors(tmp_path):
    with pytest.raises(FrameFormatError):
        frame_from_dict({"entries": []})
    with pytest.raises(FrameFormatError):
        frame_from_dict({"ambient_dim": 2,
                         "entries": [{"basis": [[1.0, 0.0, 0.0]], "weight": 1}]})
    # non-orthonormal basis beyond the correction tolerance
    with pytest.raises(FrameFormatError):
        frame_from_dict({"ambient_dim": 2,
                         "entries": [{"basis": [[1.0, 0.5]], "weight": 1}]})
    # non-finite weight (1e400 parses as inf), NaN basis entry, and an
    # integer weight beyond the float range
    for name, entry in (("inf.json", '{"basis": [[1.0, 0.0]], "weight": 1e400}'),
                        ("nan.json", '{"basis": [[NaN, 1.0]], "weight": 1.0}'),
                        ("overflow.json",
                         '{"basis": [[1.0, 0.0]], "weight": 1%s}' % ("0" * 400))):
        path = tmp_path / name
        path.write_text('{"ambient_dim": 2, "entries": [%s]}' % entry)
        with pytest.raises(FrameFormatError, match="finite"):
            load_frame(path)
    # strict types: an integer ambient_dim, numbers for weights and bases
    one_line = [{"basis": [[1.0, 0.0]], "weight": 1.0}]
    for d in (2.7, 2.0, "abc", "2", True, None):
        with pytest.raises(FrameFormatError, match="ambient_dim"):
            frame_from_dict({"ambient_dim": d, "entries": one_line})
    for weight in (True, "1", None, [1.0], {}):
        with pytest.raises(FrameFormatError, match="member 1: .*numbers"):
            frame_from_dict({"ambient_dim": 2, "entries": one_line + [
                {"basis": [[0.0, 1.0]], "weight": weight}]})
    # a boolean next to a float once loaded as 1.0
    for basis in ([["1", "0"]], [[True, False]], [[True, 0.0]], [[1, False]], "ab",
                  [[1.0], [0.0, 1.0]], [[1.0, 10 ** 400]]):
        with pytest.raises(FrameFormatError, match="entry 0|member 0"):
            frame_from_dict({"ambient_dim": 2,
                             "entries": [{"basis": basis, "weight": 1.0}]})
    with pytest.raises(FrameFormatError, match="entries"):
        frame_from_dict({"ambient_dim": 2, "entries": 3})
    # a column must be a list (or tuple), even one numpy reads as numbers
    with pytest.raises(FrameFormatError, match="basis columns must be lists"):
        frame_from_dict({"ambient_dim": 2, "entries": [{"basis": [range(2)], "weight": 1.0}]})
    for entry in ({"basis": [[0.0, 1.0]]}, 3):
        with pytest.raises(FrameFormatError, match="malformed frame entry 1"):
            frame_from_dict({"ambient_dim": 2, "entries": one_line + [entry]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_frame(bad)


def test_integer_numbers_load_as_their_float_spelling(assert_same_frame, monkeypatch):
    # JSON integers pass the bulk check, so no member is read on its own;
    # the frame is the one their float spelling gives, bitwise
    monkeypatch.setattr(frames, "_numbers", lambda *args: pytest.fail("member path"))
    entries = [([[1, 0, 0]], 2), ([[0, 1, 0], [0, 0, -1]], 1), ([[0, 0, 1]], 3)]
    spelled = [{"basis": basis, "weight": weight} for basis, weight in entries]
    floats = [{"basis": [[float(x) for x in col] for col in basis], "weight": float(weight)}
              for basis, weight in entries]
    loaded = frame_from_dict({"ambient_dim": 3, "entries": spelled})
    assert_same_frame(loaded, frame_from_dict({"ambient_dim": 3, "entries": floats}))
    assert loaded.weights.tolist() == [2.0, 1.0, 3.0]
    # a well-formed file of float entries and mixed widths stays on the bulk path too
    data = frame_to_dict(mixed_frame(np.random.default_rng(8), 6, 11))
    assert_same_frame(frame_from_dict(data), two_pass_frame_from_dict(data))


def two_pass_frame_from_dict(data: dict) -> WeightedFrame:
    """The reference loader: the previous bulk check, a type walk over the
    whole tree, then one nested ``np.array`` per basis width, and the
    validation through ``orthonormal_stack``, which checks finiteness again.
    The member-by-member reporter is the loader's own ``_numbers``."""
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
        leaves = itertools.chain.from_iterable(itertools.chain.from_iterable(cols))
        numbers = set(map(type, itertools.chain(weights, leaves)))
        groups = []
        for idx in frames._positions_by_value(np.array([len(c) for c in cols], dtype=int)):
            raw = np.array([cols[i] for i in idx], dtype=float)
            if raw.ndim != 3 or raw.shape[2] != d:
                groups = None
                break
            groups.append((idx, np.swapaxes(raw, 1, 2)))
    except (KeyError, TypeError, ValueError, OverflowError):
        groups = None
    if groups is None or not numbers <= {int, float}:
        for j, ent in enumerate(raw_entries):
            try:
                basis, weight = ent["basis"], ent["weight"]
            except (KeyError, TypeError) as exc:
                raise FrameFormatError(f"malformed frame entry {j}: {exc}") from exc
            member = frames._numbers(basis, f"member {j}")
            if frames._numbers(weight, f"member {j}").ndim:
                raise FrameFormatError(f"member {j}: basis entries and weight must be numbers")
            if member.ndim != 2 or member.shape[1] != d:
                raise FrameFormatError(f"member {j}: basis columns must have length {d}")
    try:
        weights = np.array(weights, dtype=float)
    except OverflowError:
        weights = np.array([w if abs(w) <= sys.float_info.max else np.inf for w in weights])
    finite = np.isfinite(weights)
    for idx, raw in groups:
        finite[idx] &= np.isfinite(raw).all(axis=(1, 2))
    subspaces._first_bad(~finite, range(len(finite)), FrameFormatError,
                         lambda i: "basis entries and weights must be finite")
    stacks = []
    for idx, raw in groups:
        q, correction = subspaces.orthonormal_stack(raw, idx)
        subspaces._first_bad(correction > READ_CORRECTION_TOL, idx, FrameFormatError,
                             lambda i: f"basis needed correction {correction[i]:.2e} > "
                                       f"{READ_CORRECTION_TOL}")
        stacks.append((idx, q, weights[idx]))
    return WeightedFrame._from_stacks(d, stacks)


def _outcome(load, data):
    """The exception class and message of a load, or its groups as bytes."""
    try:
        frame = load(copy.deepcopy(data))
    except Exception as exc:    # every class and message is compared
        return type(exc), str(exc)
    return frame.ambient_dim, [(idx.tolist(), bases.shape, bases.tobytes(), weights.tobytes())
                               for idx, bases, weights in frame.groups]


LEAVES = (True, False, "1", None, [1.0], 10 ** 400, -(10 ** 400), float("nan"), float("inf"),
          0, 1, -1, -0.5, 2 ** 60)
BASES = ([], "", "ab", 1.5, 2, None, True, {}, {"a": 1.0}, {"": 1.0}, [[]], [""], [{}], [1.0])
COLUMNS = ("", "ab", 1.0, None, {}, {"": 1.0}, [], [[1.0]])


@st.composite
def mutated_frame_dicts(draw):
    """A frame dict of mixed widths, some members in integer spelling, with
    up to four defects in its leaves, columns, bases, entries or header."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    entries = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, d - 1))
        if draw(st.booleans()):     # signed coordinate columns, spelled as integers
            cols = (np.eye(d)[rng.permutation(d)[:k]] * rng.choice([-1, 1], (k, 1))).astype(int)
        else:
            cols = make_subspace(rng.standard_normal((d, k))).T
        weight = draw(st.sampled_from((1, 2, 0.5, float(rng.uniform(0.1, 3.0)))))
        entries.append({"basis": cols.tolist(), "weight": weight})
    data = {"ambient_dim": d, "entries": entries}
    for kind in draw(st.lists(st.sampled_from(
            ("leaf", "leaf", "short", "long", "column", "repeat", "scale", "basis", "weight",
             "missing", "entry", "ambient_dim", "empty", "header")), max_size=4)):
        entries = data.get("entries")
        if kind == "ambient_dim":
            data["ambient_dim"] = draw(st.sampled_from((-1, 0, 1, d - 1, d + 1, 2.0, True, "3")))
            continue
        if kind == "empty":
            data["entries"] = []
            continue
        if kind == "header":
            data.pop(draw(st.sampled_from(("ambient_dim", "entries"))), None)
            continue
        if not isinstance(entries, list) or not entries:
            continue
        j = draw(st.integers(0, len(entries) - 1))
        ent = entries[j]
        if kind == "entry":
            entries[j] = draw(st.sampled_from((3, None, "e", [])))
        elif not isinstance(ent, dict):
            continue
        elif kind == "missing":
            ent.pop(draw(st.sampled_from(("basis", "weight"))), None)
        elif kind == "weight":
            ent["weight"] = draw(st.sampled_from(LEAVES))
        elif kind == "basis":
            ent["basis"] = copy.deepcopy(draw(st.sampled_from(BASES)))
        elif isinstance(ent.get("basis"), list) and ent["basis"]:
            basis = ent["basis"]
            c = draw(st.integers(0, len(basis) - 1))
            col = basis[c]
            if kind == "column":
                basis[c] = copy.deepcopy(draw(st.sampled_from(COLUMNS)))
            elif not isinstance(col, list):
                continue
            elif kind == "repeat":      # rank deficient, or k = d
                basis.append(list(col))
            elif kind == "scale":       # beyond the read correction
                basis[c] = [2 * x if type(x) in (int, float) else x for x in col]
            elif kind == "long":
                col.append(0.0)
            elif col and kind == "short":
                col.pop()
            elif col:
                leaf = copy.deepcopy(draw(st.sampled_from(LEAVES)))
                col[draw(st.integers(0, len(col) - 1))] = leaf
    return data


@settings(max_examples=400, deadline=None)
@given(mutated_frame_dicts())
@example({"ambient_dim": -1, "entries": []})
@example({"ambient_dim": 0, "entries": []})
@example({"ambient_dim": 0, "entries": [{"basis": [[]], "weight": 1.0}]})
@example({"ambient_dim": 0, "entries": [{"basis": [""], "weight": 1.0}]})
@example({"ambient_dim": 0, "entries": [{"basis": [{}], "weight": 1.0}]})
@example({"ambient_dim": 2, "entries": [{"basis": [[1, 0]], "weight": 1},
                                        {"basis": [[0.0, 1.0]], "weight": 10 ** 400}]})
@example({"ambient_dim": 2, "entries": [{"basis": [[1.0, 10 ** 400]], "weight": 1.0}]})
def test_flat_loader_matches_two_pass_reference(data):
    # the same exception class and message, or bitwise the same stacks and weights
    assert _outcome(frame_from_dict, data) == _outcome(two_pass_frame_from_dict, data)


def test_mercedes_file_bytes_are_pinned(tmp_path):
    # `check` and `gen` report the file's sha256, so the writer's bytes are
    # part of the interface; mercedes (5 of 9 numbers distinct) is spelled by
    # the %r fill, mub-planes-r4 (5 of 54) once per distinct number
    for name, digest in (
            ("mercedes", "5af9e4c6bf1e87553257878a4ae63280d7be35db8239155dca732984f6149c69"),
            ("mub-planes-r4", "417066d687e5f9a2b1deefd8d2ac6cdb38b22fe829ba6301acbdb4a285587b15")):
        path = tmp_path / f"{name}.json"
        save_frame(catalog(name), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.lists(st.floats(5e-324, 1e300), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_save_frame_bytes_equal_json_dump(tmp_path_factory, regroup, d, weights, seed):
    rng = np.random.default_rng(seed)
    bases = []
    for _ in weights:
        k = int(rng.integers(1, d))
        draw = rng.random()
        if bases and draw < 0.2:
            # an earlier member again, so few numbers are distinct
            bases.append(bases[int(rng.integers(len(bases)))])
        elif draw < 0.6:
            # signed coordinate columns, the sign drawn per member: the zeros
            # of -I are written as -0.0, those of I as 0.0
            bases.append(rng.choice([-1.0, 1.0]) * np.eye(d)[:, rng.permutation(d)[:k]])
        else:
            bases.append(make_subspace(rng.standard_normal((d, k))))
    frame = regroup(bases, weights)
    folder = tmp_path_factory.mktemp("bytes")
    save_frame(frame, folder / "direct.json")
    with open(folder / "dumped.json", "w") as fh:
        json.dump(frame_to_dict(frame), fh, indent=2)
        fh.write("\n")
    assert (folder / "direct.json").read_bytes() == (folder / "dumped.json").read_bytes()


def reference_basis(cols):
    """The per-member route of ``make_subspace``: rank check, then QR with
    the diagonal of R forced positive."""
    assert np.linalg.svd(cols, compute_uv=False)[-1] > 1e-10
    q, r = np.linalg.qr(cols)
    signs = np.sign(np.diagonal(r)).copy()
    signs[signs == 0] = 1.0
    return q * signs


def mixed_frame(rng, d, n):
    """n members of random dimensions in shuffled order, random weights."""
    dims = rng.permutation(np.resize(np.arange(1, d), n))
    raw, weights = zip(*((rng.standard_normal((d, int(k))), float(rng.uniform(0.1, 3.0)))
                         for k in dims))
    return build_frame(raw, weights)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_loaded_bases_match_per_member_reference(tmp_path_factory, assert_same_frame,
                                                  d, n, seed):
    frame = mixed_frame(np.random.default_rng(seed), d, n)
    path = tmp_path_factory.mktemp("frames") / "f.json"
    save_frame(frame, path)
    stored = json.loads(path.read_text())["entries"]
    loaded = load_frame(path)
    assert loaded.ambient_dim == d and len(loaded) == n
    assert np.array_equal(loaded.weights, frame.weights)
    assert len(loaded.bases) == n
    for basis, ent in zip(loaded.bases, stored):      # file order
        assert np.array_equal(basis, reference_basis(np.asarray(ent["basis"]).T))
    # the per-dimension stacks hold the same bases and weights
    for bases, weights in loaded.stacks:
        k = bases.shape[2]
        members = [j for j, basis in enumerate(loaded.bases) if basis.shape[1] == k]
        assert np.array_equal(bases, np.stack([loaded.bases[j] for j in members]))
        assert np.array_equal(weights, loaded.weights[members])
    # the loader's stacks and its frame-order bases regrouped agree
    assert_same_frame(loaded)


def _count_member_lists(monkeypatch) -> list:
    """The frames whose per-member list ``bases`` is built from now on: the
    library reads the per-dimension stacks, never that list."""
    made = []
    view = WeightedFrame.bases
    monkeypatch.setattr(WeightedFrame, "bases",
                        property(lambda self: made.append(self) or view.fget(self)))
    return made


def test_load_and_certify_build_no_subspace(tmp_path, monkeypatch):
    path = tmp_path / "f.json"
    save_frame(mixed_frame(np.random.default_rng(5), 5, 9), path)
    made = _count_member_lists(monkeypatch)
    loaded = load_frame(path)
    for p in (1, 2, 3):
        certify_tight(loaded, p)
    assert made == []
    # reading .bases builds the list, in file order
    stored = json.loads(path.read_text())["entries"]
    bases = loaded.bases
    assert made == [loaded] and len(bases) == len(stored)
    for basis, ent in zip(bases, stored):
        assert np.array_equal(basis, reference_basis(np.asarray(ent["basis"]).T))


def test_readers_and_builders_build_no_subspace(tmp_path, monkeypatch, mub_planes):
    path = tmp_path / "f.json"
    save_frame(mixed_frame(np.random.default_rng(6), 5, 9), path)
    rng = np.random.default_rng(7)
    raw = [rng.standard_normal((5, int(k))) for k in (2, 1, 3, 1, 4)]
    made = _count_member_lists(monkeypatch)
    loaded = load_frame(path)
    xs = rng.standard_normal((len(loaded), 5))
    for p in (1, 2):
        ff.ffp(loaded, p)
        ff.sphere_bounds(loaded, p, restarts=2)
        evaluate_power_form(loaded, p, xs)
    ff.gram_matrix(loaded)
    ff.max_offdiagonal(loaded)
    ff.equiangularity(loaded)
    analysis(loaded, xs[0])
    synthesis(loaded, xs)
    reconstruct(loaded, xs)
    frame_to_dict(loaded)
    for built in (loaded.rescaled(2.0), loaded.normalized(), reweight_down(loaded, 2),
                  union(loaded, loaded), complement_frame(mub_planes), build_frame(raw)):
        certify_tight(built, 2)
    ff.ffp_gradient(mub_planes, 2)
    assert made == []


def test_builders_match_per_member_construction(assert_same_frame, regroup, mercedes,
                                                mub_planes):
    rng = np.random.default_rng(31)
    frames_in = [mercedes, mub_planes]
    for _ in range(10):
        d, n = int(rng.integers(3, 7)), int(rng.integers(1, 8))
        frames_in.append(mixed_frame(rng, d, n))
        # raw matrices of mixed widths in shuffled order, against one
        # make_subspace per member
        raw = [rng.standard_normal((d, int(k))) for k in rng.integers(1, d, size=n)]
        weights = rng.uniform(0.2, 2.0, size=n)
        assert_same_frame(build_frame(raw, weights),
                          regroup([make_subspace(b) for b in raw], weights))
    for f in frames_in:
        bases, weights = f.bases, f.weights
        assert_same_frame(f.rescaled(1.7), regroup(bases, weights * 1.7))
        assert_same_frame(reweight_down(f, 3), regroup(bases, weights * (2 + f.dims / 2.0)))
        for other in (f, f.rescaled(0.5), frames_in[-1]):
            if other.ambient_dim == f.ambient_dim:
                assert_same_frame(union(f, other), regroup(
                    bases + other.bases, np.concatenate([weights, other.weights])))


def test_non_finite_raw_bases_are_refused_before_the_svd():
    # a NaN basis once reached the rank SVD, which raised numpy's LinAlgError
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(RankDeficient, match="basis entries must be finite"):
            make_subspace(np.array([[bad], [1.0]]))
        bases = [np.eye(3)[:, :1], np.array([[1.0], [bad], [0.0]]), np.eye(3)[:, :2]]
        with pytest.raises(RankDeficient, match="member 1: basis entries must be finite"):
            build_frame(bases)


def test_rank_svd_runs_only_for_bases_their_qr_moves(monkeypatch):
    assert READ_CORRECTION_TOL is subspaces.READ_CORRECTION_TOL
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    near = np.eye(4)[:, :2] + READ_CORRECTION_TOL / 10
    make_subspace(near)
    build_frame([np.eye(4)[:, :1], near])
    assert calls == []
    make_subspace(near + 10 * READ_CORRECTION_TOL)
    assert calls == [1]
    with pytest.raises(RankDeficient, match="smallest singular value"):
        make_subspace(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))


def _defects(rng, d, basis):
    """(replacement basis columns, exception class) of a bad member."""
    v = rng.standard_normal((d, 1))
    return [
        (np.hstack([v, 2 * v]), RankDeficient),                # rank-deficient
        (basis * (1 + 1e-5), FrameFormatError),                 # correction > 1e-6
        (np.vstack([basis, np.zeros((1, basis.shape[1]))]),     # column length d + 1
         FrameFormatError),
        (np.eye(d), DimensionError),                            # k = d
    ]


def test_single_defective_member_is_named(rng):
    for _ in range(6):
        d, n = int(rng.integers(3, 7)), int(rng.integers(2, 9))
        data = frame_to_dict(mixed_frame(rng, d, n))
        for j in range(n):
            basis = np.asarray(data["entries"][j]["basis"]).T
            for cols, exc in _defects(rng, d, basis):
                bad = json.loads(json.dumps(data))
                bad["entries"][j]["basis"] = cols.T.tolist()
                with pytest.raises(exc, match=rf"member {j}\b"):
                    frame_from_dict(bad)
                # build_frame validates raw matrices the same way, without
                # the file's length and correction checks
                if exc is not FrameFormatError:
                    with pytest.raises(exc, match=rf"member {j}\b"):
                        build_frame([np.asarray(e["basis"]).T for e in bad["entries"]])
                    with pytest.raises(exc):
                        make_subspace(cols)
