import os
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

import fusionframes
from fusionframes import potential
from fusionframes import (
    MixedDimensions,
    ParameterError,
    build_frame,
    catalog,
    certify_cubature,
    certify_tight,
    close_group,
    ffp,
    make_subspace,
    orbit_frame,
    pochhammer_ratio,
    size_bounds,
    t_exact,
    t_matrix,
)

from fusionframes.errors import P_MAX
from fusionframes.moments import T_MATRIX_D_MAX, _partitions, _pochhammer_int, _zonal_scale
from test_frames import _other_representatives, _permuted, _rotated_bases, random_frame


def exact_t2(k: int, l: int, d: int) -> Fraction:
    """Independent closed form for the p = 2 moment.

    By orthogonal invariance E[P_ij P_kl] for a Haar k-projector P is
    a d_ij d_kl + b (d_ik d_jl + d_il d_jk).  Contracting with d_ij d_kl and
    with d_ik d_jl gives two linear equations from E[(tr P)^2] = k^2 and
    E[tr(P^2)] = tr P = k.  For an independent l-projector Q frozen to a
    coordinate block, E[tr(PQ)^2] = l^2 a + 2 l b.
    """
    # a d^2 + 2 b d = k^2 ;  a d + b d(d+1) = k
    det = Fraction(d ** 2) * Fraction(d * (d + 1)) - Fraction(2 * d) * Fraction(d)
    a = (Fraction(k ** 2) * d * (d + 1) - 2 * d * Fraction(k)) / det
    b = (Fraction(d ** 2) * k - d * Fraction(k ** 2)) / det
    return l ** 2 * a + 2 * l * b


def test_exact_t2_oracle_self_checks():
    # spot values derived by hand from the two trace contractions
    assert exact_t2(2, 2, 4) == Fraction(10, 9)
    assert exact_t2(2, 2, 5) == Fraction(26, 35)
    assert exact_t2(3, 3, 4) == Fraction(41, 8)
    assert exact_t2(2, 3, 5) == Fraction(54, 35)
    # consistency with the k=1 Pochhammer closed form
    for d in range(2, 7):
        for k in range(1, d):
            assert exact_t2(1, k, d) == Fraction(k, 2) * Fraction(k + 2, 2) \
                / (Fraction(d, 2) * Fraction(d + 2, 2))


def test_t_one():
    # t(k, 1, d, p), a Haar line against a Haar k-subspace
    for d in range(2, 7):
        for k in range(1, d):
            assert float(t_exact(k, 1, d, 1)) == k / d
    assert float(t_exact(1, 1, 2, 2)) == 0.375
    with pytest.raises(ParameterError):
        t_exact(0, 1, 3, 1)
    with pytest.raises(ParameterError):
        t_exact(3, 1, 3, 1)
    # a float order died in comb with a bare TypeError, True counted as k = 1,
    # and p = 10**6 ran for minutes
    for k, d, p in ((2, 4, 2.5), (True, 4, 2), (2, 4, 10 ** 6), (2, 4, P_MAX + 1), (2, 4, 0)):
        with pytest.raises(ParameterError):
            t_exact(k, 1, d, p)
    assert float(t_exact(2, 1, 4, P_MAX)) == float(pochhammer_ratio(2, 4, P_MAX))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_line_moment_is_the_pochhammer_ratio(data):
    # against a line only the one-part partition (p) survives, so the zonal
    # sum reduces to (k/2)_p / (d/2)_p, the ratio behind the forced constant
    d = data.draw(st.integers(2, 40))
    k = data.draw(st.integers(1, d - 1))
    p = data.draw(st.integers(1, 20))
    assert t_exact(k, 1, d, p) == pochhammer_ratio(k, d, p)


def test_t_moment_first_power_exact():
    for d in range(2, 7):
        for k in range(1, d):
            for l in range(1, d):
                assert float(t_exact(k, l, d, 1)) == k * l / d


def test_t_moment_second_power_against_oracle():
    for d in range(2, 9):
        for k in range(1, d):
            for l in range(1, d):
                exact = exact_t2(k, l, d)
                assert t_exact(k, l, d, 2) == exact, (k, l, d)
                assert float(t_exact(k, l, d, 2)) == float(exact)


def test_t_moment_symmetry_and_methods():
    assert t_exact(2, 3, 5, 2) == t_exact(3, 2, 5, 2)
    assert t_exact(3, 3, 4, 2) == Fraction(41, 8)
    assert t_exact(2, 2, 4, 2) == Fraction(10, 9)
    assert t_exact(2, 2, 4, 3) == Fraction(4, 3)
    assert float(t_exact(2, 2, 4, 2)) == 10 / 9


def test_t_moment_mc_path_for_large_dims(rng, mc_moment):
    # Haar sampling is an oracle independent of the zonal sum
    for (k, l, d, p), budget, n_err in (((2, 2, 5, 2), 200_000, 3),
                                        ((3, 3, 7, 2), 50_000, 4),
                                        ((3, 4, 8, 3), 50_000, 4)):
        value, error = mc_moment(k, l, d, p, budget, rng)
        assert error > 0
        exact = float(t_exact(k, l, d, p))
        assert abs(value - exact) <= n_err * error, (k, l, d, p, value, error)


def test_t_moment_power_guard():
    for d in (2, 5, 8):
        for k in range(1, d):
            for l in range(1, d):
                assert 0 < t_exact(k, l, d, P_MAX) <= min(k, l) ** P_MAX
    with pytest.raises(ParameterError):
        t_exact(2, 2, 4, P_MAX + 1)
    with pytest.raises(ParameterError):
        t_exact(2, 2, 4, 1000)
    with pytest.raises(ParameterError):
        t_exact(2, 2, 4, 0)
    with pytest.raises(ParameterError):
        t_exact(4, 2, 4, 1)


def test_moment_arguments_must_be_integers():
    # a float p once passed the range check and died in range() with a bare
    # TypeError; numpy integers are integers
    for args in ((1, 1, 3, 2.0), (1, 1, 3, 1.5), (1, 1, 3.0, 2), (1.0, 1, 3, 2),
                 (1, True, 3, 2), (1, 1, 3, True)):
        with pytest.raises(ParameterError, match="must be an integer"):
            t_exact(*args)
    with pytest.raises(ParameterError, match="must be an integer"):
        t_matrix(3, 2.0)
    assert t_exact(np.int64(1), np.int32(1), np.int64(3), np.int8(2)) == t_exact(1, 1, 3, 2)


@st.composite
def moment_args(draw, p_max=5):
    d = draw(st.integers(2, 9))
    k = draw(st.integers(1, d - 1))
    l = draw(st.integers(1, d - 1))
    return k, l, d, draw(st.integers(1, p_max))


@settings(max_examples=60, deadline=None)
@given(moment_args())
def test_t_exact_symmetry_and_line_reduction(args):
    k, l, d, p = args
    assert t_exact(k, l, d, p) == t_exact(l, k, d, p)
    assert t_exact(1, l, d, p) == pochhammer_ratio(l, d, p)


@settings(max_examples=60, deadline=None)
@given(moment_args(p_max=4))
def test_t_exact_complement_identity(args):
    # trace(P_{V^c} P_W) = l - trace(P_V P_W), expanded binomially
    k, l, d, p = args

    def t(q):
        return Fraction(1) if q == 0 else t_exact(k, l, d, q)

    expect = sum(comb(p, q) * l ** (p - q) * (-1) ** q * t(q)
                 for q in range(p + 1))
    assert t_exact(d - k, l, d, p) == expect


def zonal_reference(kappa: tuple, m: int) -> Fraction:
    """C_kappa(I_m) one Fraction factor at a time (Muirhead 1982, Thm 7.2.7):
    2^(2p) p! (m/2)_kappa prod_{i<j} (2 kappa_i - 2 kappa_j - i + j)
    / prod_i (2 kappa_i + ell - i)!, rows i counted from 1."""
    p, ell = sum(kappa), len(kappa)
    value = Fraction(4 ** p * factorial(p))
    for i, part in enumerate(kappa, start=1):
        shift = Fraction(m - i + 1, 2)
        for s in range(part):
            value *= shift + s
        for j in range(i + 1, ell + 1):
            value *= 2 * part - 2 * kappa[j - 1] - i + j
        value /= factorial(2 * part + ell - i)
    return value


def test_zonal_factorization_matches_the_fraction_product():
    for p in range(1, 11):
        for kappa in _partitions(p, p):
            for m in range(1, 13):
                n = _pochhammer_int(kappa, m)
                assert type(n) is int and (n == 0) == (len(kappa) > m)
                assert _zonal_scale(kappa) * n == zonal_reference(kappa, m), (kappa, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 8))
def test_zonal_polynomials_sum_to_trace_power(m, p):
    # (tr I_m)^p = sum over all partitions of p, vanishing beyond m parts
    def zonal(kappa):
        return _zonal_scale(kappa) * _pochhammer_int(kappa, m)

    assert sum(zonal(kappa) for kappa in _partitions(p, p)) == m ** p
    assert all(zonal(kappa) == 0 for kappa in _partitions(p, p) if len(kappa) > m)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(1, 8))
def test_t_matrix_entries_are_bitwise_t_exact(d, p):
    values = t_matrix(d, p).values
    for k in range(1, d):
        for l in range(1, d):
            assert values[k - 1, l - 1] == float(t_exact(k, l, d, p)), (k, l)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(fusionframes.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, fusionframes; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_t_matrix():
    t31 = t_matrix(3, 1)
    assert np.allclose(t31.values, [[1 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-15)
    t2 = t_matrix(2, 5)
    assert t2.values.shape == (1, 1)
    assert t2.rows() == [(1, 1, 5, float(t_exact(1, 1, 2, 5)), 0.0, "closed-form")]

    t52 = t_matrix(5, 2)
    assert np.array_equal(t52.values, t52.values.T)
    for k in range(1, 5):
        for l in range(1, 5):
            e = t52.values[k - 1, l - 1]
            assert 0.0 < e <= min(k, l) ** 2 + 1e-9
            assert e == float(t_exact(k, l, 5, 2))
    rows = t52.rows()
    assert len(rows) == 10 and rows[0][:3] == (1, 1, 2)
    # partitions with more parts than min(k, l) drop out entry by entry
    t74 = t_matrix(7, 4)
    for k in range(1, 7):
        for l in range(1, 7):
            assert t74.values[k - 1, l - 1] == float(t_exact(k, l, 7, 4))
    for d in (1, T_MATRIX_D_MAX + 1):
        with pytest.raises(ParameterError):
            t_matrix(d, 2)


# ---------------------------------------------------------------------------
# Beta moments

def test_beta_moments_match_gauss_jacobi_quadrature():
    # ties the exact moments to the weight y^((k-2)/2) (1-y)^((d-k-2)/2)
    for k, d in [(1, 2), (2, 5), (3, 6), (1, 4), (5, 6)]:
        x, w = roots_jacobi(32, (d - 2 - k) / 2, (k - 2) / 2)
        y = (x + 1) / 2
        for m in range(12):
            quad = float((w * y ** m).sum() / w.sum())
            assert quad == pytest.approx(float(pochhammer_ratio(k, d, m)), rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# cubature certification

def test_certify_cubature_examples(mercedes, rng):
    state = rng.bit_generator.state
    cert = certify_cubature(mercedes, 2, rng=rng)
    assert cert.verdict == "cubature"
    assert cert.residual < 1e-14
    assert cert.monomials == 6              # degree 2 in d(d+1)/2 = 3 variables
    assert abs(cert.margin) < 1e-9
    assert cert.ffp_value == pytest.approx(3 / 8, abs=1e-12)
    assert cert.t_value == float(t_exact(1, 1, 2, 2))
    # nothing is sampled: the same certificate whatever the rng, none drawn
    assert rng.bit_generator.state == state
    for other in (None, np.random.default_rng(5)):
        assert certify_cubature(mercedes, 2, rng=other) == cert

    ortho = catalog("cross-polytope-lines(2)")
    cert = certify_cubature(ortho, 2, rng=rng)
    assert cert.verdict == "not-cubature"
    assert cert.ffp_value == pytest.approx(0.5, abs=1e-12)

    mixed = build_frame([rng.standard_normal((3, 1)), rng.standard_normal((3, 2))])
    with pytest.raises(MixedDimensions):
        certify_cubature(mixed, 1)
    for p in (0, 2.0, True, P_MAX + 1):
        with pytest.raises(ParameterError):
            certify_cubature(mercedes, p)


def test_cubature_margin_lower_bound(rng):
    # the potential of any frame sits above the Haar moment
    for _ in range(20):
        f = random_frame(rng, d=4, mixed=False)
        cert = certify_cubature(f, 2, rng=rng)
        assert cert.t_error == 0.0
        assert cert.margin >= -cert.tol


def f4_plane_orbit():
    """The W(F4) orbit of a generic 2-plane in R^4: 576 members."""
    roots = np.array([[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1],
                      [0.5, -0.5, -0.5, -0.5]])
    f4 = close_group([np.eye(4) - 2 * np.outer(r, r) / (r @ r) for r in roots])
    seed = make_subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.2], [0.1, -0.7]]))
    assert len(f4) == 1152
    return orbit_frame(f4, seed)


def test_cubature_implies_tight(mub_planes):
    # strength-2p cubatures are tight at p; the converse can fail
    lines4 = catalog("equispaced-lines(4)")
    for p in (1, 2, 3):
        cert = certify_cubature(lines4, p, rng=np.random.default_rng(p))
        assert cert.verdict == "cubature"
        assert certify_tight(lines4, p).tight
    # for lines the two coincide
    names = [f"equispaced-lines({n})" for n in range(2, 6)]
    names += ["cross-polytope-lines(3)", "cross-polytope-lines(4)", "weyl-a2-orbit(1)"]
    for name in names:
        lines = catalog(name)
        for p in range(1, 5):
            cubature = certify_cubature(lines, p).verdict == "cubature"
            assert cubature == certify_tight(lines, p).tight, (name, p)
    # 2-planes in R^4: the W(F4) orbit of a generic plane is a strength-4
    # cubature, on the p=2 floor 10/9, and not a strength-6 one
    planes = f4_plane_orbit()
    cert = certify_cubature(planes, 2, rng=np.random.default_rng(0))
    assert len(planes) == 576
    assert cert.verdict == "cubature" and cert.t_value == 10 / 9
    assert cert.residual <= 1e-14
    assert certify_tight(planes, 2).tight
    assert certify_cubature(planes, 3).verdict == "not-cubature"
    # moving every basis by eps leaves the potential within eps^2 of the
    # floor, but the Lie residual is linear in the defect
    rng = np.random.default_rng(0)
    for eps in (1e-4, 1e-5, 1e-6):
        moved = build_frame([b + eps * rng.standard_normal(b.shape) for b in planes.bases])
        cert = certify_cubature(moved, 2)
        assert cert.verdict == "not-cubature", eps
        assert cert.margin < 1e-8
    # the realified MUB planes are tight at 2 yet sit strictly above the
    # potential minimum, so they are not a strength-4 cubature
    assert certify_tight(mub_planes, 2).tight
    cert = certify_cubature(mub_planes, 2, rng=np.random.default_rng(0))
    assert cert.verdict == "not-cubature"
    assert cert.residual == pytest.approx(0.5, abs=1e-12)
    assert cert.ffp_value == pytest.approx(4 / 3, abs=1e-12)
    assert certify_cubature(mub_planes, 1,
                            rng=np.random.default_rng(0)).verdict == "cubature"


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.floats(-12.0, 8.0),
       st.integers(0, 2 ** 32 - 1))
def test_cubature_residual_invariances(d, p, log_scale, seed):
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, d)), int(rng.integers(1, 6))
    raw, weights = zip(*((rng.standard_normal((d, k)), float(rng.uniform(0.2, 2.0)))
                         for _ in range(n)))
    frame = build_frame(raw, weights)
    base = certify_cubature(frame, p).residual
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    perm = rng.permutation(n)
    variants = {
        "scaled": frame.rescaled(10.0 ** log_scale),
        "representatives": _other_representatives(frame, rng),
        "permuted": _permuted(frame, perm),
    }
    flip = np.where(np.arange(d) == 0, -1.0, 1.0)
    rotation = q * flip if np.linalg.det(q) < 0 else q
    reflection = flip[:, None] * rotation
    assert np.linalg.det(rotation) > 0 > np.linalg.det(reflection)
    for label, g in (("rotated", rotation), ("reflected", reflection)):
        variants[label] = _rotated_bases(frame, g)
    for label, variant in variants.items():
        assert certify_cubature(variant, p).residual == pytest.approx(base, rel=1e-12, abs=0), label


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_cubature_potential_is_the_pairwise_potential(d, p, seed):
    # ||g||^2 of the certificate's form is the pairwise sum at unit total
    # weight, whatever the weights' spread
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, d)), int(rng.integers(1, 7))
    raw, weights = zip(*((rng.standard_normal((d, k)), float(10.0 ** rng.uniform(-6, 6)))
                         for _ in range(n)))
    frame = build_frame(raw, weights)
    want = ffp(frame, p) / frame.weights.sum() ** 2
    assert certify_cubature(frame, p).ffp_value == pytest.approx(want, rel=1e-13, abs=0)


def test_cubature_certificate_builds_no_pair_table(mercedes, monkeypatch):
    def refuse(frame):
        raise AssertionError("pair table built")

    planes = f4_plane_orbit()
    monkeypatch.setattr(potential, "gram_matrix", refuse)
    cert = certify_cubature(mercedes, 2)
    assert cert.verdict == "cubature" and cert.ffp_value == pytest.approx(3 / 8, abs=1e-12)
    cert = certify_cubature(planes, 2)
    assert cert.verdict == "cubature" and cert.ffp_value == pytest.approx(10 / 9, abs=1e-12)


def test_size_bounds():
    sb = size_bounds(2, 2)
    assert sb["tight_p_existence_bound"] == 4
    assert sb["max_equiangular"] == 3
    assert size_bounds(3, 1)["harmonic_dim_2l"][1] == 5
    sb = size_bounds(4, 3)
    assert set(sb["harmonic_dim_2l"]) == {1, 2, 3}
