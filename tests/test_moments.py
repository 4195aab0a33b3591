import os
import subprocess
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

import fusionframes
from fusionframes import (
    MixedDimensions,
    MomentEstimate,
    ParameterError,
    WeightedFrame,
    catalog,
    certify_cubature,
    certify_tight,
    close_group,
    design_diagnostic,
    haar_random,
    jacobi_family,
    make_subspace,
    orbit_frame,
    pochhammer_ratio,
    size_bounds,
    t_exact,
    t_matrix,
    t_moment,
    t_one,
)

from fusionframes.moments import P_MAX, T_MATRIX_D_MAX, _partitions, _zonal_at_identity
from test_frames import random_frame


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
    for d in range(2, 7):
        for k in range(1, d):
            assert t_one(k, d, 1) == k / d
    assert t_one(1, 2, 2) == 0.375
    with pytest.raises(ParameterError):
        t_one(0, 3, 1)
    with pytest.raises(ParameterError):
        t_one(3, 3, 1)


def test_t_moment_first_power_exact():
    for d in range(2, 7):
        for k in range(1, d):
            for l in range(1, d):
                est = t_moment(k, l, d, 1)
                assert est.value == k * l / d
                assert est.error == 0.0
                assert est.method == "closed-form"


def test_t_moment_second_power_against_oracle():
    for d in range(2, 9):
        for k in range(1, d):
            for l in range(1, d):
                exact = exact_t2(k, l, d)
                assert t_exact(k, l, d, 2) == exact, (k, l, d)
                assert t_moment(k, l, d, 2) == (float(exact), 0.0, "closed-form")


def test_t_moment_symmetry_and_methods():
    assert t_moment(2, 3, 5, 2) == t_moment(3, 2, 5, 2)
    assert t_exact(3, 3, 4, 2) == Fraction(41, 8)
    assert t_exact(2, 2, 4, 2) == Fraction(10, 9)
    assert t_exact(2, 2, 4, 3) == Fraction(4, 3)
    assert t_moment(2, 2, 4, 2) == MomentEstimate(10 / 9, 0.0, "closed-form")
    assert t_moment(2, 2, 4, 2, method="closed") == t_moment(2, 2, 4, 2)
    for method in ("auto", "quadrature", "bogus"):
        with pytest.raises(ParameterError):
            t_moment(2, 2, 4, 2, method=method)


def test_t_moment_mc_path_for_large_dims(rng):
    # Haar sampling stays as an oracle independent of the zonal sum
    for (k, l, d, p), budget, n_err in (((2, 2, 5, 2), 200_000, 3),
                                        ((3, 3, 7, 2), 50_000, 4),
                                        ((3, 4, 8, 3), 50_000, 4)):
        est = t_moment(k, l, d, p, method="mc", budget=budget, rng=rng)
        assert est.method == "monte-carlo" and est.error > 0
        exact = float(t_exact(k, l, d, p))
        assert abs(est.value - exact) <= n_err * est.error, (k, l, d, p, est)


def test_t_moment_power_guard():
    for d in (2, 5, 8):
        for k in range(1, d):
            for l in range(1, d):
                est = t_moment(k, l, d, P_MAX)
                assert est.error == 0.0 and est.method == "closed-form"
    for method in ("closed", "mc"):
        with pytest.raises(ParameterError):
            t_moment(2, 2, 4, P_MAX + 1, method=method)
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
        for moment in (t_exact, t_moment):
            with pytest.raises(ParameterError, match="must be an integer"):
                moment(*args)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 8))
def test_zonal_polynomials_sum_to_trace_power(m, p):
    # (tr I_m)^p = sum over all partitions of p, vanishing beyond m parts
    assert sum(_zonal_at_identity(kappa, m) for kappa in _partitions(p, p)) == m ** p
    assert all(_zonal_at_identity(kappa, m) == 0
               for kappa in _partitions(p, p) if len(kappa) > m)


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
    assert t2.entry(1, 1).method == "closed-form"

    t52 = t_matrix(5, 2)
    assert np.array_equal(t52.values, t52.values.T)
    for k in range(1, 5):
        for l in range(1, 5):
            e = t52.entry(k, l)
            assert 0.0 < e.value <= min(k, l) ** 2 + 1e-9
            assert e == (float(t_exact(k, l, 5, 2)), 0.0, "closed-form")
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
# orthogonal polynomial probes

def quad_weight_inner(k, d, c1, c2):
    """Numeric weighted inner product on [0,1] via 64-node Gauss-Jacobi."""
    x, w = roots_jacobi(64, (d - 2 - k) / 2, (k - 2) / 2)
    y = (x + 1) / 2
    f1 = np.polynomial.polynomial.polyval(y, c1)
    f2 = np.polynomial.polynomial.polyval(y, c2)
    return float((w * f1 * f2).sum() / w.sum())


def test_jacobi_family_basics():
    fam = jacobi_family(2, 5, 4)
    assert fam.exact_polys[0] == (Fraction(1),)
    # P1 = (y - k/d) / (1 - k/d)
    k, d = 2, 5
    expect = (Fraction(-k, d) / (1 - Fraction(k, d)),
              Fraction(1, 1) / (1 - Fraction(k, d)))
    assert fam.exact_polys[1] == expect
    for coeffs in fam.exact_polys:
        assert sum(coeffs) == 1         # P(1) = 1 exactly
    with pytest.raises(ParameterError):
        jacobi_family(5, 5, 2)
    with pytest.raises(ParameterError):
        jacobi_family(2, 5, 11)


def test_jacobi_orthogonality():
    for k, d in [(1, 2), (2, 5), (3, 6), (1, 4)]:
        fam = jacobi_family(k, d, 5)
        polys = fam.polys
        for i in range(len(polys)):
            for j in range(i):
                assert abs(quad_weight_inner(k, d, polys[i], polys[j])) < 1e-10


def test_jacobi_recurrence():
    fam = jacobi_family(2, 6, 5)
    ys = np.linspace(0.0, 1.0, 7)
    for ell in range(1, 5):
        a, b, c = fam.recurrence[ell]
        assert a > 0 and b > 0 and c > 0
        lhs = ys * fam.evaluate(ell, ys)
        rhs = (a * fam.evaluate(ell + 1, ys) + b * fam.evaluate(ell, ys)
               + c * fam.evaluate(ell - 1, ys))
        assert np.abs(lhs - rhs).max() < 1e-12
    # the (1, 2) family is the shifted Chebyshev family
    cheb = jacobi_family(1, 2, 3)
    assert cheb.recurrence[1] == (0.25, 0.5, 0.25)


def test_design_diagnostic(mercedes, rng):
    res = design_diagnostic(mercedes, 2, rng=rng)
    assert len(res) == 2 and max(res) < 1e-10

    ortho = catalog("cross-polytope-lines(2)")
    res = design_diagnostic(ortho, 2, n_probes=64, rng=rng)
    assert res[0] < 1e-12          # tight at order 1
    assert res[1] > 0.1            # order-2 obstruction is visible

    # linearity in the weights when normalization is off
    base = design_diagnostic(ortho, 2, rng=np.random.default_rng(9),
                             normalize=False)
    scaled = design_diagnostic(ortho.rescaled(3.0), 2,
                               rng=np.random.default_rng(9), normalize=False)
    assert np.allclose(np.array(scaled), 3 * np.array(base), rtol=1e-12)

    mixed = WeightedFrame(3, ((haar_random(3, 1, rng), 1.0),
                              (haar_random(3, 2, rng), 1.0)))
    with pytest.raises(MixedDimensions):
        design_diagnostic(mixed, 1)


# ---------------------------------------------------------------------------
# cubature certification

def test_certify_cubature_examples(mercedes, rng):
    cert = certify_cubature(mercedes, 2, rng=rng)
    assert cert.verdict == "cubature"
    assert abs(cert.margin) < 1e-9
    assert cert.ffp_value == pytest.approx(3 / 8, abs=1e-12)
    assert cert.t_value == t_one(1, 2, 2)
    assert cert.probe_spread < 1e-9

    ortho = catalog("cross-polytope-lines(2)")
    cert = certify_cubature(ortho, 2, rng=rng)
    assert cert.verdict == "not-cubature"
    assert cert.ffp_value == pytest.approx(0.5, abs=1e-12)

    mixed = WeightedFrame(3, ((haar_random(3, 1, rng), 1.0),
                              (haar_random(3, 2, rng), 1.0)))
    with pytest.raises(MixedDimensions):
        certify_cubature(mixed, 1)


def test_cubature_margin_lower_bound(rng):
    # the potential of any frame sits above the Haar moment
    for _ in range(20):
        f = random_frame(rng, d=4, mixed=False)
        cert = certify_cubature(f, 2, rng=rng)
        assert cert.t_error == 0.0
        assert cert.margin >= -cert.tol


def test_cubature_implies_tight(mub_planes):
    # strength-2p cubatures are tight at p; the converse can fail
    lines4 = catalog("equispaced-lines(4)")
    for p in (1, 2, 3):
        cert = certify_cubature(lines4, p, rng=np.random.default_rng(p))
        assert cert.verdict == "cubature"
        assert certify_tight(lines4, p).tight
    # 2-planes in R^4: the W(F4) orbit of a generic plane (576 members) sits
    # on the p=2 floor 10/9 to roundoff, so the exact moment certifies it
    roots = np.array([[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1],
                      [0.5, -0.5, -0.5, -0.5]])
    f4 = close_group([np.eye(4) - 2 * np.outer(r, r) / (r @ r) for r in roots])
    seed = make_subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.2], [0.1, -0.7]]))
    planes = orbit_frame(f4, seed)
    cert = certify_cubature(planes, 2, rng=np.random.default_rng(0))
    assert (len(f4), len(planes)) == (1152, 576)
    assert cert.verdict == "cubature" and cert.t_value == 10 / 9
    assert certify_tight(planes, 2).tight
    # the realified MUB planes are tight at 2 yet sit strictly above the
    # potential minimum, so they are not a strength-4 cubature
    assert certify_tight(mub_planes, 2).tight
    cert = certify_cubature(mub_planes, 2, rng=np.random.default_rng(0))
    assert cert.verdict == "not-cubature"
    assert cert.ffp_value == pytest.approx(4 / 3, abs=1e-12)
    assert certify_cubature(mub_planes, 1,
                            rng=np.random.default_rng(0)).verdict == "cubature"


def test_size_bounds():
    sb = size_bounds(2, 2)
    assert sb["tight_p_existence_bound"] == 4
    assert sb["max_equiangular"] == 3
    assert size_bounds(3, 1)["harmonic_dim_2l"][1] == 5
    sb = size_bounds(4, 3)
    assert set(sb["harmonic_dim_2l"]) == {1, 2, 3}
