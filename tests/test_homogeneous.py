from collections import Counter
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import numpy as np
import pytest

from fusionframes import SizeGuardExceeded, make_subspace, monomial_count, monomials
from fusionframes import homogeneous
from fusionframes.homogeneous import (
    check_size_guard,
    lie_residual,
    monomial_rank,
    multinomials,
    quadratic_rows,
    sum_of_squares_coeffs,
    weighted_gram,
    weighted_power_sum,
)


def test_monomial_count():
    assert monomial_count(2, 2) == 3
    assert monomial_count(2, 4) == 5
    assert monomial_count(3, 2) == 6
    assert monomial_count(4, 4) == 35


def test_size_guard():
    check_size_guard(3, 4, 100)
    with pytest.raises(SizeGuardExceeded):
        check_size_guard(12, 10, 10 ** 5)


def evaluate(coeffs, d, degree, x):
    """A dense coefficient vector at the point x."""
    return np.prod(x[monomials(d, degree)], axis=-1) @ coeffs


def dense(d, degree, coeffs):
    """An exponent-tuple -> coefficient dict placed at the ranks of its
    monomials."""
    out = np.zeros(monomial_count(d, degree))
    for e, c in coeffs.items():
        out[monomial_rank(np.repeat(np.arange(d), e), d)] = c
    return out


def test_quadratic_form_matches_matrix(rng):
    for _ in range(10):
        d = int(rng.integers(2, 6))
        m = rng.standard_normal((d, d))
        m = (m + m.T) / 2
        q = quadratic_rows(m[None])[0]
        assert q.shape == (monomial_count(d, 2),)
        for _ in range(5):
            x = rng.standard_normal(d)
            assert abs(evaluate(q, d, 2, x) - x @ m @ x) < 1e-10


def test_sum_of_squares_power_coefficients():
    # (x^2 + y^2)^2 = x^4 + 2x^2y^2 + y^4
    assert np.array_equal(sum_of_squares_coeffs(2, 2),
                          dense(2, 4, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0}))
    assert np.array_equal(sum_of_squares_coeffs(3, 1),
                          dense(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}))


def test_sum_of_squares_power_evaluates(rng):
    for d, p in [(2, 3), (4, 2), (5, 4)]:
        coeffs = sum_of_squares_coeffs(d, p)
        assert np.count_nonzero(coeffs) == monomial_count(d, p)
        x = rng.standard_normal(d)
        assert abs(evaluate(coeffs, d, 2 * p, x) - (x @ x) ** p) < 1e-8 * max(1.0, (x @ x) ** p)


def test_monomial_ranks_enumerate_each_degree():
    for d in (2, 3, 5, 8):
        for degree in range(7):
            mons = monomials(d, degree)
            assert mons.shape == (monomial_count(d, degree), degree)
            # the tuples of combinations_with_replacement, placed at their ranks
            combos = list(combinations_with_replacement(range(d), degree))
            combos = np.array(combos, dtype=np.intp).reshape(len(combos), degree)
            ref = np.empty_like(combos)
            ref[monomial_rank(combos, d)] = combos
            assert mons.dtype == ref.dtype and np.array_equal(mons, ref)
            assert (np.diff(mons, axis=1) >= 0).all()
            assert len({tuple(m) for m in mons.tolist()}) == len(mons)
            assert np.array_equal(monomial_rank(mons, d), np.arange(len(mons)))
            # degree! / prod_v c_v!, exactly, against a per-monomial count
            ref = [factorial(degree) // prod(factorial(c) for c in Counter(m).values())
                   for m in mons.tolist()]
            assert np.array_equal(multinomials(d, degree), np.array(ref, dtype=float))
    assert monomials(3, 2).tolist() == [[0, 0], [0, 1], [1, 1], [0, 2], [1, 2], [2, 2]]
    # past 20! the integers leave int64
    assert multinomials(2, 30)[1] == 30.0 and multinomials(2, 30)[15] == float(comb(30, 15))


def dict_product(a, b):
    """Product of two polynomials given as exponent-tuple -> coefficient dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def dict_power_sum(factors, weights, p):
    """Reference: sparse dict products, one member at a time."""
    d = factors[0].shape[0]
    total = {}
    for f, w in zip(factors, weights):
        m = f @ f.T
        q = {}      # x^T M x, entry by entry
        for a in range(d):
            for b in range(d):
                e = tuple(int(i == a) + int(i == b) for i in range(d))
                q[e] = q.get(e, 0.0) + m[a, b]
        power = q
        for _ in range(p - 1):
            power = dict_product(power, q)
        for e, c in power.items():
            total[e] = total.get(e, 0.0) + w * c
    return total


def random_factors(rng, d, n):
    return [rng.standard_normal((d, int(rng.integers(1, d + 1)))) for _ in range(n)]


def stacks_of(factors, weights):
    """(bases, weights) pairs of the factors grouped by width."""
    return [(np.stack([f for f in factors if f.shape[1] == k]),
             np.array([w for f, w in zip(factors, weights) if f.shape[1] == k]))
            for k in sorted({f.shape[1] for f in factors})]


def test_weighted_power_sum_matches_dict_products(rng):
    for d, p in [(2, 1), (2, 5), (3, 3), (4, 2), (5, 4)]:
        factors = random_factors(rng, d, 4)
        weights = rng.uniform(0.2, 2.0, 4)
        got = weighted_power_sum(stacks_of(factors, weights), p)
        ref = dense(d, 2 * p, dict_power_sum(factors, weights, p))
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (d, p)


def test_p1_frame_operator_route_matches_projectors(rng):
    # p = 1 is the quadratic form of sum_j w_j F_j F_j^T; the reference forms
    # one projector per member
    for _ in range(20):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, 12))
        factors = [make_subspace(rng.standard_normal((d, int(rng.integers(1, d)))))
                   for _ in range(n)]
        weights = rng.uniform(0.1, 3.0, n)
        ref = sum(w * quadratic_rows((f @ f.T)[None])[0] for f, w in zip(factors, weights))
        got = weighted_power_sum(stacks_of(factors, weights), 1)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.allclose(weighted_gram(stacks_of(factors, weights)),
                           sum(w * f @ f.T for f, w in zip(factors, weights)),
                           rtol=0, atol=1e-13 * weights.sum())


def svec(m):
    """Diagonal, then sqrt(2) times the upper entries."""
    return np.concatenate([np.diag(m), np.sqrt(2) * m[np.triu_indices(len(m), 1)]])


def lie_reference(factors, weights, p):
    """sqrt(sum_E ||D_E g||^2) / (p ||g||) for g(y) = sum_j w_j (svec(P_j) . y)^p,
    expanding D_E g = p sum_j w_j (l_j . y)^(p-1) (svec([P_j, E]) . y) member
    by member and direction by direction in exponent-tuple dicts."""
    d = factors[0].shape[0]
    big = d * (d + 1) // 2

    def linear(vec):
        return {tuple(int(i == v) for i in range(big)): c for v, c in enumerate(vec)}

    def form(vecs_per_member):
        total = {}
        for vecs, w in zip(vecs_per_member, weights):
            term = {(0,) * big: w}
            for vec in vecs:
                term = dict_product(term, linear(vec))
            for e, c in term.items():
                total[e] = total.get(e, 0.0) + c
        return total

    def apolar_sq(poly):
        return sum(c * c * prod(map(factorial, e)) / factorial(p) for e, c in poly.items())

    projs = [f @ f.T for f in factors]
    lie_sq = 0.0
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d))
            e[a, b], e[b, a] = np.sqrt(0.5), -np.sqrt(0.5)
            deriv = form([[svec(q)] * (p - 1) + [svec(q @ e - e @ q)] for q in projs])
            lie_sq += apolar_sq(deriv)
    return np.sqrt(lie_sq / apolar_sq(form([[svec(q)] * p for q in projs])))


def test_lie_residual_matches_per_direction_expansion(rng):
    for d, p in [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]:
        for _ in range(2):
            factors = [make_subspace(rng.standard_normal((d, int(rng.integers(1, d)))))
                       for _ in range(3)]
            weights = rng.uniform(0.2, 2.0, 3)
            ref = lie_reference(factors, weights, p)
            got, potential = lie_residual(stacks_of(factors, weights), p)
            assert got == pytest.approx(ref, rel=1e-12, abs=0), (d, p)
            # ||g||^2 is the pairwise potential at unit total weight
            pairs = sum(wi * wj * np.trace(fi @ fi.T @ fj @ fj.T) ** p
                        for fi, wi in zip(factors, weights) for fj, wj in zip(factors, weights))
            assert potential == pytest.approx(pairs / weights.sum() ** 2, rel=1e-13), (d, p)


def test_weighted_power_sum_chunking(rng, monkeypatch):
    # a tiny element budget splits members and table rows into many chunks;
    # the tables do not depend on it, so the cache is cleared only to rebuild
    # them in blocks
    factors = random_factors(rng, 4, 7)
    weights = rng.uniform(0.2, 2.0, 7)
    whole = [weighted_power_sum(stacks_of(factors, weights), p) for p in (1, 3)]
    lie = [lie_residual(stacks_of(factors, weights), p) for p in (2, 3)]
    homogeneous.product_table.cache_clear()
    monkeypatch.setattr(homogeneous, "_CHUNK_ELEMENTS", 50)
    for p, ref in zip((1, 3), whole):
        split = weighted_power_sum(stacks_of(factors, weights), p)
        assert np.abs(split - ref).max() <= 1e-13 * np.abs(ref).max()
    for p, ref in zip((2, 3), lie):
        assert lie_residual(stacks_of(factors, weights), p) == pytest.approx(ref, rel=1e-13)
