"""Moments of the Haar measure on Grassmannians, and what they certify.

The central quantity is t(k, l, d, p), the average of trace(P_V P_W)^p over
independent uniformly random subspaces V, W of dimensions k and l in R^d.
It is an exact rational for every (k, l, d, p).  Expanding the power of
the trace in zonal polynomials, (tr X)^p = sum_{kappa |- p} C_kappa(X), and
averaging each term over the orthogonal group (Muirhead 1982, Thm 7.2.5)
gives

    t(k, l, d, p) = sum_{kappa |- p, len(kappa) <= min(k, l)}
                        C_kappa(I_k) C_kappa(I_l) / C_kappa(I_d),

with C_kappa(I_m) in closed form (Muirhead 1982, Thm 7.2.7): a factor of
kappa alone times the integer N_kappa(m) = 2^p (m/2)_kappa.  So ``t_exact``
(one moment, a ``Fraction``) and ``t_matrix`` (the table of floats) sum
integers over partitions.  Haar sampling is an independent oracle in the
tests, not a route here.

Also here: the exact strength-2p cubature certificate (the Lie
derivatives of the frame's power form over Sym^2, ``homogeneous.lie_residual``)
and the combinatorial size bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm, prod

import numpy as np

from .errors import CERTIFY_TOL, P_MAX, POWER_FORM_GUARD, MixedDimensions, check_range
from .frames import WeightedFrame
from .homogeneous import check_size_guard, lie_residual, monomial_count

# Largest d of a moment table, which has (d - 1)^2 entries.
T_MATRIX_D_MAX = 100


def _check_moment_args(k: int, l: int, d: int, p: int) -> None:
    check_range("d", d, 2)
    check_range("k", k, 1, d - 1)
    check_range("l", l, 1, d - 1)
    check_range("p", p, 1, P_MAX)


def _partitions(p: int, max_parts: int, max_part: int | None = None):
    """Partitions of p into at most ``max_parts`` parts, each at most
    ``max_part``, as non-increasing tuples."""
    if p == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(p, max_part or p), 0, -1):
        for rest in _partitions(p - first, max_parts - 1, first):
            yield (first,) + rest


def _pochhammer_int(kappa: tuple, m: int) -> int:
    """N_kappa(m) = 2^p (m/2)_kappa = prod_i prod_{s < kappa_i} (m - i + 2s),
    rows i counted from 0: an integer, 0 when kappa has more than m parts."""
    return prod(m - i + 2 * s for i, part in enumerate(kappa) for s in range(part))


def _zonal_scale(kappa: tuple) -> Fraction:
    """The factor of C_kappa(I_m) = _zonal_scale(kappa) N_kappa(m) that does
    not depend on m, for kappa |- p with ell parts:

        2^p p! prod_{i<j} (2 kappa_i - 2 kappa_j - i + j)
        / prod_i (2 kappa_i + ell - i - 1)!
    """
    p, ell = sum(kappa), len(kappa)
    num = prod(2 * a - 2 * b - i + j
               for (i, a), (j, b) in combinations(enumerate(kappa), 2))
    den = prod(factorial(2 * part + ell - i - 1) for i, part in enumerate(kappa))
    return Fraction(2 ** p * factorial(p) * num, den)


def _moment_weights(d: int, p: int, max_parts: int) -> tuple:
    """The partitions kappa of p into at most ``max_parts`` (< d) parts,
    integer weights w_kappa = q _zonal_scale(kappa) / N_kappa(d) and their
    denominator q, so that for k, l <= max_parts

        t(k, l, d, p) = sum_kappa w_kappa N_kappa(k) N_kappa(l) / q."""
    kappas = list(_partitions(p, max_parts))
    ratios = [_zonal_scale(kappa) / _pochhammer_int(kappa, d) for kappa in kappas]
    q = lcm(*(r.denominator for r in ratios))
    return kappas, [r.numerator * (q // r.denominator) for r in ratios], q


def t_exact(k: int, l: int, d: int, p: int) -> Fraction:
    """Mean of trace(P_V P_W)^p over independent Haar subspaces of
    dimensions k and l in R^d, as an exact rational.

    Partitions with more than min(k, l) parts are skipped: their zonal
    polynomials vanish at I_k or I_l."""
    _check_moment_args(k, l, d, p)
    kappas, weights, q = _moment_weights(d, p, min(k, l))
    return Fraction(sum(w * _pochhammer_int(kappa, k) * _pochhammer_int(kappa, l)
                        for kappa, w in zip(kappas, weights)), q)


@dataclass(frozen=True)
class TMatrix:
    """Symmetric (d-1) x (d-1) table of pairwise moments at a fixed power,
    every entry exact."""

    d: int
    p: int
    values: np.ndarray

    @property
    def errors(self) -> np.ndarray:
        """All zero: no entry is estimated."""
        return np.zeros_like(self.values)

    def rows(self) -> list:
        """(k, l, p, value, error, method) for k <= l; CSV-ready."""
        return [(k, l, self.p, float(self.values[k - 1, l - 1]), 0.0, "closed-form")
                for k in range(1, self.d) for l in range(k, self.d)]


def t_matrix(d: int, p: int, budget=None, rng=None) -> TMatrix:
    """The full moment table U diag(w) U^T / q over Python integers, with
    U[k - 1, kappa] = N_kappa(k) and (w, q) from ``_moment_weights``; int /
    int rounds correctly, so each entry is bitwise ``float(t_exact(...))``
    and every error is 0.  ``budget`` and ``rng`` are accepted for
    compatibility and ignored: no entry is sampled."""
    check_range("d", d, 2, T_MATRIX_D_MAX)
    _check_moment_args(1, 1, d, p)
    kappas, weights, q = _moment_weights(d, p, d - 1)
    u = np.array([[_pochhammer_int(kappa, m) for kappa in kappas] for m in range(1, d)],
                 dtype=object)
    values = ((u * np.array(weights, dtype=object)) @ u.T / q).astype(float)
    return TMatrix(d=d, p=p, values=values)


# ---------------------------------------------------------------------------
# cubature certification

@dataclass(frozen=True)
class CubatureCertificate:
    """Strength-2p cubature check by the Lie derivatives of the power form."""

    p: int
    residual: float          # sqrt(sum_E ||D_E g||^2) / (p ||g||), apolar norms
    monomials: int           # degree-p monomials in d(d+1)/2 variables
    verdict: str             # cubature | not-cubature
    ffp_value: float         # diagnostics, at unit total weight; not read by the verdict
    t_value: float
    t_error: float           # 0: the moment is exact
    margin: float            # ffp_value - t_value; >= 0 up to roundoff
    tol: float


def certify_cubature(frame: WeightedFrame, p: int, tol: float = CERTIFY_TOL,
                     budget=None, rng=None) -> CubatureCertificate:
    """A strength-2p cubature on the Grassmannian is a frame whose power form
    g(y) = sum_j w_j (svec(P_j) . y)^p is O(d)-invariant, i.e. every Lie
    derivative D_E g, E in so(d), vanishes (a reflection fixes the diagonal
    matrices).  The verdict is ``homogeneous.lie_residual`` <= tol, linear
    in the defect.  Reported beside it: the potential, which is ||g||^2 in
    the apolar norm and comes from the same pass, so the whole call is
    linear in the number of members, and the exact Haar moment.  ``budget``
    and ``rng`` are accepted for compatibility and ignored: nothing is
    sampled."""
    if not frame.equal_dims():
        raise MixedDimensions("cubature certification requires one common dimension")
    k, d = int(frame.dims[0]), frame.ambient_dim
    _check_moment_args(k, k, d, p)
    check_size_guard(d * (d + 1) // 2, p, POWER_FORM_GUARD)
    residual, value = lie_residual(frame.stacks, p)
    t_value = float(t_exact(k, k, d, p))
    return CubatureCertificate(
        p=p, residual=residual, monomials=monomial_count(d * (d + 1) // 2, p),
        verdict="cubature" if residual <= tol else "not-cubature",
        ffp_value=value, t_value=t_value, t_error=0.0, margin=value - t_value, tol=tol)


def size_bounds(d: int, p: int) -> dict:
    """Combinatorial counts: the guaranteed-existence size for strength-2p
    cubatures (hence tight order-p frames), the per-degree harmonic space
    dimensions, and the cap on pairwise-distinct equiangular subspaces."""
    return {
        "tight_p_existence_bound": comb(2 * p + d - 1, d - 1) - 1,
        "harmonic_dim_2l": {
            ell: comb(d + 2 * ell - 1, d - 1) - comb(d + 2 * ell - 3, d - 1)
            for ell in range(1, p + 1)
        },
        "max_equiangular": comb(d + 1, 2),
    }
