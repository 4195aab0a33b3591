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
kappa alone times the integer N_kappa(m) = 2^p (m/2)_kappa, a monic degree-p
polynomial in m.  ``t_exact`` (one moment, a ``Fraction``) sums integers over
partitions; ``t_matrix`` (the table of floats) is V C V^T / q, V[m - 1, j] =
m^j and C a (p + 1) x (p + 1) integer core.  Haar sampling is a test oracle.

Also here: the exact strength-2p cubature certificate (the Lie
derivatives of the frame's power form over Sym^2, ``homogeneous.lie_residual``)
and the combinatorial size bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

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
    ``max_part``, as non-increasing tuples; the first is >= p / max_parts."""
    if p == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(p, max_part or p), (p - 1) // max_parts, -1):
        for rest in _partitions(p - first, max_parts - 1, first):
            yield (first,) + rest


def _pochhammer_int(kappa: tuple, m: int) -> int:
    """N_kappa(m) = 2^p (m/2)_kappa = prod_i prod_{s < kappa_i} (m - i + 2s),
    rows i counted from 0: an integer, 0 when kappa has more than m parts."""
    n = 1
    for i, part in enumerate(kappa):
        n *= prod(range(m - i, m - i + 2 * part, 2))
    return n


def _zonal_scale(kappa: tuple, n: int) -> tuple:
    """C_kappa(I_m) / (n N_kappa(m)) in lowest terms (num, den), for kappa |- p with ell parts:
    2^p p! prod_{i<j} (2 kappa_i - 2 kappa_j - i + j) / (n prod_i (2 kappa_i + ell - i - 1)!)."""
    p, ell = sum(kappa), len(kappa)
    num, den = 2 ** p * factorial(p), n
    for i, part in enumerate(kappa):
        den *= factorial(2 * part + ell - i - 1)
        for j in range(i + 1, ell):
            num *= 2 * part - 2 * kappa[j] - i + j
    g = gcd(num, den)
    return num // g, den // g


def _pochhammer_coefficients(kappas: list) -> np.ndarray:
    """A[kappa, j], the coefficient of m^j in N_kappa(m): one cell per step, all kappa at once."""
    cells = [[2 * s - i for i, part in enumerate(kappa) for s in range(part)] for kappa in kappas]
    zero, coeffs = [0] * len(kappas), [[0] * len(kappas), [1] * len(kappas)]  # coeffs[j]: m^j
    for shift in list(zip(*cells))[1:]:        # the first cell, (0, 0), is the factor m
        coeffs = [[lo + c * hi for lo, c, hi in zip(below, shift, above)]
                  for below, above in zip([zero] + coeffs, coeffs + [zero])]
    return np.array(coeffs, dtype=object).T


def _moment_weights(d: int, p: int, max_parts: int) -> tuple:
    """The partitions kappa of p into at most ``max_parts`` (< d) parts,
    integer weights w_kappa = q _zonal_scale(kappa) / N_kappa(d) and their
    least denominator q, so that for k, l <= max_parts

        t(k, l, d, p) = sum_kappa w_kappa N_kappa(k) N_kappa(l) / q."""
    kappas = list(_partitions(p, max_parts))
    ratios = [_zonal_scale(kappa, _pochhammer_int(kappa, d)) for kappa in kappas]
    q = lcm(*(den for _, den in ratios))
    return kappas, [num * (q // den) for num, den in ratios], q


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
        return [(k, l, self.p, value, 0.0, "closed-form") for k, row in
                enumerate(self.values.tolist(), 1) for l, value in enumerate(row[k - 1:], k)]


def t_matrix(d: int, p: int, budget=None, rng=None) -> TMatrix:
    """The full moment table V C V^T / q over Python integers, V[m - 1, j] = m^j and
    C = A^T diag(w) A (``_pochhammer_coefficients``, ``_moment_weights``): O(K p^2 +
    d^2 p) work for K partitions.  int / int rounds correctly, so each entry is bitwise
    ``float(t_exact(...))``; every error is 0, and ``budget`` and ``rng`` are ignored."""
    check_range("d", d, 2, T_MATRIX_D_MAX)
    _check_moment_args(1, 1, d, p)
    kappas, weights, q = _moment_weights(d, p, d - 1)
    coeffs = _pochhammer_coefficients(kappas)
    powers = np.array([[m ** j for j in range(p + 1)] for m in range(1, d)], dtype=object)
    core = (coeffs.T * np.array(weights, dtype=object)) @ coeffs
    return TMatrix(d=d, p=p, values=(powers @ core @ powers.T / q).astype(float))


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
