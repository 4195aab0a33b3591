"""Moments of the Haar measure on Grassmannians, and what they certify.

The central quantity is t(k, l, d, p), the average of trace(P_V P_W)^p over
independent uniformly random subspaces V, W of dimensions k and l in R^d.
It is an exact rational for every (k, l, d, p).  Expanding the power of
the trace in zonal polynomials, (tr X)^p = sum_{kappa |- p} C_kappa(X), and
averaging each term over the orthogonal group (Muirhead 1982, Thm 7.2.5)
gives

    t(k, l, d, p) = sum_{kappa |- p, len(kappa) <= min(k, l)}
                        C_kappa(I_k) C_kappa(I_l) / C_kappa(I_d),

with C_kappa(I_m) in closed form (Muirhead 1982, Thm 7.2.7).  ``t_exact``
evaluates this sum in rational arithmetic; ``t_moment`` and ``t_matrix``
report it as a float with error 0.  Haar sampling (``method="mc"``) is
kept as an independent oracle for tests.

Also here: the univariate orthogonal polynomial family attached to the
squared-cosine distribution of a line against a k-subspace (the per-degree
probes used by the design diagnostic), cubature certification through the
potential minimum, and the combinatorial size bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import MixedDimensions, ParameterError
from .frames import WeightedFrame, pochhammer_ratio
from .potential import ffp
from .subspaces import haar_basis_batch

DEFAULT_MC_BUDGET = 100_000
# The exact sum runs over the partitions of p; past p = 20 it takes seconds
# per moment and grows quickly, so larger powers are refused.
P_MAX = 20
# Largest d of a moment table, which has (d - 1)^2 entries.
T_MATRIX_D_MAX = 100


def t_one(k: int, d: int, p: int) -> float:
    """Mean of trace(P_x P_V)^p for a Haar line x against a Haar k-subspace:
    (k/2)_p / (d/2)_p, exact."""
    if not 1 <= k <= d - 1:
        raise ParameterError(f"k={k} not in [1, {d - 1}]")
    if p < 1:
        raise ParameterError("p must be >= 1")
    return float(pochhammer_ratio(k, d, p))


class MomentEstimate(NamedTuple):
    value: float
    error: float
    method: str  # closed-form | monte-carlo


def _check_moment_args(k: int, l: int, d: int, p: int) -> None:
    if not (1 <= k <= d - 1 and 1 <= l <= d - 1):
        raise ParameterError(f"dimensions ({k},{l}) not in [1, {d - 1}]")
    if not 1 <= p <= P_MAX:
        raise ParameterError(f"p={p} not in [1, {P_MAX}]")


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


def _zonal_at_identity(kappa: tuple, m: int) -> Fraction:
    """C_kappa(I_m) for a partition kappa of p with ell parts:

        2^(2p) p! (m/2)_kappa prod_{i<j} (2 kappa_i - 2 kappa_j - i + j)
        / prod_i (2 kappa_i + ell - i)!

    where (a)_kappa = prod_i (a - (i - 1)/2)_{kappa_i}.  It vanishes when
    ell > m.
    """
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


def t_exact(k: int, l: int, d: int, p: int) -> Fraction:
    """Mean of trace(P_V P_W)^p over independent Haar subspaces of
    dimensions k and l in R^d, as an exact rational.

    Partitions with more than min(k, l) parts are skipped: their zonal
    polynomials vanish at I_k or I_l (and the ratio would read 0/0 when
    they also vanish at I_d)."""
    _check_moment_args(k, l, d, p)
    return sum((_zonal_at_identity(kappa, k) * _zonal_at_identity(kappa, l)
                / _zonal_at_identity(kappa, d)
                for kappa in _partitions(p, min(k, l))), start=Fraction(0))


def t_moment(k: int, l: int, d: int, p: int, method: str = "closed",
             budget: int = DEFAULT_MC_BUDGET,
             rng: np.random.Generator | None = None) -> MomentEstimate:
    """Mean of trace(P_V P_W)^p over independent Haar subspaces.

    method "closed" (the default) is ``t_exact`` in floating point, with
    error 0.  method "mc" averages ``budget`` Haar samples drawn from
    ``rng`` and reports the standard error; it is an independent check on
    the exact route, not an alternative to it.
    """
    if method == "closed":
        return MomentEstimate(float(t_exact(k, l, d, p)), 0.0, "closed-form")
    if method != "mc":
        raise ParameterError(f"unknown method {method!r}")
    _check_moment_args(k, l, d, p)
    if rng is None:
        rng = np.random.default_rng(0)
    # W is frozen to the first-l coordinate span; by invariance the law of
    # trace(P_V P_W) is unchanged
    bases = haar_basis_batch(d, k, budget, rng)
    vals = (bases[:, :l, :] ** 2).sum(axis=(1, 2)) ** p
    return MomentEstimate(float(vals.mean()),
                          float(vals.std(ddof=1) / np.sqrt(budget)),
                          "monte-carlo")


@dataclass(frozen=True)
class TMatrix:
    """Symmetric (d-1) x (d-1) table of pairwise moments at a fixed power."""

    d: int
    p: int
    values: np.ndarray
    errors: np.ndarray
    methods: tuple  # of tuples of str

    def entry(self, k: int, l: int) -> MomentEstimate:
        return MomentEstimate(float(self.values[k - 1, l - 1]),
                              float(self.errors[k - 1, l - 1]),
                              self.methods[k - 1][l - 1])

    def rows(self) -> list:
        """(k, l, p, value, error, method) for k <= l; CSV-ready."""
        out = []
        for k in range(1, self.d):
            for l in range(k, self.d):
                e = self.entry(k, l)
                out.append((k, l, self.p, e.value, e.error, e.method))
        return out


def t_matrix(d: int, p: int, budget: int = DEFAULT_MC_BUDGET,
             rng: np.random.Generator | None = None) -> TMatrix:
    """Fill the full moment table with the ``t_exact`` sums; every error is 0.

    Each C_kappa(I_m) is computed once per table.  ``budget`` and ``rng``
    are accepted for compatibility and ignored: no entry is sampled."""
    if not 2 <= d <= T_MATRIX_D_MAX:
        raise ParameterError(f"d={d} not in [2, {T_MATRIX_D_MAX}]")
    _check_moment_args(1, 1, d, p)
    kappas = list(_partitions(p, d - 1))
    # zonal[i][m - 1] = C_kappa_i(I_m) for m = 1..d
    zonal = [[_zonal_at_identity(kappa, m) for m in range(1, d + 1)] for kappa in kappas]
    values = np.zeros((d - 1, d - 1))
    for k in range(1, d):
        terms = [(z[k - 1] / z[d - 1], z) for kappa, z in zip(kappas, zonal)
                 if len(kappa) <= k]
        for l in range(k, d):
            exact = sum((ratio * z[l - 1] for ratio, z in terms), start=Fraction(0))
            values[k - 1, l - 1] = values[l - 1, k - 1] = float(exact)
    methods = tuple(("closed-form",) * (d - 1) for _ in range(d - 1))
    return TMatrix(d=d, p=p, values=values, errors=np.zeros((d - 1, d - 1)),
                   methods=methods)


# ---------------------------------------------------------------------------
# orthogonal polynomial probes

@dataclass(frozen=True)
class JacobiFamily:
    """Polynomials orthogonal for the weight y^((k-2)/2) (1-y)^((d-2-k)/2)
    on [0,1], normalized to take the value 1 at y = 1.

    ``exact_polys`` holds ascending Fraction coefficients (the normalization
    P(1) = 1 is exact at that level); ``polys`` are float copies for
    evaluation.  ``recurrence`` holds (a, b, c) with
    y P_l = a P_{l+1} + b P_l + c P_{l-1}.
    """

    k: int
    d: int
    exact_polys: tuple
    recurrence: tuple

    @property
    def polys(self) -> list:
        return [np.array([float(c) for c in cs]) for cs in self.exact_polys]

    def evaluate(self, ell: int, y) -> np.ndarray:
        coeffs = [float(c) for c in self.exact_polys[ell]]
        return npoly.polyval(np.asarray(y, dtype=float), coeffs)


def _beta_moments(k: int, d: int, count: int) -> list:
    """E[y^m] for the normalized weight: the Pochhammer ratio (k/2)_m/(d/2)_m."""
    return [pochhammer_ratio(k, d, m) for m in range(count)]


def jacobi_family(k: int, d: int, p_max: int) -> JacobiFamily:
    """Gram-Schmidt on monomials under the exact moment inner product,
    rescaled to P(1) = 1, with the three-term recurrence extracted by exact
    coefficient matching."""
    if not 1 <= k <= d - 1:
        raise ParameterError(f"weight exponents <= -1 for k={k}, d={d}")
    if p_max > 10:
        raise ParameterError("p_max above 10 is not supported")
    moms = _beta_moments(k, d, 2 * p_max + 2)

    def inner(c1, c2):
        return sum(a * b * moms[i + j]
                   for i, a in enumerate(c1) for j, b in enumerate(c2))

    ortho: list = []
    for deg in range(p_max + 1):
        c = [Fraction(0)] * (deg + 1)
        c[deg] = Fraction(1)
        for q in ortho:
            coef = inner(c, q) / inner(q, q)
            for i, qi in enumerate(q):
                c[i] -= coef * qi
        ortho.append(c)
    polys = []
    for c in ortho:
        s = sum(c)
        polys.append(tuple(ci / s for ci in c))

    trips = []
    for ell in range(p_max):
        shifted = (Fraction(0),) + polys[ell]          # y * P_ell
        coefs = [Fraction(0)] * (ell + 2)
        rem = list(shifted)
        for j in range(ell + 1, -1, -1):               # triangular elimination
            pj = polys[j]
            cj = rem[j] / pj[j]
            coefs[j] = cj
            for i, pi in enumerate(pj):
                rem[i] -= cj * pi
        a, b = coefs[ell + 1], coefs[ell]
        c = coefs[ell - 1] if ell >= 1 else Fraction(0)
        trips.append((float(a), float(b), float(c)))
    return JacobiFamily(k=k, d=d, exact_polys=tuple(polys), recurrence=tuple(trips))


def design_diagnostic(frame: WeightedFrame, p: int, n_probes: int = 64,
                      rng: np.random.Generator | None = None,
                      normalize: bool = True) -> list:
    """Per-degree residuals of the zero-sum conditions a tight order-p frame
    must satisfy.

    For each degree ell = 1..p the probe function x -> P_ell(||P_V x||^2) is
    averaged over the frame; at a tight frame the weighted sum vanishes for
    every unit x.  Returns the max |sum| over Haar-random probe directions,
    one residual per degree.  Small residuals are necessary (not sufficient)
    for tightness, and locate the failing degree otherwise.

    Weights are normalized to sum 1 unless ``normalize`` is false, in which
    case residuals scale linearly with a common weight factor.
    """
    if not frame.equal_dims():
        raise MixedDimensions("design diagnostic requires one common dimension")
    if rng is None:
        rng = np.random.default_rng(0)
    k, d = int(frame.dims[0]), frame.ambient_dim
    fam = jacobi_family(k, d, p)
    w = frame.weights
    if normalize:
        w = w / w.sum()
    xs = haar_basis_batch(d, 1, n_probes, rng)[:, :, 0]     # (n_probes, d)
    y = np.stack([((xs @ s.basis) ** 2).sum(axis=1) for s in frame.subspaces],
                 axis=1)                                    # (n_probes, n)
    residuals = []
    for ell in range(1, p + 1):
        sums = fam.evaluate(ell, y) @ w
        residuals.append(float(np.abs(sums).max()))
    return residuals


# ---------------------------------------------------------------------------
# cubature certification

@dataclass(frozen=True)
class CubatureCertificate:
    """Potential-based strength-2p cubature check at unit total weight."""

    p: int
    ffp_value: float
    t_value: float
    t_error: float
    t_method: str
    margin: float            # ffp_value - t_value; >= 0 up to roundoff
    verdict: str             # cubature | not-cubature
    probe_spread: float      # advisory: max-min of the probe averages
    tol: float


def certify_cubature(frame: WeightedFrame, p: int, tol: float = 1e-9,
                     budget: int = DEFAULT_MC_BUDGET,
                     rng: np.random.Generator | None = None,
                     n_probes: int = 1000) -> CubatureCertificate:
    """Compare the potential of the weight-normalized frame against the
    exact Haar moment; equality (margin within tol) certifies a cubature of
    strength 2p.

    A constancy probe over ``n_probes`` random subspaces W drawn from
    ``rng`` (the averaged p-th power of trace(P_W P_j) should be flat) is
    attached as a corroborating statistic, not part of the verdict.
    ``budget`` is accepted for compatibility and ignored: the moment is
    exact.
    """
    if not frame.equal_dims():
        raise MixedDimensions("cubature certification requires one common dimension")
    if rng is None:
        rng = np.random.default_rng(0)
    k, d = int(frame.dims[0]), frame.ambient_dim
    normalized = frame.normalized()
    value = ffp(normalized, p)
    est = t_moment(k, k, d, p)
    margin = value - est.value
    verdict = "not-cubature" if margin > tol else "cubature"

    probes = haar_basis_batch(d, k, n_probes, rng)
    w = normalized.weights
    avgs = np.zeros(n_probes)
    for sub, weight in zip(normalized.subspaces, w):
        m = probes.transpose(0, 2, 1) @ sub.basis       # (n_probes, k, k)
        avgs += weight * ((m * m).sum(axis=(1, 2))) ** p
    spread = float(avgs.max() - avgs.min())

    return CubatureCertificate(p=p, ffp_value=value, t_value=est.value,
                               t_error=est.error, t_method=est.method,
                               margin=margin, verdict=verdict,
                               probe_spread=spread, tol=tol)


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
