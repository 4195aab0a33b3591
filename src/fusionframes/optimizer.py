"""Riemannian minimization of the frame potential over products of
Grassmannians, plus a sphere min/max engine for numeric frame bounds.

Subspaces are carried as Stiefel representatives (orthonormal d x k bases)
and re-orthonormalized by QR after every step, so feasibility is exact at
machine precision.  The potential depends only on the spanned subspaces, so
tangent vectors are horizontal: Delta_a = Y_a_perp Z_a, with Y_a_perp an
orthonormal basis of the complement of Y_a.

The potential is minimized by a Levenberg-Marquardt-regularized Riemannian
Newton method (Absil, Mahony & Sepulchre 2008, ch. 6; More 1978): the exact
Hessian in the coordinates Z comes from the pairwise overlaps, each restart
solves (H + lambda I) z = -g with its own lambda and accepts steps by the
ratio of actual to predicted decrease.  The sphere extrema run one batched
Armijo descent (ibid., ch. 4).  Every restart or start stops for one of the
``STOP_REASONS``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixedDimensions, ParameterError, check_integer
from .frames import WeightedFrame
from .moments import t_moment
from .potential import GRAM_BUDGET, cross_gram
from .subspaces import Subspace, haar_basis_batch

EPS = np.finfo(float).eps
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
# A descent has stagnated when its value fell by at most STALL_RTOL of its
# size over the last STALL_WINDOW accepted steps: about a hundred ulps, the
# rounding noise of the value itself.
STALL_WINDOW = 10
STALL_RTOL = 1e2 * EPS
STOP_REASONS = ("gradient", "stagnation", "step-underflow", "max-iters")
SPHERE_STEP = 0.1
SPHERE_MAX_ITERS = 2000
SPHERE_TOL = 1e-12
# Newton: lambda = mu ||g||, which vanishes at a minimum even where the
# minimum is degenerate and H singular, so steps there stay Newton-fast
# (Li, Fukushima, Qi & Yamashita 2004).  A step is accepted when its actual decrease is
# at least LM_ACCEPT of the model's; mu shrinks by LM_FACTOR after a step
# whose ratio exceeds LM_GOOD and grows by it after a rejection or a failed
# Cholesky factorization, down to LM_MU_MIN.  Past 1 / EPS the step is below
# rounding of the bases (||z|| <= ||g|| / lambda < EPS).
LM_ACCEPT = 1e-4
LM_GOOD = 0.75
LM_FACTOR = 4.0
LM_MU_MIN = 1e-8
LM_MU_MAX = 1.0 / EPS
# Near the floor the value sits at rounding: a step that keeps it within
# FLAT_ULPS ulps is also accepted when it at least halves ||g||.
FLAT_ULPS = 4


@dataclass(frozen=True)
class OptimizerConfig:
    n: int
    k: int
    d: int
    p: int
    restarts: int = 16
    max_iters: int = 5000
    tol_grad: float = 1e-10
    target_margin: float = 1e-5

    def __post_init__(self):
        for field in ("n", "k", "d", "p", "restarts", "max_iters"):
            check_integer(field, getattr(self, field))
            if getattr(self, field) < 1:
                raise ParameterError(f"{field} must be a positive integer")
        if self.tol_grad <= 0 or self.target_margin <= 0:
            raise ParameterError("tol_grad, target_margin must be positive")
        if self.k > self.d - 1:
            raise ParameterError("need k <= d - 1")


@dataclass(frozen=True)
class OptimizerTrace:
    values: tuple          # FFP after each accepted step of the best restart
    frame: WeightedFrame
    t_value: float         # reference minimum: Haar moment for (k, k, d, p)
    t_error: float
    margin: float          # (final FFP - t_value) / t_value
    success: bool
    grad_norm: float
    restart_index: int
    restart_values: tuple  # final FFP of every restart, in restart order
    restart_stop_reasons: tuple  # why each restart stopped, in restart order

    @property
    def final_value(self) -> float:
        return self.values[-1]


def _descend(x, value_grad, retract, step0, max_iters, tol) -> tuple:
    """Armijo descent of independent problems stacked on axis 0 of x.

    ``value_grad(x, rows)`` gives the values and tangent gradients of the
    problems ``rows`` at x; ``retract(x, g, step)`` moves each x by its own
    step along -g back onto the manifold.  Steps are accepted only on a
    strict Armijo decrease.  A problem leaves the batch at the first of the
    ``STOP_REASONS``: gradient norm at most ``tol``, a relative decrease of
    at most ``STALL_RTOL`` over ``STALL_WINDOW`` steps, a step whose Armijo
    decrease ARMIJO_C step ||g||^2 is at most EPS |value| (no strict
    decrease can be verified below that), or ``max_iters`` steps.  Returns
    the final x, the values after each iteration (stopped problems keep
    their last value), the gradient norms, the stop reason indices and the
    step counts.
    """
    count = len(x)
    val, grad = value_grad(x, np.arange(count))
    axes = tuple(range(1, x.ndim))
    gnorm = np.sqrt((grad * grad).sum(axis=axes))
    step = np.full(count, float(step0))
    # index into STOP_REASONS, -1 while the problem runs
    stop = np.where(gnorm <= tol, 0, -1)
    iters = np.zeros(count, dtype=int)
    trail = [val.copy()]
    active = np.flatnonzero(stop < 0)
    for it in range(1, max_iters + 1):
        pending = active
        while True:
            # no strict decrease can be verified below one ulp of the value
            blind = ~(ARMIJO_C * step[pending] * gnorm[pending] ** 2 > EPS * np.abs(val[pending]))
            stop[pending[blind]] = 2
            pending = pending[~blind]
            if not pending.size:
                break
            s, old = step[pending], val[pending]
            cand = retract(x[pending], grad[pending], s)
            cand_val, cand_grad = value_grad(cand, pending)
            ok = (cand_val < old) & (cand_val <= old - ARMIJO_C * s * gnorm[pending] ** 2)
            done = pending[ok]
            x[done], val[done], grad[done] = cand[ok], cand_val[ok], cand_grad[ok]
            pending = pending[~ok]
            step[pending] *= ARMIJO_SHRINK
        active = active[stop[active] < 0]
        if not active.size:
            break
        step[active] *= 2.0      # warm start the next line search
        iters[active] += 1
        gnorm[active] = gn = np.sqrt((grad[active] ** 2).sum(axis=axes))
        trail.append(val.copy())
        stop[active[gn <= tol]] = 0
        if it >= STALL_WINDOW:
            fell = trail[it - STALL_WINDOW][active] - val[active]
            stop[active[(fell <= STALL_RTOL * np.abs(val[active])) & (gn > tol)]] = 1
        active = active[stop[active] < 0]
    stop[stop < 0] = 3
    return x, trail, gnorm, stop, iters


# ---------------------------------------------------------------------------
# frame potential over products of Grassmannians

def _ffp_core(ys: np.ndarray, weights: np.ndarray, p: int, hessian: bool = False) -> tuple:
    """Potentials (R,) and horizontal gradients (R, n, d, k) of R frames of
    equal-dimension members given as bases ys (R, n, d, k), common weights;
    with ``hessian``, also the Riemannian Hessians (R, N, N), N = n k (d-k),
    in the coordinates z = (Z_1, ..., Z_n) of Delta_a = Y_a_perp Z_a, and
    the complements Y_perp (R, n, d, d-k).

    For pairwise overlaps s_ab = tr(P_a P_b) = ||M_ab||^2, M_ab = Y_a^T Y_b,
    the Euclidean gradient in Y_a is 4p sum_b w_a w_b s_ab^(p-1) P_b Y_a,
    excluding b = a (that term is the constant k^p on the manifold); it is
    then projected orthogonally to the column span of Y_a.  With
    g_ab = Y_a_perp^T P_b Y_a, the Hessian block (a, b), a != b, is
    2 w_a w_b [2p s^(p-1) (T1 + T2) + 4p(p-1) s^(p-2) g_ab g_ba^T], where
    T1 pairs Y_a_perp^T Y_b with Y_b_perp^T Y_a and T2 = (Y_a_perp^T Y_b_perp)
    (x) M_ab; block (a, a) is sum_b 2 w_a w_b [2p s^(p-1) (Y_a_perp^T P_b
    Y_a_perp) (x) I_k + 4p(p-1) s^(p-2) g_ab g_ab^T] minus the Grassmann
    term Z_a -> Z_a Y_a^T grad_a (Absil, Mahony & Sepulchre 2008, ch. 5).
    """
    count, n, d, k = ys.shape
    flat = ys.transpose(0, 2, 1, 3).reshape(count, d, n * k)
    m, s = cross_gram(flat, np.full(n, k))
    ww = np.outer(weights, weights)
    off = ~np.eye(n, dtype=bool)
    c1 = (4 * p) * np.where(off, ww * s ** (p - 1), 0.0)
    # column block a of flat @ (C * M) is sum_b c_ab Y_b Y_b^T Y_a
    blocks = c1[:, :, None, :, None] * m.reshape(count, n, k, n, k)
    grad = flat @ blocks.reshape(count, n * k, n * k)
    grad = grad.reshape(count, d, n, k).transpose(0, 2, 1, 3)
    grad -= ys @ (np.swapaxes(ys, -1, -2) @ grad)
    value = (ww * s ** p).sum(axis=(1, 2))
    if not hessian:
        return value, grad
    c = d - k
    perp = np.linalg.qr(ys, mode="complete")[0][..., k:]
    pflat = perp.transpose(0, 2, 1, 3).reshape(count, d, n * c)
    a = (np.swapaxes(pflat, -1, -2) @ flat).reshape(count, n, c, n, k)
    b = (np.swapaxes(pflat, -1, -2) @ pflat).reshape(count, n, c, n, c)
    m = m.reshape(count, n, k, n, k)
    # axes of h: restart r, then member a, complement row i, column x of Z_a,
    # then the same (b, j, y) for Z_b
    h = c1[:, :, None, None, :, None, None] * (
        a[:, :, :, None, :, None, :] * a.transpose(0, 3, 4, 1, 2)[:, :, None, :, :, :, None]
        + b[:, :, :, None, :, :, None] * m[:, :, None, :, :, None, :])
    # diagonal blocks, each a sum over b of products over the columns of M_ab
    wa = (c1[:, :, None, :, None] * a).reshape(count, n, c, n * k)
    wm = (c1[:, :, None, :, None] * m).reshape(count, n, k, n * k)
    at, mt = (np.swapaxes(x.reshape(count, n, -1, n * k), -1, -2) for x in (a, m))
    diag = ((wa @ at)[:, :, :, None, :, None] * np.eye(k)[:, None, :]
            - np.eye(c)[:, None, :, None] * (wm @ mt)[:, :, None, :, None, :])
    diag = diag.reshape(count, n, c * k, c * k)
    if p > 1:    # at p = 1 the term vanishes and s^(-1) is inf on orthogonal pairs
        c2 = (8 * p * (p - 1)) * np.where(off, ww * s ** (p - 2), 0.0)
        # g[r, a, b] = Y_a_perp^T P_b Y_a, flattened
        g = (a.transpose(0, 1, 3, 2, 4) @ np.swapaxes(m.transpose(0, 1, 3, 2, 4), -1, -2))
        g = g.reshape(count, n, n, c * k)
        h += (c2[:, :, None, :, None] * g.transpose(0, 1, 3, 2)[..., None]
              * g.transpose(0, 2, 1, 3)[:, :, None]).reshape(h.shape)
        diag += np.swapaxes(c2[..., None] * g, -1, -2) @ g
    h = h.reshape(count, n, c * k, n, c * k)
    h[:, np.arange(n), :, np.arange(n)] += np.swapaxes(diag, 0, 1)
    return value, grad, h.reshape(count, n * c * k, n * c * k), perp


def ffp_gradient(frame: WeightedFrame, p: int):
    """Horizontal gradient of the potential with respect to each basis; see
    ``_ffp_core``, which the optimizer runs on all restarts at once."""
    if not frame.equal_dims():
        raise MixedDimensions("gradient needs equal-dimension subspaces")
    if p < 1:
        raise ParameterError("need p >= 1")
    ys = np.stack([s.basis for s in frame.subspaces])
    return list(_ffp_core(ys[None], frame.weights, p)[1][0])


def _retract(ys: np.ndarray, delta: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(ys + delta)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _positive_definite(a: np.ndarray) -> np.ndarray:
    """Which matrices of the stack a (B, N, N) have a Cholesky factor."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_positive_definite(row[None]) for row in a])
    return np.ones(len(a), dtype=bool)


def _newton(ys, evaluate, max_iters, tol) -> tuple:
    """LM-regularized Riemannian Newton on independent problems stacked on
    axis 0 of ys, each with its own lambda.

    ``evaluate(ys)`` gives the values, the gradients g and Hessians H in the
    coordinates of ``_ffp_core`` and the complements Y_perp.  Problem r
    solves (H + lambda I) z = -g for lambda = mu_r ||g||, raising mu_r until
    Cholesky succeeds, and retracts Y_a + Y_a_perp Z_a.  The step is
    accepted when the value fell by at least ``LM_ACCEPT`` of the model's
    decrease -g.z - z.Hz/2 (More 1978), or when it stayed within
    ``FLAT_ULPS`` ulps and ||g|| at least halved.  A problem
    stops at the first of the ``STOP_REASONS``: ||g|| at most ``tol``, a
    relative decrease of at most ``STALL_RTOL`` over ``STALL_WINDOW`` steps,
    mu_r past ``LM_MU_MAX``, or ``max_iters`` accepted steps.  Returns per
    problem the final bases, the values after each accepted step, the
    gradient norm and the stop reason index.
    """
    count = len(ys)
    val, g, hess, perp = evaluate(ys)
    # the shape (n, d - k, k) of the coordinates z of one problem
    shape = (perp.shape[1], perp.shape[-1], ys.shape[-1])
    gnorm = np.sqrt((g * g).sum(axis=1))
    mu = np.ones(count)
    eye = np.eye(g.shape[1])
    # index into STOP_REASONS, -1 while the problem runs
    stop = np.where(gnorm <= tol, 0, -1)
    iters = np.zeros(count, dtype=int)
    trail = [val.copy()]
    active = np.flatnonzero(stop < 0)
    for it in range(1, max_iters + 1):
        pending = active
        while pending.size:
            shifted = hess[pending] + (mu[pending] * gnorm[pending])[:, None, None] * eye
            factored = _positive_definite(shifted)
            rows, fails = pending[factored], pending[~factored]
            if rows.size:
                z = -np.linalg.solve(shifted[factored], g[rows][..., None])[..., 0]
                model = -(g[rows] * z).sum(axis=1) - 0.5 * np.einsum(
                    "ri,rij,rj->r", z, hess[rows], z)
                cand = _retract(ys[rows], perp[rows] @ z.reshape((-1,) + shape))
                cand_val, cand_g, cand_hess, cand_perp = evaluate(cand)
                cand_gnorm = np.sqrt((cand_g * cand_g).sum(axis=1))
                fell = val[rows] - cand_val
                flat = ((np.abs(fell) <= FLAT_ULPS * EPS * np.abs(val[rows]))
                        & (cand_gnorm <= 0.5 * gnorm[rows]))
                ok = (fell >= LM_ACCEPT * model) | flat
                done = rows[ok]
                ys[done], val[done], g[done] = cand[ok], cand_val[ok], cand_g[ok]
                hess[done], perp[done], gnorm[done] = cand_hess[ok], cand_perp[ok], cand_gnorm[ok]
                good = rows[ok & (fell > LM_GOOD * model)]
                mu[good] = np.maximum(mu[good] / LM_FACTOR, LM_MU_MIN)
                fails = np.concatenate([fails, rows[~ok]])
            mu[fails] *= LM_FACTOR
            stop[fails[mu[fails] > LM_MU_MAX]] = 2
            pending = fails[stop[fails] < 0]
        active = active[stop[active] < 0]
        if not active.size:
            break
        iters[active] += 1
        trail.append(val.copy())
        gn = gnorm[active]
        stop[active[gn <= tol]] = 0
        if it >= STALL_WINDOW:
            fell = trail[it - STALL_WINDOW][active] - val[active]
            stop[active[(fell <= STALL_RTOL * np.abs(val[active])) & (gn > tol)]] = 1
        active = active[stop[active] < 0]
    stop[stop < 0] = 3
    trail = np.array(trail)
    return ys, [tuple(trail[:i + 1, r]) for r, i in enumerate(iters)], gnorm, stop


def minimize_ffp(cfg: OptimizerConfig, rng=None) -> OptimizerTrace:
    """Best-of-restarts Riemannian Newton (``_newton``) with QR retraction,
    the restarts batched in (R, n, d, k) chunks whose Hessians hold at most
    ``GRAM_BUDGET`` entries (one restart at least).  Success means the
    final potential sits within the configured relative margin of the Haar
    moment lower bound; failure is a reported outcome, never an exception.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    t_value, t_error, _ = t_moment(cfg.k, cfg.k, cfg.d, cfg.p)
    # pre-drawn child seeds keep restarts independent and order-insensitive
    seeds = rng.integers(0, 2 ** 63 - 1, size=cfg.restarts)
    ys = np.stack([haar_basis_batch(cfg.d, cfg.k, cfg.n, np.random.default_rng(seed))
                   for seed in seeds])
    weights = np.full(cfg.n, 1.0 / cfg.n)
    chunk = max(1, GRAM_BUDGET // (cfg.n * cfg.k * (cfg.d - cfg.k)) ** 2)

    def evaluate(ys):
        value, grad, hess, perp = _ffp_core(ys, weights, cfg.p, hessian=True)
        return value, (np.swapaxes(perp, -1, -2) @ grad).reshape(len(ys), -1), hess, perp

    bases, histories, gnorm, stop = [], [], [], []
    for lo in range(0, cfg.restarts, chunk):
        out = _newton(ys[lo:lo + chunk], evaluate, cfg.max_iters, cfg.tol_grad)
        for acc, part in zip((bases, histories, gnorm, stop), out):
            acc.extend(part)
    finals = [h[-1] for h in histories]
    idx = 0
    for r in range(1, cfg.restarts):
        if finals[r] < finals[idx] - 1e-10:
            idx = r
    values = tuple(float(v) for v in histories[idx])
    frame = WeightedFrame(
        cfg.d,
        tuple((Subspace(cfg.d, bases[idx][i]), 1.0 / cfg.n) for i in range(cfg.n)),
    )
    margin = (values[-1] - t_value) / t_value
    return OptimizerTrace(
        values=values,
        frame=frame,
        t_value=t_value,
        t_error=t_error,
        margin=margin,
        success=values[-1] <= t_value * (1.0 + cfg.target_margin),
        grad_norm=float(gnorm[idx]),
        restart_index=idx,
        restart_values=tuple(float(v) for v in finals),
        restart_stop_reasons=tuple(STOP_REASONS[c] for c in stop),
    )


# ---------------------------------------------------------------------------
# sphere extrema of the power form (numeric frame bounds)

@dataclass(frozen=True)
class SphereBounds:
    lo: float              # smallest value reached by the minimizing descents
    hi: float              # largest value reached by the maximizing descents
    stop_reasons: tuple    # the minimizing descents, then the maximizing ones


def _sphere_retract(x: np.ndarray, direction: np.ndarray, step: np.ndarray) -> np.ndarray:
    y = x - step[:, None] * direction
    return y / np.sqrt((y * y).sum(axis=1, keepdims=True))


def sphere_bounds(frame: WeightedFrame, p: int, restarts: int = 32,
                  rng=None) -> SphereBounds:
    """Estimated min and max of the power form over the unit sphere, by
    projected gradient runs down and up from each Haar-random start, all in
    one batch.  Estimates only: no global certificate, but for certified
    tight frames both ends match the forced constant to high accuracy.
    """
    if restarts < 1:
        raise ParameterError("restarts must be a positive integer")
    if rng is None:
        rng = np.random.default_rng(0)
    flat = np.concatenate([s.basis for s in frame.subspaces], axis=1)
    dims, weights = frame.dims, frame.weights
    x = rng.standard_normal((restarts, frame.ambient_dim))
    x /= np.sqrt((x * x).sum(axis=1, keepdims=True))
    sign = np.repeat([1.0, -1.0], restarts)   # descend on sign * f

    def value_grad(x, rows):
        # row by row products, so that a row's result does not depend on the batch
        z = (x[:, None, :] @ flat)[:, 0]
        s = np.add.reduceat(z * z, np.cumsum(dims) - dims, axis=1)   # ||B_j^T x||^2
        coef = np.repeat((2 * p) * sign[rows, None] * weights * s ** (p - 1), dims, axis=1)
        g = ((coef * z)[:, None, :] @ flat.T)[:, 0]
        g -= (g * x).sum(axis=1, keepdims=True) * x
        return sign[rows] * (weights * s ** p).sum(axis=1), g

    _, trail, _, stop, _ = _descend(np.concatenate([x, x]), value_grad, _sphere_retract,
                                    SPHERE_STEP, SPHERE_MAX_ITERS, SPHERE_TOL)
    f = sign * trail[-1]
    return SphereBounds(lo=float(f[:restarts].min()), hi=float(f[restarts:].max()),
                        stop_reasons=tuple(STOP_REASONS[c] for c in stop))


def sphere_extrema(frame: WeightedFrame, p: int, restarts: int = 32,
                   rng=None) -> tuple:
    """(min, max) estimate of the power form over the unit sphere; the pair
    of ``sphere_bounds``."""
    bounds = sphere_bounds(frame, p, restarts, rng)
    return bounds.lo, bounds.hi
