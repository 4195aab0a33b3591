"""Riemannian minimization of the frame potential over products of
Grassmannians, plus a sphere min/max engine for numeric frame bounds.

Subspaces are carried as Stiefel representatives (orthonormal d x k bases)
and re-orthonormalized by QR after every step, so feasibility is exact at
machine precision.  The potential depends only on the spanned subspaces, so
the gradient is projected to the horizontal space to quotient out the gauge.

Both searches run all their starts as one batch through one Armijo descent
(Absil, Mahony & Sepulchre 2008, ch. 4); each start keeps its own step and
stops for one of the ``STOP_REASONS``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MixedDimensions, ParameterError
from .frames import WeightedFrame
from .moments import t_moment
from .potential import GRAM_BUDGET, cross_gram
from .subspaces import Subspace, haar_basis_batch

ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
MIN_STEP = 1e-18
# A descent has stagnated when its value fell by at most STALL_RTOL of its
# size over the last STALL_WINDOW accepted steps: about a hundred ulps, the
# rounding noise of the value itself.
STALL_WINDOW = 10
STALL_RTOL = 1e2 * np.finfo(float).eps
STOP_REASONS = ("gradient", "stagnation", "step-underflow", "max-iters")
SPHERE_STEP = 0.1
SPHERE_MAX_ITERS = 2000
SPHERE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    n: int
    k: int
    d: int
    p: int
    restarts: int = 16
    max_iters: int = 5000
    step: float = 0.1
    tol_grad: float = 1e-10
    target_margin: float = 1e-5

    def __post_init__(self):
        for field in ("n", "k", "d", "p", "restarts", "max_iters"):
            if getattr(self, field) < 1:
                raise ParameterError(f"{field} must be a positive integer")
        if self.step <= 0 or self.tol_grad <= 0 or self.target_margin <= 0:
            raise ParameterError("step, tol_grad, target_margin must be positive")
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
    at most ``STALL_RTOL`` over ``STALL_WINDOW`` steps, no acceptable step
    down to ``MIN_STEP``, or ``max_iters`` steps.  Returns the final x, the
    values after each iteration (stopped problems keep their last value),
    the gradient norms, the stop reason indices and the step counts.
    """
    count = len(x)
    val, grad = value_grad(x, np.arange(count))
    axes = tuple(range(1, x.ndim))
    gnorm = np.sqrt((grad * grad).sum(axis=axes))
    step = np.full(count, float(step0))
    # index into STOP_REASONS, -1 while the problem runs
    stop = np.where(gnorm <= tol, 0, -1 if step0 >= MIN_STEP else 2)
    iters = np.zeros(count, dtype=int)
    trail = [val.copy()]
    active = np.flatnonzero(stop < 0)
    for it in range(1, max_iters + 1):
        pending = active
        while pending.size:
            s, old = step[pending], val[pending]
            cand = retract(x[pending], grad[pending], s)
            cand_val, cand_grad = value_grad(cand, pending)
            ok = (cand_val < old) & (cand_val <= old - ARMIJO_C * s * gnorm[pending] ** 2)
            done = pending[ok]
            x[done], val[done], grad[done] = cand[ok], cand_val[ok], cand_grad[ok]
            pending = pending[~ok]
            step[pending] *= ARMIJO_SHRINK
            stop[pending[step[pending] < MIN_STEP]] = 2
            pending = pending[step[pending] >= MIN_STEP]
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

def _ffp_core(ys: np.ndarray, weights: np.ndarray, p: int) -> tuple:
    """Potentials (R,) and horizontal gradients (R, n, d, k) of R frames of
    equal-dimension members given as bases ys (R, n, d, k), common weights.

    For pairwise overlaps s_ab = tr(P_a P_b) the Euclidean gradient in Y_a
    is 4p sum_b w_a w_b s_ab^(p-1) P_b Y_a, excluding b = a (that term is the
    constant k^p on the manifold); it is then projected orthogonally to the
    column span of Y_a.
    """
    count, n, d, k = ys.shape
    flat = ys.transpose(0, 2, 1, 3).reshape(count, d, n * k)
    m, s = cross_gram(flat, np.full(n, k))
    ww = np.outer(weights, weights)
    coef = ww * s ** (p - 1)
    coef[:, np.arange(n), np.arange(n)] = 0.0
    # column block a of flat @ (C * M) is sum_b c_ab Y_b Y_b^T Y_a
    blocks = coef[:, :, None, :, None] * m.reshape(count, n, k, n, k)
    grad = flat @ blocks.reshape(count, n * k, n * k)
    grad = (4 * p) * grad.reshape(count, d, n, k).transpose(0, 2, 1, 3)
    grad -= ys @ (np.swapaxes(ys, -1, -2) @ grad)
    return (ww * s ** p).sum(axis=(1, 2)), grad


def ffp_gradient(frame: WeightedFrame, p: int):
    """Horizontal gradient of the potential with respect to each basis; see
    ``_ffp_core``, which the optimizer runs on all restarts at once."""
    if not frame.equal_dims():
        raise MixedDimensions("gradient needs equal-dimension subspaces")
    if p < 1:
        raise ParameterError("need p >= 1")
    ys = np.stack([s.basis for s in frame.subspaces])
    return list(_ffp_core(ys[None], frame.weights, p)[1][0])


def _retract(ys: np.ndarray, direction: np.ndarray, step: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(ys - step[:, None, None, None] * direction)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def minimize_ffp(cfg: OptimizerConfig, rng=None) -> OptimizerTrace:
    """Best-of-restarts gradient descent with QR retraction and Armijo
    backtracking, all restarts in one (R, n, d, k) batch.  Success means the
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
    chunk = max(1, GRAM_BUDGET // (cfg.n * cfg.k) ** 2)

    def value_grad(ys, rows):
        parts = [_ffp_core(ys[i:i + chunk], weights, cfg.p) for i in range(0, len(ys), chunk)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    ys, trail, gnorm, stop, iters = _descend(ys, value_grad, _retract, cfg.step,
                                             cfg.max_iters, cfg.tol_grad)
    finals = [float(v) for v in trail[-1]]
    idx = 0
    for r in range(1, cfg.restarts):
        if finals[r] < finals[idx] - 1e-10:
            idx = r
    values = tuple(float(v[idx]) for v in trail[:iters[idx] + 1])
    frame = WeightedFrame(
        cfg.d,
        tuple((Subspace(cfg.d, ys[idx, i]), 1.0 / cfg.n) for i in range(cfg.n)),
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
        restart_values=tuple(finals),
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
