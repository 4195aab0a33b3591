"""Riemannian Newton on products of Grassmannians: minimization of the
frame potential, and the min and max of the power form over the unit sphere
(numeric frame bounds).

Subspaces are carried as Stiefel representatives (orthonormal d x k bases)
and re-orthonormalized by a sign-fixed QR after every step, so feasibility
is exact at machine precision.  Both objectives depend only on the spanned
subspaces, so tangent vectors are horizontal: Delta_a = Y_a_perp Z_a, with
Y_a_perp an orthonormal basis of the complement of Y_a, the rest of the
complete Q of the same QR.  A unit vector x is the basis of a line, a point
of Gr(1, d), and the power form is even in x.
Both depend on the projectors alone and are one overlap sum in projector
coordinates, ``_partner_core``: s_ab = l_a . l_b over flattened projectors
l = vec(Y Y^T), each member against the others for the potential, one
moving line against the frame's rows for the power form.  The potential's
Hessian blocks between members are one Gram matrix of the projectors'
differentials J_a, ``_ffp_core``.

One loop, ``_newton``, runs every problem: a Levenberg-Marquardt-regularized
Riemannian Newton method (Absil, Mahony & Sepulchre 2008, ch. 6; More 1978)
with the exact Hessian in the coordinates Z.  Each restart or start solves
(H + lambda I) z = -g with its own lambda, accepts steps by the ratio of
actual to predicted decrease, and stops for one of the ``STOP_REASONS``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo, solve as _solve

from .errors import (GRAM_BUDGET, RESTART_RTOL, STALL_RTOL, TARGET_MARGIN, TOL_GRAD,
                     MixedDimensions, check_newton_size, check_order, check_range)
from .frames import WeightedFrame
from .moments import t_exact
from .subspaces import _signed_qr, check_orthonormal

EPS = np.finfo(float).eps
# A descent has stagnated when its value fell by at most STALL_RTOL of its
# size over the last STALL_WINDOW accepted steps: about a hundred ulps, the
# rounding noise of the value itself.
STALL_WINDOW = 10
# Every descent, of the potential or on the sphere, stops by 'max-iters'
# after MAX_ITERS accepted steps.
STOP_REASONS = ("gradient", "stagnation", "step-underflow", "max-iters")
MAX_ITERS = 5000
# Newton: lambda = mu ||g||, which vanishes at a minimum even where the
# minimum is degenerate and H singular, so steps there stay Newton-fast
# (Li, Fukushima, Qi & Yamashita 2004).  A step is accepted when its actual decrease is
# at least LM_ACCEPT of the model's; mu shrinks by LM_FACTOR after a step
# whose ratio exceeds LM_GOOD and grows by it after a rejection or a failed
# Cholesky factorization, down to LM_MU_MIN.  Past 1 / EPS the step is below
# rounding of the bases (||z|| <= ||g|| / lambda < EPS).
LM_ACCEPT = 1e-4
LM_GOOD = 0.75
LM_FACTOR = 2.0
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

    def __post_init__(self):
        for field in ("n", "p", "restarts"):
            check_range(field, getattr(self, field), 1)
        check_range("d", self.d, 2)
        check_range("k", self.k, 1, self.d - 1)
        size = self.n * self.k * (self.d - self.k)
        check_newton_size(restart_tables=size * max(size, self.d ** 2),
                          starts=self.restarts * self.n * self.d * self.k)


@dataclass(frozen=True)
class OptimizerTrace:
    values: tuple          # FFP after each accepted step of the best restart
    frame: WeightedFrame
    t_value: float         # reference minimum: Haar moment for (k, k, d, p)
    t_error: float         # 0: the moment is exact
    margin: float          # (final FFP - t_value) / t_value
    success: bool
    grad_norm: float
    restart_index: int
    restart_values: tuple  # final FFP of every restart, in restart order
    restart_stop_reasons: tuple  # why each restart stopped, in restart order
    hessian_evaluations: int     # batched Hessian evaluations, all restart chunks

    @property
    def final_value(self) -> float:
        return self.values[-1]


# ---------------------------------------------------------------------------
# one overlap sum in projector coordinates: moving subspaces against fixed
# partners, and the frame potential over products of Grassmannians

def _partner_core(ys: np.ndarray, rows: np.ndarray | None, coef: np.ndarray, p: int,
                  perp: np.ndarray | None = None) -> tuple:
    """Values (R,) and gradients of f = sum_{a,b} coef_ab s_ab^p, s_ab =
    l_a . l_b = tr(P_a P_b), for moving bases ys (R, n, d, k), l_a the
    flattened P_a = Y_a Y_a^T, against fixed partner projectors given as
    flat rows l_b (R or 1, m, d^2), or the moving ones when rows is None,
    coef (R or 1, n, m); a term with coef_ab = 0 is skipped.  With G_a =
    sum_b c1_ab P_b, c1 = 2p coef s^(p-1), the gradient is the horizontal
    G_a Y_a - Y_a (Y_a^T G_a Y_a) (R, n, d, k).
    Given the complements perp = Y_perp (R, n, d, c), c = d - k, it is
    Y_a_perp^T G_a Y_a (R, n c k) instead, in the coordinates Z_a of
    Delta_a = Y_a_perp Z_a, and also the diagonal Hessian blocks (R, n, c k,
    c k), (Y_a_perp^T G_a Y_a_perp) (x) I_k - I_c (x) (Y_a^T G_a Y_a) + sum_b
    c2_ab u_ab u_ab^T (Absil, Mahony & Sepulchre 2008, ch. 5), and (c1, c2,
    u) for the blocks a != b of a potential: c2 = p(p-1) coef s^(p-2) and
    u_ab = J_a^T l_b = 2 Y_a_perp^T P_b Y_a (R, n, m, c k), the
    differential of s_ab; c2 and u are None at p = 1.
    """
    count, n, d, k = ys.shape
    ells = (ys @ ys.swapaxes(-1, -2)).reshape(count, n, d * d)
    rows = ells if rows is None else rows
    s = ells @ rows.swapaxes(-1, -2)
    s = np.where(coef == 0, 0.0, s)     # s^p of a skipped term may overflow: 0 * inf
    value = (coef * s ** p).sum(axis=(1, 2))
    c1 = (2 * p) * coef * s ** (p - 1)
    g = (c1 @ rows).reshape(count, n, d, d)
    gy = g @ ys
    pull = ys.swapaxes(-1, -2) @ gy     # Y_a^T G_a Y_a
    if perp is None:
        return value, gy - ys @ pull
    c, m = d - k, rows.shape[-2]
    perp_t = perp.swapaxes(-1, -2)
    # the Kronecker products written along their diagonals: x = y, then i = j
    diag = np.zeros((count, n, c, k, c, k))
    np.einsum("rnixjx->rnijx", diag)[...] = (perp_t @ g @ perp)[..., None]
    np.einsum("rnixiy->rnixy", diag)[...] -= pull.swapaxes(-1, -2)[:, :, None]
    diag = diag.reshape(count, n, c * k, c * k)
    c2 = u = None
    if p > 1:    # at p = 1 the term vanishes and s^(-1) is inf on orthogonal pairs
        c2 = (p * (p - 1)) * coef * s ** (p - 2)
        # P_b Y_a of every pair in one product, then Y_a_perp^T per member
        py = rows.reshape(-1, m * d, d) @ ys.transpose(0, 2, 1, 3).reshape(count, d, n * k)
        py = py.reshape(count, m, d, n, k).transpose(0, 3, 2, 1, 4).reshape(count, n, d, m * k)
        u = 2 * (perp_t @ py).reshape(count, n, c, m, k).transpose(0, 1, 3, 2, 4)
        u = u.reshape(count, n, m, c * k)
        diag += (u.swapaxes(-1, -2) * c2[:, :, None, :]) @ u
    return value, (perp_t @ gy).reshape(count, -1), diag, (c1, c2, u)


def _ffp_core(ys: np.ndarray, weights: np.ndarray, p: int, perp: np.ndarray | None = None) -> tuple:
    """Potentials (R,) and horizontal gradients (R, n, d, k) of R frames of
    equal-dimension members given as bases ys (R, n, d, k), common weights;
    given the complements perp = Y_perp (R, n, d, d-k), the gradients in
    the coordinates z = (Z_1, ..., Z_n) of Delta_a = Y_a_perp Z_a (R, N)
    instead, N = n k (d-k), and the Riemannian Hessians (R, N, N).

    Each member moves against the others: ``_partner_core`` with the
    members' projector rows as partners and coef_ab = 2 w_a w_b off the
    diagonal (the terms a = b are the constant w_a^2 k^p) gives the gradient
    and the blocks (a, a).  Block (a, b), a != b, is (c1_ab / 2) J_a^T J_b +
    c2_ab u_ab u_ba^T, with J_a (d^2, c k) the differential of l_a, whose
    columns are vec(y_perp_i y_x^T + y_x y_perp_i^T): one Gram matrix of
    the J_a of all members gives every block.
    """
    count, n, d, k = ys.shape
    coef = 2 * weights[:, None] * weights
    coef.flat[::n + 1] = 0.0
    out = _partner_core(ys, None, coef[None], p, perp)
    value = out[0] / 2 + weights @ weights * np.float64(k) ** p
    if perp is None:
        return value, out[1]
    _, grad, diag, (c1, c2, u) = out
    size = (d - k) * k
    # jac[r, (s, t), a, (i, x)] = perp[a, s, i] ys[a, t, x] + ys[a, s, x] perp[a, t, i]
    jac = (perp.transpose(0, 2, 1, 3)[:, :, None, :, :, None]
           * ys.transpose(0, 2, 1, 3)[:, None, :, :, None, :])
    jac = (jac + jac.swapaxes(1, 2)).reshape(count, d * d, n * size)
    h = (jac.swapaxes(-1, -2) @ jac).reshape(count, n, size, n, size)
    h *= (c1 / 2)[:, :, None, :, None]
    if p > 1:    # c2_ab u_ab at (a, i x, b) times u_ba at (a, b, j y)
        h += ((c2[..., None] * u).transpose(0, 1, 3, 2)[..., None]
              * u.transpose(0, 2, 1, 3)[:, :, None])
    np.einsum("raiaj->raij", h)[...] += diag      # a view of the blocks (a, a)
    return value, grad, h.reshape(count, n * size, n * size)


def ffp_gradient(frame: WeightedFrame, p: int):
    """Horizontal gradient of the potential with respect to each basis,
    G_a Y_a - Y_a (Y_a^T G_a Y_a); see ``_ffp_core``, which the optimizer
    runs on all restarts at once."""
    if not frame.equal_dims():
        raise MixedDimensions("gradient needs equal-dimension subspaces")
    check_order(p)
    (_, ys, _), = frame.groups
    return list(_ffp_core(ys[None], frame.weights, p)[1][0])


def _positive_definite(a: np.ndarray) -> np.ndarray:
    """Which matrices of the stack a (B, N, N) have a Cholesky factor, by one
    batched factorization with the kernel behind ``np.linalg.cholesky``: it
    fills a matrix that fails with NaN, and a NaN in the lower triangle of a
    reaches the diagonal of its factor, so a NaN diagonal marks both."""
    with np.errstate(all="ignore"):
        lower = _cholesky_lo(a, signature="d->d")
    return ~np.isnan(np.diagonal(lower, axis1=-2, axis2=-1)).any(axis=-1)


def _newton(ys, ids, evaluate, max_iters, tol) -> tuple:
    """LM-regularized Riemannian Newton on independent problems stacked on
    axis 0 of ys (B, n, d, k), each with its own lambda.

    ``evaluate(ys, ids, perp)`` gives, for the problems ``ids`` at the
    bases ys, the values and the horizontal gradients (B, n, d, k); given
    the complements perp = Y_perp (B, n, d, d - k), the gradients g in the
    coordinates z of Delta_a = Y_a_perp Z_a (B, N) instead, with the
    Hessians H (B, N, N), as ``_ffp_core`` does.
    Problem r solves (H + lambda I) z = -g for lambda = mu_r ||g||, raising
    mu_r until Cholesky succeeds, and retracts Y_a + Y_a_perp Z_a by QR.
    The step is accepted when the value fell by at least ``LM_ACCEPT`` of
    the model's decrease -g.z - z.Hz/2 (More 1978), or when it stayed
    within ``FLAT_ULPS`` ulps and ||g|| at least halved.  A problem stops at
    the first of the ``STOP_REASONS``: ||g|| at most ``tol``, a relative
    decrease of at most ``STALL_RTOL`` over its last ``STALL_WINDOW``
    accepted steps, mu_r past ``LM_MU_MAX``, or ``max_iters`` accepted
    steps.

    The problems advance independently, in rounds: a round raises mu_r on
    every running problem until its H + lambda I factors, then evaluates
    all their trial steps, accepted or not, in one ``evaluate`` call.  So a
    batch makes as many Hessian evaluations as its slowest problem alone,
    and each problem sees the same operations as alone.  Every QR is made
    here: one ``_signed_qr`` gives the starts' complements, and one per
    round the trial points' bases and complements, so the cores factor
    nothing.  A start that already meets ``tol`` is not factored and builds
    no Hessian.  Returns per problem the final bases, the values after each
    accepted step, the gradient norm and the stop reason index.
    """
    count, n, d, k = ys.shape
    val, grad = evaluate(ys, ids, None)
    gnorm = np.sqrt((grad * grad).sum(axis=(1, 2, 3)))
    # index into STOP_REASONS, -1 while the problem runs
    stop = np.where(gnorm <= tol, 0, -1)
    active = np.flatnonzero(stop < 0)
    size = n * (d - k) * k
    g, hess = np.zeros((count, size)), np.zeros((count, size, size))
    perp = np.zeros((count, n, d, d - k))
    if active.size:
        perp[active] = _signed_qr(ys[active], complement=True)[1]
        _, g[active], hess[active] = evaluate(ys[active], ids[active], perp[active])
        gnorm[active] = np.sqrt((g[active] ** 2).sum(axis=1))
    mu = np.ones(count)
    shifted = np.empty_like(hess)     # H + lambda I of the round, once it factors
    iters = np.zeros(count, dtype=int)
    trails = [[v] for v in val]     # the values after each accepted step

    def raise_mu(rows):
        mu[rows] *= LM_FACTOR
        stop[rows[mu[rows] > LM_MU_MAX]] = 2

    while active.size:
        pending = active
        while pending.size:     # the diagonal of each matrix is a stride of size + 1
            shifted[pending] = hess[pending]
            shifted.reshape(count, -1)[pending, ::size + 1] += (mu * gnorm)[pending, None]
            factored = _positive_definite(shifted[pending])
            raise_mu(pending[~factored])
            pending = pending[~factored & (stop[pending] < 0)]
        rows = active[stop[active] < 0]
        if not rows.size:
            break
        z = -_solve(shifted[rows], g[rows][..., None], signature="dd->d")[..., 0]
        model = -(g[rows] * z).sum(axis=1) - 0.5 * np.einsum("ri,rij,rj->r", z, hess[rows], z)
        cand, cand_perp = _signed_qr(ys[rows] + perp[rows] @ z.reshape(-1, n, d - k, k), True)
        cand_val, cand_g, cand_hess = evaluate(cand, ids[rows], cand_perp)
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
        raise_mu(rows[~ok])
        iters[done] += 1
        for r in done.tolist():
            trails[r].append(val[r])
        stop[done[gnorm[done] <= tol]] = 0
        walked = done[iters[done] >= STALL_WINDOW]
        fell = np.array([trails[r][-1 - STALL_WINDOW] for r in walked.tolist()]) - val[walked]
        stop[walked[(fell <= STALL_RTOL * np.abs(val[walked])) & (gnorm[walked] > tol)]] = 1
        stop[done[(stop[done] < 0) & (iters[done] >= max_iters)]] = 3
        active = active[stop[active] < 0]
    return ys, [tuple(t) for t in trails], gnorm, stop


def _newton_chunks(ys, evaluate, tol) -> tuple:
    """``_newton`` on the problems of ys (R, n, d, k), at most ``MAX_ITERS``
    steps each, in chunks whose Hessians (N^2 entries a problem) and
    differentials (N d^2) hold at most ``GRAM_BUDGET`` entries (one problem
    at least); the outputs of the chunks joined in problem order."""
    count, n, d, k = ys.shape
    size = n * k * (d - k)
    chunk = max(1, GRAM_BUDGET // (size * max(size, d * d)))
    bases, histories, gnorm, stop = zip(*(
        _newton(ys[lo:lo + chunk], np.arange(lo, min(lo + chunk, count)), evaluate, MAX_ITERS, tol)
        for lo in range(0, count, chunk)))
    return np.concatenate(bases), sum(histories, []), np.concatenate(gnorm), np.concatenate(stop)


def minimize_ffp(cfg: OptimizerConfig, rng=None) -> OptimizerTrace:
    """Best-of-restarts Riemannian Newton (``_newton``), the restarts batched
    in chunks (``_newton_chunks``).  Success means the final potential sits
    within ``TARGET_MARGIN`` (relative) of the Haar moment lower bound;
    failure is a reported outcome, never an exception.  A later restart
    replaces the best only when lower by more than ``RESTART_RTOL`` of it.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    t_value = float(t_exact(cfg.k, cfg.k, cfg.d, cfg.p))
    # the starts of all restarts in one Haar draw, ``haar_basis_batch(d, k, R n,
    # rng)``: restart r gets its r-th block, so added restarts change no other
    ys = _signed_qr(rng.standard_normal((cfg.restarts, cfg.n, cfg.d, cfg.k)))
    weights = np.full(cfg.n, 1.0 / cfg.n)
    hessians = []     # whether each batched evaluation built Hessians

    def evaluate(ys, ids, perp):
        hessians.append(perp is not None)
        return _ffp_core(ys, weights, cfg.p, perp)

    bases, histories, gnorm, stop = _newton_chunks(ys, evaluate, TOL_GRAD)
    finals = [h[-1] for h in histories]
    idx = 0
    for r in range(1, cfg.restarts):
        if finals[r] < finals[idx] * (1.0 - RESTART_RTOL):
            idx = r
    values = tuple(float(v) for v in histories[idx])
    frame = WeightedFrame._from_stacks(
        cfg.d, [(np.arange(cfg.n), check_orthonormal(bases[idx]), np.full(cfg.n, 1.0 / cfg.n))])
    margin = (values[-1] - t_value) / t_value
    return OptimizerTrace(
        values=values,
        frame=frame,
        t_value=t_value,
        t_error=0.0,
        margin=margin,
        success=values[-1] <= t_value * (1.0 + TARGET_MARGIN),
        grad_norm=float(gnorm[idx]),
        restart_index=idx,
        restart_values=tuple(float(v) for v in finals),
        restart_stop_reasons=tuple(STOP_REASONS[c] for c in stop),
        hessian_evaluations=sum(hessians),
    )


# ---------------------------------------------------------------------------
# sphere extrema of the power form (numeric frame bounds)

@dataclass(frozen=True)
class SphereBounds:
    lo: float              # smallest value reached by the minimizing descents
    hi: float              # largest value reached by the maximizing descents
    stop_reasons: tuple    # the minimizing descents, then the maximizing ones


def sphere_bounds(frame: WeightedFrame, p: int, restarts: int = 32,
                  rng=None) -> SphereBounds:
    """Estimated min and max of the power form over the unit sphere, by
    Riemannian Newton runs (``_newton`` on lines, points of Gr(1, d)) down
    and up from each Haar-random start, all in one batch.  The gradient stop
    is sqrt(EPS) sum_j w_j, with sum_j w_j the largest value the form takes,
    so the bounds scale exactly with the weights.  Estimates only: no
    global certificate, but for certified tight frames both ends match the
    forced constant to high accuracy.
    """
    check_order(p)
    check_range("restarts", restarts, 1)
    if rng is None:
        rng = np.random.default_rng(0)
    d, weights = frame.ambient_dim, frame.weights
    check_newton_size(starts=2 * restarts * d, projector_rows=len(frame) * d * d)
    rows = np.empty((1, len(frame), d * d))
    for idx, bases, _ in frame.groups:
        rows[0, idx] = (bases @ bases.swapaxes(-1, -2)).reshape(len(idx), -1)
    x = rng.standard_normal((restarts, d))
    x /= np.sqrt((x * x).sum(axis=1, keepdims=True))
    sign = np.repeat([1.0, -1.0], restarts)   # descend on sign * f

    def evaluate(xs, ids, perp):
        out = _partner_core(xs, rows, (sign[ids, None] * weights)[:, None], p, perp)
        return out if perp is None else (*out[:2], out[2][:, 0])

    _, histories, _, stop = _newton_chunks(np.concatenate([x, x])[:, None, :, None], evaluate,
                                           np.sqrt(EPS) * weights.sum())
    f = sign * np.array([h[-1] for h in histories])
    return SphereBounds(lo=float(f[:restarts].min()), hi=float(f[restarts:].max()),
                        stop_reasons=tuple(STOP_REASONS[c] for c in stop))


def sphere_extrema(frame: WeightedFrame, p: int, restarts: int = 32,
                   rng=None) -> tuple:
    """(min, max) estimate of the power form over the unit sphere; the pair
    of ``sphere_bounds``."""
    bounds = sphere_bounds(frame, p, restarts, rng)
    return bounds.lo, bounds.hi
