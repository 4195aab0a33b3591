import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionframes import (
    MixedDimensions,
    OptimizerConfig,
    ParameterError,
    WeightedFrame,
    build_frame,
    catalog,
    certify_tight,
    equiangularity,
    evaluate_power_form,
    ffp,
    ffp_gradient,
    haar_basis_batch,
    haar_random,
    make_subspace,
    minimize_ffp,
    sphere_bounds,
    sphere_extrema,
    t_moment,
    union,
)
from fusionframes import optimizer
from fusionframes.optimizer import (
    ARMIJO_C,
    ARMIJO_SHRINK,
    EPS,
    SPHERE_MAX_ITERS,
    SPHERE_STEP,
    SPHERE_TOL,
    STALL_RTOL,
    STALL_WINDOW,
    STOP_REASONS,
    _descend,
    _ffp_core,
    _retract,
)


def test_config_validation():
    OptimizerConfig(n=3, k=1, d=2, p=2)
    for bad in (dict(n=0, k=1, d=2, p=1), dict(n=3, k=2, d=2, p=1),
                dict(n=3, k=1, d=2, p=0), dict(n=3, k=1, d=1, p=1),
                dict(n=2, k=1, d=2, p=1, restarts=0)):
        with pytest.raises(ParameterError):
            OptimizerConfig(**bad)


def test_config_refuses_non_integers():
    base = dict(n=3, k=1, d=2, p=2, restarts=2, max_iters=10)
    for field, value in base.items():
        for bad in (float(value), True):
            with pytest.raises(ParameterError, match="must be an integer"):
                OptimizerConfig(**{**base, field: bad})
    OptimizerConfig(**{field: np.int64(value) for field, value in base.items()})


def test_gradient_zero_at_tight_configs(mercedes, ortho_lines_r2):
    # both critical points of the pair potential at normalized weights
    for frame, p in ((mercedes.normalized(), 2), (ortho_lines_r2, 1)):
        g = ffp_gradient(frame, p)
        assert max(np.abs(gi).max() for gi in g) < 1e-8


def test_gradient_orthogonal_lines_exact():
    f = build_frame([make_subspace(np.eye(2)[:, :1]),
                     make_subspace(np.eye(2)[:, 1:])], [1.0, 1.0])
    g = ffp_gradient(f, 1)
    for gi in g:
        assert np.abs(gi).max() == 0.0


def test_gradient_mixed_dims_rejected(mercedes, mub_planes):
    mixed = union(mercedes, catalog("equispaced-lines(4)"))
    assert mixed.ambient_dim == 2
    with pytest.raises(MixedDimensions):
        ffp_gradient(union(mub_planes,
                           build_frame([make_subspace(np.eye(4)[:, :1])], [1.0])), 2)
    del mixed


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d))
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        ys = haar_basis_batch(d, k, n, rng)
        frame = build_frame([make_subspace(y) for y in ys], np.ones(n) / n)
        grads = ffp_gradient(frame, p)
        e_raw = rng.standard_normal((n, d, k))
        # move along the horizontal space so the FD quotient sees the
        # same direction the projected gradient lives in
        dirs = np.stack([e - y @ (y.T @ e) for e, y in zip(e_raw, ys)])
        dirs /= np.sqrt((dirs ** 2).sum())
        inner = sum(float((g * e).sum()) for g, e in zip(grads, dirs))
        h = 1e-6

        def value(t):
            subs = [make_subspace(np.linalg.qr(y + t * e)[0])
                    for y, e in zip(ys, dirs)]
            return ffp(build_frame(subs, frame.weights), p)

        fd = (value(h) - value(-h)) / (2 * h)
        assert abs(fd - inner) <= 1e-6 * max(1.0, abs(inner))


def _second_difference(ys, weights, p, delta):
    """d^2/dt^2 of the potential along the QR retraction of t delta at 0,
    Richardson-extrapolated central differences (error O(h^4))."""
    def value(t):
        return _ffp_core(_retract(ys, t * delta), weights, p)[0][0]

    def second(h):
        return (value(h) - 2 * value(0.0) + value(-h)) / h ** 2
    return (4 * second(5e-4) - second(1e-3)) / 3


def test_hessian_matches_second_differences(rng):
    # span(Y + t Delta) is a second-order retraction on the Grassmannian, so
    # the second difference is z^T H z at any point, critical or not
    for _ in range(24):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, d))
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 5))
        weights = rng.uniform(0.5, 2.0, n)
        weights /= weights.sum()
        ys = haar_basis_batch(d, k, n, rng)[None]
        _, grad, hess, perp = _ffp_core(ys, weights, p, hessian=True)
        assert hess.shape == (1, n * k * (d - k), n * k * (d - k))
        scale = max(1.0, np.abs(hess).max())
        assert np.abs(hess - np.swapaxes(hess, -1, -2)).max() <= 1e-13 * scale
        # the coordinates of the gradient carry all of it
        coords = np.swapaxes(perp, -1, -2) @ grad
        assert np.abs(perp @ coords - grad).max() <= 1e-13 * max(1.0, np.abs(grad).max())
        z = rng.standard_normal(hess.shape[-1])
        z /= np.sqrt(z @ z)
        delta = perp @ z.reshape(1, n, d - k, k)
        quad = float(z @ hess[0] @ z)
        assert _second_difference(ys, weights, p, delta) == pytest.approx(quad, rel=1e-6, abs=1e-6)


def test_hessian_finite_on_orthogonal_members(ortho_lines_r2):
    # s = 0 for the pair: s^(p-2) is inf at p = 1, where its term is skipped
    ys = np.stack([s.basis for s in ortho_lines_r2.subspaces])[None]
    weights = ortho_lines_r2.weights
    for p in (1, 2):
        _, grad, hess, perp = _ffp_core(ys, weights, p, hessian=True)
        assert np.isfinite(hess).all() and np.abs(grad).max() == 0.0
        for z in np.eye(2):
            delta = perp @ z.reshape(1, 2, 1, 1)
            assert _second_difference(ys, weights, p, delta) == pytest.approx(
                z @ hess[0] @ z, abs=1e-7)


def test_newton_stops_by_gradient_on_degenerate_minima():
    # every minimum of (5, 2, 4, 1) lies on a manifold of tight frames, where
    # the first-order descent once crawled thousands of steps
    for seed in range(16):
        trace = minimize_ffp(OptimizerConfig(n=5, k=2, d=4, p=1, max_iters=50),
                             rng=np.random.default_rng(seed))
        assert set(trace.restart_stop_reasons) == {"gradient"}, seed
    # an unreachable floor: restarts stop at local minima, not by the count
    for seed in range(4):
        trace = minimize_ffp(OptimizerConfig(n=6, k=2, d=4, p=2, restarts=4),
                             rng=np.random.default_rng(seed))
        assert "max-iters" not in trace.restart_stop_reasons, seed
        assert not trace.success


@pytest.mark.parametrize("n,k,d,p", [(3, 1, 2, 2), (4, 1, 2, 3), (6, 1, 3, 2), (5, 2, 4, 1)])
def test_optimizer_output_certifies_tight(n, k, d, p):
    # the frames reach the floor to rounding, so they certify at the default 1e-9
    for seed in range(16):
        trace = minimize_ffp(OptimizerConfig(n=n, k=k, d=d, p=p),
                             rng=np.random.default_rng(seed))
        assert trace.success
        assert certify_tight(trace.frame, p).residual <= 1e-9, seed


def test_restart_chunks_do_not_couple(monkeypatch):
    cfg = OptimizerConfig(n=4, k=2, d=4, p=2, restarts=5, max_iters=300)
    whole = minimize_ffp(cfg, rng=np.random.default_rng(3))
    monkeypatch.setattr(optimizer, "GRAM_BUDGET", 1)    # one restart per chunk
    split = minimize_ffp(cfg, rng=np.random.default_rng(3))
    assert np.allclose(split.restart_values, whole.restart_values, rtol=1e-12, atol=0.0)
    assert split.restart_stop_reasons == whole.restart_stop_reasons
    assert split.values == pytest.approx(whole.values, rel=1e-12)


def test_minimize_three_lines_in_plane():
    cfg = OptimizerConfig(n=3, k=1, d=2, p=2, restarts=4)
    trace = minimize_ffp(cfg, rng=np.random.default_rng(0))
    assert trace.success
    assert trace.margin < 1e-6
    assert all(b <= a + 1e-12 for a, b in zip(trace.values, trace.values[1:]))
    rep = equiangularity(trace.frame.normalized())
    assert rep.is_equiangular
    assert rep.common_value == pytest.approx(0.25, abs=1e-5)
    assert certify_tight(trace.frame, 2, tol=1e-6).tight


def test_minimize_two_lines_cannot_reach_bound():
    cfg = OptimizerConfig(n=2, k=1, d=2, p=2, restarts=4)
    trace = minimize_ffp(cfg, rng=np.random.default_rng(0))
    assert not trace.success
    # two unit-weight lines bottom out at orthogonality, above the moment value
    assert trace.final_value == pytest.approx(0.5, abs=1e-8)
    assert trace.t_value == pytest.approx(t_moment(1, 1, 2, 2).value)
    assert all(b <= a + 1e-12 for a, b in zip(trace.values, trace.values[1:]))


def test_minimize_never_beats_moment_floor():
    # averaging argument: no normalized configuration dips below the moment
    for seed in range(4):
        cfg = OptimizerConfig(n=4, k=2, d=4, p=2, restarts=2, max_iters=800)
        trace = minimize_ffp(cfg, rng=np.random.default_rng(seed))
        assert trace.t_value == 10 / 9 and trace.t_error == 0.0
        floor = trace.t_value - 1e-12
        assert min(trace.values) >= floor


def test_trace_bookkeeping():
    cfg = OptimizerConfig(n=3, k=1, d=3, p=1, restarts=3)
    trace = minimize_ffp(cfg, rng=np.random.default_rng(1))
    assert 0 <= trace.restart_index < 3
    assert len(trace.restart_values) == 3
    assert trace.final_value == trace.values[-1]
    assert min(trace.restart_values) == pytest.approx(trace.final_value)
    assert trace.grad_norm >= 0.0
    assert len(trace.restart_stop_reasons) == 3
    assert set(trace.restart_stop_reasons) <= set(STOP_REASONS)


# small configs, among them an unreachable floor and a degenerate p = 1
COUPLING_CASES = ((3, 1, 2, 2), (4, 1, 3, 1), (4, 2, 4, 2), (5, 1, 3, 3))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(COUPLING_CASES), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_restarts_do_not_couple(case, restarts, more, seed):
    # the first child seeds agree, so a restart must not see the others
    n, k, d, p = case
    runs = [minimize_ffp(OptimizerConfig(n=n, k=k, d=d, p=p, restarts=r, max_iters=300),
                         rng=np.random.default_rng(seed))
            for r in (restarts, restarts + more)]
    few, many = (np.array(t.restart_values) for t in runs)
    assert np.allclose(many[:restarts], few, rtol=1e-12, atol=0.0)
    assert runs[1].restart_stop_reasons[:restarts] == runs[0].restart_stop_reasons


def test_criterion_nine_config_stops_before_max_iters():
    # restarts that once crawled 5000 zero-progress steps now stop early
    for seed in range(16):
        trace = minimize_ffp(OptimizerConfig(n=3, k=1, d=2, p=2),
                             rng=np.random.default_rng(seed))
        assert "max-iters" not in trace.restart_stop_reasons, seed


def test_line_search_stops_where_rounding_hides_the_decrease():
    # f = 1 + a |x|^2: at a = 1e-7 the Armijo decrease of the first step,
    # ARMIJO_C SPHERE_STEP |g|^2 = 8e-19, is below one ulp of f, so the row
    # stops without a trial; at a = 1e-3 it descends
    calls = []

    def value_grad(x, rows):
        calls.append(rows.tolist())
        scale = np.array([1e-7, 1e-3])[rows, None]
        return 1.0 + (scale * x * x).sum(axis=1), 2 * scale * x

    def retract(x, g, step):
        return x - step[:, None] * g

    _, _, _, stop, iters = _descend(np.ones((2, 2)), value_grad, retract,
                                    SPHERE_STEP, 5, 1e-30)
    assert stop[0] == STOP_REASONS.index("step-underflow") and iters[0] == 0
    assert all(0 not in rows for rows in calls[1:]) and len(calls) > 1
    assert iters[1] > 0


def test_sphere_extrema_examples(mercedes, ortho_lines_r2):
    rng = np.random.default_rng(0)
    lo, hi = sphere_extrema(ortho_lines_r2, 2, restarts=8, rng=rng)
    assert lo == pytest.approx(0.5, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)
    lo, hi = sphere_extrema(mercedes, 2, restarts=8, rng=rng)
    assert lo == pytest.approx(9 / 8, abs=1e-8)
    assert hi == pytest.approx(9 / 8, abs=1e-8)
    single = build_frame([make_subspace(np.eye(2)[:, :1])], [1.0])
    lo, hi = sphere_extrema(single, 1, restarts=8, rng=rng)
    assert lo == pytest.approx(0.0, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)


def test_sphere_extrema_ordered(rng):
    for _ in range(5):
        ys = haar_basis_batch(3, 1, 3, rng)
        frame = build_frame([make_subspace(y) for y in ys],
                            rng.uniform(0.5, 1.5, size=3))
        lo, hi = sphere_extrema(frame, 2, restarts=8, rng=rng)
        assert lo <= hi + 1e-12


def test_sphere_extrema_more_starts_never_worse(rng):
    # the first four starts of an 8-start run are those of a 4-start run
    for p in (1, 2, 3):
        frame = _mixed_frame(rng, 4)
        seed = int(rng.integers(2 ** 32))
        lo4, hi4 = sphere_extrema(frame, p, restarts=4, rng=np.random.default_rng(seed))
        lo8, hi8 = sphere_extrema(frame, p, restarts=8, rng=np.random.default_rng(seed))
        assert lo8 <= lo4 and hi8 >= hi4


def test_sphere_bounds_stop_reasons(mercedes):
    bounds = sphere_bounds(mercedes, 3, restarts=5, rng=np.random.default_rng(2))
    assert len(bounds.stop_reasons) == 10
    assert set(bounds.stop_reasons) <= set(STOP_REASONS) - {"max-iters"}
    assert (bounds.lo, bounds.hi) == sphere_extrema(mercedes, 3, restarts=5,
                                                    rng=np.random.default_rng(2))
    with pytest.raises(ParameterError):
        sphere_bounds(mercedes, 2, restarts=0)


def _mixed_frame(rng, d):
    dims = (1, d - 1, 2, 1)
    return WeightedFrame(d, tuple((haar_random(d, k, rng), float(rng.uniform(0.5, 2.0)))
                                  for k in dims))


def _reference_descent(frame, p, x, sign):
    """One start at a time, one member at a time, by the descent's rules."""
    def value_grad(y):
        grad = np.zeros_like(y)
        for sub, w in frame.entries:
            by = sub.basis.T @ y
            grad += 2 * p * w * float(by @ by) ** (p - 1) * (sub.basis @ by)
        grad = sign * grad
        return sign * evaluate_power_form(frame, p, y)[0], grad - (grad @ y) * y

    value, grad = value_grad(x)
    history, step = [value], SPHERE_STEP
    for it in range(1, SPHERE_MAX_ITERS + 1):
        gnorm = np.sqrt(grad @ grad)
        if gnorm <= SPHERE_TOL:
            break
        # below this no strict decrease can be verified
        while ARMIJO_C * step * gnorm ** 2 > EPS * abs(value):
            cand = x - step * grad
            cand /= np.sqrt(cand @ cand)
            cand_value, cand_grad = value_grad(cand)
            if cand_value < value and cand_value <= value - ARMIJO_C * step * gnorm ** 2:
                break
            step *= ARMIJO_SHRINK
        else:
            break
        x, value, grad, step = cand, cand_value, cand_grad, 2 * step
        history.append(value)
        if it >= STALL_WINDOW and history[-1 - STALL_WINDOW] - value <= STALL_RTOL * abs(value):
            break
    return sign * value


def test_sphere_extrema_mixed_dims_match_per_member_reference(rng):
    for d, p in ((3, 2), (4, 2), (4, 3)):
        frame = _mixed_frame(rng, d)
        seed = int(rng.integers(2 ** 32))
        lo, hi = sphere_extrema(frame, p, restarts=4, rng=np.random.default_rng(seed))
        starts = np.random.default_rng(seed).standard_normal((4, d))
        starts /= np.sqrt((starts ** 2).sum(axis=1, keepdims=True))
        ref_lo = min(_reference_descent(frame, p, x, 1.0) for x in starts)
        ref_hi = max(_reference_descent(frame, p, x, -1.0) for x in starts)
        assert lo == pytest.approx(ref_lo, rel=1e-10)
        assert hi == pytest.approx(ref_hi, rel=1e-10)
