import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionframes import (
    MixedDimensions,
    OptimizerConfig,
    ParameterError,
    SizeGuardExceeded,
    build_frame,
    catalog,
    certify_cubature,
    certify_tight,
    equiangularity,
    evaluate_power_form,
    ffp,
    ffp_gradient,
    frame_operator,
    haar_basis_batch,
    minimize_ffp,
    sphere_bounds,
    sphere_extrema,
    t_exact,
    union,
)
from fusionframes import optimizer
from fusionframes.optimizer import STOP_REASONS, _ffp_core, _partner_core
from fusionframes.subspaces import _signed_qr


def test_config_validation():
    OptimizerConfig(n=3, k=1, d=2, p=2)
    for bad in (dict(n=0, k=1, d=2, p=1), dict(n=3, k=2, d=2, p=1),
                dict(n=3, k=1, d=2, p=0), dict(n=3, k=1, d=1, p=1),
                dict(n=2, k=1, d=2, p=1, restarts=0)):
        with pytest.raises(ParameterError):
            OptimizerConfig(**bad)


def test_config_refuses_non_integers():
    base = dict(n=3, k=1, d=2, p=2, restarts=2)
    for field, value in base.items():
        for bad in (float(value), True):
            with pytest.raises(ParameterError, match="must be an integer"):
                OptimizerConfig(**{**base, field: bad})
    OptimizerConfig(**{field: np.int64(value) for field, value in base.items()})


def test_newton_size_guard(mercedes):
    # the largest problem the README times passes; a 51 GB Hessian, 10^8
    # restarts, 2 x 10^9 sphere starts and 2.7 x 10^7 projector entries do not
    OptimizerConfig(n=400, k=1, d=10, p=2)
    for bad in (dict(n=200, k=20, d=40, p=2), dict(n=3, k=1, d=2, p=2, restarts=10 ** 8)):
        with pytest.raises(SizeGuardExceeded):
            OptimizerConfig(**bad)
    with pytest.raises(SizeGuardExceeded):
        sphere_bounds(mercedes, 2, restarts=10 ** 9)
    with pytest.raises(SizeGuardExceeded):
        sphere_bounds(catalog("cross-polytope-lines(300)"), 2, restarts=1)


def test_gradient_zero_at_tight_configs(mercedes, ortho_lines_r2):
    # both critical points of the pair potential at normalized weights
    for frame, p in ((mercedes.normalized(), 2), (ortho_lines_r2, 1)):
        g = ffp_gradient(frame, p)
        assert max(np.abs(gi).max() for gi in g) < 1e-8


def test_gradient_orthogonal_lines_exact():
    f = build_frame([np.eye(2)[:, :1], np.eye(2)[:, 1:]], [1.0, 1.0])
    g = ffp_gradient(f, 1)
    for gi in g:
        assert np.abs(gi).max() == 0.0


def test_gradient_mixed_dims_rejected(mercedes, mub_planes):
    mixed = union(mercedes, catalog("equispaced-lines(4)"))
    assert mixed.ambient_dim == 2
    with pytest.raises(MixedDimensions):
        ffp_gradient(union(mub_planes,
                           build_frame([np.eye(4)[:, :1]], [1.0])), 2)
    del mixed


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d))
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        ys = haar_basis_batch(d, k, n, rng)
        frame = build_frame(ys, np.ones(n) / n)
        grads = ffp_gradient(frame, p)
        e_raw = rng.standard_normal((n, d, k))
        # move along the horizontal space so the FD quotient sees the
        # same direction the projected gradient lives in
        dirs = np.stack([e - y @ (y.T @ e) for e, y in zip(e_raw, ys)])
        dirs /= np.sqrt((dirs ** 2).sum())
        inner = sum(float((g * e).sum()) for g, e in zip(grads, dirs))
        h = 1e-6

        def value(t):
            moved = [np.linalg.qr(y + t * e)[0] for y, e in zip(ys, dirs)]
            return ffp(build_frame(moved, frame.weights), p)

        fd = (value(h) - value(-h)) / (2 * h)
        assert abs(fd - inner) <= 1e-6 * max(1.0, abs(inner))


def _second_difference(value):
    """d^2/dt^2 of value(t) at 0, Richardson-extrapolated central
    differences (error O(h^4))."""
    def second(h):
        return (value(h) - 2 * value(0.0) + value(-h)) / h ** 2
    return (4 * second(5e-4) - second(1e-3)) / 3


def _ffp_along(ys, weights, p, delta):
    """The potential along the QR retraction of t delta."""
    return lambda t: _ffp_core(_signed_qr(ys + t * delta), weights, p)[0][0]


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
        perp = _signed_qr(ys, complement=True)[1]
        _, coords, hess = _ffp_core(ys, weights, p, perp)
        grad = _ffp_core(ys, weights, p)[1]
        assert hess.shape == (1, n * k * (d - k), n * k * (d - k))
        scale = max(1.0, np.abs(hess).max())
        assert np.abs(hess - np.swapaxes(hess, -1, -2)).max() <= 1e-13 * scale
        # the coordinates of the gradient carry all of it
        coords = coords.reshape(1, n, d - k, k)
        assert np.abs(perp @ coords - grad).max() <= 1e-13 * max(1.0, np.abs(grad).max())
        z = rng.standard_normal(hess.shape[-1])
        z /= np.sqrt(z @ z)
        delta = perp @ z.reshape(1, n, d - k, k)
        quad = float(z @ hess[0] @ z)
        assert _second_difference(_ffp_along(ys, weights, p, delta)) == pytest.approx(
            quad, rel=1e-6, abs=1e-6)


def test_hessian_finite_on_orthogonal_members(ortho_lines_r2):
    # s = 0 for the pair: s^(p-2) is inf at p = 1, where its term is skipped
    ys = ortho_lines_r2.stacks[0][0][None]
    weights = ortho_lines_r2.weights
    perp = _signed_qr(ys, complement=True)[1]
    for p in (1, 2):
        _, grad, hess = _ffp_core(ys, weights, p, perp)
        assert np.isfinite(hess).all() and np.abs(grad).max() == 0.0
        for z in np.eye(2):
            delta = perp @ z.reshape(1, 2, 1, 1)
            assert _second_difference(_ffp_along(ys, weights, p, delta)) == pytest.approx(
                z @ hess[0] @ z, abs=1e-7)


def _hessian_by_blocks(ys, weights, p, perp):
    """The Hessian of one frame from the block formulas of the docstrings of
    ``_partner_core`` (blocks a = b) and ``_ffp_core`` (a != b), pair by
    pair, in the coordinates of the given complements."""
    n, d, k = ys.shape
    c = d - k
    h = np.zeros((n, c, k, n, c, k))
    for a in range(n):
        pull = np.zeros((k, k))     # Y_a^T grad_a, Euclidean gradient
        for b in range(n):
            if b == a:
                continue
            m = ys[a].T @ ys[b]
            s = (m * m).sum()
            pb = ys[b] @ ys[b].T
            first = 2 * weights[a] * weights[b] * 2 * p * s ** (p - 1)
            t1 = np.einsum("iy,jx->ixjy", perp[a].T @ ys[b], perp[b].T @ ys[a])
            t2 = np.einsum("ij,xy->ixjy", perp[a].T @ perp[b], m)
            h[a, :, :, b] += first * (t1 + t2)
            h[a, :, :, a] += first * np.einsum("ij,xy->ixjy", perp[a].T @ pb @ perp[a], np.eye(k))
            if p > 1:
                second = 2 * weights[a] * weights[b] * 4 * p * (p - 1) * s ** (p - 2)
                g_ab = perp[a].T @ pb @ ys[a]
                g_ba = perp[b].T @ ys[a] @ ys[a].T @ ys[b]
                h[a, :, :, b] += second * np.einsum("ix,jy->ixjy", g_ab, g_ba)
                h[a, :, :, a] += second * np.einsum("ix,jy->ixjy", g_ab, g_ab)
            pull += first * ys[a].T @ pb @ ys[a]
        h[a, :, :, a] -= np.einsum("ij,yx->ixjy", np.eye(c), pull)
    return h.reshape(n * c * k, n * c * k)


def test_hessian_matches_block_formulas(rng):
    # k = 1 and d - k = 1 among the shapes, p = 1..3, several restarts at once
    cases = [(3, 1, 2, 1), (4, 1, 2, 3), (3, 1, 3, 2), (4, 2, 3, 1), (3, 2, 3, 3),
             (5, 2, 4, 2), (3, 2, 5, 3), (2, 3, 5, 2), (4, 1, 4, 3)]
    for i, (n, k, d, p) in enumerate(cases):
        count = 1 + i % 3
        weights = rng.uniform(0.5, 2.0, n)
        ys = np.stack([haar_basis_batch(d, k, n, rng) for _ in range(count)])
        perp = _signed_qr(ys, complement=True)[1]
        hess = _ffp_core(ys, weights, p, perp)[2]
        for r in range(count):
            ref = _hessian_by_blocks(ys[r], weights, p, perp[r])
            assert np.abs(hess[r] - ref).max() <= 1e-13 * np.abs(ref).max(), (n, k, d, p, r)


def test_positive_definite_agrees_with_cholesky_row_by_row(rng):
    # ties the batched kernel's NaN fill to the public np.linalg.cholesky
    def spd():
        x = rng.standard_normal((size, size))
        return x @ x.T + size * np.eye(size)

    def indefinite():       # positive diagonal, a negative 2 x 2 minor
        a = spd()
        a[0, 1] = a[1, 0] = 1.5 * np.sqrt(a[0, 0] * a[1, 1])
        return a

    def singular():         # rank size - 2: Cholesky may succeed or fail by rounding
        x = rng.standard_normal((size, size - 2))
        return x @ x.T

    def bad_diagonal():
        a = spd()
        i = rng.integers(size)
        a[i, i] = -a[i, i] if rng.random() < 0.5 else 0.0
        return a

    def nan_off_diagonal():
        a = spd()
        i, j = rng.choice(size, 2, replace=False)
        a[i, j] = a[j, i] = np.nan
        return a

    def inf_diagonal():
        a = spd()
        i = rng.integers(size)
        a[i, i] = np.inf
        return a

    def factors(a):         # OpenBLAS passes a NaN entry on to the factor's diagonal
        try:
            return not np.isnan(np.diagonal(np.linalg.cholesky(a))).any()
        except np.linalg.LinAlgError:
            return False

    makers = (spd, indefinite, singular, bad_diagonal, nan_off_diagonal, inf_diagonal)
    for size in (6, 40):
        for _ in range(20):
            stack = np.stack([makers[i]() for i in rng.integers(0, len(makers),
                                                                 rng.integers(1, 9))])
            got = optimizer._positive_definite(stack)
            assert got.tolist() == [factors(a) for a in stack]
        assert not optimizer._positive_definite(indefinite()[None])[0]


def test_positive_definite_factors_a_good_stack_once(rng, monkeypatch):
    # one batched factorization per stack, whichever rows fail
    calls = []
    kernel = optimizer._cholesky_lo

    def counting(a, **kwargs):
        calls.append(a.shape)
        return kernel(a, **kwargs)

    monkeypatch.setattr(optimizer, "_cholesky_lo", counting)
    good = np.stack([x @ x.T + 4 * np.eye(4) for x in rng.standard_normal((5, 4, 4))])
    bad = good.copy()
    bad[:, 1, 1] = -1.0
    mixed = np.concatenate([bad[:2], good[:3], bad[2:]])
    for stack, expected in ((good, [True] * 5), (bad, [False] * 5),
                            (mixed, [False] * 2 + [True] * 3 + [False] * 3)):
        calls.clear()
        assert optimizer._positive_definite(stack).tolist() == expected
        assert calls == [stack.shape]


def test_trace_counts_hessian_evaluations(monkeypatch):
    calls = []

    def counting(ys, weights, p, perp=None, core=_ffp_core):
        calls.append(perp is not None)
        return core(ys, weights, p, perp)

    monkeypatch.setattr(optimizer, "_ffp_core", counting)
    for n, k, d, p in ((3, 1, 2, 2), (6, 1, 3, 2), (5, 2, 4, 1)):
        calls.clear()
        trace = minimize_ffp(OptimizerConfig(n=n, k=k, d=d, p=p, restarts=4))
        assert trace.hessian_evaluations == sum(calls) > 0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n,k,d,p", [(3, 1, 2, 2), (6, 1, 3, 2), (5, 2, 4, 1), (4, 2, 4, 2)])
def test_batch_costs_its_slowest_problem(n, k, d, p, seed):
    # the problems advance independently: the batch makes as many Hessian
    # evaluations as its slowest problem alone, and each ends as alone
    rng = np.random.default_rng(seed)
    weights = np.full(n, 1.0 / n)
    starts = np.stack([haar_basis_batch(d, k, n, rng) for _ in range(8)])
    calls = []

    def evaluate(ys, ids, perp):
        calls.append(perp is not None)
        return _ffp_core(ys, weights, p, perp)

    def run(lo, hi, max_iters):
        calls.clear()
        out = optimizer._newton(starts[lo:hi].copy(), np.arange(lo, hi), evaluate, max_iters, 1e-11)
        return out, sum(calls)

    # a step count of 3 stops most problems by `max-iters`, counted per problem
    for max_iters in (3, 5000):
        (bases, trails, gnorm, stop), cost = run(0, 8, max_iters)
        alone = [run(r, r + 1, max_iters) for r in range(8)]
        assert cost == max(c for _, c in alone)
        assert all(len(t) == max_iters + 1 for t, s in zip(trails, stop) if s == 3)
        for r, ((b, t, g, s), _) in enumerate(alone):
            assert bases[r].tobytes() == b[0].tobytes() and trails[r] == t[0]
            assert gnorm[r] == g[0] and stop[r] == s[0]


def test_newton_stops_by_gradient_on_degenerate_minima(monkeypatch):
    # every minimum of (5, 2, 4, 1) lies on a manifold of tight frames, where
    # the first-order descent once crawled thousands of steps; 50 steps
    # would catch a crawl
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "MAX_ITERS", 50)
        for seed in range(16):
            trace = minimize_ffp(OptimizerConfig(n=5, k=2, d=4, p=1),
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
    # the frames reach the floor to rounding, so they certify at the default
    # 1e-9, as tight frames and as cubatures, with room to spare for the latter
    for seed in range(16):
        trace = minimize_ffp(OptimizerConfig(n=n, k=k, d=d, p=p),
                             rng=np.random.default_rng(seed))
        assert trace.success
        assert certify_tight(trace.frame, p).residual <= 1e-9, seed
        if seed < 8:
            assert certify_cubature(trace.frame, p).residual <= 1e-10, seed


def test_restart_chunks_do_not_couple(monkeypatch):
    cfg = OptimizerConfig(n=4, k=2, d=4, p=2, restarts=5)
    whole = minimize_ffp(cfg, rng=np.random.default_rng(3))
    frame = catalog("mercedes")
    whole_bounds = sphere_bounds(frame, 3, restarts=3, rng=np.random.default_rng(3))
    monkeypatch.setattr(optimizer, "GRAM_BUDGET", 1)    # one restart per chunk
    split = minimize_ffp(cfg, rng=np.random.default_rng(3))
    assert np.allclose(split.restart_values, whole.restart_values, rtol=1e-12, atol=0.0)
    assert split.restart_stop_reasons == whole.restart_stop_reasons
    assert split.values == pytest.approx(whole.values, rel=1e-12)
    assert sphere_bounds(frame, 3, restarts=3, rng=np.random.default_rng(3)) == whole_bounds


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
    assert trace.t_value == pytest.approx(float(t_exact(1, 1, 2, 2)))
    assert all(b <= a + 1e-12 for a, b in zip(trace.values, trace.values[1:]))


def test_minimize_never_beats_moment_floor():
    # averaging argument: no normalized configuration dips below the moment
    for seed in range(4):
        cfg = OptimizerConfig(n=4, k=2, d=4, p=2, restarts=2)
        trace = minimize_ffp(cfg, rng=np.random.default_rng(seed))
        assert trace.t_value == 10 / 9 and trace.t_error == 0.0
        floor = trace.t_value - 1e-12
        assert min(trace.values) >= floor


def test_optimizer_frame_matches_per_member_construction(assert_same_frame, regroup):
    for n, k, d, p in ((3, 1, 2, 2), (6, 2, 4, 2)):
        cfg = OptimizerConfig(n=n, k=k, d=d, p=p, restarts=4)
        for seed in range(4):
            frame = minimize_ffp(cfg, rng=np.random.default_rng(seed)).frame
            (bases, weights), = frame.stacks
            assert weights.tolist() == [1.0 / n] * n
            assert_same_frame(frame, regroup(list(bases), [1.0 / n] * n))


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


def test_best_restart_must_win_by_more_than_1e_10(monkeypatch):
    # restart 2 ends below restart 1 by 1e-11 of its value, within the
    # relative tie margin, so the earlier restart is kept at every scale; at
    # 1e12 an absolute margin of 1e-10 is below one ulp and kept nothing
    newton_chunks = optimizer._newton_chunks
    for scale in (1.0, 1e12):
        finals = tuple(scale * v for v in (3.0, 1.0, 1.0 - 1e-11, 2.0))

        def fixed_finals(ys, evaluate, tol):
            bases, _, gnorm, stop = newton_chunks(ys, evaluate, tol)
            return bases, [(5.0 * scale, v) for v in finals], gnorm, stop

        monkeypatch.setattr(optimizer, "_newton_chunks", fixed_finals)
        trace = minimize_ffp(OptimizerConfig(n=3, k=1, d=2, p=2, restarts=4),
                             rng=np.random.default_rng(0))
        assert trace.restart_index == 1, scale
        assert trace.values == (5.0 * scale, scale) and trace.restart_values == finals


def test_newton_stops_when_no_shift_factors():
    # a NaN Hessian never factors, however large lambda: mu passes LM_MU_MAX
    # on every problem, and each stops by `step-underflow` before a step
    rng = np.random.default_rng(4)
    weights = np.full(4, 0.25)
    starts = np.stack([haar_basis_batch(3, 1, 4, rng) for _ in range(3)])

    def evaluate(ys, ids, perp):
        out = _ffp_core(ys, weights, 2, perp)
        return out[:2] + (np.full_like(out[2], np.nan),) if perp is not None else out

    bases, trails, _, stop = optimizer._newton(starts.copy(), np.arange(3), evaluate,
                                               optimizer.MAX_ITERS, 1e-11)
    assert [STOP_REASONS[c] for c in stop] == ["step-underflow"] * 3
    assert all(len(t) == 1 for t in trails)
    assert np.array_equal(bases, starts)


# small configs, among them an unreachable floor and a degenerate p = 1
COUPLING_CASES = ((3, 1, 2, 2), (4, 1, 3, 1), (4, 2, 4, 2), (5, 1, 3, 3))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(COUPLING_CASES), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_restarts_do_not_couple(case, restarts, more, seed):
    # the first child seeds agree, so a restart must not see the others
    n, k, d, p = case
    runs = [minimize_ffp(OptimizerConfig(n=n, k=k, d=d, p=p, restarts=r),
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


def test_sphere_extrema_examples(mercedes, ortho_lines_r2):
    rng = np.random.default_rng(0)
    lo, hi = sphere_extrema(ortho_lines_r2, 2, restarts=8, rng=rng)
    assert lo == pytest.approx(0.5, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)
    lo, hi = sphere_extrema(mercedes, 2, restarts=8, rng=rng)
    assert lo == pytest.approx(9 / 8, abs=1e-8)
    assert hi == pytest.approx(9 / 8, abs=1e-8)
    single = build_frame([np.eye(2)[:, :1]], [1.0])
    lo, hi = sphere_extrema(single, 1, restarts=8, rng=rng)
    assert lo == pytest.approx(0.0, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)


def test_sphere_extrema_ordered(rng):
    for _ in range(5):
        ys = haar_basis_batch(3, 1, 3, rng)
        frame = build_frame(ys, rng.uniform(0.5, 1.5, size=3))
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


def test_sphere_restarts_must_be_integers(mercedes):
    # True and 2.5 once reached numpy and raised a bare TypeError
    for bad in (True, 2.5, 2.0):
        with pytest.raises(ParameterError, match="restarts must be an integer"):
            sphere_bounds(mercedes, 2, restarts=bad)
    assert len(sphere_bounds(mercedes, 2, restarts=np.int64(2)).stop_reasons) == 4


def test_starts_within_tol_build_no_hessian(mercedes, monkeypatch):
    # the power form of a tight frame is constant on the sphere
    calls = []
    core = optimizer._partner_core

    def counting(xs, rows, coef, p, perp=None):
        calls.append(perp is not None)
        return core(xs, rows, coef, p, perp)

    monkeypatch.setattr(optimizer, "_partner_core", counting)
    bounds = sphere_bounds(mercedes, 2, restarts=4, rng=np.random.default_rng(0))
    assert set(bounds.stop_reasons) == {"gradient"} and calls == [False]


def test_newton_factors_the_starts_once_and_each_round_once(monkeypatch):
    # after the Haar draw, one QR with complements for the starts and one per
    # round of trial points: each is followed by one Hessian evaluation
    calls = []
    signed_qr = optimizer._signed_qr

    def counting(a, complement=False):
        calls.append(complement)
        return signed_qr(a, complement)

    monkeypatch.setattr(optimizer, "_signed_qr", counting)
    for n, k, d, p in ((3, 1, 2, 2), (6, 1, 3, 2), (5, 2, 4, 1)):
        calls.clear()
        trace = minimize_ffp(OptimizerConfig(n=n, k=k, d=d, p=p, restarts=4))
        assert trace.hessian_evaluations > 1
        assert calls == [False] + [True] * trace.hessian_evaluations


def test_cores_factor_nothing(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("a core factored a matrix")

    ys = np.stack([haar_basis_batch(4, 2, 5, rng) for _ in range(3)])
    perp = _signed_qr(ys, complement=True)[1]
    frame = _mixed_frame(rng, 4)
    rows = _projector_rows(frame)
    xs = haar_basis_batch(4, 1, 3, rng)[:, None]
    x_perp = _signed_qr(xs, complement=True)[1]
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(optimizer, "_signed_qr", refuse)
    for p in (1, 2):
        assert len(_ffp_core(ys, np.full(5, 0.2), p, perp)) == 3
        assert len(_partner_core(xs, rows[None], frame.weights[None, None], p, x_perp)) == 4


def test_tight_starts_factor_nothing(mercedes, monkeypatch):
    # the batch of test_starts_within_tol_build_no_hessian: every start
    # meets the gradient stop, so no basis is factored
    calls = []
    signed_qr = optimizer._signed_qr
    monkeypatch.setattr(optimizer, "_signed_qr",
                        lambda *args, **kwargs: calls.append(args) or signed_qr(*args, **kwargs))
    bounds = sphere_bounds(mercedes, 2, restarts=4, rng=np.random.default_rng(0))
    assert set(bounds.stop_reasons) == {"gradient"} and calls == []


def test_gradient_finite_where_the_constant_terms_overflow():
    # the terms a = b, w_a^2 k^p, are skipped: at k = 2, p = 2000 their
    # s^(p-1) overflows and 0 * inf made the gradient NaN; only the
    # potential's own value still overflows
    with np.errstate(over="ignore", invalid="raise"):
        grads = ffp_gradient(catalog("mub-planes-r4"), 2000)
    assert all(np.isfinite(g).all() for g in grads)


def _mixed_frame(rng, d):
    dims = (1, d - 1, 2, 1)
    raw, weights = zip(*((rng.standard_normal((d, k)), float(rng.uniform(0.5, 2.0)))
                         for k in dims))
    return build_frame(raw, weights)


def _projector_rows(frame):
    """The members' flattened projectors P_j = B_j B_j^T, in frame order."""
    return np.stack([(b @ b.T).ravel() for b in frame.bases])


def test_sphere_bounds_at_p1_are_the_frame_operator_extremes(rng):
    # at p = 1 the form is x^T S x, so its extremes are those of S
    for _ in range(20):
        frame = _mixed_frame(rng, int(rng.integers(3, 7)))
        eig = np.linalg.eigvalsh(frame_operator(frame))
        lo, hi = sphere_extrema(frame, 1, restarts=8, rng=rng)
        assert lo == pytest.approx(eig[0], rel=1e-13)
        assert hi == pytest.approx(eig[-1], rel=1e-13)


def _sphere_along(frame, p, x, v):
    """The power form along the normalization of x + t v."""
    return lambda t: evaluate_power_form(frame, p, (x + t * v) / np.linalg.norm(x + t * v))[0]


def test_sphere_core_matches_power_form_differences(rng):
    # x + t v, normalized, is a second-order retraction on the sphere, so
    # the second difference is v^T H v at any point, critical or not
    cross = catalog("cross-polytope-lines(4)")
    cases = [(_mixed_frame(rng, d), rng.standard_normal(d)) for d in (3, 4, 5)]
    # orthogonal members: at a coordinate axis s_j = 0 for all but one member
    cases += [(cross, rng.standard_normal(4)), (cross, np.eye(4)[1])]
    for frame, x in cases:
        x = x / np.linalg.norm(x)
        rows = _projector_rows(frame)
        perp = _signed_qr(x[None, None, :, None], complement=True)[1]
        for p in (1, 2, 3):
            value, grad, hess = _partner_core(x[None, None, :, None], rows[None],
                                              frame.weights[None, None], p, perp)[:3]
            hess = hess[:, 0]
            form = evaluate_power_form(frame, p, x)[0]
            assert value[0] == pytest.approx(form, rel=1e-14)
            assert np.abs(hess[0] - hess[0].T).max() <= 1e-13 * max(1.0, np.abs(hess).max())
            for z in rng.standard_normal((3, len(x) - 1)):
                v = perp[0, 0] @ (z / np.linalg.norm(z))
                along = _sphere_along(frame, p, x, v)
                h = 1e-6
                fd = (along(h) - along(-h)) / (2 * h)
                assert fd == pytest.approx(float(grad[0] @ (z / np.linalg.norm(z))),
                                           rel=1e-6, abs=1e-8)
                quad = float(v @ perp[0, 0] @ hess[0] @ perp[0, 0].T @ v)
                assert _second_difference(along) == pytest.approx(quad, rel=1e-6, abs=1e-6)


def _sphere_hessian_by_formula(frame, weights, p, x, perp):
    """The sphere Hessian of sum_j w_j s_j^p, s_j = ||B_j^T x||^2, at the
    unit vector x, member by member: x_perp^T [sum_j 2p w_j s_j^(p-1) P_j +
    4p(p-1) w_j s_j^(p-2) (P_j x)(P_j x)^T - (x . grad f) I] x_perp."""
    d = len(x)
    euclid, grad = np.zeros((d, d)), np.zeros(d)
    for basis, w in zip(frame.bases, weights):
        pj = basis @ basis.T
        px = pj @ x
        s = x @ px
        euclid += 2 * p * w * s ** (p - 1) * pj
        grad += 2 * p * w * s ** (p - 1) * px
        if p > 1:
            euclid += 4 * p * (p - 1) * w * s ** (p - 2) * np.outer(px, px)
    return perp.T @ (euclid - (x @ grad) * np.eye(d)) @ perp


def test_sphere_hessian_matches_formula(rng):
    # mixed member dimensions, signed weights and several starts in one
    # batch; at a coordinate axis s_j = 0 for all but one cross-polytope line
    cross = catalog("cross-polytope-lines(4)")
    cases = [(_mixed_frame(rng, d), rng.standard_normal((3, d))) for d in (3, 4, 5, 6)]
    cases += [(cross, np.concatenate([rng.standard_normal((2, 4)), np.eye(4)[1:3]]))]
    for frame, xs in cases:
        xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
        rows = _projector_rows(frame)
        signs = np.where(np.arange(len(xs)) % 2, -1.0, 1.0)
        weights = signs[:, None] * frame.weights
        perp = _signed_qr(xs[:, None, :, None], complement=True)[1]
        for p in (1, 2, 3):
            hess = _partner_core(xs[:, None, :, None], rows[None], weights[:, None], p, perp)[2]
            for r, x in enumerate(xs):
                ref = _sphere_hessian_by_formula(frame, weights[r], p, x, perp[r, 0])
                scale = max(np.abs(ref).max(), frame.weights.sum())
                assert np.abs(hess[r, 0] - ref).max() <= 1e-13 * scale, (frame.dims, p, r)


def test_sphere_bounds_scale_exactly_with_the_weights(rng):
    # the gradient stop is relative to the weight sum, so a power-of-two
    # rescaling changes every step by that power exactly
    for p in (1, 3):
        for _ in range(3):
            frame = _mixed_frame(rng, 4)
            seed = int(rng.integers(2 ** 32))
            one = sphere_bounds(frame, p, restarts=4, rng=np.random.default_rng(seed))
            tiny = sphere_bounds(frame.rescaled(2.0 ** -30), p, restarts=4,
                                 rng=np.random.default_rng(seed))
            assert (tiny.lo, tiny.hi) == (one.lo * 2.0 ** -30, one.hi * 2.0 ** -30)
            assert tiny.stop_reasons == one.stop_reasons


def test_sphere_bounds_stop_by_gradient_on_frames_that_are_not_tight():
    # four random 2-planes in R^5, where a first-order descent stalled
    for p in (1, 3):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            frame = build_frame(haar_basis_batch(5, 2, 4, rng), np.ones(4))
            bounds = sphere_bounds(frame, p, restarts=4, rng=rng)
            assert set(bounds.stop_reasons) == {"gradient"}, (p, seed)
            assert bounds.lo < bounds.hi


# ---------------------------------------------------------------------------
# reference cores: the overlap sum on bases set side by side, with the
# Hessian blocks a != b assembled from the k x k, c x k and c x c overlaps

def _reference_partner_core(ys, partners, dims, coef, p, perp=None):
    count, n, d, k = ys.shape
    starts = np.cumsum(dims) - dims
    m = np.swapaxes(ys.transpose(0, 2, 1, 3).reshape(count, d, n * k), -1, -2) @ partners
    s = np.add.reduceat((m * m).reshape(count, n, k, -1).sum(axis=2), starts, axis=-1)
    s = np.where(coef == 0, 0.0, s)
    value = (coef * s ** p).sum(axis=(1, 2))
    c1 = (2 * p) * coef * s ** (p - 1)
    c1_cols = np.repeat(c1, dims, axis=-1)[:, :, None]
    weighted = (c1_cols * m.reshape(count, n, k, -1)).reshape(count, n * k, -1)
    grad = (partners @ np.swapaxes(weighted, -1, -2)).reshape(count, d, n, k).transpose(0, 2, 1, 3)
    pull = np.swapaxes(ys, -1, -2) @ grad
    grad -= ys @ pull
    if perp is None:
        return value, grad
    c = d - k
    a = (np.swapaxes(perp.transpose(0, 2, 1, 3).reshape(count, d, n * c), -1, -2)
         @ partners).reshape(count, n, c, -1)
    diag = (((c1_cols * a) @ np.swapaxes(a, -1, -2))[:, :, :, None, :, None] * np.eye(k)[:, None, :]
            - np.eye(c)[:, None, :, None] * np.swapaxes(pull, -1, -2)[:, :, None, :, None, :]
            ).reshape(count, n, c * k, c * k)
    c2 = g = None
    if p > 1:
        c2 = (4 * p * (p - 1)) * coef * s ** (p - 2)
        g = np.add.reduceat(a[:, :, :, None, :] * m.reshape(count, n, 1, k, -1), starts, axis=-1)
        g = g.reshape(count, n, c * k, -1)
        diag += (c2[:, :, None, :] * g) @ np.swapaxes(g, -1, -2)
    return value, grad, diag, (c1, c2, m, a, g)


def _reference_ffp_core(ys, weights, p, perp=None):
    count, n, d, k = ys.shape
    coef = 2 * np.outer(weights, weights)
    coef.flat[::n + 1] = 0.0
    out = _reference_partner_core(ys, ys.transpose(0, 2, 1, 3).reshape(count, d, n * k),
                                  np.full(n, k), coef[None], p, perp)
    value = out[0] / 2 + weights @ weights * np.float64(k) ** p
    if perp is None:
        return value, out[1]
    _, grad, diag, (c1, c2, m, a, g) = out
    c = d - k
    pflat = perp.transpose(0, 2, 1, 3).reshape(count, d, n * c)
    b = (np.swapaxes(pflat, -1, -2) @ pflat).reshape(count, n, c, n, c)
    a, m = a.reshape(count, n, c, n, k), m.reshape(count, n, k, n, k)

    def pairs_last(x, axes):
        return np.ascontiguousarray(x.transpose(axes))

    ab, ba = pairs_last(a, (2, 4, 0, 1, 3)), pairs_last(a, (4, 2, 0, 3, 1))
    h = c1 * (ab[:, None, None, :] * ba[None, :, :, None]
              + pairs_last(b, (2, 4, 0, 1, 3))[:, None, :, None]
              * pairs_last(m, (2, 4, 0, 1, 3))[None, :, None, :])
    if p > 1:
        h += ((c2 * pairs_last(g, (2, 0, 1, 3)))[:, None]
              * pairs_last(g, (2, 0, 3, 1))[None]).reshape(h.shape)
    h = h.transpose(4, 5, 0, 1, 6, 2, 3).reshape(count, n, c * k, n, c * k)
    h[:, np.arange(n), :, np.arange(n)] += np.swapaxes(diag, 0, 1)
    return value, grad, h.reshape(count, n * c * k, n * c * k)


def _close(got, ref, rtol=1e-12):
    return np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(2, 6), st.integers(1, 4),
       st.data(), st.integers(0, 2 ** 32 - 1))
def test_ffp_core_matches_the_overlap_reference(count, n, d, p, data, seed):
    # value, tangent gradient and Hessian in projector coordinates against
    # the side-by-side overlap assembly, weights spread over 1e-3..1e3
    k = data.draw(st.integers(1, d - 1))
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-3, 3, n)
    ys = np.stack([haar_basis_batch(d, k, n, rng) for _ in range(count)])
    perp = _signed_qr(ys, complement=True)[1]
    value, coords, hess = _ffp_core(ys, weights, p, perp)
    ref_value, ref_grad, ref_hess = _reference_ffp_core(ys, weights, p, perp)
    assert _close(value, ref_value)
    assert _close(coords, (np.swapaxes(perp, -1, -2) @ ref_grad).reshape(count, -1))
    assert _close(hess, ref_hess)
    value, grad = _ffp_core(ys, weights, p)
    assert _close(value, ref_value) and _close(grad, ref_grad)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(3, 6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_sphere_core_matches_the_overlap_reference(count, d, p, seed):
    # one moving line per start against a mixed-dimension frame, signed
    # weights spread over 1e-3..1e3
    rng = np.random.default_rng(seed)
    frame = _mixed_frame(rng, d)
    weights = rng.choice([-1.0, 1.0], (count, 1, len(frame))) * 10.0 ** rng.uniform(-3, 3, len(frame))
    xs = haar_basis_batch(d, 1, count, rng)[:, None]
    perp = _signed_qr(xs, complement=True)[1]
    flat = np.concatenate(frame.bases, axis=1)[None]
    rows = _projector_rows(frame)[None]
    value, coords, diag = _partner_core(xs, rows, weights, p, perp)[:3]
    ref_value, ref_grad, ref_diag = _reference_partner_core(xs, flat, frame.dims, weights, p, perp)[:3]
    assert _close(value, ref_value)
    assert _close(coords, (np.swapaxes(perp, -1, -2) @ ref_grad).reshape(count, -1))
    assert _close(diag, ref_diag)
    value, grad = _partner_core(xs, rows, weights, p)
    assert _close(value, ref_value) and _close(grad, ref_grad)
