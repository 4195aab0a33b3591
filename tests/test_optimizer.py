import numpy as np
import pytest

from fusionframes import (
    MixedDimensions,
    OptimizerConfig,
    ParameterError,
    build_frame,
    catalog,
    certify_tight,
    equiangularity,
    ffp,
    ffp_gradient,
    haar_basis_batch,
    make_subspace,
    minimize_ffp,
    sphere_extrema,
    t_moment,
    union,
)


def test_config_validation():
    OptimizerConfig(n=3, k=1, d=2, p=2)
    for bad in (dict(n=0, k=1, d=2, p=1), dict(n=3, k=2, d=2, p=1),
                dict(n=3, k=1, d=2, p=0), dict(n=3, k=1, d=1, p=1),
                dict(n=2, k=1, d=2, p=1, restarts=0),
                dict(n=2, k=1, d=2, p=1, step=0.0)):
        with pytest.raises(ParameterError):
            OptimizerConfig(**bad)


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
