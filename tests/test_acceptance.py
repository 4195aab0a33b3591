"""End-to-end acceptance checks.

One test per numbered criterion.  Each prints a single scoreboard line
through the capture (``criterion NN PASS/FAIL ...``) so a teed pytest run
leaves a readable summary, then asserts.  Runtime budgets are enforced
where a criterion carries one.
"""
import contextlib
import json
import time
from math import comb

import numpy as np

from fusionframes import (
    OptimizerConfig,
    build_frame,
    catalog,
    certify_cubature,
    certify_tight,
    close_group,
    complement_frame,
    equiangularity,
    extend,
    ffp,
    ffp_gradient,
    ffp_lower_bound_mixed,
    ffp_lower_bound_p,
    haar_basis_batch,
    invariance_check,
    max_offdiagonal,
    minimize_ffp,
    mub_lines_c2,
    orbit_frame,
    realify,
    reweight_down,
    simplex_bound_rhs,
    size_bounds,
    t_exact,
    tightness_constant,
    weyl_a2_group,
)
from fusionframes.cli import main as cli_main


def _scoreboard(capfd, num, ok, description, elapsed):
    with capfd.disabled():
        state = "PASS" if ok else "FAIL"
        print(f"criterion {num:2d} {state} {description} ({elapsed:.2f}s)")


@contextlib.contextmanager
def criterion(capfd, num, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _scoreboard(capfd, num, False, description, time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    on_time = budget_s is None or elapsed < budget_s
    _scoreboard(capfd, num, on_time, description, elapsed)
    assert on_time, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def _catalog_instances():
    names = ["mercedes", "mub-planes-r4", "weyl-a2-orbit(1)"]
    names += [f"equispaced-lines({n})" for n in range(2, 7)]
    names += [f"cross-polytope-lines({d})" for d in (2, 3, 4)]
    return [(name, catalog(name)) for name in names]


def _random_mixed_frame(rng, ambient_dims):
    d = int(rng.choice(ambient_dims))
    n = int(rng.integers(2, 6))
    raw = [rng.standard_normal((d, int(rng.integers(1, d)))) for _ in range(n)]
    return build_frame(raw, rng.uniform(0.1, 2.0, size=n))


def test_criterion_01_mercedes_suite(capfd, tmp_path):
    with criterion(capfd, 1, "mercedes gen/check, exact FFP, cubature certificate",
                   budget_s=1.0):
        path = str(tmp_path / "mercedes.json")
        assert cli_main(["gen", "catalog", "mercedes", "-o", path]) == 0
        capfd.readouterr()
        for p in ("1", "2"):
            assert cli_main(["check", path, "--p", p, "--mode", "tight"]) == 0
            report = json.loads(capfd.readouterr().out)
            assert report["results"]["verdict"] == "tight"
            assert report["results"]["residual"] < 1e-10
        assert cli_main(["check", path, "--p", "3", "--mode", "tight"]) == 1
        report = json.loads(capfd.readouterr().out)
        assert report["results"]["verdict"] == "not-tight"

        assert cli_main(["check", path, "--p", "2", "--mode", "cubature"]) == 0
        results = json.loads(capfd.readouterr().out)["results"]
        assert list(results) == ["verdict", "residual", "method", "monomials",
                                 "ffp", "t_value", "margin"]
        assert results["verdict"] == "cubature" and results["residual"] < 1e-14
        assert results["method"] == "lie-derivative" and results["monomials"] == 6

        merc = catalog("mercedes")
        assert abs(ffp(merc.normalized(), 2) - 3 / 8) <= 1e-12
        cert = certify_cubature(merc, 2, rng=np.random.default_rng(1))
        assert cert.verdict == "cubature" and cert.residual < 1e-14
        assert cert.t_value == float(t_exact(1, 1, 2, 2)) == 3 / 8
        assert abs(cert.margin) < 1e-9


def test_criterion_02_closed_form_and_mc_moments(capfd, mc_moment):
    with criterion(capfd, 2, "p=1 moments exact, MC agrees within 3 stderr",
                   budget_s=60.0):
        for d in range(2, 7):
            for k in range(1, d):
                assert float(t_exact(k, 1, d, 1)) == k / d
                for l in range(1, d):
                    assert float(t_exact(k, l, d, 1)) == k * l / d
        rng = np.random.default_rng(2)
        for d in range(2, 7):
            for k in range(1, d):
                for p in (1, 2, 3):
                    value, error = mc_moment(k, 1, d, p, 100_000, rng)
                    gap = abs(value - float(t_exact(k, 1, d, p)))
                    assert gap <= 3 * error, (d, k, p, gap, error)


def test_criterion_03_reweighting_descends_order(capfd):
    with criterion(capfd, 3, "reweight_down turns tight-p into tight-(p-1)"):
        checked = 0
        for name, frame in _catalog_instances():
            for p in range(2, 6):
                if not certify_tight(frame, p).tight:
                    continue
                cert = certify_tight(reweight_down(frame, p), p - 1)
                assert cert.tight and cert.residual < 1e-9, (name, p)
                checked += 1
        assert checked >= 10


def test_criterion_04_complement_preserves_tightness(capfd):
    with criterion(capfd, 4, "complement frame stays tight at the same order"):
        checked = 0
        for name, frame in _catalog_instances():
            comp = complement_frame(frame)
            for p in range(1, 6):
                if not certify_tight(frame, p).tight:
                    continue
                assert certify_tight(comp, p).tight, (name, p)
                checked += 1
        assert checked >= 15


def test_criterion_05_extension_multiplies_constants(capfd):
    with criterion(capfd, 5, "extension of mercedes into realified MUB planes",
                   budget_s=5.0):
        merc = catalog("mercedes")
        planes = realify(mub_lines_c2())
        big = extend(merc, planes)
        assert big.ambient_dim == 4 and len(big) == 18
        cert = certify_tight(big, 2)
        assert cert.tight
        product = tightness_constant(merc, 2) * tightness_constant(planes, 2)
        assert abs(cert.target_A - product) < 1e-9


def test_criterion_06_orbit_theorem_equivalence(capfd):
    with criterion(capfd, 6, "one Molien invariant iff all orbits tight",
                   budget_s=30.0):
        weyl = weyl_a2_group()
        rep = invariance_check(weyl, 2)
        assert rep.passes and rep.invariant_dim == 1
        rng = np.random.default_rng(6)
        for _ in range(20):
            orb = orbit_frame(weyl, haar_basis_batch(2, 1, 1, rng)[0])
            assert certify_tight(orb, 2).tight

        reflection = close_group([np.diag([1.0, -1.0])])
        assert len(reflection) == 2
        assert not invariance_check(reflection, 2).passes
        failures = sum(
            not certify_tight(orbit_frame(reflection, haar_basis_batch(2, 1, 1, rng)[0]),
                              2).tight
            for _ in range(50))
        assert failures >= 1


def test_criterion_07_simplex_bound_corpus(capfd):
    with criterion(capfd, 7, "simplex bounds hold on 10^4 frames, equality "
                             "exactly on equiangular-tight members",
                   budget_s=120.0):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            frame = _random_mixed_frame(rng, (2, 3, 4, 5, 6))
            assert max_offdiagonal(frame) >= simplex_bound_rhs(frame) - 1e-9
            for p in (1, 2, 3):
                assert ffp(frame, p) >= ffp_lower_bound_p(frame, p) - 1e-9

        fired = {name for name, frame in _catalog_instances()
                 if max_offdiagonal(frame) <= simplex_bound_rhs(frame) + 1e-8}
        assert fired == {
            "mercedes", "weyl-a2-orbit(1)",
            "equispaced-lines(2)", "equispaced-lines(3)",
            "cross-polytope-lines(2)", "cross-polytope-lines(3)",
            "cross-polytope-lines(4)",
        }


def test_criterion_08_mixed_dimension_bound(capfd):
    with criterion(capfd, 8, "moment-matrix bound on 500 mixed frames",
                   budget_s=300.0):
        rng = np.random.default_rng(8)
        for _ in range(500):
            frame = _random_mixed_frame(rng, (3, 4, 5))
            for p in (1, 2):
                assert ffp(frame, p) >= ffp_lower_bound_mixed(frame, p)


def test_criterion_09_optimizer_recovery(capfd):
    with criterion(capfd, 9, "optimizer recovers 3 equiangular lines in R^2",
                   budget_s=60.0):
        successes = 0
        for seed in range(16):
            cfg = OptimizerConfig(n=3, k=1, d=2, p=2)
            trace = minimize_ffp(cfg, rng=np.random.default_rng(seed))
            if not (trace.success and trace.margin < 1e-5):
                continue
            rep = equiangularity(trace.frame, tol=1e-5)
            assert rep.is_equiangular
            assert abs(rep.common_value - 0.25) <= 1e-5
            successes += 1
        assert successes >= 15

        hopeless = OptimizerConfig(n=2, k=1, d=2, p=2)
        assert not minimize_ffp(hopeless, rng=np.random.default_rng(0)).success


def test_criterion_10_gradient_matches_fd(capfd):
    with criterion(capfd, 10, "gradient vs central differences on 50 configs",
                   budget_s=30.0):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(1, min(2, d - 1) + 1))
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, 4))
            ys = haar_basis_batch(d, k, n, rng)
            weights = rng.uniform(0.2, 2.0, size=n)
            frame = build_frame(ys, weights)
            grads = ffp_gradient(frame, p)
            raw = rng.standard_normal((n, d, k))
            dirs = np.stack([e - y @ (y.T @ e) for e, y in zip(raw, ys)])
            dirs /= np.sqrt((dirs ** 2).sum())
            inner = sum(float((g * e).sum()) for g, e in zip(grads, dirs))

            def value(t):
                moved = [np.linalg.qr(y + t * e)[0] for y, e in zip(ys, dirs)]
                return ffp(build_frame(moved, weights), p)

            h = 1e-6
            fd = (value(h) - value(-h)) / (2 * h)
            assert abs(fd - inner) <= 1e-6 * max(1.0, abs(inner)), (d, k, n, p)


def test_criterion_11_size_bounds_and_gerzon(capfd):
    with criterion(capfd, 11, "counting bounds; 4 lines in R^2 never certify"):
        for d in range(2, 9):
            for p in range(1, 6):
                bounds = size_bounds(d, p)
                assert bounds["tight_p_existence_bound"] == \
                    comb(2 * p + d - 1, d - 1) - 1
                assert bounds["max_equiangular"] == comb(d + 1, 2)

        def lines(degrees):
            return build_frame([np.array([[np.cos(a)], [np.sin(a)]])
                                for a in np.deg2rad(degrees)])

        candidates = [
            lines([0, 45, 90, 135]),      # equispaced, angles differ
            lines([0, 60, 120, 61]),      # mercedes plus a near-duplicate
            lines([0, 0, 90, 90]),        # doubled orthogonal pair
            lines([10, 10, 10, 10]),      # all identical
        ]
        for frame in candidates:
            rep = equiangularity(frame)
            assert not rep.gerzon_ok                   # 4 > C(3, 2)
            assert not (rep.is_equiangular and rep.all_distinct)
