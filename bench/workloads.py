"""Inputs, jobs and reference answers for the three benchmark workloads.

Every input is generated here from the workload seed with numpy alone:
Coxeter reflection generators, E8 root lines, Haar rotations, random
frames and the per-job child seeds.  The package receives only arrays and
frame files.  Each job calls the public functions in the order of the CLI
pipeline it stands for, and its outputs are compared afterwards with
reference answers computed here by exact arithmetic, independently of the
package.  Only verdicts and exact counts are checked, never residual sizes
or method labels.

A workload is a list of fixed jobs, run once per run, followed by cycles.
A cycle has a fixed composition and fresh inputs; only the data and the
order of jobs inside it depend on the seed, so runs on different seeds
differ in their inputs but not in their mix of job sizes.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Callable

import numpy as np

import fusionframes as ff

CERTIFY_TOL = 1e-9          # CLI default for `check --tol`
OPTIMIZE_CERT_TOL = 1e-6    # CLI `optimize` re-certifies at this tolerance
MC_BUDGET = 100_000         # CLI default for `--mc-budget`
# `optimize --restarts` on the unreachable config, which runs once per run
# outside the timed mix; at the default 16 it would take a quarter of a run,
# which the timed cycles need.
UNREACHABLE_RESTARTS = 4
BOUNDS_RESTARTS = 4
# The forced constant is a float sum of exact rationals.
CONSTANT_RTOL = 1e-12


# ---------------------------------------------------------------------------
# exact references

def line_moment(k: int, d: int, p: int) -> Fraction:
    """(k/2)_p / (d/2)_p: mean of ||P_V x||^(2p) over unit x, dim V = k."""
    num = prod((Fraction(k, 2) + i for i in range(p)), start=Fraction(1))
    den = prod((Fraction(d, 2) + i for i in range(p)), start=Fraction(1))
    return num / den


def forced_constant(weights, dims, d: int, p: int) -> Fraction:
    """Exact sum_j w_j (k_j/2)_p / (d/2)_p of the float weights."""
    return sum((Fraction(float(w)) * line_moment(int(k), d, p)
                for w, k in zip(weights, dims)), start=Fraction(0))


def invariant_dim(degrees, degree: int) -> int:
    """Invariants of a reflection group in one degree: the number of ways to
    write it as a sum of basic-invariant degrees (Chevalley)."""
    ways = [1] + [0] * degree
    for deg in degrees:
        for t in range(deg, degree + 1):
            ways[t] += ways[t - deg]
    return ways[degree]


def monomials(d: int, p: int) -> int:
    return comb(d + 2 * p - 1, 2 * p)


def close(a: float, b, rtol: float = CONSTANT_RTOL) -> bool:
    b = float(b)
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# input generation (numpy only)

# name -> (Coxeter diagram branch labels of a linear diagram, basic degrees)
GROUPS = {
    "H3": ((5, 3), (2, 6, 10)),
    "A4": ((3, 3, 3), (2, 3, 4, 5)),
    "B4": ((4, 3, 3), (2, 4, 6, 8)),
    "F4": ((3, 4, 3), (2, 6, 8, 12)),
}


def coxeter_generators(branches) -> list:
    """Simple reflections I - 2 r r^T, with unit roots r taken as the rows of
    the Cholesky factor of the root Gram matrix."""
    r = len(branches) + 1
    gram = np.eye(r)
    for i, m in enumerate(branches):
        gram[i, i + 1] = gram[i + 1, i] = -np.cos(np.pi / m)
    roots = np.linalg.cholesky(gram)
    return [np.eye(r) - 2.0 * np.outer(v, v) for v in roots]


def haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.where(np.diagonal(r) < 0, -1.0, 1.0)


def haar_bases(d: int, k: int, n: int, rng: np.random.Generator) -> list:
    return [haar_orthogonal(d, rng)[:, :k] for _ in range(n)]


def e8_lines() -> list:
    """One root from each of the 120 pairs +-r of the E8 root system."""
    roots = []
    for i, j in itertools.combinations(range(8), 2):
        for sj in (1.0, -1.0):
            v = np.zeros(8)
            v[i], v[j] = 1.0, sj
            roots.append(v)
    for signs in itertools.product((0.5, -0.5), repeat=7):
        last = 0.5 if signs.count(-0.5) % 2 == 0 else -0.5
        if signs[0] > 0:
            roots.append(np.array(signs + (last,)))
    return [r[:, None] / np.sqrt(2.0) for r in roots]


def extended_mub_planes() -> list:
    """Bases of extend(mercedes, mub-planes-r4): the three mercedes lines
    planted inside each of the six realified MUB planes of C^2."""
    s = 1 / np.sqrt(2)
    states = [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]]
    planes = []
    for z in np.asarray(states, dtype=complex):
        cols = np.empty((4, 2))
        cols[0::2, 0], cols[1::2, 0] = z.real, z.imag
        cols[0::2, 1], cols[1::2, 1] = (1j * z).real, (1j * z).imag
        planes.append(cols)
    merc = [np.array([[np.cos(j * np.pi / 3)], [np.sin(j * np.pi / 3)]])
            for j in range(3)]
    return [w @ v for w in planes for v in merc]


def complement_bases(bases) -> list:
    out = []
    for b in bases:
        u = np.linalg.svd(b, full_matrices=True)[0]
        out.append(u[:, b.shape[1]:])
    return out


def child_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# jobs

@dataclass
class Job:
    """One user job.  ``run(tracer)`` makes the package calls and returns
    their outputs; ``check(out)`` lists disagreements with the reference and
    runs after the job's timed span."""

    kind: str
    params: dict
    run: Callable
    check: Callable


@dataclass
class Plan:
    fixed: list
    make_cycle: Callable          # cycle index -> list of jobs
    first: list                   # cycle 0, generated during set-up

    def cycle(self, c: int) -> list:
        return self.first if c == 0 else self.make_cycle(c)


def _save(tr, frame, path) -> None:
    with tr.span("frames.save_frame") as sp:
        ff.save_frame(frame, path)
    sp.add(**{"frames.io.bytes": os.path.getsize(path)})


def _load(tr, path):
    with tr.span("frames.load_frame") as sp:
        frame = ff.load_frame(path)
    sp.add(**{"frames.io.bytes": os.path.getsize(path),
              "subspaces.members": len(frame)})
    return frame


def _certify(tr, frame, p: int, tol: float = CERTIFY_TOL):
    with tr.span("frames.certify_tight", p=p) as sp:
        cert = ff.certify_tight(frame, p, tol=tol)
    m = monomials(frame.ambient_dim, p)
    sp.add(**{"homogeneous.monomials": m,
              "frames.certify_terms": len(frame) * m})
    return cert


def tight_checks(tr, path, orders) -> list:
    """`check --mode tight` at each p: load the file, then certify."""
    out = []
    for p in orders:
        frame = _load(tr, path)
        cert = _certify(tr, frame, p)
        out.append((p, cert.tight, cert.target_A, frame.weights, frame.dims,
                    frame.ambient_dim))
    return out


def verify_tight(out, tight_up_to: int, label: str) -> list:
    errs = []
    for p, tight, target, weights, dims, d in out:
        if tight != (p <= tight_up_to):
            errs.append(f"{label}: p={p} verdict {tight}, expected {p <= tight_up_to}")
        exact = forced_constant(weights, dims, d, p)
        if not close(target, exact):
            errs.append(f"{label}: p={p} forced constant {target!r} != {exact}")
    return errs


def max_tight_order(degrees) -> int:
    """Orbits of a generic line are tight exactly while the only invariant
    of degree 2p is (sum x_i^2)^p."""
    p = 0
    while invariant_dim(degrees, 2 * (p + 1)) == 1:
        p += 1
    return p


# ---------------------------------------------------------------------------
# orbit workload

ORBIT_ORDERS = (1, 2, 3)
INVARIANT_ORDERS = (1, 2)
# Per-cycle orbit jobs: many cheap small groups, two F4 jobs (576-line
# orbits) so that the 90th percentile sits inside the F4 group of times.
ORBIT_CYCLE = ("H3",) * 6 + ("A4",) * 4 + ("B4",) * 3 + ("F4",) * 2


def _group_job(name, gens, degrees) -> Job:
    def run(tr):
        with tr.span("constructions.close_group") as sp:
            group = ff.close_group(gens)
        sp.add(**{"constructions.group_order": len(group)})
        dims = {}
        for p in INVARIANT_ORDERS:
            with tr.span("constructions.invariance_check", p=p) as sp:
                dims[p] = ff.invariance_check(group, p)
            sp.add(**{"constructions.invariance_terms":
                      len(group) * monomials(group.d, p)})
        return len(group), dims

    def check(out):
        order, dims = out
        errs = []
        if order != prod(degrees):
            errs.append(f"{name}: order {order} != {prod(degrees)}")
        for p, rep in dims.items():
            want = invariant_dim(degrees, 2 * p)
            if rep.invariant_dim != want or rep.passes != (want == 1):
                errs.append(f"{name}: p={p} invariant dim {rep.invariant_dim} != {want}")
        return errs

    return Job("group", {"group": name}, run, check)


def _orbit_job(name, gens, degrees, line, path) -> Job:
    def run(tr):
        with tr.span("constructions.close_group") as sp:
            group = ff.close_group(gens)
        sp.add(**{"constructions.group_order": len(group)})
        seed_sub = ff.make_subspace(line)
        with tr.span("constructions.orbit_frame") as sp:
            frame = ff.orbit_frame(group, seed_sub)
        sp.add(**{"constructions.orbit_images": len(group),
                  "constructions.orbit_kept": len(frame),
                  "subspaces.members": len(frame)})
        _save(tr, frame, path)
        return len(group), len(frame), tight_checks(tr, path, ORBIT_ORDERS)

    def check(out):
        order, size, certs = out
        want_order = prod(degrees)
        # -I lies in a reflection group exactly when every degree is even,
        # and then a generic line is fixed by it.
        want_size = want_order // (2 if all(x % 2 == 0 for x in degrees) else 1)
        errs = []
        if order != want_order:
            errs.append(f"{name}: order {order} != {want_order}")
        if size != want_size:
            errs.append(f"{name}: orbit size {size} != {want_size}")
        return errs + verify_tight(certs, max_tight_order(degrees), name)

    return Job("orbit", {"group": name}, run, check)


def orbit_plan(seed: int, workdir: str) -> Plan:
    gens = {name: coxeter_generators(branches)
            for name, (branches, _) in GROUPS.items()}
    fixed = [_group_job(name, gens[name], GROUPS[name][1]) for name in GROUPS]

    def make_cycle(c):
        rng = child_rng(seed, 1, c)
        order = rng.permutation(len(ORBIT_CYCLE))
        jobs = []
        for slot in order:
            name = ORBIT_CYCLE[slot]
            d = len(GROUPS[name][1])
            line = rng.standard_normal((d, 1))
            path = os.path.join(workdir, f"orbit-{c}-{slot}.json")
            jobs.append(_orbit_job(name, gens[name], GROUPS[name][1], line, path))
        return jobs

    return Plan(fixed, make_cycle, make_cycle(0))


# ---------------------------------------------------------------------------
# certify workload

CERTIFY_ORDERS = (1, 2, 3)
CERTIFY_DIMS = (6, 7, 8)
CERTIFY_K = (2, 3, 4)
# One random frame per d, n and cycle, with k running through CERTIFY_K
# along the grid, so that every cycle has the same sizes.
CERTIFY_N = (12, 19, 25, 32)
# Cells with more than one frame per cycle: three d = 7, n = 19 frames hold
# the median of the 17 jobs in a cycle whichever way their neighbours in
# cost fall.
CERTIFY_COPIES = {(7, 19): 3}
E8_TIGHT = 3                   # highest p at which the E8 root lines are tight
EXTENDED_TIGHT = 2             # the same for extend(mercedes, mub-planes-r4)


def _certify_job(label, path, tight_up_to, params) -> Job:
    def run(tr):
        return tight_checks(tr, path, CERTIFY_ORDERS)

    def check(out):
        return verify_tight(out, tight_up_to, label)

    return Job("certify", params, run, check)


def certify_plan(seed: int, workdir: str) -> Plan:
    e8 = e8_lines()
    ext = extended_mub_planes()
    comp = complement_bases(ext)

    def make_cycle(c):
        rng = child_rng(seed, 2, c)
        inputs = []   # (label, bases, weights, tight_up_to)
        for i, d in enumerate(CERTIFY_DIMS):
            for j, n in enumerate(CERTIFY_N):
                k = CERTIFY_K[(i + j) % len(CERTIFY_K)]
                for _ in range(CERTIFY_COPIES.get((d, n), 1)):
                    inputs.append((f"random(d={d},k={k},n={n})", haar_bases(d, k, n, rng),
                                   rng.uniform(0.5, 2.0, n), 0))
        q8, q4 = haar_orthogonal(8, rng), haar_orthogonal(4, rng)
        inputs.append(("e8-lines", [q8 @ b for b in e8], [1.0] * len(e8), E8_TIGHT))
        inputs.append(("mercedes-in-mub", [q4 @ b for b in ext], [1.0] * len(ext),
                       EXTENDED_TIGHT))
        inputs.append(("mercedes-in-mub-complement", [q4 @ b for b in comp],
                       [1.0] * len(comp), EXTENDED_TIGHT))
        jobs = []
        for slot in rng.permutation(len(inputs)):
            label, bases, weights, tight_up_to = inputs[slot]
            path = os.path.join(workdir, f"certify-{c}-{slot}.json")
            ff.save_frame(ff.build_frame(bases, weights), path)
            params = {"frame": label, "d": bases[0].shape[0], "n": len(bases)}
            jobs.append(_certify_job(label, path, tight_up_to, params))
        return jobs

    return Plan([], make_cycle, make_cycle(0))


# ---------------------------------------------------------------------------
# search workload

# (n, k, d, p) -> exact potential floor t(k, k, d, p) for weights 1/n
REACHABLE = {
    (3, 1, 2, 2): line_moment(1, 2, 2),
    (4, 1, 2, 3): line_moment(1, 2, 3),
    (6, 1, 3, 2): line_moment(1, 3, 2),
    (5, 2, 4, 1): Fraction(2 * 2, 4),
}
UNREACHABLE = {(6, 2, 4, 2): Fraction(10, 9)}
# Moment tables per cycle: d = 4..8 at both powers, the d = 6, p = 3 table
# five more times and the d = 8 tables once more.  Of the 29 jobs in a
# cycle, 9 always take less time than a d = 6, p = 3 table and 11 more; the
# other three are optimize jobs whose restarts make them faster or slower
# than it by the seed.  The six d = 6, p = 3 tables then hold the median job
# whichever way those three go, and the four d = 8 tables and the slowest
# bounds check, the five slowest jobs, hold the 90th percentile.
MOMENT_TABLES = (tuple((d, p) for d in (4, 5, 6, 7, 8) for p in (2, 3))
                 + ((6, 3),) * 5 + ((8, 2), (8, 3)))
# A cubature verdict is only checked where the potential is this far from
# the floor's tolerance edge.
VERDICT_MARGIN = 1e-10


def _optimize_job(cfg_key, floor, reachable, seed_int, path, shared) -> Job:
    n, k, d, p = cfg_key

    def run(tr):
        extra = {} if reachable else {"restarts": UNREACHABLE_RESTARTS}
        cfg = ff.OptimizerConfig(n=n, k=k, d=d, p=p, **extra)
        with tr.span("optimizer.minimize_ffp") as sp:
            trace = ff.minimize_ffp(cfg, np.random.default_rng(seed_int))
        sp.add(**{"optimizer.restarts": len(trace.restart_values),
                  "optimizer.best_iters": len(trace.values) - 1,
                  "optimizer.success": int(trace.success),
                  "subspaces.members": len(trace.frame)})
        cert = _certify(tr, trace.frame, p, tol=OPTIMIZE_CERT_TOL)
        _save(tr, trace.frame, path)
        shared.update(value=trace.final_value, tight=cert.tight, A=cert.target_A)
        return trace

    def check(trace):
        errs = []
        if trace.final_value < float(floor) - trace.t_error - CONSTANT_RTOL * float(floor):
            errs.append(f"optimize{cfg_key}: FFP {trace.final_value!r} below floor {floor}")
        if not reachable and trace.success:
            errs.append(f"optimize{cfg_key}: reported success on an unreachable floor")
        return errs

    return Job("optimize", {"n": n, "k": k, "d": d, "p": p, "reachable": reachable},
               run, check)


def _cubature_job(cfg_key, floor, seed_int, path, shared) -> Job:
    p = cfg_key[3]

    def run(tr):
        frame = _load(tr, path)
        with tr.span("moments.certify_cubature") as sp:
            cert = ff.certify_cubature(frame, p, tol=CERTIFY_TOL, budget=MC_BUDGET,
                                       rng=np.random.default_rng(seed_int))
        sp.add(**{"moments.cubature.inconclusive": int(cert.verdict == "inconclusive"),
                  "moment_err.max": cert.t_error})
        return cert

    def check(cert):
        gap = shared["value"] - float(floor)
        if gap <= CERTIFY_TOL - VERDICT_MARGIN:
            want = "cubature"
        elif gap > CERTIFY_TOL + cert.t_error + VERDICT_MARGIN:
            want = "not-cubature"
        else:
            return []
        if cert.verdict != want:
            return [f"cubature{cfg_key}: verdict {cert.verdict}, expected {want}"]
        return []

    return Job("cubature", {"n": cfg_key[0], "k": cfg_key[1], "d": cfg_key[2], "p": p},
               run, check)


def _bounds_job(cfg_key, seed_int, path, shared) -> Job:
    p = cfg_key[3]

    def run(tr):
        frame = _load(tr, path)
        with tr.span("optimizer.sphere_extrema") as sp:
            lo, hi = ff.sphere_extrema(frame, p, restarts=BOUNDS_RESTARTS,
                                       rng=np.random.default_rng(seed_int))
        sp.add(**{"optimizer.sphere_restarts": BOUNDS_RESTARTS})
        with tr.span("potential.ffp") as sp:
            value = ff.ffp(frame, p)
        sp.add(**{"potential.pairs": len(frame) ** 2})
        return lo, hi, value

    def check(out):
        lo, hi, value = out
        errs = []
        if not lo <= hi:
            errs.append(f"bounds{cfg_key}: min {lo!r} above max {hi!r}")
        if not close(value, shared["value"], 1e-9):
            errs.append(f"bounds{cfg_key}: FFP {value!r} != optimizer's {shared['value']!r}")
        # a tight frame's power form is the constant A on the sphere
        if shared["tight"] and not (close(lo, shared["A"], 1e-4) and close(hi, shared["A"], 1e-4)):
            errs.append(f"bounds{cfg_key}: tight frame with bounds {lo!r}, {hi!r}")
        return errs

    return Job("bounds", {"n": cfg_key[0], "k": cfg_key[1], "d": cfg_key[2], "p": p},
               run, check)


def _moments_job(d, p, seed_int) -> Job:
    def run(tr):
        with tr.span("moments.t_matrix", d=d, p=p) as sp:
            table = ff.t_matrix(d, p, budget=MC_BUDGET, rng=np.random.default_rng(seed_int))
        counts = {"closed-form": 0, "quadrature": 0, "monte-carlo": 0}
        for row in table.rows():
            counts[row[5]] = counts.get(row[5], 0) + 1
        sp.add(**{"moments.entries.closed_form": counts["closed-form"],
                  "moments.entries.quadrature": counts["quadrature"],
                  "moments.entries.monte_carlo": counts["monte-carlo"],
                  "moment_err.max": float(table.errors.max())})
        return table

    def check(table):
        errs = []
        for k, l, _, value, error, _ in table.rows():
            if not (np.isfinite(value) and error >= 0):
                errs.append(f"t({k},{l},{d},{p}): value {value!r} error {error!r}")
            if min(k, l) == 1 and not close(value, line_moment(max(k, l), d, p)):
                errs.append(f"t({k},{l},{d},{p}) = {value!r}, exact "
                            f"{line_moment(max(k, l), d, p)}")
        return errs

    return Job("moments", {"d": d, "p": p}, run, check)


def _optimize_unit(cfg_key, floor, reachable, rng, path) -> list:
    """optimize -> check --mode cubature -> check --mode bounds."""
    shared: dict = {}
    return [_optimize_job(cfg_key, floor, reachable, child_seed(rng), path, shared),
            _cubature_job(cfg_key, floor, child_seed(rng), path, shared),
            _bounds_job(cfg_key, child_seed(rng), path, shared)]


def search_plan(seed: int, workdir: str) -> Plan:
    rng0 = child_rng(seed, 3, 0, 0)
    fixed = []
    for key, floor in UNREACHABLE.items():
        fixed += _optimize_unit(key, floor, False, rng0,
                                os.path.join(workdir, "search-unreachable.json"))

    def make_cycle(c):
        rng = child_rng(seed, 3, c + 1)
        units = [_optimize_unit(key, floor, True, rng,
                                os.path.join(workdir, f"search-{c}-{i}.json"))
                 for i, (key, floor) in enumerate(REACHABLE.items())]
        units += [[_moments_job(d, p, child_seed(rng))] for d, p in MOMENT_TABLES]
        return [job for i in rng.permutation(len(units)) for job in units[i]]

    return Plan(fixed, make_cycle, make_cycle(0))


PLANS = {"orbit": orbit_plan, "certify": certify_plan, "search": search_plan}
