"""fusionframes benchmark: one workload of user jobs, timed end to end.

    python3 bench/run.py --workload {orbit,certify,search} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  The run sets up its inputs from the seed, runs the
workload's fixed jobs and then cycles of jobs with a fixed composition until
``--seconds`` have passed (always at least one cycle), checks every job's
output against a reference, and prints a stamp line and then, as the last
line, the result JSON.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` records spans around every call into the package and reports
the per-layer metrics instead.  Work files, the result and the spans go to
``.bench_out/`` in the checkout.

Job times are reported at a fixed host pace.  On a small shared VM the host's
speed swings by up to 1.7x within seconds and from one minute to the next,
so after every job the run times a fixed reference kernel that calls
nothing in the package, and scales each job's time by ``REF_NOMINAL_S``
over the mean of the reference times just before and just after it.  A
change to the package moves the scaled times by the same share as the raw
ones.

One process, no worker pool.  BLAS runs single-threaded.
"""
from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_VARS:     # must precede the first numpy import
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("orbit", "certify", "search")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fusionframes; "
                "print(time.perf_counter() - t)")
# Reference kernel time that job times are scaled to: about its mean on a
# 2-vCPU KVM guest of a 2.1 GHz Xeon.
REF_NOMINAL_S = 0.004
_REF_MATRIX = np.random.default_rng(0).standard_normal((40, 40))
END_TO_END_UNITS = {"setup_s": "s", "job_s.p50": "s", "job_s.p90": "s",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


def import_package():
    """Import fusionframes from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import fusionframes
    if Path(fusionframes.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"fusionframes resolved to {fusionframes.__file__}, not {SRC}")
    return fusionframes


@dataclass
class JobRecord:
    kind: str
    params: dict
    wall_s: float
    failed: bool
    ref_s: float


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter and LAPACK work that calls nothing
    in the package: a probe of the host's current pace."""
    t0 = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i
    for _ in range(40):
        np.linalg.qr(_REF_MATRIX)
    return perf_counter() - t0


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def set_up(workload: str, seed: int, workdir: str):
    """Import time plus input generation, repeated; returns the median, the
    raw parts and the plan."""
    import workloads
    raw = {"import_s": [], "gen_s": []}
    plan = None
    for _ in range(SETUP_REPEATS):
        raw["import_s"].append(import_seconds())
        t0 = perf_counter()
        plan = workloads.PLANS[workload](seed, workdir)
        raw["gen_s"].append(perf_counter() - t0)
    setup_s = statistics.median(i + g for i, g in zip(raw["import_s"], raw["gen_s"]))
    return setup_s, raw, plan


def run_job(job, tracer) -> JobRecord:
    t0 = perf_counter()
    try:
        with tracer.span("job", kind=job.kind, **job.params):
            out = job.run(tracer)
        wall = perf_counter() - t0
        errors = job.check(out)
    except Exception as exc:  # a job that raises is counted as failed; the run goes on
        wall = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        errors = [f"{type(exc).__name__}: {exc}"]
    for err in errors:
        print(f"mismatch [{job.kind} {job.params}] {err}", file=sys.stderr)
    return JobRecord(job.kind, job.params, wall, bool(errors), reference_seconds())


def execute(plan, seconds: float, tracer):
    """Fixed jobs, then cycles until the time is up; the first cycle always
    runs whole, so every run covers the workload's full composition."""
    records = []
    start = perf_counter()
    with tracer.span("run"):
        for job in plan.fixed:
            records.append(run_job(job, tracer))
        c = 0
        while c == 0 or perf_counter() - start < seconds:
            for job in plan.cycle(c):
                if c and perf_counter() - start >= seconds:
                    break
                records.append(run_job(job, tracer))
            c += 1
    return records, perf_counter() - start


def shape(kind: str, params: dict) -> str:
    """Jobs of one shape do the same work on different random data."""
    return kind + json.dumps(params, sort_keys=True)


def mix_times(records: list, composition: list) -> list:
    """Time of every job of one cycle at the nominal pace, each taken as the
    mean over the run's jobs of its shape.  A job's pace comes from the
    reference kernels timed just before and just after it.  A fixed
    composition keeps the quantiles on the same jobs from run to run; fixed
    jobs, run once, are left out."""
    by_shape: dict = {}
    for i, r in enumerate(records):
        around = [rec.ref_s for rec in records[max(0, i - 1):i + 1]]
        scaled = r.wall_s * REF_NOMINAL_S * len(around) / sum(around)
        by_shape.setdefault(shape(r.kind, r.params), []).append(scaled)
    return [statistics.fmean(by_shape[key]) for key in composition]


def end_to_end(setup_s: float, records: list, composition: list) -> dict:
    """``setup_s`` stays raw: it is mostly an import in a fresh interpreter,
    whose time does not follow the reference kernel's."""
    times = mix_times(records, composition)
    return {
        "setup_s": setup_s,
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the package sources, so a checkout without git history
    still identifies the code it measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int, traced: bool) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "trace": int(traced),
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 out_dir: Path = OUT_DIR) -> tuple:
    """One run; returns its stamp and the result object printed as the last line."""
    workdir = out_dir / f"work-{workload}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_raw, plan = set_up(workload, seed, str(workdir))
        tracer = spans.Tracer() if traced else spans.NullTracer()
        records, wall_s = execute(plan, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    composition = [shape(job.kind, job.params) for job in plan.first]
    if traced:
        times = mix_times(records, composition)
        values = spans.layer_metrics(tracer, records, wall_s, len(times) / sum(times))
        units = spans.catalogue()
    else:
        values = end_to_end(setup_s, records, composition)
        units = END_TO_END_UNITS
    failed = sum(r.failed for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    info = stamp(workload, seed, traced)
    tag = f"{workload}-s{seed}-t{int(traced)}"
    with open(out_dir / f"result-{tag}.json", "w") as fh:
        json.dump({"stamp": info, "result": result, "wall_s": wall_s, "setup": setup_raw,
                   "jobs": [r.__dict__ for r in records]}, fh, indent=1)
    if traced:
        with open(out_dir / f"spans-{tag}.json", "w") as fh:
            json.dump({"stamp": info, "spans": [sp.as_dict() for sp in tracer.spans]}, fh)
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import fusionframes from {SRC}: {exc}", file=sys.stderr)
        return 2
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
