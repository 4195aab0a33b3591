"""In-memory spans around the benchmark's calls into the package, and the
per-layer metrics derived from them.

The span tree is run -> job (kind, params) -> step, where a step is one call
into a package function and is named ``<module>.<function>``.  Spans stay in
memory and are written out once the run ends.  Counters ride on the step
spans, so each count is recorded where its work happens.
"""
from __future__ import annotations

from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "job", "name", "attrs", "start", "end",
                 "failed", "_tracer")

    def __init__(self, tracer, sid, parent, job, name, attrs):
        self._tracer = tracer
        self.id, self.parent, self.job, self.name = sid, parent, job, name
        self.attrs = attrs
        self.start = self.end = 0.0
        self.failed = False

    def add(self, **counts) -> None:
        for key, value in counts.items():
            self.attrs[key] = self.attrs.get(key, 0) + value

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = perf_counter()
        self.failed = exc_type is not None
        self._tracer._close(self)
        return False

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "job": self.job,
                "name": self.name, "start": self.start, "end": self.end,
                "failed": self.failed, "attrs": self.attrs}


class Tracer:
    """Records every span; ``overhead_s`` is the time spent in its own
    bookkeeping, measured around it."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._job = None
        self.overhead_s = 0.0

    def span(self, name: str, **attrs) -> Span:
        t0 = perf_counter()
        parent = self._open[-1].id if self._open else None
        sp = Span(self, len(self.spans), parent, self._job, name, attrs)
        if name == "job":
            self._job = sp.id
            sp.job = sp.id
        self.spans.append(sp)
        self._open.append(sp)
        self.overhead_s += perf_counter() - t0
        return sp

    def _close(self, sp: Span) -> None:
        t0 = perf_counter()
        self._open.pop()
        if sp.name == "job":
            self._job = None
        self.overhead_s += perf_counter() - t0


class _NullSpan:
    def add(self, **counts) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    _span = _NullSpan()

    def span(self, name: str, **attrs):
        return self._span


# metric prefix -> the step spans it sums
STEPS = {
    "constructions.invariance_check": ("constructions.invariance_check",),
    "constructions.orbit_frame": ("constructions.orbit_frame",),
    "constructions.close_group": ("constructions.close_group",),
    "frames.certify_tight": ("frames.certify_tight",),
    "frames.io": ("frames.save_frame", "frames.load_frame"),
    "potential.ffp": ("potential.ffp",),
    "moments.t_matrix": ("moments.t_matrix",),
    "moments.certify_cubature": ("moments.certify_cubature",),
    "optimizer.minimize_ffp": ("optimizer.minimize_ffp",),
    "optimizer.sphere_extrema": ("optimizer.sphere_extrema",),
}
CERTIFY_ORDERS = (1, 2, 3)
# counters summed over step spans -> unit
COUNTS = {
    "constructions.invariance_terms": "count",
    "constructions.orbit_images": "count",
    "constructions.orbit_kept": "count",
    "constructions.group_order": "count",
    "homogeneous.monomials": "count",
    "frames.certify_terms": "count",
    "frames.io.bytes": "bytes",
    "subspaces.members": "count",
    "potential.pairs": "count",
    "moments.entries.closed_form": "count",
    "moments.entries.quadrature": "count",
    "moments.entries.monte_carlo": "count",
    "optimizer.restarts": "count",
    "optimizer.best_iters": "count",
    "optimizer.sphere_restarts": "count",
}
# ratio metric -> the step whose calls divide the counter of the same name
PER_CALL = {
    "moments.cubature.inconclusive": "moments.certify_cubature",
    "optimizer.success": "optimizer.minimize_ffp",
}


def catalogue() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    out = {}
    for prefix in STEPS:
        out.update({f"{prefix}.s": "s", f"{prefix}.calls": "count",
                    f"{prefix}.fail": "count"})
    out.update({f"frames.certify_tight.p{p}.s": "s" for p in CERTIFY_ORDERS})
    out.update(COUNTS)
    out["constructions.orbit_keep_ratio"] = "ratio"
    out.update({name: "ratio" for name in PER_CALL})
    out.update({
        "moment_err.max": "1",
        "opt_reach_frac": "ratio",
        "failed_frac": "ratio",
        "bench.job_self.s": "s",
        "bench.ref_s": "s",
        "trace.jobs_per_s": "1/s",
        "trace.overhead_frac": "ratio",
        "trace.spans": "count",
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, records: list, wall_s: float,
                  jobs_per_s: float) -> dict:
    """Aggregate the spans of one traced run into the per-layer metrics;
    ``jobs_per_s`` is the run's throughput as the untraced run computes it.
    Ratios over zero calls read 0."""
    values = dict.fromkeys(catalogue(), 0.0)
    span_to_prefix = {name: prefix for prefix, names in STEPS.items() for name in names}
    child_s: dict = {}
    job_s = 0.0
    for sp in tracer.spans:
        dur = sp.end - sp.start
        if sp.name == "job":
            job_s += dur
            continue
        if sp.parent is not None:
            child_s[sp.parent] = child_s.get(sp.parent, 0.0) + dur
        prefix = span_to_prefix.get(sp.name)
        if prefix is None:
            continue
        values[f"{prefix}.s"] += dur
        values[f"{prefix}.calls"] += 1
        values[f"{prefix}.fail"] += int(sp.failed)
        if sp.name == "frames.certify_tight":
            values[f"frames.certify_tight.p{sp.attrs['p']}.s"] += dur
        for key, value in sp.attrs.items():
            if key in COUNTS or key in PER_CALL:
                values[key] += value
            elif key == "moment_err.max":
                values[key] = max(values[key], value)
    job_ids = {sp.id for sp in tracer.spans if sp.name == "job"}
    values["bench.job_self.s"] = job_s - sum(child_s.get(i, 0.0) for i in job_ids)
    values["constructions.orbit_keep_ratio"] = _ratio(
        values["constructions.orbit_kept"], values["constructions.orbit_images"])
    for name, step in PER_CALL.items():
        values[name] = _ratio(values[name], values[f"{step}.calls"])
    reached = [sp.attrs.get("optimizer.success", 0) for sp in tracer.spans
               if sp.name == "optimizer.minimize_ffp"
               and tracer.spans[sp.job].attrs["reachable"]]
    values["opt_reach_frac"] = _ratio(sum(reached), len(reached))
    values["failed_frac"] = _ratio(sum(r.failed for r in records), len(records))
    values["bench.ref_s"] = sum(r.ref_s for r in records) / len(records)
    values["trace.jobs_per_s"] = jobs_per_s
    values["trace.overhead_frac"] = tracer.overhead_s / wall_s
    values["trace.spans"] = len(tracer.spans)
    return values
