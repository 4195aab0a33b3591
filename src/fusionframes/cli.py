"""Command-line front end.

Four subcommands: ``check`` (certifications of an existing frame file),
``gen`` (constructions emitting frame JSON), ``moments`` (CSV moment
tables), ``optimize`` (potential minimization emitting a frame plus trace).

Reports are JSON with a fixed key order; the wall-time field is always
last so byte-wise comparisons can strip it.  Exit codes: 0 for positive
verdicts, 1 for negative verdicts, 2 for usage or data errors.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

import numpy as np

from .constructions import (
    DEFAULT_MAX_ORDER,
    catalog,
    catalog_names,
    close_group,
    extend,
    load_generators,
    load_line_set,
    orbit_frame,
    realify,
)
from .errors import (CERTIFY_TOL, EQUALITY_TOL, TARGET_MARGIN, TOL_GRAD, FusionFrameError,
                     ParameterError, check_order)
from .frames import certify_tight, frame_from_dict, load_frame, save_frame
from .moments import certify_cubature, t_matrix
from .optimizer import MAX_ITERS, STOP_REASONS, OptimizerConfig, minimize_ffp, sphere_bounds
from .potential import equiangularity, ffp
from .subspaces import haar_basis_batch, make_subspace


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(report: dict, started: float) -> None:
    """Write the report, all at once: an infinite or NaN value is a
    ValueError (JSON has neither), and nothing reaches stdout."""
    report["wall_time_s"] = round(time.monotonic() - started, 6)
    sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _float_repr(x: float) -> str:
    return format(float(x), ".17g")


def _stop_counts(reasons) -> dict:
    return {reason: reasons.count(reason) for reason in STOP_REASONS}


# ---------------------------------------------------------------------------
# check

def cmd_check(args) -> int:
    started = time.monotonic()
    check_order(args.p)     # every mode, also those that do not read it
    if args.tol is not None and not 0 <= args.tol < np.inf:
        raise ParameterError(f"--tol must be finite and at least 0, got {args.tol!r}")
    with open(args.frame, "rb") as fh:     # once: the digest names the parsed bytes
        data = fh.read()
    frame = frame_from_dict(json.loads(data))
    report = {
        "command": "check",
        "input": {"path": args.frame, "sha256": hashlib.sha256(data).hexdigest()},
        "parameters": {"p": args.p, "mode": args.mode},
    }
    if args.tol is None:    # each mode's library default
        args.tol = EQUALITY_TOL if args.mode == "equiangular" else CERTIFY_TOL
    exit_code = 0
    if args.mode == "tight":
        cert = certify_tight(frame, args.p, tol=args.tol)
        report["results"] = {
            "verdict": "tight" if cert.tight else "not-tight",
            "residual": cert.residual,
            "abs_residual": cert.abs_residual,
            "forced_constant": cert.target_A,
        }
        exit_code = 0 if cert.tight else 1
    elif args.mode == "cubature":
        cert = certify_cubature(frame, args.p, tol=args.tol)
        report["results"] = {
            "verdict": cert.verdict,
            "residual": cert.residual,
            "method": "lie-derivative",
            "monomials": cert.monomials,
            "ffp": cert.ffp_value,
            "t_value": cert.t_value,
            "margin": cert.margin,
        }
        exit_code = 0 if cert.verdict == "cubature" else 1
    elif args.mode == "equiangular":
        rep = equiangularity(frame, tol=args.tol)
        report["results"] = {
            "verdict": "equiangular" if rep.is_equiangular else "not-equiangular",
            "common_value": rep.common_value,
            "spread": rep.spread,
            "n_distinct": rep.n_distinct,
            "all_distinct": rep.all_distinct,
            "gerzon_ok": rep.gerzon_ok,
            "predicted_common_value": rep.predicted_common_value,
        }
        exit_code = 0 if rep.is_equiangular else 1
    else:   # bounds
        rng = np.random.default_rng(args.seed)
        bounds = sphere_bounds(frame, args.p, restarts=args.restarts, rng=rng)
        report["results"] = {
            "a_estimate": bounds.lo,
            "b_estimate": bounds.hi,
            "ffp": ffp(frame, args.p),
            "stop_reasons": _stop_counts(bounds.stop_reasons),
            "note": "sphere extrema are numeric estimates, not certificates",
        }
    report["tolerances"] = ({"restarts": args.restarts} if args.mode == "bounds"
                            else {"tol": args.tol})
    _emit(report, started)
    return exit_code


# ---------------------------------------------------------------------------
# gen

def _gen_frame(args):
    if args.kind == "catalog":
        return catalog(args.name), {"name": args.name}
    if args.kind == "orbit":
        gens = load_generators(args.generators)
        group = close_group(gens, max_order=args.max_order)
        if args.seed_angle is not None:
            if not np.isfinite(args.seed_angle):
                raise ParameterError(f"--seed-angle must be finite, got {args.seed_angle!r}")
            theta = np.deg2rad(args.seed_angle)
            seed_sub = make_subspace(np.array([[np.cos(theta)], [np.sin(theta)]]))
            seed = {"seed_angle": args.seed_angle}
        else:
            dim = 1 if args.seed_dim is None else args.seed_dim
            seed_sub = haar_basis_batch(group.d, dim, 1, np.random.default_rng(args.seed))[0]
            seed = {"seed_dim": dim, "seed": args.seed}
        frame = orbit_frame(group, seed_sub)
        return frame, dict(generators=args.generators, **seed, group_order=len(group),
                           orbit_size=len(frame))
    if args.kind == "extend":
        inner = load_frame(args.inner)
        outer = load_frame(args.outer)
        return extend(inner, outer), {"inner": args.inner, "outer": args.outer}
    # realify
    lines = load_line_set(args.lines)
    return realify(lines), {"lines": args.lines, "n_lines": len(lines.vectors)}


def cmd_gen(args) -> int:
    started = time.monotonic()
    frame, info = _gen_frame(args)
    save_frame(frame, args.output)
    report = {
        "command": "gen",
        "parameters": dict({"kind": args.kind}, **info),
        "results": {
            "output": args.output,
            "sha256": _digest(args.output),
            "ambient_dim": frame.ambient_dim,
            "n_entries": len(frame),
            "dims": sorted(set(int(x) for x in frame.dims)),
        },
    }
    _emit(report, started)
    return 0


# ---------------------------------------------------------------------------
# moments

def cmd_moments(args) -> int:
    table = t_matrix(args.d, args.p)
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["k", "l", "p", "value", "error", "method"])
        for k, l, p, value, error, method in table.rows():
            writer.writerow([k, l, p, _float_repr(value), _float_repr(error),
                             method])
    finally:
        if args.output:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    started = time.monotonic()
    cfg = OptimizerConfig(n=args.n, k=args.k, d=args.d, p=args.p, restarts=args.restarts)
    rng = np.random.default_rng(args.seed)
    trace = minimize_ffp(cfg, rng)
    cert = certify_tight(trace.frame, cfg.p)
    if args.output:
        save_frame(trace.frame, args.output)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "ffp"])
            for i, value in enumerate(trace.values):
                writer.writerow([i, _float_repr(value)])
    report = {
        "command": "optimize",
        "parameters": {
            "d": cfg.d, "k": cfg.k, "n": cfg.n, "p": cfg.p,
            "restarts": cfg.restarts, "max_iters": MAX_ITERS,
            "seed": args.seed,
        },
        "results": {
            "ffp": trace.final_value,
            "t_value": trace.t_value,
            "t_error": trace.t_error,
            "margin": trace.margin,
            "success": trace.success,
            "grad_norm": trace.grad_norm,
            "best_restart": trace.restart_index,
            "iterations": len(trace.values) - 1,
            "stop_reason": trace.restart_stop_reasons[trace.restart_index],
            "stop_reasons": _stop_counts(trace.restart_stop_reasons),
            "hessian_evaluations": trace.hessian_evaluations,
            "certified_tight": cert.tight,
            "certify_residual": cert.residual,
            "certify_abs_residual": cert.abs_residual,
            "frame_file": args.output,
            "trace_file": args.trace,
        },
        "tolerances": {
            "tol_grad": TOL_GRAD,
            "target_margin": TARGET_MARGIN,
            "certify_tol": CERTIFY_TOL,
        },
    }
    _emit(report, started)
    return 0 if trace.success else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionframes",
        description="Build, certify, and optimize tight p-fusion frames.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_check = sub.add_parser("check", help="certify a frame file")
    p_check.add_argument("frame", help="frame JSON file")
    p_check.add_argument("--p", type=int, required=True)
    p_check.add_argument("--mode", required=True,
                         choices=["tight", "cubature", "equiangular", "bounds"])
    p_check.add_argument("--tol", type=float, default=None,
                         help="verdict tolerance (default: the mode's library default)")
    p_check.add_argument("--restarts", type=int, default=32,
                         help="sphere restarts for --mode bounds")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="construct a frame and write it as JSON")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    g_cat = gen_sub.add_parser("catalog", help="built-in frames")
    g_cat.add_argument("name", help="one of: " + ", ".join(catalog_names()))
    g_orb = gen_sub.add_parser("orbit", help="orbit of a seed subspace under "
                                             "the closure of generator matrices")
    g_orb.add_argument("--generators", required=True,
                       help="JSON list of square row-major matrices")
    # default None: argparse lets a value equal to the default past the group
    g_seed = g_orb.add_mutually_exclusive_group()
    g_seed.add_argument("--seed-dim", type=int, default=None,
                        help="dimension of a Haar-random seed subspace (default 1)")
    g_seed.add_argument("--seed-angle", type=float, default=None,
                        help="use the line at this angle (degrees) as seed; "
                             "ambient dimension 2 only")
    g_orb.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    g_ext = gen_sub.add_parser("extend", help="plant the inner frame inside "
                                              "each subspace of the outer frame")
    g_ext.add_argument("--inner", required=True)
    g_ext.add_argument("--outer", required=True)
    g_real = gen_sub.add_parser("realify", help="complex lines to real 2-planes")
    g_real.add_argument("--lines", required=True,
                        help="JSON list of interleaved re/im unit vectors")
    for g in (g_cat, g_orb, g_ext, g_real):
        g.add_argument("-o", "--output", required=True, help="frame JSON path")
        g.set_defaults(func=cmd_gen)

    p_mom = sub.add_parser("moments", help="CSV table of Haar overlap moments")
    p_mom.add_argument("--d", type=int, required=True)
    p_mom.add_argument("--p", type=int, required=True)
    p_mom.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p_mom.set_defaults(func=cmd_moments)

    p_opt = sub.add_parser("optimize", help="minimize the frame potential")
    p_opt.add_argument("--d", type=int, required=True)
    p_opt.add_argument("--k", type=int, required=True)
    p_opt.add_argument("--n", type=int, required=True)
    p_opt.add_argument("--p", type=int, required=True)
    p_opt.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    p_opt.add_argument("-o", "--output", default=None, help="frame JSON path")
    p_opt.add_argument("--trace", default=None, help="CSV trace path")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or invalid operation is a data error, not a warning
        # followed by an infinite or NaN result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (FusionFrameError, OSError, ValueError, FloatingPointError) as exc:
        json.dump({"command": args.subcommand, "error": type(exc).__name__,
                   "message": str(exc)}, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
