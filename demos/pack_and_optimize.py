"""Search for potential minimizers on products of Stiefel manifolds.

minimize_ffp drives the order-p potential toward its Haar-moment floor.
Hitting the floor certifies a cubature (hence a tight frame); stalling
above it proves nothing, and the trace reports that honestly.
"""
import numpy as np

from fusionframes import (
    OptimizerConfig,
    certify_tight,
    equiangularity,
    minimize_ffp,
    sphere_extrema,
)

# three lines in the plane at p=2: the mercedes value 3/8 is reachable
cfg = OptimizerConfig(n=3, k=1, d=2, p=2, restarts=8)
trace = minimize_ffp(cfg, rng=np.random.default_rng(0))
print(f"n=3 k=1 d=2 p=2: ffp={trace.final_value:.12f} "
      f"target={trace.t_value:.12f}")
print(f"  success={trace.success} margin={trace.margin:.2e} "
      f"iters={len(trace.values) - 1} grad={trace.grad_norm:.1e}")

rep = equiangularity(trace.frame)
print(f"  equiangular={rep.is_equiangular} common={rep.common_value:.8f} "
      "(predicted 1/4)")
print("  certified tight at p=2:", certify_tight(trace.frame, 2).tight)

# two lines cannot reach the p=2 floor; the run must report failure
cfg = OptimizerConfig(n=2, k=1, d=2, p=2, restarts=8)
trace = minimize_ffp(cfg, rng=np.random.default_rng(0))
print(f"\nn=2 k=1 d=2 p=2: ffp={trace.final_value:.6f} "
      f"target={trace.t_value:.6f} success={trace.success}")
print("  best the pair can do is an orthogonal cross, ffp=1/2")

# six 2-planes in R^4 at p=2, the realified MUB size
cfg = OptimizerConfig(n=6, k=2, d=4, p=2, restarts=8)
trace = minimize_ffp(cfg, rng=np.random.default_rng(1))
print(f"\nn=6 k=2 d=4 p=2: ffp={trace.final_value:.10f} "
      f"target={trace.t_value:.10f} success={trace.success}")

# frame bounds via sphere extrema: numeric estimates, not certificates
lo, hi = sphere_extrema(trace.frame, 2, restarts=8,
                        rng=np.random.default_rng(2))
print(f"  sphere extrema of the result: A~{lo:.8f} B~{hi:.8f}")
