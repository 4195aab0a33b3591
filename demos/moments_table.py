"""Haar moments of projector overlaps: the exact zonal sum against sampling.

t_exact returns E trace(P_V P_W)^p as a rational for every (k, l, d, p);
t_matrix reports the table of them as floats with error 0.  Monte Carlo over
Haar subspaces, sampled here with haar_basis_batch, is an independent check
and should land within a few standard errors of the exact value.
"""
import numpy as np

from fusionframes import haar_basis_batch, t_exact, t_matrix

# p = 1 is pure linear algebra: E tr(P_V P_W) = kl/d
print("kl/d checks, d=5:")
for k in range(1, 5):
    print("  ", [str(t_exact(k, l, 5, 1)) for l in range(1, 5)])

# one random line against a k-plane has a Pochhammer closed form
print("\nt_exact(2, 1, 4, p) for p = 1..4:", [str(t_exact(2, 1, 4, p)) for p in (1, 2, 3, 4)])

# the whole table is exact: rationals, every error 0
table = t_matrix(4, 2)
for k, l, p, value, error, method in table.rows():
    print(f"T_{{{k},{l}}}(2) = {str(t_exact(k, l, 4, p)):>6} = {value:.10f}"
          f"  err={error:.1e}  [{method}]")

# Monte Carlo should agree with the exact value to a few stderr; W is the
# span of the first l coordinates, which by invariance changes nothing
rng = np.random.default_rng(0)
budget = 200_000
print()
for k, l, d, p in ((2, 2, 5, 2), (3, 3, 7, 2), (3, 4, 8, 3)):
    exact = t_exact(k, l, d, p)
    vals = (haar_basis_batch(d, k, budget, rng)[:, :l, :] ** 2).sum(axis=(1, 2)) ** p
    value, error = vals.mean(), vals.std(ddof=1) / np.sqrt(budget)
    print(f"({k},{l},{d},{p}): exact {exact} = {float(exact):.8f}, "
          f"mc {value:.8f} +- {error:.1e} "
          f"({abs(value - float(exact)) / error:.1f} stderr)")
