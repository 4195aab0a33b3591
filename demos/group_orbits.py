"""Symmetry route to tight frames: close a group, test it, take orbits.

A finite orthogonal group whose only degree-2p invariant polynomials are
the multiples of (x_1^2+...+x_d^2)^p turns EVERY orbit into a tight
order-p frame.  invariance_check counts those invariants by Molien's
formula; groups with more than one leave some orbits untight, and sampling
finds them.
"""
import numpy as np

from fusionframes import (
    catalog,
    certify_tight,
    close_group,
    haar_random,
    invariance_check,
    orbit_frame,
    subspaces_equal,
    weyl_a2_group,
)

weyl = weyl_a2_group()
print("Weyl A2 closure order:", len(weyl))
for p in (1, 2, 3):
    rep = invariance_check(weyl, p)
    print(f"  p={p}: invariant dim {rep.invariant_dim}, "
          f"{'passes' if rep.passes else 'fails'}")

# one invariant at p=2, so any line orbit is tight at order 2
rng = np.random.default_rng(0)
for trial in range(3):
    seed = haar_random(2, 1, rng)
    orb = orbit_frame(weyl, seed)
    cert = certify_tight(orb, 2)
    print(f"orbit {trial}: {len(orb)} lines, tight={cert.tight}, "
          f"residual={cert.residual:.1e}")

# the x-axis orbit is the mercedes configuration
merc = catalog("mercedes")
axis_orbit = orbit_frame(weyl, catalog("equispaced-lines(3)").subspaces[0])
print("x-axis orbit is mercedes:",
      all(any(subspaces_equal(s, t) for t in merc.subspaces)
          for s in axis_orbit.subspaces))

# a single reflection is too small a group; its orbits are pairs of
# mirrored lines and those are almost never tight
refl = close_group([np.diag([1.0, -1.0])])
print("\nreflection group order:", len(refl))
print("invariance at p=1:", invariance_check(refl, 1))
bad = 0
for _ in range(20):
    orb = orbit_frame(refl, haar_random(2, 1, rng))
    if not certify_tight(orb, 1).tight:
        bad += 1
print(f"untight orbits: {bad}/20")
