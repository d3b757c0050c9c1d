"""Turning function-collision instances into orthogonality instances.

A function on n inputs promised injective or exactly two-to-one is relabeled
by a random domain permutation and split into odd-input and even-input oracles.
Injective functions always yield orthogonal pairs (distance exactly 2).
Two-to-one functions induce a random perfect matching on the domain, and the
distance is 2 - (4/n) * (#matched pairs straddling the parity classes) --
computable two independent ways, which this script cross-checks.
"""

import numpy as np

from qdisttest import (
    CollisionFunction,
    build_collision_oracles,
    distribution_of,
    l1_distance,
    matching_parity_distance,
)

rng = np.random.default_rng(64)
n = 2**10

print("=== injective functions split into orthogonal pairs ===")
h = CollisionFunction.one_to_one(n, rng)
distances = set()
for _ in range(200):
    op, oq = build_collision_oracles(h, rng.permutation(n))
    distances.add(l1_distance(distribution_of(op), distribution_of(oq)))
print(f"distances observed over 200 relabelings: {sorted(distances)}")

print("\n=== two-to-one functions: parity bookkeeping vs direct distance ===")
h = CollisionFunction.two_to_one(n, rng)
vals = []
for _ in range(1000):
    sigma = rng.permutation(n)
    direct = l1_distance(*map(distribution_of, build_collision_oracles(h, sigma)))
    formula = matching_parity_distance(h, sigma)
    assert direct == formula
    vals.append(direct)
vals = np.array(vals)
print(f"1000 relabelings: distance mean {vals.mean():.4f}, "
      f"max {vals.max():.4f}, Pr[<= 7/4] = {(vals <= 1.75).mean():.3f}")
print("(the reduction needs distance <= 7/4 with probability >= 1/2)")

print("\n=== the matchings behind the analysis ===")
# A uniformly random relabeling induces a uniformly random perfect matching,
# and distance d leaves (2 - d) * n/4 matched pairs straddling the parities.
n = 64
h = CollisionFunction.two_to_one(n, rng)
cross = np.array([
    (2 - matching_parity_distance(h, rng.permutation(n))) * n / 4 for _ in range(2000)
])
print(f"n={n}: cross-parity pairs per relabeling: mean {cross.mean():.2f} of {n // 2}, "
      f"min {cross.min():.0f}, Pr[< n/16] = {(cross < n / 16).mean():.3f} "
      "(the analysis needs >= n/16 half the time)")
