"""Testing orthogonality: do two distributions share any support?

Draw M samples from the first distribution and quantumly estimate the second
distribution's mass on the set of values seen.  Disjoint supports give mass
exactly zero, and the estimator returns zero with certainty, so orthogonal
pairs are never falsely rejected; overlapping pairs light up with constant
probability per round, amplified one-sidedly by repetition.
"""

import numpy as np

from qdisttest import (
    OrthogonalityParams,
    classical_orthogonality_test,
    disjoint_pair,
    make_oracle,
    orthogonality_test,
    otest,
    overlapping_pair,
)

rng = np.random.default_rng(5150)
n, eps = 1000, 0.5
params = OrthogonalityParams(epsilon=eps)
m, k, thr = params.resolved(n)
print(f"n={n}, eps={eps}: M={m} samples, K={k} rotations, reject at {thr:.2e}")

p, q = disjoint_pair(n)
op = make_oracle(p, p.denominator)
oq = make_oracle(q, q.denominator)
print("\ndisjoint pair, 20000 single rounds ...")
rejections = sum(otest(op, oq, params, rng).decision == "reject" for _ in range(20000))
print(f"false rejections: {rejections} (one-sided by construction)")

p, q = overlapping_pair(n, eps)
op = make_oracle(p, p.denominator)
oq = make_oracle(q, q.denominator)
single = sum(otest(op, oq, params, rng).decision == "reject" for _ in range(500)) / 500
print(f"\noverlapping pair at distance {2 - eps}: single-round rejection {single:.3f}")

for rounds in (1, 2, 4, 8):
    wrapped = OrthogonalityParams(epsilon=eps, rounds=rounds)
    rate = sum(
        orthogonality_test(op, oq, wrapped, rng).decision == "reject" for _ in range(200)
    ) / 200
    floor = 1 - 0.75**rounds
    print(f"  {rounds} rounds: rejection {rate:.3f} (guaranteed floor {floor:.3f})")

print("\n=== classical cross-collision baseline ===")
mc = int(4 * np.sqrt(n))
rate = sum(
    classical_orthogonality_test(op, oq, mc, rng) == "reject" for _ in range(200)
) / 200
print(f"classical finder with {2 * mc} samples: rejection {rate:.3f}")
