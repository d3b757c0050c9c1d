"""Testing uniformity: collisions plus a quantum mass estimate.

A single round draws M samples, rejects outright on any repeated value, and
otherwise asks the quantum estimator whether the sampled set carries more
mass than M/n.  Nonuniform mass inflates the sampled set's weight; uniform
instances sit exactly at M/n.  Total cost scales like n^(1/3) against the
classical collision tester's n^(1/2).
"""

import numpy as np

from qdisttest import (
    QueryLedger,
    UniformityParams,
    biased_pair,
    classical_uniformity_test,
    make_oracle,
    run_scaling,
    uniform,
    uniformity_test,
)

rng = np.random.default_rng(99)
n, eps = 100_000, 0.5
params = UniformityParams(epsilon=eps, mode="practical")
m, k, l, thr = params.resolved(n)
print(f"n={n}, eps={eps}: per round M={m} samples, K={k} rotations, "
      f"L={l} round(s), reject above {thr:.2e}")

ou = make_oracle(uniform(n), n)
p, _ = biased_pair(n, eps)
ob = make_oracle(p, p.denominator)

trials = 100
acc = sum(uniformity_test(ou, params, rng).decision == "accept" for _ in range(trials))
rej = sum(uniformity_test(ob, params, rng).decision == "reject" for _ in range(trials))
print(f"uniform instance accepted {acc}/{trials}")
print(f"eps-nonuniform instance rejected {rej}/{trials}")

verdict = uniformity_test(ou, params, rng)
ledger = verdict.ledgers["p"]
print(f"a typical run: {ledger.classical_samples} classical + "
      f"{ledger.quantum_applications} quantum queries")

print("\n=== classical collision tester at the same instance ===")
mc = int(20 * np.sqrt(n))
ledger = QueryLedger()
decision = classical_uniformity_test(ou, mc, eps, rng, ledger)
print(f"classical tester: {ledger.classical_samples} samples -> {decision}")

print("\n=== scaling fits (this takes a few seconds) ===")
ns = [10**3, 10**4, 10**5, 10**6]
q = run_scaling("uniformity", ns, eps, trials=40, seed=12)
c = run_scaling("uniformity-classical", ns, eps, trials=40, seed=13)
print(f"quantum   slope: {q.slope:.3f} +- {q.slope_stderr:.3f}  (theory 1/3)")
print(f"classical slope: {c.slope:.3f} +- {c.slope_stderr:.3f}  (theory 1/2)")
for row in q.rows:
    print(f"  quantum n={row.n:>8}: mean queries {row.mean_queries:10.1f} "
          f"error {row.error_rate:.3f}")
