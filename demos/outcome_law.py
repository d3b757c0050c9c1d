"""How the quantum subset-mass estimator is simulated, and why to trust it.

The estimator never touches a state vector: it samples the closed-form
measurement law of the m-step estimation network.  This script checks that
law against a dense unitary simulation of the full network, then exercises
the (delta, omega) accuracy contract that every tester relies on.
"""

import numpy as np

from qdisttest import (
    DEFAULT_C,
    Distribution,
    OracleTable,
    ae_outcome_pmf,
    coverage_probability,
    est_prob,
    make_oracle,
    queries_for,
    unitary_reference_pmf,
)

rng = np.random.default_rng(2024)

print("=== closed-form law vs dense network simulation ===")
worst = 0.0
for _ in range(50):
    s = int(rng.integers(2, 65))
    n = int(rng.integers(2, 16))
    oracle = OracleTable(rng.integers(0, n, size=s), n)
    target = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    m = int(rng.integers(1, 33))
    mass = int(oracle.distribution().counts[np.sort(target)].sum()) / s
    tv = 0.5 * np.abs(
        ae_outcome_pmf(mass, m) - unitary_reference_pmf(oracle, target, m)
    ).sum()
    worst = max(worst, tv)
print(f"worst total-variation gap over 50 random instances: {worst:.2e}\n")

print("=== outcome law at a glance (mass 0.25, m = 16) ===")
pmf = ae_outcome_pmf(0.25, 16)
for y, prob in enumerate(pmf):
    estimate = np.sin(np.pi * y / 16) ** 2
    bar = "#" * int(60 * prob)
    print(f"y={y:2d} estimate={estimate:.3f} prob={prob:.4f} {bar}")

print("\n=== accuracy contract ===")
pa, delta, omega = 0.25, 0.05, 0.1
m = queries_for(delta, omega, pa)
print(f"target mass {pa}, delta {delta}, omega {omega}, constant c={DEFAULT_C:.4f}")
print(f"query budget m = {m}; exact coverage = {coverage_probability(pa, delta, m):.4f}")

counts = np.zeros(4, dtype=np.int64)
counts[0], counts[1] = 1, 3
oracle = make_oracle(Distribution(counts, 4), 4)
hits = sum(abs(est_prob(oracle, (0,), m, rng).estimate - pa) <= delta for _ in range(5000))
print(f"empirical coverage over 5000 runs: {hits / 5000:.4f} (contract: >= {1 - omega})")

print("\nzero-mass certainty: estimating an empty-target mass 100000 times ...")
assert all(est_prob(oracle, (), 5, rng).estimate == 0.0 for _ in range(100000))
print("every estimate was exactly 0")
