"""Why no classical tester can certify uniformity in n^(1/2)/32 samples.

A tester of a relabeling-invariant property only ever sees the fingerprint
of its sample list (how many values appeared once, twice, ...).  With a
Poisson-size sample the per-element counts become independent, the
fingerprint distribution is controlled by the distribution's power sums,
and a moment-series bound shows the half-support instance is statistically
indistinguishable from uniform below a square-root sample budget.
"""

import math

import numpy as np

from qdisttest import (
    corollary_report,
    empirical_fingerprint_tv,
    fingerprint_of,
    half_support,
    sample_poissonized_fingerprint,
    uniform,
    valiant_bound,
)

rng = np.random.default_rng(1234)

print("=== fingerprints forget identities, keep collision structure ===")
for samples in ([3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [1, 1, 1, 2, 2]):
    print(f"  {samples} -> {dict(fingerprint_of(samples))}")

n = 100
u, p = uniform(n), half_support(n)
print(f"\npower sums at n={n} (uniform vs half-support):")
for k in (2, 3, 4):
    su, sp = (float(((d.counts / d.denominator) ** k).sum()) for d in (u, p))
    print(f"  k={k}: {su:.2e} vs {sp:.2e} (ratio {sp / su:.0f})")

print("\n=== Poissonized fingerprints at a tiny sample budget ===")
rate = 5 * math.sqrt(n) * 2**-5
print(f"rate parameter {rate}; a few draws from the half-support instance:")
for _ in range(5):
    print(f"  {dict(sample_poissonized_fingerprint(p, rate, rng))}")

delta = max(0.05, p.max_weight * rate * 1.01)
bound = valiant_bound(p, rate, delta)
tv = empirical_fingerprint_tv(p, u, rate, 10**4, rng)
print(f"moment-series bound on the fingerprint distance: {bound:.4f}")
print(f"plug-in estimate from 10^4 draws per side:       {tv:.4f}")

print("\n=== the certification arithmetic ===")
for a in (1, 3, 5):
    r = corollary_report(10**6, a, 1e-4)
    verdict = "CERTIFIED" if r.certified else "not certified"
    print(f"budget 2^-{a} sqrt(n) = {r.samples:8.2f} samples: bound {r.bound:10.6f} "
          f"vs 1/12 -> {verdict}")
print("at a=5 the bound 0.082125 sits below 1/12, so no tester at that "
      "budget can distinguish the two instances")
