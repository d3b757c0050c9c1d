"""Shared test utilities kept independent of the library code paths."""

import numpy as np


def random_distribution(rng: np.random.Generator, n: int, max_count: int = 8):
    """Random exact distribution as (counts, denominator)."""
    counts = rng.integers(0, max_count + 1, size=n)
    if counts.sum() == 0:
        counts[int(rng.integers(n))] = 1
    return counts, int(counts.sum())


def collision_pairs(samples) -> int:
    """Colliding pairs in a sample list, sum over values of C(k, 2), by ``np.unique``."""
    _, k = np.unique(samples, return_counts=True)
    return int((k * (k - 1) // 2).sum())


def inner_product(p, q) -> float:
    """Inner product ``sum p_i q_i`` of two distributions on one domain, in
    Python-int arithmetic over their dense ``counts``, rounded once at the end."""
    assert p.n == q.n
    num = sum(a * b for a, b in zip(p.counts.tolist(), q.counts.tolist()))
    return num / (p.denominator * q.denominator)
