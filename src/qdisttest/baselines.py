"""Classical testers: the comparison curves for the quantum speedup experiments.

Each one draws i.i.d. samples; adaptivity gains nothing against a sampling
oracle, because every query is a fresh table read at a uniformly random input.
Sample budgets are calibrated empirically by the harness rather than taken
from literature constants, so scaling comparisons run at matched error
levels.
"""

from __future__ import annotations

import numpy as np

from .distributions import OracleTable, QueryLedger, classical_samples
from .distributions import _count, _positive, _same_support

__all__ = [
    "classical_uniformity_test",
    "classical_statdiff_plugin",
    "classical_orthogonality_test",
]


def _sorted_collision_pairs(s: np.ndarray) -> int:
    """Colliding pairs of the sorted array ``s``, from its runs of equal
    neighbours: a value seen k times gives a run of k - 1 consecutive hits
    of ``s[1:] == s[:-1]``, and C(k, 2) = 1 + 2 + ... + (k - 1) pairs."""
    hits = np.flatnonzero(s[1:] == s[:-1])
    runs = np.flatnonzero(np.diff(hits, prepend=-2) != 1)  # first hit of each run
    k1 = np.diff(runs, append=hits.size)  # k - 1 per run
    return int((k1 * (k1 + 1) // 2).sum())


def classical_uniformity_test(
    o: OracleTable,
    m: int,
    epsilon: float,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
) -> str:
    """Collision-count uniformity tester.

    The pairwise-collision rate ``c^ = (#colliding pairs) / C(m, 2)`` is an
    unbiased estimate of the self inner product of the sampled distribution,
    which equals ``1/n`` exactly for uniform and is at least
    ``(1 + eps^2)/n`` for any eps-nonuniform distribution.  Rejects at the
    midpoint ``(1 + eps^2/2)/n``.
    """
    m = _count(m, "m", 2)  # a collision needs two samples
    _positive(epsilon, "epsilon")
    samples = classical_samples(o, m, rng, ledger)
    samples.sort()  # a fresh array, sorted in place
    c_hat = _sorted_collision_pairs(samples) / (m * (m - 1) / 2)
    return "reject" if c_hat > (1.0 + epsilon**2 / 2.0) / o.n else "accept"


def classical_statdiff_plugin(
    op: OracleTable,
    oq: OracleTable,
    m: int,
    rng: np.random.Generator,
    ledger_p: QueryLedger | None = None,
    ledger_q: QueryLedger | None = None,
) -> float:
    """Half the L1 distance between empirical histograms of m samples each.

    The naive plug-in baseline: consistent as m grows, but wildly biased
    upward when m is far below the support size (disjoint-looking empirical
    supports), which is exactly the regime the quantum estimator escapes.
    """
    n = _same_support(op, oq)
    m = _count(m, "m")
    # Sort the keys 2 * v + side (0 for p, 1 for q) once, in the narrowest
    # type that holds 2n - 1.  sum |#p - #q| = 2m - 2 * (sum of min(#p, #q)),
    # and only the values v drawn on both sides add to the sum of minima:
    # those where a key 2v is followed by 2v + 1, its neighbour in all but
    # the lowest bit.
    keys = np.empty(2 * m, np.min_scalar_type(2 * n - 1))
    keys[:m] = classical_samples(op, m, rng, ledger_p)
    keys[m:] = classical_samples(oq, m, rng, ledger_q)
    keys <<= 1
    keys[m:] |= 1
    keys.sort()
    ends = np.flatnonzero((keys[1:] ^ keys[:-1]) == 1) + 1  # where p's draws of such a v end
    count_p = ends - keys.searchsorted(keys[ends - 1])
    count_q = keys.searchsorted(keys[ends], "right") - ends
    # (2m - 2 * shared) / (2m), exactly: Python divides integers with one rounding.
    return (m - int(np.minimum(count_p, count_q).sum())) / m


def classical_orthogonality_test(
    op: OracleTable,
    oq: OracleTable,
    m: int,
    rng: np.random.Generator,
    ledger_p: QueryLedger | None = None,
    ledger_q: QueryLedger | None = None,
) -> str:
    """Cross-collision finder: reject iff the two sample sets intersect.

    Never rejects disjoint distributions; finds an intersection with
    birthday-bound probability otherwise.
    """
    _same_support(op, oq)
    m = _count(m, "m")
    sp = classical_samples(op, m, rng, ledger_p)
    sq = classical_samples(oq, m, rng, ledger_q)
    sq.sort()  # a fresh array, sorted in place: look each of sp up in it
    return "reject" if np.any(sq[np.minimum(sq.searchsorted(sp), m - 1)] == sp) else "accept"
