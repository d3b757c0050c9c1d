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

__all__ = [
    "collision_pair_count",
    "classical_uniformity_test",
    "classical_statdiff_plugin",
    "classical_orthogonality_test",
]


def collision_pair_count(samples) -> int:
    """Number of colliding pairs in a sample list: sum over values of C(k, 2).

    Counts a sorted copy, so the input is left as it is.  The testers sort
    their own fresh draws in place instead: each copy of a batch is pages
    the allocator may hand back to the system and fault in again on the
    next call, and ``np.unique``'s copies cost more than the sort itself.
    """
    return _sorted_collision_pairs(np.sort(np.asarray(samples), axis=None))


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
    m = int(m)
    if m < 2:
        raise ValueError("need at least two samples to count collisions")
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
    if op.n != oq.n:
        raise ValueError("oracles must share a support size")
    m = int(m)
    if m < 1:
        raise ValueError("need at least one sample")
    sp = classical_samples(op, m, rng, ledger_p)
    sq = classical_samples(oq, m, rng, ledger_q)
    cells = op.n
    if 16 * m < cells:  # few draws: count the values seen, not all n cells
        seen, idx = np.unique(np.concatenate((sp, sq)), return_inverse=True)
        sp, sq, cells = idx[:m], idx[m:], seen.size
    diff = np.bincount(sp, minlength=cells)
    diff -= np.bincount(sq, minlength=cells)
    np.abs(diff, out=diff)
    # Integer counts keep the sum exact; one division rounds once.
    return int(diff.sum()) / (2 * m)


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
    if op.n != oq.n:
        raise ValueError("oracles must share a support size")
    m = int(m)
    if m < 1:
        raise ValueError("need at least one sample")
    sp = classical_samples(op, m, rng, ledger_p)
    sq = classical_samples(oq, m, rng, ledger_q)
    sq.sort()  # a fresh array, sorted in place: look each of sp up in it
    return "reject" if np.any(sq[np.minimum(sq.searchsorted(sp), m - 1)] == sp) else "accept"
