"""Classical testers and the adaptive-to-sampling adapter.

These provide the comparison curves for the quantum speedup experiments.
Sample budgets are calibrated empirically by the harness rather than taken
from literature constants, so scaling comparisons run at matched error
levels.
"""

from __future__ import annotations

import numpy as np

from .distributions import OracleTable, QueryLedger, classical_sample, classical_samples

__all__ = [
    "SamplingAdapter",
    "collision_pair_count",
    "classical_uniformity_test",
    "classical_statdiff_plugin",
    "classical_orthogonality_test",
]


class SamplingAdapter:
    """Answers every query with a fresh uniform-input table read.

    Whatever input the caller asks for is ignored, so an adaptive caller sees
    exactly the i.i.d. sample stream a black-box sampler would produce.  Each
    answer costs one classical query on the ledger.
    """

    def __init__(self, oracle: OracleTable, ledger: QueryLedger | None = None):
        self.oracle = oracle
        self.ledger = ledger if ledger is not None else QueryLedger()

    def query(self, rng: np.random.Generator, requested: int | None = None) -> int:
        del requested  # adaptive choice carries no information here
        return classical_sample(self.oracle, rng, self.ledger)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return classical_samples(self.oracle, size, rng, self.ledger)


def collision_pair_count(samples) -> int:
    """Number of colliding pairs in a sample list: sum over values of C(k, 2)."""
    _, mult = np.unique(np.asarray(samples), return_counts=True)
    return int((mult * (mult - 1) // 2).sum())


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
    c_hat = collision_pair_count(samples) / (m * (m - 1) / 2)
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
    hp, hq = np.bincount(sp, minlength=cells), np.bincount(sq, minlength=cells)
    # Integer counts keep the sum exact; one division rounds once.
    return int(np.abs(hp - hq).sum()) / (2 * m)


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
    sp = np.unique(classical_samples(op, m, rng, ledger_p))
    sq = np.unique(classical_samples(oq, m, rng, ledger_q))
    return "reject" if np.intersect1d(sp, sq, assume_unique=True).size else "accept"
