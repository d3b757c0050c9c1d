"""Tests of the benchmark's own reference code.

    python3 -m pytest perfbench/test_reference.py
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
from qdisttest.amplitude import unitary_reference_pmf  # noqa: E402
from qdisttest.distributions import OracleTable  # noqa: E402


@pytest.mark.parametrize("a", [0.0, 1e-6, 2e-6, 0.137, 0.25, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("m", [1, 2, 5, 64, 997, 200_000])
def test_outcome_law_sums_to_one(a, m):
    law = ref.outcome_law(a, m)
    assert law.shape == (m,)
    assert law.min() >= 0.0
    assert law.sum() == pytest.approx(1.0, abs=1e-9)


def test_outcome_law_of_zero_mass_is_a_point_at_zero():
    law = ref.outcome_law(0.0, 16)
    assert law[0] == pytest.approx(1.0)
    assert law[1:].sum() == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "table, target",
    [
        ([0, 1, 1, 2], (0,)),  # a = 1/4: eigenphases +-1/6
        ([0, 0, 1, 2, 2, 2, 3, 3], (2,)),  # a = 3/8
        ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1], (0, 1)),  # a = 1/3
        ([0, 0, 0, 1], (0,)),  # a = 3/4
    ],
)
@pytest.mark.parametrize("m", [1, 2, 3, 8, 13, 32])
def test_outcome_law_matches_dense_simulation(table, target, m):
    oracle = OracleTable(table, max(table) + 1)
    a = sum(v in target for v in table) / len(table)
    dense = unitary_reference_pmf(oracle, target, m)
    assert np.abs(ref.outcome_law(a, m) - dense).max() < 1e-10


def test_chi_square_accepts_draws_from_the_law_and_rejects_a_shifted_law():
    law = ref.outcome_law(2e-6, 200_000)
    draws = np.random.default_rng(3).choice(law.size, size=20_000, p=law)
    ys, counts = np.unique(draws, return_counts=True)
    outcomes = dict(zip(ys.tolist(), counts.tolist()))
    assert ref.chi_square_pvalue(outcomes, law) > 1e-3
    assert ref.chi_square_pvalue(outcomes, ref.outcome_law(2.2e-6, 200_000)) < 1e-6


def l1(p, q) -> Fraction:
    return sum((abs(a - b) for a, b in zip(p, q)), Fraction(0))


def test_pair_distances_match_hand_worked_weights():
    # Overlapping pair, n = 4, eps = 1: p uniform on the first half, q puts
    # eps/2 evenly there and the rest on the second half.
    p = [Fraction(1, 2), Fraction(1, 2), 0, 0]
    q = [Fraction(1, 4)] * 4
    assert l1(p, q) == 1 == ref.pair_distance("overlapping", 1.0)
    # n = 6, eps = 1/2: q = 1/12 on the first half, 1/4 on the second.
    p = [Fraction(1, 3)] * 3 + [Fraction(0)] * 3
    q = [Fraction(1, 12)] * 3 + [Fraction(1, 4)] * 3
    assert l1(p, q) == Fraction(3, 2) == ref.pair_distance("overlapping", 0.5)
    assert l1(p, p) == 0 == ref.pair_distance("identical")
    disjoint = [Fraction(0)] * 3 + [Fraction(1, 3)] * 3
    assert l1(p, disjoint) == 2 == ref.pair_distance("disjoint")


def test_estdist_ledger():
    # 100 samples; two estimates of ceil(200 * 1000) steps each per sample.
    assert ref.estdist_ledger(10**6) == (100, 40_000_000)
    # sqrt(1000) = 31.62..., 200 * that = 6324.55... -> 6325.
    assert ref.estdist_ledger(1000) == (100, 2 * 100 * 6325)


@pytest.mark.parametrize(
    "n, eps, expected",
    [
        # B = 2: M = max(4, ceil(0.5)) = 4, K = 600.
        (8, 1.0, (4, 600)),
        # B = 10: M = max(4, ceil(2.5)) = 4, K = 3000.
        (1000, 1.0, (4, 3000)),
        # B = 100 * 2^(4/3) = 251.984...: M = ceil(62.996) = 63, K = ceil(75595.26) = 75596.
        (10**6, 0.5, (63, 75596)),
        # B = 10 * 2^(4/3) = 25.198...: M = ceil(6.2996) = 7, K = ceil(7559.53) = 7560.
        (1000, 0.5, (7, 7560)),
    ],
)
def test_uniformity_m_k(n, eps, expected):
    assert ref.uniformity_m_k(n, eps) == expected


def test_orthogonality_m_k():
    assert ref.orthogonality_m_k(10**6, 0.5) == (200, 200)  # 100 / 0.5
    assert ref.orthogonality_m_k(1000, 0.3) == (34, 34)  # 10 / 0.3 = 33.3...


def test_rate_cut():
    assert ref.rate_at_least(200, 300, 2 / 3)
    assert ref.rate_at_least(170, 300, 2 / 3)  # 3.6 standard deviations low
    assert not ref.rate_at_least(150, 300, 2 / 3)
    assert not ref.rate_at_least(0, 0, 0.5)
    # The cut's false-failure rate at the boundary rate.
    cut = next(k for k in range(301) if ref.rate_at_least(k, 300, 2 / 3))
    from scipy import stats

    assert stats.binom.cdf(cut - 1, 300, 2 / 3) < ref.FALSE_FAILURE_RATE
