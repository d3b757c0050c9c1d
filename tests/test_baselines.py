import math

import numpy as np
import pytest

from qdisttest.baselines import (
    SamplingAdapter,
    classical_orthogonality_test,
    classical_statdiff_plugin,
    classical_uniformity_test,
    collision_pair_count,
)
from qdisttest.distributions import (
    Distribution,
    OracleTable,
    QueryLedger,
    biased_pair,
    classical_samples,
    disjoint_pair,
    half_support,
    inner_product,
    make_oracle,
    overlapping_pair,
    uniform,
)

from helpers import random_distribution


# ---------------------------------------------------------------------------
# adapter


def test_adapter_constant_table():
    adapter = SamplingAdapter(OracleTable([1, 1, 1], 2))
    rng = np.random.default_rng(0)
    assert all(adapter.query(rng) == 1 for _ in range(30))
    assert adapter.ledger.classical_samples == 30


def test_adapter_ignores_requested_input():
    rng = np.random.default_rng(1)
    o = make_oracle(uniform(4), 4, rng)
    a1 = SamplingAdapter(o)
    a2 = SamplingAdapter(o)
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    fixed = [a1.query(rng1, requested=2) for _ in range(50)]
    roving = [a2.query(rng2, requested=i % 4) for i in range(50)]
    assert fixed == roving  # the requested input carries no information


def test_adapter_stream_matches_distribution():
    rng = np.random.default_rng(2)
    counts, den = random_distribution(rng, 10)
    p = Distribution(counts, den)
    o = make_oracle(p, den, rng)
    draws = SamplingAdapter(o).sample(10**5, rng)
    freq = np.bincount(draws, minlength=10) / 10**5
    assert 0.5 * np.abs(freq - p.weights).sum() < 0.02


def test_adapter_matches_direct_sampling_statistics():
    # adaptive queries through the adapter vs direct random table reads on a
    # permutation-randomized oracle: same answer-stream statistics
    rng = np.random.default_rng(3)
    p, _ = biased_pair(8, 0.5)
    o = make_oracle(p, p.denominator, rng)
    adapter_draws = np.array(
        [SamplingAdapter(o.compose(rng.permutation(o.s))).query(rng, requested=0)
         for _ in range(20000)]
    )
    direct_draws = o.table[rng.integers(0, o.s, 20000)]
    f1 = np.bincount(adapter_draws, minlength=8) / 20000
    f2 = np.bincount(direct_draws, minlength=8) / 20000
    assert 0.5 * np.abs(f1 - f2).sum() < 0.02


# ---------------------------------------------------------------------------
# collision statistic


def test_collision_pair_count_small_cases():
    assert collision_pair_count([1, 2, 3]) == 0
    assert collision_pair_count([1, 1, 2]) == 1
    assert collision_pair_count([5, 5, 5]) == 3


def test_collision_statistic_unbiased():
    rng = np.random.default_rng(4)
    for _ in range(5):
        counts, den = random_distribution(rng, 30)
        p = Distribution(counts, den)
        o = make_oracle(p, den, rng)
        m = 40
        trials = 3000
        stats = np.array(
            [
                collision_pair_count(o.table[rng.integers(0, o.s, m)])
                / (m * (m - 1) / 2)
                for _ in range(trials)
            ]
        )
        se = stats.std(ddof=1) / math.sqrt(trials)
        assert abs(stats.mean() - inner_product(p, p)) <= 3 * se + 1e-12


# ---------------------------------------------------------------------------
# classical uniformity


def test_classical_uniformity_needs_two_samples():
    rng = np.random.default_rng(5)
    o = make_oracle(uniform(4), 4, rng)
    with pytest.raises(ValueError):
        classical_uniformity_test(o, 1, 0.5, rng)


def test_classical_uniformity_two_sample_path():
    rng = np.random.default_rng(6)
    point = Distribution([1, 0], 1)
    o = make_oracle(point, 1, rng)
    # both samples identical: collision rate 1 > threshold, must reject
    assert classical_uniformity_test(o, 2, 0.5, rng) == "reject"


def test_classical_uniformity_rates():
    rng = np.random.default_rng(7)
    n = 10**4
    m = math.ceil(20 * math.sqrt(n))
    ou = make_oracle(uniform(n), n, rng)
    accepts = sum(
        classical_uniformity_test(ou, m, 0.5, rng) == "accept" for _ in range(200)
    )
    assert accepts / 200 >= 2 / 3
    hs = half_support(n)
    oh = make_oracle(hs, hs.denominator, rng)
    rejects = sum(
        classical_uniformity_test(oh, m, 0.5, rng) == "reject" for _ in range(200)
    )
    assert rejects / 200 >= 2 / 3


# ---------------------------------------------------------------------------
# plug-in distance baseline


def test_plugin_consistent_for_identical():
    rng = np.random.default_rng(8)
    o = make_oracle(uniform(50), 50, rng)
    est = classical_statdiff_plugin(o, o, 40000, rng)
    assert est < 0.05


def test_plugin_disjoint_supports():
    rng = np.random.default_rng(9)
    p, q = disjoint_pair(100)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    est = classical_statdiff_plugin(op, oq, 100, rng)
    assert est >= 0.999  # empirical supports are disjoint by construction


def test_plugin_disjoint_is_exactly_one():
    # Summing float histograms missed 1.0 by an ulp on a few calls per ten
    # thousand; seed 2209 is one of them.
    n, m = 10**6, 4000
    p, q = disjoint_pair(n)
    op = make_oracle(p, p.denominator, np.random.default_rng(0))
    oq = make_oracle(q, q.denominator, np.random.default_rng(1))
    for seed in range(2200, 2250):
        assert classical_statdiff_plugin(op, oq, m, np.random.default_rng(seed)) == 1.0


def test_plugin_equals_a_dense_recount_of_its_draws():
    # 16 * m < n switches to histograms over the values seen; m = 100 is the
    # first dense budget at n = 1600.
    n = 1600
    p, q = overlapping_pair(n, 1)
    op, oq = make_oracle(p, p.denominator), make_oracle(q, q.denominator)
    for m in (1, 20, 99, 100, 101, 400, 5000):
        for seed in range(5):
            est = classical_statdiff_plugin(op, oq, m, np.random.default_rng(seed))
            same = np.random.default_rng(seed)
            hp = np.bincount(classical_samples(op, m, same), minlength=n)
            hq = np.bincount(classical_samples(oq, m, same), minlength=n)
            assert est == int(np.abs(hp - hq).sum()) / (2 * m)


def test_plugin_spurious_at_small_budgets():
    # far below sqrt(n) samples, identical uniforms look maximally far apart
    rng = np.random.default_rng(10)
    n = 10**4
    o1 = make_oracle(uniform(n), n, rng)
    o2 = make_oracle(uniform(n), n, rng)
    ests = [classical_statdiff_plugin(o1, o2, 20, rng) for _ in range(50)]
    assert np.mean(ests) > 0.9


def test_plugin_ledgers():
    rng = np.random.default_rng(11)
    o = make_oracle(uniform(10), 10, rng)
    lp, lq = QueryLedger(), QueryLedger()
    classical_statdiff_plugin(o, o, 25, rng, lp, lq)
    assert lp.classical_samples == 25 and lq.classical_samples == 25


# ---------------------------------------------------------------------------
# classical orthogonality


def test_classical_orthogonality_one_sided():
    rng = np.random.default_rng(12)
    p, q = disjoint_pair(64)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    for _ in range(10**5):
        assert classical_orthogonality_test(op, oq, 8, rng) == "accept"


def test_classical_orthogonality_birthday_rejection():
    rng = np.random.default_rng(13)
    n = 10**4
    m = math.ceil(4 * math.sqrt(n))
    o1 = make_oracle(uniform(n), n, rng)
    o2 = make_oracle(uniform(n), n, rng)
    rejects = sum(
        classical_orthogonality_test(o1, o2, m, rng) == "reject" for _ in range(200)
    )
    assert rejects / 200 >= 2 / 3


def test_classical_orthogonality_shared_atom():
    rng = np.random.default_rng(14)
    atom = Distribution([1, 0], 1)
    o = make_oracle(atom, 1, rng)
    assert classical_orthogonality_test(o, o, 1, rng) == "reject"
