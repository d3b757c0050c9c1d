import math
from collections import Counter

import numpy as np
import pytest

from qdisttest.baselines import (
    classical_orthogonality_test,
    classical_statdiff_plugin,
    classical_uniformity_test,
    _sorted_collision_pairs,
)
from qdisttest.distributions import (
    Distribution,
    OracleTable,
    QueryLedger,
    biased_pair,
    classical_samples,
    disjoint_pair,
    half_support,
    make_oracle,
    overlapping_pair,
    uniform,
)

from helpers import collision_pairs, inner_product, random_distribution


# ---------------------------------------------------------------------------
# collision statistic


def test_collision_pair_count_small_cases():
    # The testers count the pairs of their sorted draws.
    def pairs(samples):
        return _sorted_collision_pairs(np.sort(np.asarray(samples)))

    assert pairs([1, 2, 3]) == 0
    assert pairs([1, 1, 2]) == 1
    assert pairs([5, 5, 5]) == 3
    # against a Counter, on lists with triples, all-equal ones and lengths 0 to 2
    rng = np.random.default_rng(41)
    lists = [[], [4], [4, 4], [4, 5], [2] * 9, [1, 2, 2, 1, 2, 3]]
    lists += [rng.integers(0, rng.integers(1, 20), size=rng.integers(0, 40)) for _ in range(300)]
    for samples in lists:
        expected = sum(k * (k - 1) // 2 for k in Counter(np.asarray(samples).tolist()).values())
        assert pairs(samples) == expected


def test_baselines_leave_the_oracle_tables_unchanged():
    # The baselines sort their draws in place; a draw must never be a view
    # of an oracle's table.
    rng = np.random.default_rng(42)
    biased, _ = biased_pair(40, 0.5)
    oracles = [make_oracle(uniform(40), 40), make_oracle(biased, biased.denominator)]
    tables = [np.repeat(np.arange(40), o.distribution().counts) for o in oracles]
    tables.append(rng.permutation(tables[1]))
    oracles.append(OracleTable(tables[2], 40))
    for o in oracles:
        classical_uniformity_test(o, 30, 0.5, rng)
        classical_statdiff_plugin(o, o, 30, rng)
        classical_orthogonality_test(o, o, 30, rng)
    for o, table in zip(oracles, tables):
        assert np.array_equal(o.element_at(np.arange(o.s)), table)  # before the table is built
        assert np.array_equal(o.table, table)


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
                collision_pairs(o.table[rng.integers(0, o.s, m)])
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


def _atoms(n, a, b, c):
    """Counts ``a`` and ``b`` on elements 0 and 1, ``c`` on element n - 1 and
    1 on every other element: heavy atoms repeat within and across sample
    lists whatever n, and the blocks keep an oracle at n = 2**31 + 1 cheap."""
    return Distribution.from_blocks([0, 1, 2, n - 1], [a, b, 1, c], n, a + b + n - 3 + c)


def _unique_recount(sp, sq):
    """Plug-in estimate from ``np.unique`` over both lists and two bincounts."""
    seen, idx = np.unique(np.concatenate((sp, sq)), return_inverse=True)
    m = sp.size
    diff = np.bincount(idx[:m], minlength=seen.size) - np.bincount(idx[m:], minlength=seen.size)
    return int(np.abs(diff).sum()) / (2 * m)


@pytest.mark.parametrize("n, key_type, budgets", [
    (100, np.uint8, (1, 6, 7, 50)),
    (20_000, np.uint16, (1, 300, 1249, 1250)),
    (10**6, np.uint32, (3, 62_499, 62_500)),
    # 16 * m >= n would need n-length histograms: only the sparse side here
    (2**31 + 1, np.uint64, (1, 1000, 50_000)),
])
def test_plugin_equals_a_unique_recount_of_its_draws(n, key_type, budgets):
    # The sparse path sorts the keys 2 * v + side in the narrowest type that
    # holds 2n - 1; each n here takes another type, and m = n // 16 + 1 is the
    # first dense budget.
    assert np.min_scalar_type(2 * n - 1) == key_type
    p, q = _atoms(n, n, n // 2, 0), _atoms(n, n // 2, 0, n)
    op, oq = make_oracle(p, p.denominator), make_oracle(q, q.denominator)
    for m in budgets:
        for seed in range(3):
            est = classical_statdiff_plugin(op, oq, m, np.random.default_rng(seed))
            same = np.random.default_rng(seed)
            sp, sq = classical_samples(op, m, same), classical_samples(oq, m, same)
            assert est == _unique_recount(sp, sq)


@pytest.mark.parametrize("n", [200, 2**32 + 1])
def test_collision_testers_decide_as_the_int64_reference(n):
    # The draws fit in uint8 at n = 200 and need uint64 at n = 2**32 + 1: a
    # tester that sorts a narrower copy of its draws must still decide as the
    # collision count or the intersection of the int64 draws.
    eps = 0.5
    heavy = _atoms(n, n // 4, n // 8, n // 8)
    oracles = [make_oracle(uniform(n), n), make_oracle(heavy, heavy.denominator)]
    decisions = {"uniformity": set(), "orthogonality": set()}
    for m in (2, 3, 8, 30):
        for seed in range(10):
            for o in oracles:
                got = classical_uniformity_test(o, m, eps, np.random.default_rng(seed))
                s = classical_samples(o, m, np.random.default_rng(seed))
                pairs = sum(k * (k - 1) // 2 for k in np.unique(s, return_counts=True)[1].tolist())
                assert got == ("reject" if pairs / (m * (m - 1) / 2) > (1 + eps**2 / 2) / n else "accept")
                decisions["uniformity"].add(got)
                for oq in oracles:
                    got = classical_orthogonality_test(o, oq, m, np.random.default_rng(seed))
                    same = np.random.default_rng(seed)
                    sp, sq = classical_samples(o, m, same), classical_samples(oq, m, same)
                    assert got == ("reject" if np.intersect1d(sp, sq).size else "accept")
                    decisions["orthogonality"].add(got)
    assert all(d == {"accept", "reject"} for d in decisions.values())


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


def test_classical_orthogonality_rejects_iff_the_draws_intersect():
    # the decision is a function of the two draws, which come p first, then q
    n = 64
    p, q = overlapping_pair(n, 0.25)
    op, oq = make_oracle(p, p.denominator), make_oracle(q, q.denominator)
    decisions = set()
    for m in (1, 2, 3, 5, 8):
        for seed in range(40):
            got = classical_orthogonality_test(op, oq, m, np.random.default_rng(seed))
            same = np.random.default_rng(seed)
            sp, sq = classical_samples(op, m, same), classical_samples(oq, m, same)
            assert got == ("reject" if set(sp.tolist()) & set(sq.tolist()) else "accept")
            decisions.add(got)
    assert decisions == {"accept", "reject"}
