import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qdisttest.distributions import (
    distribution_of,
    half_support,
    l1_distance,
    uniform,
)
from qdisttest.lowerbounds import (
    ONE_TO_ONE,
    TWO_TO_ONE,
    CollisionFunction,
    Fingerprint,
    build_collision_oracles,
    corollary_report,
    cross_parity_count,
    empirical_fingerprint_tv,
    fingerprint_of,
    matching_parity_distance,
    poissonized_occupation,
    sample_poissonized_fingerprint,
    sequential_matching_sampler,
    valiant_bound,
)

from helpers import all_perfect_matchings, matching_key


# ---------------------------------------------------------------------------
# collision functions and the split construction


def test_collision_function_validation():
    with pytest.raises(ValueError):
        CollisionFunction([0, 0], ONE_TO_ONE)  # repeated value
    with pytest.raises(ValueError):
        CollisionFunction([0, 1], TWO_TO_ONE)  # singleton values
    with pytest.raises(ValueError):
        CollisionFunction([0, 1, 2], ONE_TO_ONE)  # odd domain
    with pytest.raises(ValueError):
        CollisionFunction([0, 5], ONE_TO_ONE)  # value outside [0, 3)


def test_constructors_produce_valid_kinds():
    rng = np.random.default_rng(0)
    h1 = CollisionFunction.one_to_one(32, rng)
    assert np.unique(h1.table).size == 32
    h2 = CollisionFunction.two_to_one(32, rng)
    _, mult = np.unique(h2.table, return_counts=True)
    assert np.all(mult == 2)


def test_split_oracle_shapes():
    rng = np.random.default_rng(1)
    h = CollisionFunction.two_to_one(16, rng)
    op, oq = build_collision_oracles(h, rng.permutation(h.n))
    assert op.s == oq.s == 8
    assert op.n == oq.n == 24


def test_one_to_one_orthogonal_exhaustive_small():
    # every relabeling of an injective function splits into disjoint supports
    rng = np.random.default_rng(2)
    for n in (2, 4, 6):
        h = CollisionFunction.one_to_one(n, rng)
        for sigma in itertools.permutations(range(n)):
            op, oq = build_collision_oracles(h, np.array(sigma))
            assert l1_distance(distribution_of(op), distribution_of(oq)) == 2.0


def test_one_to_one_orthogonal_random_larger():
    rng = np.random.default_rng(3)
    for n in (8, 10, 12):
        h = CollisionFunction.one_to_one(n, rng)
        for _ in range(200):
            op, oq = build_collision_oracles(h, rng.permutation(n))
            assert l1_distance(distribution_of(op), distribution_of(oq)) == 2.0


def test_matched_pair_masses():
    # a cross-parity matched pair puts weight 2/n of the shared image on both
    # sides; a same-parity pair puts 4/n on one side only
    h = CollisionFunction(np.array([0, 0, 1, 1]), TWO_TO_ONE)
    sigma = np.array([0, 1, 2, 3])  # pairs (0,1) and (2,3), both cross-parity
    op, oq = build_collision_oracles(h, sigma)
    p, q = distribution_of(op), distribution_of(oq)
    assert p.weights[0] == q.weights[0] == 2 / 4
    sigma = np.array([0, 2, 1, 3])  # pairs (0,2)/(1,3), both same-parity
    op, oq = build_collision_oracles(h, sigma)
    p, q = distribution_of(op), distribution_of(oq)
    assert p.weights[0] == 4 / 4 and q.weights[0] == 0.0


def test_parity_formula_edge_values():
    h = CollisionFunction(np.array([0, 0, 1, 1]), TWO_TO_ONE)
    assert matching_parity_distance(h, np.array([0, 1, 2, 3])) == 0.0
    assert matching_parity_distance(h, np.array([0, 2, 1, 3])) == 2.0
    with pytest.raises(ValueError):
        matching_parity_distance(CollisionFunction(np.array([0, 1]), ONE_TO_ONE), [0, 1])


def test_parity_formula_matches_l1_exactly():
    rng = np.random.default_rng(4)
    for n in (8, 64, 2**10):
        h = CollisionFunction.two_to_one(n, rng)
        for _ in range(50):
            sigma = rng.permutation(n)
            op, oq = build_collision_oracles(h, sigma)
            direct = l1_distance(distribution_of(op), distribution_of(oq))
            assert matching_parity_distance(h, sigma) == direct


def test_two_to_one_distance_rarely_near_two():
    rng = np.random.default_rng(5)
    n = 2**8
    h = CollisionFunction.two_to_one(n, rng)
    below = sum(
        matching_parity_distance(h, rng.permutation(n)) <= 7 / 4 for _ in range(300)
    )
    assert below / 300 >= 0.5


# ---------------------------------------------------------------------------
# matching sampler


def test_matching_sampler_trivial():
    rng = np.random.default_rng(6)
    pairs = sequential_matching_sampler(2, rng)
    assert matching_key(pairs) == ((0, 1),)
    assert cross_parity_count(pairs) == 1


def test_matching_sampler_uniform_n4():
    rng = np.random.default_rng(7)
    c = Counter(matching_key(sequential_matching_sampler(4, rng)) for _ in range(30000))
    assert len(c) == 3
    for key, count in c.items():
        assert abs(count / 30000 - 1 / 3) < 0.02


@pytest.mark.parametrize("n,trials", [(6, 60000), (8, 120000)])
def test_matching_sampler_uniform_exhaustive(n, trials):
    rng = np.random.default_rng(8)
    expected = {matching_key(m) for m in all_perfect_matchings(range(n))}
    assert len(expected) == math.prod(range(1, n, 2))  # (n-1)!! matchings
    c = Counter(matching_key(sequential_matching_sampler(n, rng)) for _ in range(trials))
    assert set(c) == expected
    # chi-square against the uniform law over all matchings
    obs = np.array([c[k] for k in sorted(expected)])
    _, pval = stats.chisquare(obs)
    assert pval > 0.01


def test_matching_sampler_parity_tail():
    # the different-parity pair count is rarely below n/16
    rng = np.random.default_rng(9)
    n = 64
    lows = sum(
        cross_parity_count(sequential_matching_sampler(n, rng)) < n / 16
        for _ in range(400)
    )
    assert lows / 400 <= 0.5


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_of_small_cases():
    assert fingerprint_of([1, 2, 3]).as_dict() == {1: 3}
    assert fingerprint_of([1, 1, 2]).as_dict() == {1: 1, 2: 1}
    assert fingerprint_of([]).as_dict() == {}


@given(st.lists(st.integers(0, 30), max_size=200))
@settings(max_examples=100, deadline=None)
def test_fingerprint_conservation(samples):
    assert fingerprint_of(samples).total == len(samples)


def test_fingerprints_hashable_and_comparable():
    a = fingerprint_of([1, 1, 2])
    b = fingerprint_of([7, 7, 9])
    assert a == b and hash(a) == hash(b)
    assert a != fingerprint_of([1, 2, 3])


def test_poissonized_rate_zero_limit():
    rng = np.random.default_rng(10)
    empties = sum(
        sample_poissonized_fingerprint(uniform(10), 1e-4, rng) == Fingerprint(())
        for _ in range(2000)
    )
    assert empties >= 1990
    with pytest.raises(ValueError):
        sample_poissonized_fingerprint(uniform(10), 0.0, rng)


def test_poissonized_mean_total():
    rng = np.random.default_rng(11)
    m = 12.0
    totals = [
        sample_poissonized_fingerprint(uniform(50), m, rng).total for _ in range(3000)
    ]
    se = np.std(totals, ddof=1) / math.sqrt(len(totals))
    assert abs(np.mean(totals) - m) <= 3 * se


def test_poissonized_per_element_marginal():
    # occupation of a fixed element over trials follows Poisson(m * p_i)
    rng = np.random.default_rng(12)
    n, m, trials = 50, 100.0, 4000
    u = uniform(n)
    counts = np.array([poissonized_occupation(u, m, rng)[0] for _ in range(trials)])
    lam = m / n
    kmax = 8
    pmf = stats.poisson.pmf(np.arange(kmax), lam)
    expected = np.append(pmf, 1 - pmf.sum()) * trials
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    _, pval = stats.chisquare(observed, expected)
    assert pval > 0.01


def test_poissonized_cross_element_covariance():
    rng = np.random.default_rng(13)
    n, m, trials = 20, 40.0, 4000
    u = uniform(n)
    occ = np.array([poissonized_occupation(u, m, rng)[:2] for _ in range(trials)])
    cov = np.cov(occ.T)[0, 1]
    se = (m / n) / math.sqrt(trials)  # rough scale of the covariance estimator
    assert abs(cov) <= 4 * se


# ---------------------------------------------------------------------------
# moment-series bound and corollary arithmetic


def test_valiant_bound_uniform_is_exactly_flat():
    for n, m, delta in ((10, 2.0, 0.25), (100, 5.0, 0.25), (100, 4.9, 0.05), (1000, 5.0, 0.05)):
        u = uniform(n)
        assert valiant_bound(u, m, delta) == 40.0 * delta


def test_valiant_bound_precondition():
    with pytest.raises(ValueError, match="precondition"):
        valiant_bound(half_support(100), 10.0, 0.05)  # max weight 0.02 > 0.005
    for m, delta in ((math.nan, 0.05), (1.0, math.nan), (0.0, 0.05), (1.0, -1.0)):
        with pytest.raises(ValueError, match="positive"):
            valiant_bound(uniform(100), m, delta)
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"delta must be positive and finite, got {delta}"):
            valiant_bound(uniform(100), 1.0, delta)
        with pytest.raises(ValueError, match=f"delta must be positive and finite, got {delta}"):
            corollary_report(10**6, 5, delta)


def test_valiant_bound_half_support_chain():
    # for sample budget 2^-a sqrt(n): every term is at most 2^(1-2a) and the
    # factorial sum is under 4, so the series part is below 10 * 2^(3-2a)
    for n, a in ((100, 3), (100, 5), (10**4, 4)):
        p = half_support(n)
        m = 2.0**-a * math.sqrt(n)
        delta = max(0.05, p.max_weight * m * 1.01)
        assert valiant_bound(p, m, delta) <= 40 * delta + 10 * 2.0 ** (3 - 2 * a)


def test_valiant_bound_monotone_in_a():
    n = 10**4
    p = half_support(n)
    vals = [valiant_bound(p, 2.0**-a * math.sqrt(n), 0.05) for a in range(2, 9)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_corollary_report_certified_case():
    r = corollary_report(10**6, 5, 1e-4)
    assert r.precondition_ok
    assert r.bound == 40 * 1e-4 + 10 * 2**-7
    assert r.bound == 0.082125
    assert r.bound < r.threshold
    assert r.certified
    text = r.render()
    assert "certified=1" in text and "bound=0.082125" in text


def test_corollary_report_not_certified_cases():
    assert not corollary_report(10**6, 1, 1e-4).certified  # series part 10*2 >> 1/12
    assert not corollary_report(10**6, 5, 0.01).certified  # 40*0.01 alone > 1/12
    with pytest.raises(ValueError):
        corollary_report(10**6 + 1, 5, 1e-4)
    with pytest.raises(ValueError):
        corollary_report(10**6, -1, 1e-4)


# ---------------------------------------------------------------------------
# empirical fingerprint TV


def test_empirical_tv_identical_distributions():
    rng = np.random.default_rng(14)
    u = uniform(100)
    tv = empirical_fingerprint_tv(u, u, 1.5625, 4000, rng)
    assert 0.0 <= tv < 0.07


def test_empirical_tv_within_bound_plus_slack():
    rng = np.random.default_rng(15)
    n = 100
    p = half_support(n)
    u = uniform(n)
    m = 5 * math.sqrt(n) * 2**-5
    delta = max(0.05, p.max_weight * m * 1.01)
    bound = valiant_bound(p, m, delta)
    tv = empirical_fingerprint_tv(p, u, m, 4000, rng)
    assert tv <= bound + 0.05


def test_empirical_tv_range_and_bias_warning():
    rng = np.random.default_rng(16)
    p = half_support(100)
    u = uniform(100)
    with pytest.warns(UserWarning, match="biased"):
        tv = empirical_fingerprint_tv(p, u, 50.0, 50, rng)
    assert 0.0 <= tv <= 2.0
