import math

import numpy as np
import pytest

from qdisttest.amplitude import DEFAULT_C
from qdisttest.distributions import (
    Distribution,
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
from qdisttest.testers import (
    OrthogonalityParams,
    StatDiffParams,
    UniformityParams,
    est_dist,
    orthogonality_test,
    otest,
    sampled_mass,
    uniformity_test,
    utest,
)

from helpers import collision_pairs


# ---------------------------------------------------------------------------
# distance estimation


def test_est_dist_requires_matching_support():
    rng = np.random.default_rng(0)
    op = make_oracle(uniform(4), 4, rng)
    oq = make_oracle(uniform(8), 8, rng)
    with pytest.raises(ValueError):
        est_dist(op, oq, StatDiffParams(), rng)


def test_est_dist_identical_tables_near_zero():
    rng = np.random.default_rng(1)
    u = uniform(500)
    op = make_oracle(u, 500, rng)
    params = StatDiffParams(mode="practical")
    res = est_dist(op, op, params, rng)
    assert res.estimate < 0.1
    assert np.all((0.0 <= res.terms) & (res.terms <= 1.0))


def test_est_dist_disjoint_concentrates_at_one():
    rng = np.random.default_rng(2)
    p, q = disjoint_pair(400)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    res = est_dist(op, oq, StatDiffParams(mode="practical"), rng)
    assert res.estimate > 0.97


def test_est_dist_output_and_terms_in_unit_interval():
    rng = np.random.default_rng(3)
    p, q = overlapping_pair(200, 1.0)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    res = est_dist(op, oq, StatDiffParams(mode="practical", n=40), rng)
    assert 0.0 <= res.estimate <= 1.0
    assert np.all((0.0 <= res.terms) & (res.terms <= 1.0))


def test_est_dist_known_distances_practical_mode():
    rng = np.random.default_rng(4)
    n = 1000
    cases = [(overlapping_pair(n, 1.5), 0.5), (overlapping_pair(n, 0.5), 1.5)]
    for (p, q), d in cases:
        op = make_oracle(p, p.denominator, rng)
        oq = make_oracle(q, q.denominator, rng)
        hits = 0
        for _ in range(40):
            res = est_dist(op, oq, StatDiffParams(mode="practical"), rng)
            hits += abs(res.estimate - d / 2) < 0.1
        assert hits >= 36


def test_est_dist_zero_denominator_guard():
    # with small masses and a tiny inner budget both singleton estimates are
    # often zero: the term must then be 0, never a crash or NaN
    rng = np.random.default_rng(21)
    u = uniform(10)
    op = make_oracle(u, 10, rng)
    oq = make_oracle(u, 10, rng)
    res = est_dist(op, oq, StatDiffParams(mode="practical", n=50, m_inner=3), rng)
    guarded = (res.estimates == 0.0).all(axis=1)
    assert guarded.any()  # the guard is reachable
    assert np.all(res.terms[guarded] == 0.0)
    assert math.isfinite(res.estimate)


def test_est_dist_terms_are_contrasts_summed_left_to_right():
    # at n=1000 the terms are inexact floats, so a pairwise np.sum differs
    rng = np.random.default_rng(22)
    p, q = overlapping_pair(1000, 0.5)
    op = make_oracle(p, p.denominator)
    oq = make_oracle(q, q.denominator)
    for m_inner in (2, 5, 997, None):
        res = est_dist(op, oq, StatDiffParams(n=300, m_inner=m_inner), rng)
        assert res.estimates.shape == (300, 2) and res.terms.shape == (300,)
        for (pe, qe), term in zip(res.estimates.tolist(), res.terms.tolist()):
            assert term == (abs(pe - qe) / (pe + qe) if pe + qe > 0 else 0.0)
        total = 0.0
        for term in res.terms.tolist():
            total += term
        assert res.estimate == total / 300


def test_est_dist_query_accounting():
    rng = np.random.default_rng(5)
    u = uniform(100)
    op = make_oracle(u, 100, rng)
    oq = make_oracle(u, 100, rng)
    params = StatDiffParams(mode="practical", n=20, m_inner=50)
    res = est_dist(op, oq, params, rng)
    # each sampled element costs one classical draw on one oracle and one
    # inner estimate of 50 rotations on each oracle
    assert res.ledgers["p"].quantum_applications == 20 * 50
    assert res.ledgers["q"].quantum_applications == 20 * 50
    total_classical = (
        res.ledgers["p"].classical_samples + res.ledgers["q"].classical_samples
    )
    assert total_classical == 20


def test_est_dist_paper_mode_formulas():
    params = StatDiffParams(epsilon=1.0, tau=1 / 3, mode="paper")
    assert params.sample_count() == math.ceil(27 / ((1 / 3) * 1.0**2))
    m = params.inner_queries(10**4)
    assert m == math.ceil(DEFAULT_C * 100 / (1.0**6 * (1 / 3) ** 4))


def test_est_dist_paper_mode_runs_and_meets_contract():
    # loose constants keep paper mode runnable; the estimate must land
    # within eps of half the distance with probability >= 1 - tau
    rng = np.random.default_rng(22)
    eps, tau = 0.9, 0.5
    params = StatDiffParams(epsilon=eps, tau=tau, mode="paper")
    p, q = disjoint_pair(200)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    hits = sum(
        abs(est_dist(op, oq, params, rng).estimate - 1.0) < eps for _ in range(20)
    )
    assert hits / 20 >= 1 - tau


# ---------------------------------------------------------------------------
# uniformity


def test_uniformity_params_paper_formulas():
    params = UniformityParams(epsilon=2.0, mode="paper")
    n = 10**6
    m, k, l, threshold = params.resolved(n)
    assert params.alpha == 2**8 / 2.0**4
    assert m == math.ceil((32 * n / 2.0**4) ** (1 / 3))
    assert l == math.ceil(4 * math.exp(16.0))
    assert threshold == (1 + 2.0**2 / 8) * m / n
    # small eps overflows the repetition count
    tiny = UniformityParams(epsilon=0.5, mode="paper")
    _, k, l, _ = tiny.resolved(n)
    assert math.isinf(k) and math.isinf(l)


def test_params_keep_explicit_values_and_reject_non_positive_counts():
    n = 1000
    m, k, l, threshold = UniformityParams(
        epsilon=0.5, m_samples=1, k_queries=1, l_repeats=1
    ).resolved(n)
    # the threshold follows the explicit M
    assert (m, k, l, threshold) == (1, 1, 1, (1 + 0.25 * 0.5**2) * 1 / n)
    m, k, threshold = OrthogonalityParams(epsilon=0.5, m_samples=1, k_queries=1).resolved(n)
    assert (m, k, threshold) == (1, 1, 0.5**3 * 1 / (2**12 * n))
    with pytest.raises(ValueError, match="threshold must be positive"):
        OrthogonalityParams(epsilon=1e-110, m_samples=1, k_queries=1).resolved(n)
    for field in ("m_samples", "k_queries", "l_repeats"):
        for value in (0, -3):
            with pytest.raises(ValueError, match="must be positive"):
                UniformityParams(epsilon=0.5, mode="paper", **{field: value})
    for field in ("m_samples", "k_queries"):
        with pytest.raises(ValueError, match="must be positive"):
            OrthogonalityParams(epsilon=0.5, **{field: 0})
    assert StatDiffParams(n=1, m_inner=1).sample_count() == 1
    for field in ("n", "m_inner"):
        with pytest.raises(ValueError, match="must be positive"):
            StatDiffParams(**{field: 0})


def test_uniformity_paper_mode_unrunnable_raises():
    rng = np.random.default_rng(6)
    o = make_oracle(uniform(64), 64, rng)
    with pytest.raises(RuntimeError, match="practical"):
        uniformity_test(o, UniformityParams(epsilon=0.5, mode="paper"), rng)


def _charged(ledger):
    return ledger.classical_samples, ledger.quantum_applications


def _round_charges(rounds, m, k):
    """Every uniformity round draws M samples; only a collision-free one
    goes on to make K quantum applications."""
    return m * len(rounds), k * sum(not r.collision for r in rounds)


def test_uniformity_paper_mode_runnable_at_large_eps():
    # alpha = 256/eps^4 = 1 at eps = 4: the verbatim repetition wrapper is
    # actually runnable; check structure and accounting (the 2/3 rates are
    # an asymptotic claim and need the analysis constant inside K, which is
    # unspecified, so they are not asserted here)
    rng = np.random.default_rng(23)
    n = 4096
    params = UniformityParams(epsilon=4.0, mode="paper")
    m, k, l, threshold = params.resolved(n)
    assert (m, l) == (8, 11) and math.isfinite(k)
    o = make_oracle(uniform(n), n, rng)
    verdict = uniformity_test(o, params, rng)
    assert verdict.decision in ("accept", "reject")
    assert len(verdict.rounds) <= l
    assert _charged(verdict.ledgers["p"]) == _round_charges(verdict.rounds, m, k)


def test_utest_rejects_point_mass_by_collision():
    rng = np.random.default_rng(7)
    counts = np.zeros(16, dtype=np.int64)
    counts[3] = 1
    o = make_oracle(Distribution(counts, 1), 4, rng)
    params = UniformityParams(epsilon=0.5, mode="practical")
    ledger = QueryLedger()
    rec = utest(o, params, rng, ledger)
    assert rec.decision == "reject"
    assert rec.collision is True
    assert _charged(ledger) == (params.resolved(o.n)[0], 0)


def test_utest_collision_flag_is_a_repeated_draw():
    n = 400
    o = make_oracle(uniform(n), n)
    params = UniformityParams(epsilon=0.5, mode="practical", m_samples=20, k_queries=5)
    flags = set()
    for seed in range(60):
        rec = utest(o, params, np.random.default_rng(seed))
        samples = classical_samples(o, 20, np.random.default_rng(seed))
        assert rec.collision == (len(set(samples.tolist())) < 20)
        flags.add(rec.collision)
    assert flags == {True, False}


def test_utest_accepts_uniform_and_counts_queries():
    rng = np.random.default_rng(8)
    n = 10**5
    o = make_oracle(uniform(n), n, rng)
    params = UniformityParams(epsilon=0.5, mode="practical")
    m, k, _, _ = params.resolved(n)
    ledger = QueryLedger()
    accepts = 0
    for _ in range(30):
        before = _charged(ledger)
        rec = utest(o, params, rng, ledger)
        accepts += rec.decision == "accept"
        after = _charged(ledger)
        assert (after[0] - before[0], after[1] - before[1]) == _round_charges([rec], m, k)
    assert accepts >= 25
    assert ledger.classical_samples == 30 * m


def test_utest_rejects_half_support():
    # every sample carries weight 2/n, so the sampled mass doubles the
    # uniform value; either a collision or the estimate catches it
    rng = np.random.default_rng(9)
    n = 1000
    p = half_support(n)
    o = make_oracle(p, p.denominator, rng)
    params = UniformityParams(epsilon=1.0, mode="practical")
    rejects = sum(utest(o, params, rng).decision == "reject" for _ in range(50))
    assert rejects >= 40


def test_uniformity_wrapper_rates():
    rng = np.random.default_rng(10)
    n = 10**4
    params = UniformityParams(epsilon=0.5, mode="practical")
    ou = make_oracle(uniform(n), n, rng)
    p, _ = biased_pair(n, 0.5)
    ob = make_oracle(p, p.denominator, rng)
    acc = sum(uniformity_test(ou, params, rng).decision == "accept" for _ in range(60))
    rej = sum(uniformity_test(ob, params, rng).decision == "reject" for _ in range(60))
    assert acc >= 40  # 2/3 of 60
    assert rej >= 40


def test_uniformity_wrapper_or_semantics_and_ledger():
    rng = np.random.default_rng(11)
    n = 10**4
    params = UniformityParams(epsilon=0.5, mode="practical", l_repeats=3)
    m, k, _, _ = params.resolved(n)
    o = make_oracle(uniform(n), n, rng)
    verdict = uniformity_test(o, params, rng)
    assert verdict.decision in ("accept", "reject")
    assert len(verdict.rounds) <= 3
    assert _charged(verdict.ledgers["p"]) == _round_charges(verdict.rounds, m, k)


def test_collision_count_expectation():
    # mean pairwise collisions over trials ~ C(M,2) <p|p> within 3 SE
    rng = np.random.default_rng(12)
    n = 500
    p, _ = biased_pair(n, 0.5)
    o = make_oracle(p, p.denominator, rng)
    m = 60
    trials = 2000
    counts = [
        collision_pairs(o.table[rng.integers(0, o.s, m)]) for _ in range(trials)
    ]
    expected = m * (m - 1) / 2 * inner_product(p, p)
    se = np.std(counts, ddof=1) / math.sqrt(trials)
    assert abs(np.mean(counts) - expected) <= 3 * se + 1e-9


def test_sampled_mass_surrogate_small_scale():
    # sampled mass at the worst-case sample count clears (1+eps^2/2) m/n
    rng = np.random.default_rng(13)
    n = 10**4
    eps = 0.5
    p, _ = biased_pair(n, eps)
    o = make_oracle(p, p.denominator, rng)
    m = math.ceil((32 * n / eps**4) ** (1 / 3))
    cut = (1 + eps**2 / 2) * m / n
    hits = sum(sampled_mass(o, m, rng) >= cut for _ in range(300))
    assert hits / 300 >= 0.7


def test_many_big_elements_sampled_mass():
    # with big-element mass w > alpha/M, sampled mass reaches 2M/n w.p. >= 1/2
    rng = np.random.default_rng(14)
    eps = 2.0
    n = 4096
    m = math.ceil((32 * n / eps**4) ** (1 / 3))  # 21
    alpha = 2**8 / eps**4  # 16
    den = n * 1000
    counts = np.zeros(n, dtype=np.int64)
    counts[:400] = 2 * n  # 400 big elements of weight 0.002 each (cut is ~0.00113)
    small = (den - 400 * 2 * n) // (n - 400)
    counts[400:] = small
    counts[400] += den - int(counts.sum())
    p = Distribution(counts, den)
    big = counts * (2 * m * m) > den  # weight above 1 / (2 M^2)
    w_big = int(counts[big].sum()) / den
    assert w_big == 0.8 and w_big > alpha / m
    o = make_oracle(p, den, rng)
    hits = sum(sampled_mass(o, m, rng) >= 2 * m / n for _ in range(400))
    assert hits / 400 >= 0.5


# ---------------------------------------------------------------------------
# orthogonality


def test_otest_accepts_disjoint_always():
    rng = np.random.default_rng(15)
    p, q = disjoint_pair(1000)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    params = OrthogonalityParams(epsilon=0.5)
    for _ in range(1000):
        assert otest(op, oq, params, rng).decision == "accept"


def test_otest_rejects_identical_uniform():
    # distance 0 <= 2 - eps: a valid overlap instance; box parameters reject
    # well above the single-round 1/4 floor
    rng = np.random.default_rng(16)
    n = 1000
    u = uniform(n)
    op = make_oracle(u, n, rng)
    oq = make_oracle(u, n, rng)
    params = OrthogonalityParams(epsilon=0.5)
    rejects = sum(otest(op, oq, params, rng).decision == "reject" for _ in range(300))
    assert rejects / 300 >= 0.25


def test_otest_collision_mass_event():
    # Pr[q_A >= eps^3 M / (2^11 n)] >= 1/2 once M >= 2^9 / eps^2
    rng = np.random.default_rng(17)
    n = 10**5
    eps = 0.5
    p, q = overlapping_pair(n, eps)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    m = 2**9 * 4  # 2048
    qdist = oq.distribution()
    hits = 0
    trials = 200
    for _ in range(trials):
        seen = np.unique(op.table[rng.integers(0, op.s, m)])
        q_mass = int(qdist.counts[seen].sum()) / qdist.denominator
        hits += q_mass >= eps**3 * m / (2**11 * n)
    assert hits / trials >= 0.45


def test_orthogonality_wrapper_one_sided_and_ledger():
    rng = np.random.default_rng(18)
    p, q = disjoint_pair(512)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    params = OrthogonalityParams(epsilon=0.5, rounds=4)
    verdict = orthogonality_test(op, oq, params, rng)
    assert verdict.decision == "accept"
    assert len(verdict.rounds) == 4
    m, k, _ = params.resolved(512)
    assert verdict.ledgers["p"].classical_samples == 4 * m
    assert verdict.ledgers["q"].quantum_applications == 4 * k


def test_orthogonality_wrapper_amplifies():
    rng = np.random.default_rng(19)
    p, q = overlapping_pair(1000, 0.5)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    params = OrthogonalityParams(epsilon=0.5, rounds=4)
    rejects = sum(
        orthogonality_test(op, oq, params, rng).decision == "reject" for _ in range(200)
    )
    assert rejects / 200 >= 0.6


def test_orthogonality_queries_linear_in_rounds():
    rng = np.random.default_rng(20)
    p, q = disjoint_pair(512)
    op = make_oracle(p, p.denominator, rng)
    oq = make_oracle(q, q.denominator, rng)
    m, k, _ = OrthogonalityParams(epsilon=0.5).resolved(512)
    for rounds in (1, 3, 5):
        verdict = orthogonality_test(
            op, oq, OrthogonalityParams(epsilon=0.5, rounds=rounds), rng
        )
        assert verdict.total_queries == rounds * (m + k)
