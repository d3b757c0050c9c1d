import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisttest.distributions import (
    Distribution,
    OracleTable,
    QueryLedger,
    biased_pair,
    classical_sample,
    classical_samples,
    disjoint_pair,
    distribution_of,
    half_support,
    inner_product,
    l1_distance,
    load_oracle,
    make_oracle,
    overlapping_pair,
    save_oracle,
    uniform,
)

from helpers import random_distribution


# ---------------------------------------------------------------------------
# construction and invariants


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution([1, -1, 2], 2)
    with pytest.raises(ValueError):
        Distribution([1, 1], 3)  # counts must sum to denominator
    with pytest.raises(ValueError):
        Distribution([], 1)


def test_distribution_equality_across_denominators():
    assert Distribution([1, 1], 2) == Distribution([3, 3], 6)
    assert Distribution([1, 1], 2) != Distribution([2, 1], 3)


def test_oracle_table_validation():
    with pytest.raises(ValueError):
        OracleTable([0, 3], 3)  # value out of range
    with pytest.raises(ValueError):
        OracleTable([], 1)


def test_value_types_are_frozen():
    p = uniform(3)
    o = make_oracle(p, 3, 0)
    with pytest.raises(ValueError):
        p.counts[0] = 5
    with pytest.raises(ValueError):
        o.table[0] = 1


def test_constructors_copy_the_callers_array():
    counts = np.array([1, 2])
    p = Distribution(counts, 3)
    counts[0] = 5
    assert p.counts.tolist() == [1, 2] and p == Distribution([1, 2], 3)
    table = np.array([0, 1, 1])
    o = OracleTable(table, 2)
    table[0] = 1
    assert o.table.tolist() == [0, 1, 1] and o.distribution() == Distribution([1, 2], 3)


# ---------------------------------------------------------------------------
# make_oracle / distribution_of


def test_make_oracle_uniform_is_permutation():
    table = make_oracle(uniform(4), 4, seed=1).table
    assert sorted(table.tolist()) == [0, 1, 2, 3]


def test_make_oracle_half_support_counts():
    # weight 2/8 per live element at table size 8: each appears exactly twice
    o = make_oracle(half_support(8), 8, seed=2)
    counts = np.bincount(o.table, minlength=8)
    assert counts[:4].tolist() == [2, 2, 2, 2]
    assert counts[4:].tolist() == [0, 0, 0, 0]


def test_make_oracle_lays_out_elements_in_order_and_keeps_p():
    p = Distribution([1, 0, 2, 1], 4)
    o = make_oracle(p, 4)
    assert o.table.tolist() == [0, 2, 2, 3]
    assert o.distribution() is p  # s == denominator: p itself, no recount
    # s = k * denominator: each element k times as often
    o = make_oracle(p, 12)
    assert o.table.tolist() == [0] * 3 + [2] * 6 + [3] * 3
    assert o.distribution().denominator == 12 and o.distribution() == p
    # gcd case: 2/8 and 6/8 of a table of 4
    o = make_oracle(Distribution([2, 6], 8), 4)
    assert o.table.tolist() == [0, 1, 1, 1]
    assert o.distribution() == Distribution([1, 3], 4)
    # a denominator near 2**61: every value the gcd form computes stays within s
    o = make_oracle(Distribution([2**60, 2**60], 2**61), 4)
    assert o.table.tolist() == [0, 0, 1, 1]
    assert o.distribution() == Distribution([1, 1], 2)
    with pytest.raises(ValueError, match="integer"):
        make_oracle(Distribution([1, 2], 3), 4)
    with pytest.raises(ValueError, match="integer"):
        make_oracle(Distribution([2**60 + 1, 2**60 - 1], 2**61), 4)


def test_make_oracle_divisibility_error():
    with pytest.raises(ValueError, match="integer"):
        make_oracle(uniform(3), 4, seed=0)


def test_distribution_of_counting():
    assert distribution_of(OracleTable([0] * 5, 1)) == Distribution([5], 5)
    assert distribution_of(OracleTable([0, 0, 1, 2], 3)) == Distribution([2, 1, 1], 4)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_make_oracle_round_trip_exact(data):
    seed = data.draw(st.integers(0, 2**31))
    n = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    counts, den = random_distribution(rng, n)
    p = Distribution(counts, den)
    factor = data.draw(st.integers(1, 3))
    o = make_oracle(p, factor * den, seed=seed)
    assert distribution_of(o) == p
    # the distribution handed to the oracle is the one its table generates
    assert np.array_equal(np.bincount(o.table, minlength=n), o.distribution().counts)


def test_permutation_invariance():
    rng = np.random.default_rng(9)
    counts, den = random_distribution(rng, 10)
    o = make_oracle(Distribution(counts, den), den, seed=3)
    for _ in range(5):
        sigma = rng.permutation(o.s)
        assert distribution_of(OracleTable(o.table[sigma], o.n)) == distribution_of(o)


def _runs_distribution(runs):
    """Counts made of ``runs`` (level, length) pairs, as a Distribution."""
    counts = np.concatenate([np.full(k, c, dtype=np.int64) for c, k in runs])
    return counts, Distribution(counts, int(counts.sum()))


def _random_runs(rng):
    """Random runs with zero runs at the start, the end or in between."""
    runs = [(int(rng.choice([0, 1, 2, 3, 7, 1000])), int(rng.integers(1, 6)))
            for _ in range(int(rng.integers(1, 7)))]
    if rng.random() < 0.3:
        runs.insert(0, (0, int(rng.integers(1, 4))))
    if rng.random() < 0.3:
        runs.append((0, int(rng.integers(1, 4))))
    if rng.random() < 0.3:
        runs.insert(len(runs) // 2, (0, int(rng.integers(1, 4))))
    if all(c == 0 for c, _ in runs):
        runs.append((5, 2))
    return runs


RUN_CASES = [
    [(1, 7)],  # one block, the identity table
    [(3, 4)],  # one block at level 3
    [(0, 3), (1, 5)],  # one positive block after a zero run
    [(0, 3), (2, 2)],  # ... at level 2
    [(0, 2), (4, 3), (0, 2)],  # zero runs at both ends
    [(2, 3), (0, 4), (5, 1), (0, 1), (1, 6)],  # zero runs in the middle
    [(2, 2), (2, 3), (1, 1)],  # equal adjacent runs merge
]


def test_element_at_and_counts_at_match_the_dense_table():
    for case in range(len(RUN_CASES) + 200):
        rng = np.random.default_rng(case)
        counts, p = _runs_distribution(RUN_CASES[case] if case < len(RUN_CASES) else _random_runs(rng))
        n, table = counts.size, np.repeat(np.arange(counts.size), counts)
        assert np.array_equal(p.element_at(np.arange(p.denominator)), table)
        pos = rng.integers(0, p.denominator, size=50)
        assert np.array_equal(p.element_at(pos), table[pos])
        assert all(int(p.element_at(int(i))) == table[i] for i in pos[:5])
        idx = rng.integers(0, n, size=50)
        assert np.array_equal(p.counts_at(idx), counts[idx])
        assert np.array_equal(p.counts_at(np.arange(n)), counts)
        assert int(p.counts_at(int(idx[0]))) == counts[idx[0]]
        # the oracle reads the same table, also at a multiple of the denominator
        o = make_oracle(p, 3 * p.denominator)
        tripled = np.repeat(np.arange(n), 3 * counts)
        assert np.array_equal(o.element_at(np.arange(o.s)), tripled)
        assert np.array_equal(o.table, tripled)
    # one element of count 2**30 after 2**40 empty ones: positions past int64
    far = Distribution.from_blocks([0, 2**40], [0, 2**30], 2**40 + 1, 2**30)
    with pytest.raises(ValueError, match="overflow"):
        far.element_at(0)


@pytest.mark.parametrize("blocks", [1, 2, 8, 64, 1000])
def test_element_at_reads_every_block_of_many(blocks):
    # Check the first and last table slot of every element, around
    # zero-count ones, and both sides of every block bound b: slot b - 1
    # ends a block and slot b starts the next.
    rng = np.random.default_rng(blocks)
    # Steps of 1 to 4 mod 7: adjacent levels differ, so no blocks merge, and
    # about one in seven is zero (never the first).
    levels = np.cumsum(rng.integers(1, 5, size=blocks)) % 7
    counts = np.repeat(levels, rng.integers(1, 4, size=blocks))
    p = Distribution(counts, int(counts.sum()))
    assert p.levels.size == blocks
    table = np.repeat(np.arange(counts.size), counts)
    ends = np.cumsum(counts)[counts > 0]
    edges = np.unique(np.concatenate((ends - counts[counts > 0], ends - 1)))
    bounds = np.cumsum(p.levels * p.sizes())
    bounds = bounds[bounds < p.denominator]
    for at in (edges, np.concatenate((bounds - 1, bounds))):
        out = p.element_at(at)
        assert out.dtype == np.int64 and np.array_equal(out, table[at])
        assert all(p.element_at(np.int64(i)) == table[i] for i in at)
        assert all(p.element_at(int(i)) == table[i] for i in at)
    pos = rng.integers(0, p.denominator, size=(3, 200))
    assert np.array_equal(p.element_at(pos), table[pos])
    assert np.array_equal(p.element_at(np.arange(p.denominator)), table)


def test_blocks_are_maximal_runs():
    p = Distribution([0, 0, 2, 2, 2, 0, 1, 1], 8)
    assert p.starts.tolist() == [0, 2, 5, 6] and p.levels.tolist() == [0, 2, 0, 1]
    with pytest.raises(ValueError):
        p.starts[0] = 1
    q = Distribution.from_blocks([0, 2, 3, 5, 6], [0, 2, 2, 0, 1], 8, 8)
    assert q.starts.tolist() == [0, 2, 5, 6] and q.levels.tolist() == [0, 2, 0, 1]
    assert np.array_equal(q.counts, p.counts)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_from_blocks_and_counts_give_equal_hash_equal_distributions(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    counts, p = _runs_distribution(_random_runs(rng))
    factor = data.draw(st.integers(1, 5))
    q = Distribution.from_blocks(p.starts, p.levels * factor, p.n, p.denominator * factor)
    assert p == q and hash(p) == hash(q)
    assert np.array_equal(q.counts, counts * factor)
    # blocks split after their first element give the same distribution
    starts = sorted({*p.starts.tolist(), *(s + 1 for s in p.starts.tolist() if s + 1 < p.n)})
    r = Distribution.from_blocks(starts, counts[starts], p.n, p.denominator)
    assert r == p and hash(r) == hash(p)
    assert np.array_equal(r.starts, p.starts) and np.array_equal(r.levels, p.levels)


def test_from_blocks_validation():
    for starts, levels, n, den in [
        ([1], [1], 4, 4),  # does not start at 0
        ([0, 2, 2], [1, 2, 1], 4, 6),  # starts do not rise
        ([0, 4], [1, 1], 4, 4),  # a start outside [0, n)
        ([0, 2], [1, -1], 4, 0),  # negative count
        ([0, 2], [1, 2], 4, 7),  # counts do not sum to the denominator
        ([0, 2], [1], 4, 2),  # one level per start
        ([], [], 4, 4),
    ]:
        with pytest.raises(ValueError):
            Distribution.from_blocks(starts, levels, n, den)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_block_distances_equal_the_dense_integer_formula(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 30))
    huge = data.draw(st.booleans())  # counts near 2**40: the Python-int branch
    top = 2**40 if huge else 8
    dense = []
    for _ in range(2):
        counts = np.repeat(rng.integers(0, top, size=n), rng.integers(1, 4, size=n))[:n]
        counts[0] += top  # a positive total, and s1 * s2 >= 2**80 when huge
        dense.append(counts.tolist())
    ca, cb = dense
    s1, s2 = sum(ca), sum(cb)
    p, q = Distribution(ca, s1), Distribution(cb, s2)
    assert l1_distance(p, q) == sum(abs(a * s2 - b * s1) for a, b in zip(ca, cb)) / (s1 * s2)
    assert inner_product(p, q) == sum(a * b for a, b in zip(ca, cb)) / (s1 * s2)


# ---------------------------------------------------------------------------
# sampling


def test_classical_sample_constant_table():
    o = OracleTable([0, 0, 0], 2)
    rng = np.random.default_rng(0)
    assert all(classical_sample(o, rng) == 0 for _ in range(20))


def test_classical_sample_frequencies():
    o = make_oracle(uniform(2), 2, seed=0)
    rng = np.random.default_rng(1)
    draws = classical_samples(o, 10**5, rng)
    freq = np.bincount(draws, minlength=2) / 10**5
    assert abs(freq[0] - 0.5) < 0.02


def test_classical_samples_stream_matches_distribution():
    rng = np.random.default_rng(2)
    counts, den = random_distribution(rng, 10)
    p = Distribution(counts, den)
    o = make_oracle(p, den, rng)
    draws = classical_samples(o, 10**5, rng)
    freq = np.bincount(draws, minlength=10) / 10**5
    assert 0.5 * np.abs(freq - p.counts / p.denominator).sum() < 0.02


def test_relabeled_oracle_draws_match_direct_sampling():
    # one draw from a freshly relabeled oracle each time vs direct random
    # table reads: the same answer-stream statistics, so no choice of input
    # order tells a sampler anything
    rng = np.random.default_rng(3)
    p, _ = biased_pair(8, 0.5)
    o = make_oracle(p, p.denominator, rng)
    relabeled = np.array(
        [classical_sample(OracleTable(o.table[rng.permutation(o.s)], o.n), rng)
         for _ in range(20000)]
    )
    direct = o.table[rng.integers(0, o.s, 20000)]
    f1 = np.bincount(relabeled, minlength=8) / 20000
    f2 = np.bincount(direct, minlength=8) / 20000
    assert 0.5 * np.abs(f1 - f2).sum() < 0.02


def test_ledger_counts_draws():
    o = make_oracle(uniform(4), 4, seed=0)
    rng = np.random.default_rng(2)
    ledger = QueryLedger()
    for _ in range(7):
        classical_sample(o, rng, ledger)
    classical_samples(o, 13, rng, ledger)
    assert ledger.classical_samples == 20
    assert ledger.quantum_applications == 0
    with pytest.raises(ValueError):
        ledger.add_classical(-1)


# ---------------------------------------------------------------------------
# distances and inner products


def test_l1_basic_values():
    u = uniform(8)
    assert l1_distance(u, u) == 0.0
    p, q = disjoint_pair(8)
    assert l1_distance(p, q) == 2.0
    assert l1_distance(half_support(8), u) == 1.0


def test_l1_support_mismatch():
    with pytest.raises(ValueError):
        l1_distance(uniform(4), uniform(5))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_l1_is_a_metric(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 8))
    dists = [Distribution(*random_distribution(rng, n)) for _ in range(3)]
    p, q, r = dists
    assert l1_distance(p, q) == l1_distance(q, p)
    assert l1_distance(p, q) <= l1_distance(p, r) + l1_distance(r, q) + 1e-12
    assert (l1_distance(p, q) == 0.0) == (p == q)


def test_inner_product_values():
    p, q = disjoint_pair(10)
    assert inner_product(p, q) == 0.0
    assert inner_product(uniform(10), uniform(10)) == pytest.approx(0.1)


def test_nonuniform_self_inner_product_bound():
    # eps-nonuniform distributions obey <p|p> >= (1 + eps^2)/n
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        p = Distribution(*random_distribution(rng, n))
        eps = l1_distance(p, uniform(n))
        assert inner_product(p, p) >= (1 + eps**2) / n - 1e-12


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz_distance_bound(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 16))
    p = Distribution(*random_distribution(rng, n))
    u = uniform(n)
    lhs = l1_distance(p, u)
    rhs = np.sqrt(n) * np.sqrt(max(0.0, inner_product(p, p) - 1.0 / n))
    assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# generators


def test_biased_pair_distance():
    p, u = biased_pair(8, 0.5)
    assert l1_distance(p, u) == 0.5
    assert p.counts[0] / p.denominator == pytest.approx(1.5 / 8)
    assert p.counts[-1] / p.denominator == pytest.approx(0.5 / 8)


def test_disjoint_pair_distance():
    p, q = disjoint_pair(8)
    assert l1_distance(p, q) == 2.0
    assert np.intersect1d(np.flatnonzero(p.counts), np.flatnonzero(q.counts)).size == 0


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 1.5, 2.0])
def test_overlapping_pair_distance(eps):
    p, q = overlapping_pair(1000, eps)
    assert l1_distance(p, q) == 2.0 - eps


def test_generator_infeasible_parameters():
    with pytest.raises(ValueError):
        biased_pair(7, 0.5)  # odd n
    with pytest.raises(ValueError):
        biased_pair(8, 1.5)  # negative weights
    with pytest.raises(ValueError):
        overlapping_pair(8, 0)
    with pytest.raises(ValueError):
        biased_pair(8, 0.1234567890123)  # no small-denominator rational
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            overlapping_pair(8, bad)


def test_recommended_sizes_are_minimal():
    assert uniform(6).denominator == 6
    assert half_support(6).denominator == 3
    p, _ = biased_pair(8, 0.5)
    assert p.denominator == 16  # weights 3/16 and 1/16


# ---------------------------------------------------------------------------
# text format


def test_oracle_text_round_trip(tmp_path):
    o = make_oracle(half_support(8), 16, seed=5)
    path = tmp_path / "instance.txt"
    save_oracle(o, path)
    loaded, kind = load_oracle(path)
    assert kind is None
    assert loaded.n == o.n
    assert np.array_equal(loaded.table, o.table)


def test_oracle_text_kind_header(tmp_path):
    o = OracleTable([0, 1, 2, 0], 3)
    path = tmp_path / "instance.txt"
    save_oracle(o, path, kind="two-to-one")
    loaded, kind = load_oracle(path)
    assert kind == "two-to-one"
    assert np.array_equal(loaded.table, o.table)


def test_oracle_text_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n0\n1\n")
    with pytest.raises(ValueError, match="expected 3"):
        load_oracle(path)
