import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisttest import amplitude
from qdisttest.amplitude import (
    CALIBRATION_GRID,
    DEFAULT_C,
    ae_outcome_pmf,
    calibrate_constant,
    coverage_probability,
    est_prob,
    est_probs,
    queries_for,
    unitary_reference_pmf,
)
from qdisttest.cli import main as run_cli
from qdisttest.distributions import (
    Distribution,
    OracleTable,
    QueryLedger,
    make_oracle,
    overlapping_pair,
    uniform,
)


def tv(p, q):
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# outcome law


@given(
    a=st.floats(0.0, 1.0, allow_nan=False),
    m=st.integers(1, 200),
)
@settings(max_examples=120, deadline=None)
def test_pmf_normalized_and_symmetric(a, m):
    pmf = ae_outcome_pmf(a, m)
    assert pmf.shape == (m,)
    assert pmf.min() >= 0.0
    assert abs(pmf.sum() - 1.0) < 1e-12
    # symmetric under y <-> m - y for y != 0
    assert np.allclose(pmf[1:], pmf[1:][::-1], atol=1e-12)


def test_pmf_zero_amplitude_is_point_mass():
    for m in (1, 2, 7, 32):
        pmf = ae_outcome_pmf(0.0, m)
        assert pmf[0] == 1.0
        # off-zero entries are pure float noise in sin(pi * integer)
        assert pmf[1:].max(initial=0.0) < 1e-25


def test_pmf_aligned_amplitude():
    m, k = 12, 3
    pmf = ae_outcome_pmf(math.sin(math.pi * k / m) ** 2, m)
    assert pmf[k] + pmf[m - k] > 1 - 1e-12
    # full amplitude with even m aligns at m/2
    pmf = ae_outcome_pmf(1.0, 4)
    assert pmf[2] == pytest.approx(1.0, abs=1e-12)


def test_pmf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ae_outcome_pmf(-0.1, 4)
    with pytest.raises(ValueError):
        ae_outcome_pmf(1.1, 4)
    with pytest.raises(ValueError):
        ae_outcome_pmf(0.5, 0)


# ---------------------------------------------------------------------------
# dense reference simulator agreement (the module's central oracle)


def test_reference_simulator_trivial_cases():
    o = OracleTable([0, 1, 2, 3], 4)
    # empty target: all mass at outcome 0
    pmf = unitary_reference_pmf(o, [], 8)
    assert pmf[0] == pytest.approx(1.0, abs=1e-12)
    # half mass with m=4: eigenphase 1/8... use aligned case a=1/2, theta=pi/4
    pmf = unitary_reference_pmf(o, [0, 1], 4)
    assert pmf[1] + pmf[3] == pytest.approx(1.0, abs=1e-12)


def test_reference_simulator_matches_closed_form():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(60):
        s = int(rng.integers(2, 65))
        n = int(rng.integers(2, 16))
        o = OracleTable(rng.integers(0, n, size=s), n)
        k = int(rng.integers(0, n + 1))
        target = rng.choice(n, size=k, replace=False)
        m = int(rng.integers(1, 33))
        a = (
            int(o.distribution().counts[np.sort(target)].sum()) / s
            if k
            else 0.0
        )
        worst = max(worst, tv(ae_outcome_pmf(a, m), unitary_reference_pmf(o, target, m)))
    assert worst < 1e-9


def test_reference_simulator_caps():
    o = OracleTable([0] * 300, 2)
    with pytest.raises(ValueError, match="cap"):
        unitary_reference_pmf(o, [0], 4)
    o = OracleTable([0, 1], 2)
    with pytest.raises(ValueError, match="cap"):
        unitary_reference_pmf(o, [0], 100)


# ---------------------------------------------------------------------------
# est_prob


def test_est_prob_zero_mass_certainty():
    o = make_oracle(uniform(4), 4, seed=0)
    rng = np.random.default_rng(3)
    for _ in range(10**4):
        pe = est_prob(o, (), 5, rng)
        assert pe.estimate == 0.0 and pe.raw_outcome == 0


def test_est_prob_full_mass_certainty():
    o = make_oracle(uniform(4), 4, seed=0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        pe = est_prob(o, (0, 1, 2, 3), 4, rng)
        assert pe.estimate == 1.0


def test_est_prob_ledger_and_support():
    o = make_oracle(uniform(8), 8, seed=0)
    rng = np.random.default_rng(5)
    ledger = QueryLedger()
    m = 17
    for _ in range(25):
        pe = est_prob(o, (0, 3), m, rng, ledger)
        assert pe.estimate == math.sin(math.pi * pe.raw_outcome / m) ** 2
        assert 0 <= pe.raw_outcome < m
        assert pe.target_set_mass == 0.25
    assert ledger.quantum_applications == 25 * m
    assert ledger.classical_samples == 0


def test_est_prob_duplicate_target_elements_count_once():
    o = make_oracle(uniform(4), 4, seed=0)
    rng = np.random.default_rng(6)
    pe = est_prob(o, (1, 1, 1), 8, rng)
    assert pe.target_set_mass == 0.25
    pe = est_prob(o, np.array([3, 1, 3, 0, 1, 3]), 8, rng)
    assert pe.target_set_mass == 0.75


def test_est_prob_rejects_targets_outside_the_domain():
    o = make_oracle(uniform(4), 4, seed=0)
    rng = np.random.default_rng(6)
    # One element, whatever its container, is looked up without the sort.
    singles = [np.array([4]), np.array([-1]), [2**40], (np.int64(-(2**40)),)]
    for target in ((4,), (-1,), (0, 4), np.array([-1, 2]), *singles):
        with pytest.raises(ValueError, match="lie in"):
            est_prob(o, target, 8, rng)
    # A float element is rejected on both paths, not truncated to an element.
    for target in ((1.9,), (0.5, 1.9), np.array([0.5]), np.array([0.5, 1.9])):
        with pytest.raises(ValueError, match="integers"):
            est_prob(o, target, 8, rng)


def test_est_prob_of_one_element_draws_as_the_element_twice():
    # (i,) takes the one-element lookup and (i, i) the general path; both
    # must give the same mass, so the same draws and the same stream.
    p, q = overlapping_pair(40, 0.5)
    oracles = [
        make_oracle(p, p.denominator),
        OracleTable(np.repeat(make_oracle(q, q.denominator).table, 3), q.n),
        OracleTable([0, 2, 2, 5, 5, 5, 6], 7),
    ]
    for o in oracles:
        for m in (5, 64, 997):
            once, twice, array = (np.random.default_rng(45) for _ in range(3))
            for i in range(o.n):
                pe = est_prob(o, (i,), m, once)
                assert pe == est_prob(o, (i, i), m, twice) == est_prob(o, np.array([i]), m, array)
            assert once.bit_generator.state == twice.bit_generator.state == array.bit_generator.state


def _chi_square_pvalue(outcomes, pmf) -> float:
    """Pearson chi-square p-value; cells expecting fewer than 5 are pooled."""
    from scipy.stats import chi2

    expected = pmf * len(outcomes)
    observed = np.bincount(outcomes, minlength=pmf.size)
    small = expected < 5
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    empty = expected == 0
    assert observed[empty].sum() == 0  # an outcome the law gives probability 0
    expected, observed = expected[~empty], observed[~empty]
    if expected.size == 1:
        return 1.0
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, expected.size - 1))


def test_est_prob_draws_follow_the_outcome_law():
    # Every (mass, m) cell: 10^4 draws against ae_outcome_pmf, failing only
    # below p = 1e-6.  Small m checks the offset window; m = 997 and 200000
    # reach the rejection-sampled tails.
    den = 10**6
    draws = 10**4
    for i, a in enumerate((0.0, 1e-6, 0.05, 0.137, 0.5, 0.9, 1.0)):
        counts = np.array([round(a * den), den - round(a * den)], dtype=np.int64)
        o = make_oracle(Distribution(counts, den), den, seed=i)
        for j, m in enumerate((1, 2, 3, 5, 7, 8, 9, 997, 200000)):
            rng = np.random.default_rng([40, i, j])
            ys = np.array([est_prob(o, (0,), m, rng).raw_outcome for _ in range(draws)])
            p = _chi_square_pvalue(ys, ae_outcome_pmf(a, m))
            assert p >= 1e-6, (a, m, p)


class _PastTheBlock:
    """Stands in for the generator of one ``_draw``: its first uniform, just
    below 1/2, picks the ``+phi`` branch and rescales to 1 - 2**-53, past the
    central offsets' mass; later uniforms come from ``rng``."""

    def __init__(self, rng):
        self.rng, self.first = rng, True

    def random(self):
        if self.first:
            self.first = False
            return 0.5 - 2**-54
        return self.rng.random()


def test_outcome_tails_follow_the_outcome_law():
    # A uniform beyond the central offsets' mass sends _draw to the tails
    # alone, so 4*10^4 draws there resolve envelope errors of a few percent,
    # which whole-law draws (a twentieth of them in the tails) would miss.
    from qdisttest.amplitude import _draw

    for i, (f, m) in enumerate(((0.5, 11), (0.3, 9), (0.9, 16), (0.5, 997), (0.01, 200000))):
        rng = np.random.default_rng([43, i])
        offsets = np.arange(math.floor(f - m / 2) + 1, math.floor(f + m / 2) + 1)
        law = (math.sin(math.pi * f) / (m * np.sin(np.pi * (offsets - f) / m))) ** 2
        law[(offsets > -4) & (offsets < 5)] = 0.0
        # At grid position -lo the outcome of offset k is k - lo.
        window = (f, int(offsets[0]), int(offsets[-1]), math.sin(math.pi * f) / m, math.pi / m)
        branch = (-int(offsets[0]), window)
        ys = np.array([_draw(branch, m, _PastTheBlock(rng)) for _ in range(4 * 10**4)])
        ks = ys + offsets[0]
        assert ks.min() >= offsets[0] and ks.max() <= offsets[-1]
        p = _chi_square_pvalue(ks - offsets[0], law / law.sum())
        assert p >= 1e-6, (f, m, p)


def test_est_prob_aligned_phase_is_a_point_mass_per_branch():
    # mass sin^2(pi k / m) puts each eigenphase branch exactly on outcome k or m - k
    rng = np.random.default_rng(41)
    for counts, m, outcomes in (([1, 1], 4, {1, 3}), ([1, 3], 12, {2, 10}), ([1, 0], 4, {2})):
        o = make_oracle(Distribution(np.array(counts), sum(counts)), sum(counts), seed=0)
        seen = {est_prob(o, (0,), m, rng).raw_outcome for _ in range(2000)}
        assert seen == outcomes, (counts, m, seen)


def test_est_prob_at_m_beyond_any_materializable_law():
    m = 2**33
    p, _ = overlapping_pair(1000, 1)
    o = make_oracle(p, p.denominator, seed=0)
    rng = np.random.default_rng(42)
    ledger = QueryLedger()
    for element in (0, 1, 999):
        pe = est_prob(o, (element,), m, rng, ledger)
        assert 0 <= pe.raw_outcome < m
        assert pe.estimate == pytest.approx(pe.target_set_mass, abs=1e-6)
    assert ledger.quantum_applications == 3 * m


# est_probs


def test_est_probs_matches_est_prob_draw_for_draw():
    # Masses 0.013, 1/2, 0, 0.487 under op and 0, 0, 1, 0 under oq: aligned
    # at m = 4 (0, 1/2 and 1), generic, zero and repeated elements.  At m = 3
    # and 5 the window is narrower than the central offsets, so a uniform past
    # their float sum takes the fallback, not the tails; at m = 9 the tails
    # hold one offset.  The last two batches draw 2,000 times from the masses
    # 0.013 and 0.487, so tail rejections recur on a branch built once.
    op = make_oracle(Distribution(np.array([13, 500, 0, 487]), 1000), 1000, seed=0)
    oq = make_oracle(Distribution(np.array([0, 0, 1000, 0]), 1000), 1000, seed=1)
    elements = np.array([0, 1, 2, 3, 1, 1, 2, 0])
    cases = [((op, oq), elements, m) for m in (1, 2, 3, 4, 5, 9, 997, 200000, 2**33)]
    cases += [((op,), np.tile([0, 3], 1000), m) for m in (997, 200000)]
    for oracles, elements, m in cases:
        batch_rng, single_rng = np.random.default_rng(44), np.random.default_rng(44)
        ledgers = tuple(QueryLedger() for _ in oracles)
        outcomes, estimates = est_probs(oracles, elements, m, batch_rng, ledgers)
        singles = [[est_prob(o, (e,), m, single_rng) for o in oracles] for e in elements.tolist()]
        assert outcomes.tolist() == [[pe.raw_outcome for pe in row] for row in singles], m
        assert estimates.tolist() == [[pe.estimate for pe in row] for row in singles], m
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state, m
        assert [l.quantum_applications for l in ledgers] == [m * elements.size] * len(oracles)


def test_est_probs_rejects_elements_outside_the_domain_and_mismatched_oracles():
    o = make_oracle(uniform(4), 4, seed=0)
    rng = np.random.default_rng(6)
    for elements in ([4], [-1], np.array([0, 4]), np.array([2, -1])):
        with pytest.raises(ValueError, match="lie in"):
            est_probs((o,), elements, 8, rng)
    for elements in ([2.7], np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="integers"):
            est_probs((o,), elements, 8, rng)
    with pytest.raises(ValueError, match="support size"):
        est_probs((o, make_oracle(uniform(5), 5, seed=0)), [0], 8, rng)


def test_est_probs_of_no_elements_draws_and_charges_nothing():
    o = make_oracle(uniform(4), 4, seed=0)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    ledger = QueryLedger()
    outcomes, estimates = est_probs((o, o), [], 8, rng, (ledger, ledger))
    assert outcomes.shape == estimates.shape == (0, 2)
    assert ledger.classical_samples + ledger.quantum_applications == 0
    assert rng.bit_generator.state == state


def test_est_prob_coverage_contract():
    # mass 1/4 with the contract-derived budget: empirical coverage >= 1 - omega
    pa, delta, omega = 0.25, 0.05, 0.1
    m = queries_for(delta, omega, pa)
    counts = np.zeros(2, dtype=np.int64)
    counts[0], counts[1] = 1, 3
    o = make_oracle(Distribution(counts, 4), 4, seed=1)
    rng = np.random.default_rng(7)
    hits = sum(
        abs(est_prob(o, (0,), m, rng).estimate - pa) <= delta for _ in range(10**4)
    )
    assert hits / 10**4 >= 1 - omega


# ---------------------------------------------------------------------------
# query planning and calibration


def test_queries_for_monotone_in_delta():
    ms = [queries_for(d, 0.1, 0.3) for d in (0.01, 0.02, 0.05, 0.1, 0.2)]
    assert all(a >= b for a, b in zip(ms, ms[1:]))


def test_queries_for_zero_mass_bound():
    c, omega, delta = 2.0, 0.25, 0.04
    assert queries_for(delta, omega, 0.0, c) == math.ceil(c / (omega * math.sqrt(delta)))


def test_queries_for_validation():
    with pytest.raises(ValueError):
        queries_for(0.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        queries_for(0.1, 0.6, 0.5)
    with pytest.raises(ValueError):
        queries_for(0.1, 0.1, 1.5)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"delta must be positive and finite, got {value}"):
            queries_for(value, 0.1, 0.5)
        with pytest.raises(ValueError, match=f"c must be positive and finite, got {value}"):
            queries_for(0.1, 0.1, 0.5, value)
    with pytest.raises(ValueError, match="overflows"):
        queries_for(0.05, 0.1, 0.5, 1e308)


def test_queries_for_satisfies_inequalities():
    delta, omega, pa = 0.05, 0.1, 0.3
    m = queries_for(delta, omega, pa)
    assert m >= DEFAULT_C * math.sqrt(pa) / (omega * delta)
    assert m >= DEFAULT_C / (omega * math.sqrt(delta))


def test_calibrate_degenerate_grid_returns_smallest(monkeypatch):
    monkeypatch.setattr(amplitude, "CALIBRATION_GRID", ((0.0, 0.1, 0.1),))
    rng = np.random.default_rng(8)
    c = calibrate_constant(trials_per_cell=200, rng=rng)
    assert c == 1.0


def test_calibrate_sweep_exhaustion(monkeypatch):
    monkeypatch.setattr(amplitude, "CALIBRATION_GRID", ((0.5, 0.05, 0.05),))
    monkeypatch.setattr(amplitude, "CALIBRATION_SWEEP", (1e-3,))
    rng = np.random.default_rng(9)
    with pytest.raises(RuntimeError, match="exhausted"):
        calibrate_constant(trials_per_cell=400, rng=rng)


def test_coverage_trend_in_constant():
    # Coverage trends upward as the constant (hence m) grows.  It is not
    # strictly monotone: alignment of the estimate grid with the true mass
    # shifts as m changes, producing dips of a couple of percent.
    pa, delta, omega = 0.1, 0.02, 0.1
    cov = [
        coverage_probability(pa, delta, queries_for(delta, omega, pa, c))
        for c in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert cov[-1] >= cov[0]
    assert all(b >= a - 0.03 for a, b in zip(cov, cov[1:]))


def test_default_constant_meets_exact_coverage():
    assert len(CALIBRATION_GRID) == 27
    for pa, delta, omega in CALIBRATION_GRID:
        m = queries_for(delta, omega, pa, DEFAULT_C)
        assert coverage_probability(pa, delta, m) >= 1 - omega


def test_calibration_file_round_trip(tmp_path):
    # The provenance DEFAULT_C's comment gives: 4000 trials per cell, seed 20240801.
    path = tmp_path / "calibration.txt"
    assert run_cli(["calibrate", "--trials", "4000", "--seed", "20240801", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines == [f"c={DEFAULT_C!r}", "grid=default-3x3x3", "seed=20240801"]
    assert float(lines[0].partition("=")[2]) == DEFAULT_C
