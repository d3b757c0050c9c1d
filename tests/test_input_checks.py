"""Caller input is checked, never truncated.

A count is a Python or numpy integer that is not a bool: a float or ``True``
raises ``ValueError`` naming the argument, and a numpy integer scalar gives
the same result as the Python int of the same value.
"""

import numpy as np
import pytest

from qdisttest.amplitude import ae_outcome_pmf, calibrate_constant, est_prob, est_probs
from qdisttest.baselines import (
    classical_orthogonality_test,
    classical_statdiff_plugin,
    classical_uniformity_test,
)
from qdisttest.distributions import (
    Distribution,
    OracleTable,
    QueryLedger,
    biased_pair,
    disjoint_pair,
    half_support,
    make_oracle,
    overlapping_pair,
    uniform,
)
from qdisttest.harness import run_scaling
from qdisttest.lowerbounds import corollary_report, empirical_fingerprint_tv
from qdisttest.testers import (
    OrthogonalityParams,
    StatDiffParams,
    UniformityParams,
    est_dist,
    orthogonality_test,
    uniformity_test,
)

ORACLE = make_oracle(Distribution([1, 2, 3, 4], 10), 10)
RNG = np.random.default_rng(0)


@pytest.mark.parametrize("build, message", [
    (lambda: est_prob(ORACLE, (0,), 10.7, RNG), "m must be an integer >= 1, got 10.7"),
    (lambda: est_prob(ORACLE, (0,), True, RNG), "m must be an integer >= 1, got True"),
    (lambda: est_probs((ORACLE,), [0, 1], 10.7, RNG), "m must be an integer >= 1, got 10.7"),
    (lambda: ae_outcome_pmf(0.25, 10.5), "m must be an integer >= 1, got 10.5"),
    (lambda: classical_uniformity_test(ORACLE, 100.5, 0.5, RNG),
     "m must be an integer >= 2, got 100.5"),
    (lambda: classical_statdiff_plugin(ORACLE, ORACLE, 50.9, RNG),
     "m must be an integer >= 1, got 50.9"),
    (lambda: classical_orthogonality_test(ORACLE, ORACLE, 50.9, RNG),
     "m must be an integer >= 1, got 50.9"),
    (lambda: Distribution([1, 1], 2.9), "denominator must be an integer >= 1, got 2.9"),
    (lambda: Distribution.from_blocks([0], [1], 4.7, 4), "n must be an integer >= 1, got 4.7"),
    (lambda: OracleTable([0, 1], 2.9), "range size must be an integer >= 1, got 2.9"),
    (lambda: make_oracle(uniform(10), 10.0), "s must be an integer >= 1, got 10.0"),
    (lambda: uniform(4.5), "n must be an integer >= 1, got 4.5"),
    (lambda: half_support(10.0), "n must be an even integer >= 2"),
    (lambda: biased_pair(10.0, 0.5), "n must be an even integer >= 2"),
    (lambda: disjoint_pair(10.0), "n must be an even integer >= 2"),
    (lambda: overlapping_pair(10.0, 1), "n must be an even integer >= 2"),
    (lambda: StatDiffParams(n=2.5), "n must be an integer >= 1, got 2.5"),
    (lambda: UniformityParams(k_queries=10.5), "k_queries must be an integer >= 1, got 10.5"),
    (lambda: OrthogonalityParams(m_samples=3.5), "m_samples must be an integer >= 1, got 3.5"),
    (lambda: OrthogonalityParams(rounds=2.5), "rounds must be an integer >= 1, got 2.5"),
    (lambda: corollary_report(1000.9, 2, 1e-3), "n must be an even integer >= 2"),
    (lambda: corollary_report(1000, 2.5, 1e-3), "a must be an integer >= 0, got 2.5"),
    (lambda: empirical_fingerprint_tv(uniform(10), uniform(10), 1.0, 10.5, RNG),
     "trials must be an integer >= 1, got 10.5"),
    (lambda: QueryLedger().add_quantum(2.5), "ledger increment must be an integer >= 0, got 2.5"),
    (lambda: QueryLedger().add_classical(True),
     "ledger increment must be an integer >= 0, got True"),
    (lambda: run_scaling("uniformity", [1000.5, 10**4, 10**5, 10**6], 0.5, 1, 0),
     "n must be an integer >= 1, got 1000.5"),
    (lambda: calibrate_constant(100.5, RNG), "trials_per_cell must be an integer >= 1, got 100.5"),
], ids=[
    "est_prob-float", "est_prob-bool", "est_probs-float", "ae_outcome_pmf-float",
    "collision-float", "plugin-float", "cross-collision-float", "denominator-float",
    "from_blocks-n-float", "range-size-float", "make_oracle-s-float", "uniform-float", "half_support-float",
    "biased_pair-float", "disjoint_pair-float", "overlapping_pair-float", "statdiff-n-float",
    "uniformity-k-float", "orthogonality-m-float", "orthogonality-rounds-float",
    "corollary-n-float", "corollary-a-float", "fingerprint-trials-float", "ledger-float",
    "ledger-bool", "scaling-n-float", "calibrate-trials-float",
])
def test_counts_are_not_truncated(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def _runs(cast):
    """Results of every count-taking entry point with its counts passed
    through ``cast``, and the generator's state afterwards."""
    rng = np.random.default_rng(11)
    ledger = QueryLedger()
    p, u = biased_pair(cast(1000), 0.5)
    op, ou = make_oracle(p, p.denominator), make_oracle(u, u.denominator)
    lo, hi = overlapping_pair(cast(1000), 1)
    lo, hi = make_oracle(lo, lo.denominator), make_oracle(hi, hi.denominator)
    out = [
        est_prob(op, (cast(3),), cast(997), rng, ledger),
        est_prob(op, np.arange(64), cast(997), rng, ledger),
        est_probs((op, ou), np.arange(5), cast(61), rng, (ledger,)),
        ae_outcome_pmf(0.25, cast(64)).tolist(),
        classical_uniformity_test(op, cast(300), 0.5, rng, ledger),
        classical_statdiff_plugin(lo, hi, cast(50), rng, ledger),
        classical_orthogonality_test(lo, hi, cast(50), rng, ledger),
        Distribution([1, 1], cast(2)).denominator,
        Distribution.from_blocks([0], [1], cast(4), cast(4)).n,
        OracleTable([0, 1], cast(3)).n,
        make_oracle(uniform(10), cast(10)).s,
        uniform(cast(10)).n,
        half_support(cast(10)),
        disjoint_pair(cast(10)),
        est_dist(lo, hi, StatDiffParams(n=cast(20), m_inner=cast(30)), rng).estimate,
        uniformity_test(op, UniformityParams(m_samples=cast(8), k_queries=cast(200),
                                             l_repeats=cast(2)), rng).rounds,
        orthogonality_test(lo, hi, OrthogonalityParams(m_samples=cast(5), k_queries=cast(9),
                                                       rounds=cast(3)), rng).rounds,
        UniformityParams(m_samples=cast(8), k_queries=cast(200)).resolved(1000),
        corollary_report(cast(10**6), cast(5), 1e-4),
        empirical_fingerprint_tv(p, u, 2.0, cast(20), rng),
        ledger,
        rng.bit_generator.state,
    ]
    return [(type(x).__name__, repr(x)) for x in out]


@pytest.mark.filterwarnings("ignore:plug-in TV")
@pytest.mark.parametrize("cast", [np.int64, np.uint32])
def test_numpy_integer_counts_give_python_int_results(cast):
    assert _runs(cast) == _runs(int)
