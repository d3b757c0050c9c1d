"""Quantum and classical distribution property testing in the oracle model.

Distributions are presented to algorithms only through lookup-table oracles;
the quantum subset-mass estimator is simulated exactly through the
closed-form measurement law of amplitude estimation, so tester statistics
match the real quantum procedures while domains of a million elements remain
cheap.  Every oracle access is counted on a ledger, which is what the
scaling experiments measure.
"""

from .amplitude import (
    DEFAULT_C,
    ProbEstimate,
    ae_outcome_pmf,
    calibrate_constant,
    coverage_probability,
    est_prob,
    queries_for,
    unitary_reference_pmf,
)
from .baselines import (
    classical_orthogonality_test,
    classical_statdiff_plugin,
    classical_uniformity_test,
)
from .distributions import (
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
from .harness import ScalingResult, fit_loglog, run_scaling
from .lowerbounds import (
    CollisionFunction,
    CorollaryReport,
    build_collision_oracles,
    corollary_report,
    empirical_fingerprint_tv,
    fingerprint_of,
    matching_parity_distance,
    poissonized_occupation,
    sample_poissonized_fingerprint,
    valiant_bound,
)
from .testers import (
    DistanceEstimate,
    OrthogonalityParams,
    StatDiffParams,
    TestVerdict,
    UniformityParams,
    est_dist,
    orthogonality_test,
    otest,
    sampled_mass,
    uniformity_test,
    utest,
)

__version__ = "0.4.0"
