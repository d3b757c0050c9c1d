"""Quantum testers: L1-distance estimation, uniformity, and orthogonality.

Each tester is a classical randomized procedure that calls the probability
estimator :func:`qdisttest.amplitude.est_prob` as a subroutine.  Every one
comes in two parameter modes:

``paper``
    The worst-case constants from the underlying analysis, verbatim.  These
    are proof artifacts: for the uniformity repetition count in particular
    they are astronomically conservative (the round count grows like
    ``exp(256/eps^4)``), so this mode is mostly useful for inspecting the
    parameter formulas and for single-round experiments.

``practical``
    The same algorithm structure with calibrated constants, chosen with the
    calibration harness so that the headline 2/3-success contracts hold at
    desk scale; they keep the same scaling in the domain size.

In both modes the sample, query and round counts can be set explicitly;
thresholds and the estimation constant cannot.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .amplitude import DEFAULT_C, est_prob, est_probs
from .distributions import (
    OracleTable,
    QueryLedger,
    classical_sample,  # noqa: F401  perfbench/tracing.py looks it up here
    classical_samples,
)
from .distributions import _count, _positive, _same_support

__all__ = [
    "StatDiffParams",
    "UniformityParams",
    "OrthogonalityParams",
    "TestVerdict",
    "RoundRecord",
    "DistanceEstimate",
    "est_dist",
    "utest",
    "uniformity_test",
    "otest",
    "orthogonality_test",
    "sampled_mass",
]

MODES = ("paper", "practical")  # the parameter modes (see module docstring)

# Practical-mode defaults (see module docstring).
PRACTICAL_STATDIFF_SAMPLES = 100
PRACTICAL_STATDIFF_QUERY_MULT = 200.0
PRACTICAL_UNIFORMITY_SAMPLE_MULT = 0.25
PRACTICAL_UNIFORMITY_QUERY_MULT = 300.0
PRACTICAL_UNIFORMITY_REPEATS = 1
PRACTICAL_UNIFORMITY_THRESHOLD_BUMP = 0.25  # threshold factor 1 + bump*eps^2

_MAX_EXP = math.log(sys.float_info.max)  # the largest x whose exp(x) is finite


@dataclass
class DistanceEstimate:
    """Distance-estimator output: the estimate, the ``(n_samples, 2)`` array
    of each drawn element's singleton estimates under p and q, the contrast
    term of each row, and the two ledgers."""

    estimate: float
    estimates: np.ndarray
    terms: np.ndarray
    ledgers: dict[str, QueryLedger]


@dataclass
class RoundRecord:
    """One round of a reject-if-any-round-rejects tester; the rounds' queries
    are on the verdict's ledgers."""

    decision: str
    statistic: float | None  # the thresholded estimate, when one was made
    true_mass: float | None  # exact sampled-set mass (diagnostics only)
    collision: bool | None


@dataclass
class TestVerdict:
    decision: str  # "accept" | "reject"
    ledgers: dict[str, QueryLedger]
    rounds: list[RoundRecord]


def _check_counts(params, *names) -> None:
    """Check each explicit count of ``params`` and keep it as a Python int."""
    for name in names:
        value = getattr(params, name)
        if value is not None:
            setattr(params, name, _count(value, name))


def _check_mode(mode) -> None:
    """``ValueError`` unless ``mode`` is one of :data:`MODES`."""
    if mode not in MODES:
        raise ValueError("mode must be " + " or ".join(map(repr, MODES)))


def _over(numer: float, denom: float) -> float:
    """``numer / denom`` for a power ``denom`` of eps or tau: ``inf`` once it underflowed to 0."""
    return numer / denom if denom else math.inf


def _rounded(value: float) -> int | float:
    """The count a formula's ``value`` rounds up to: ``inf`` unless the value is finite."""
    return math.ceil(value) if math.isfinite(value) else math.inf


def _runnable(count, name: str, fix: str, limit: float = math.inf) -> None:
    """``RuntimeError`` unless a resolved ``count`` is finite and at most ``limit``."""
    if not (math.isfinite(count) and count <= limit):
        raise RuntimeError(f"{name} count {count} is not runnable; {fix}")


def _uniformity_base(n: int, eps: float) -> float:
    """``N^(1/3) / eps^(4/3)``, the base that the uniformity budgets scale."""
    return _over(n ** (1 / 3), eps ** (4 / 3))


def _any_round_rejects(count: int, run_round, ledgers) -> TestVerdict:
    """Call ``run_round()`` up to ``count`` times and reject if any round
    rejects.  Rounds after a rejection are skipped; the verdict is the same as
    running all of them.  ``ledgers`` are the ones the rounds charge."""
    rounds: list[RoundRecord] = []
    for _ in range(count):
        rounds.append(run_round())
        if rounds[-1].decision == "reject":
            return TestVerdict(decision="reject", ledgers=ledgers, rounds=rounds)
    return TestVerdict(decision="accept", ledgers=ledgers, rounds=rounds)


# ---------------------------------------------------------------------------
# Statistical difference


@dataclass
class StatDiffParams:
    """Parameters for the L1-distance estimator.

    ``epsilon`` is the additive precision target for the halved distance and
    ``tau`` the failure probability.  Paper mode sets the sample count to
    ``ceil(27 / (tau * eps^2))`` and the inner query count to
    ``ceil(c * sqrt(N) / (eps^6 * tau^4))`` with ``c = DEFAULT_C``; practical
    mode uses the module defaults.  An explicit ``n`` / ``m_inner`` wins, and
    its formula is not evaluated.
    """

    epsilon: float = 0.1
    tau: float = 1 / 3
    mode: str = "practical"
    n: int | None = None
    m_inner: int | None = None

    def __post_init__(self):
        _check_mode(self.mode)
        _positive(self.epsilon, "epsilon")
        if not 0 < self.tau < 1:
            raise ValueError("tau must lie in (0, 1)")
        _check_counts(self, "n", "m_inner")

    def resolved(self, n: int) -> tuple[int | float, int | float]:
        """Return ``(samples, m_inner)`` for support size ``n``; a default count may be ``inf``."""
        root = math.sqrt(n)
        if self.mode == "practical":
            return (self.n or PRACTICAL_STATDIFF_SAMPLES,
                    self.m_inner or _rounded(PRACTICAL_STATDIFF_QUERY_MULT * root))
        eps, tau = self.epsilon, self.tau
        return (self.n or _rounded(_over(27.0, tau * eps**2)),
                self.m_inner or _rounded(_over(DEFAULT_C * root, eps**6 * tau**4)))


def est_dist(
    op: OracleTable,
    oq: OracleTable,
    params: StatDiffParams,
    rng: np.random.Generator,
) -> DistanceEstimate:
    """Estimate half the L1 distance between the two oracle distributions.

    Draws elements from the even mixture of the two distributions (a fair
    coin decides which oracle supplies each classical sample, and that
    oracle's ledger is charged for it), estimates both singleton masses for
    each drawn element in one :func:`~qdisttest.amplitude.est_probs` batch,
    and averages the contrasts ``|p~ - q~| / (p~ + q~)``.  Every term lies in
    [0, 1], hence so does the output.

    If both singleton estimates are zero the term is defined as 0.  (A drawn
    element always has positive mixture mass, but the estimator can still
    return zero for a small positive mass, so the guard is reachable.)
    """
    n_samples, m_inner = params.resolved(_same_support(op, oq))
    _runnable(n_samples, "sample", "use practical mode or set n")
    _runnable(m_inner, "query", "use practical mode or set m_inner")
    ledgers = {"p": QueryLedger(), "q": QueryLedger()}

    from_q = rng.integers(0, 2, size=n_samples) == 1
    elements = np.empty(n_samples, dtype=np.int64)
    n_q = int(from_q.sum())
    elements[~from_q] = classical_samples(op, n_samples - n_q, rng, ledgers["p"])
    elements[from_q] = classical_samples(oq, n_q, rng, ledgers["q"])

    _, estimates = est_probs((op, oq), elements, m_inner, rng, (ledgers["p"], ledgers["q"]))
    p, q = estimates.T
    denom = p + q
    terms = np.divide(np.abs(p - q), denom, out=np.zeros(n_samples), where=denom > 0)
    # cumsum adds left to right; np.sum pairs terms and rounds differently.
    return DistanceEstimate(float(np.cumsum(terms)[-1]) / n_samples, estimates, terms, ledgers)


# ---------------------------------------------------------------------------
# Uniformity


@dataclass
class UniformityParams:
    """Parameters for the uniformity tester.

    Paper mode: ``M = ceil((32 N / eps^4)^(1/3))`` samples per round,
    ``K = ceil(c * exp(alpha) * N^(1/3) / eps^(4/3))`` estimation queries
    with ``c = DEFAULT_C``,
    ``L = ceil(4 * exp(alpha))`` rounds with ``alpha = 256 / eps^4``, and
    rejection threshold ``(1 + eps^2/8) * M / N``.  Beware: ``exp(alpha)``
    overflows to infinity for any realistic ``eps``; running the full
    repetition wrapper in paper mode is only possible for large ``eps``.

    Practical mode: the same structure with calibrated defaults
    ``M ~ 0.25 * N^(1/3) / eps^(4/3)``, ``K ~ 300 * N^(1/3) / eps^(4/3)``,
    one round, and threshold factor ``1 + eps^2/4``.  The threshold is the
    factor times ``M / N``, for the default or the explicit ``M``.
    """

    epsilon: float = 0.5
    mode: str = "practical"
    m_samples: int | None = None
    k_queries: int | None = None
    l_repeats: int | None = None

    def __post_init__(self):
        _check_mode(self.mode)
        _positive(self.epsilon, "epsilon")
        _check_counts(self, "m_samples", "k_queries", "l_repeats")

    def resolved(self, n: int) -> tuple[int | float, int | float, int | float, float]:
        """Return ``(M, K, L, threshold)`` for support size ``n``; a default count is
        ``inf`` where its formula overflows (in paper mode, ``L`` below eps = 0.7753)."""
        eps = self.epsilon
        base = _uniformity_base(n, eps)
        if self.mode == "paper":
            alpha = _over(2**8, eps**4)
            blowup = math.exp(alpha) if alpha <= _MAX_EXP else math.inf
            m = _rounded(_over(32.0 * n, eps**4) ** (1 / 3))
            k, l = _rounded(DEFAULT_C * blowup * base), _rounded(4.0 * blowup)
            factor = 1.0 + eps**2 / 8.0
        else:
            m = max(4, _rounded(PRACTICAL_UNIFORMITY_SAMPLE_MULT * base))
            k = _rounded(PRACTICAL_UNIFORMITY_QUERY_MULT * base)
            l = PRACTICAL_UNIFORMITY_REPEATS
            factor = 1.0 + PRACTICAL_UNIFORMITY_THRESHOLD_BUMP * eps**2
        m, k, l = self.m_samples or m, self.k_queries or k, self.l_repeats or l
        return m, k, l, factor * m / n


def utest(
    o: OracleTable,
    params: UniformityParams,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
) -> RoundRecord:
    """One uniformity round: sample, reject on any collision, else threshold
    an estimate of the sampled set's mass.

    Uses at most M classical samples; the no-collision branch makes exactly
    K quantum applications, the collision branch makes none.
    """
    m, k, _, threshold = params.resolved(o.n)
    _runnable(m, "sample", "use practical mode or set m_samples")
    _runnable(k, "query", "use practical mode or set k_queries")
    samples = classical_samples(o, m, rng, ledger)
    ordered = np.sort(samples)
    if np.any(ordered[1:] == ordered[:-1]):
        return RoundRecord("reject", statistic=None, true_mass=None, collision=True)
    pe = est_prob(o, samples, k, rng, ledger)
    decision = "reject" if pe.estimate > threshold else "accept"
    return RoundRecord(decision, pe.estimate, pe.target_set_mass, collision=False)


def uniformity_test(
    o: OracleTable,
    params: UniformityParams,
    rng: np.random.Generator,
) -> TestVerdict:
    """Repetition wrapper: up to L independent rounds of :func:`utest`,
    rejecting if any round rejects."""
    _, _, l, _ = params.resolved(o.n)
    _runnable(l, "round", "use practical mode or set l_repeats", limit=10**7)
    ledger = QueryLedger()
    return _any_round_rejects(l, lambda: utest(o, params, rng, ledger), {"p": ledger})


def sampled_mass(
    o: OracleTable,
    m_samples: int,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
) -> float:
    """Total weight of M classical samples, counted with multiplicity."""
    samples = classical_samples(o, m_samples, rng, ledger)
    dist = o.distribution()
    return int(dist.counts_at(samples).sum()) / dist.denominator


# ---------------------------------------------------------------------------
# Orthogonality


@dataclass
class OrthogonalityParams:
    """Parameters for the orthogonality tester.

    Defaults follow the analysis: ``M = K = ceil(N^(1/3) / eps)`` and
    rejection threshold ``eps^3 * M / (2^12 * N)``; the wrapper runs
    ``rounds`` independent rounds and rejects if any round does.  Disjoint
    distributions are never rejected, so amplification is one-sided.
    """

    epsilon: float = 0.5
    m_samples: int | None = None
    k_queries: int | None = None
    rounds: int = 8

    def __post_init__(self):
        _positive(self.epsilon, "epsilon")
        _check_counts(self, "m_samples", "k_queries", "rounds")

    def resolved(self, n: int) -> tuple[int | float, int | float, float]:
        """Return ``(M, K, threshold)`` for support size ``n``; a default count may be ``inf``."""
        default = _rounded(_over(n ** (1 / 3), self.epsilon))
        m, k = self.m_samples or default, self.k_queries or default
        threshold = self.epsilon**3 * m / (2**12 * n)
        if threshold <= 0:  # eps**3 underflows below eps ~ 1e-108; every round would reject
            raise ValueError("threshold must be positive")
        return m, k, threshold


def otest(
    op: OracleTable,
    oq: OracleTable,
    params: OrthogonalityParams,
    rng: np.random.Generator,
    ledger_p: QueryLedger | None = None,
    ledger_q: QueryLedger | None = None,
) -> RoundRecord:
    """One orthogonality round.

    Draws M samples from the first distribution, forms the set A of distinct
    values seen, estimates the second distribution's mass on A with K
    queries, and rejects when the estimate reaches the threshold.  If the
    distributions are disjoint the mass is zero, the estimate is zero with
    certainty, and the round accepts.
    """
    m, k, threshold = params.resolved(_same_support(op, oq))
    _runnable(m, "sample", "set m_samples")
    _runnable(k, "query", "set k_queries")
    samples = classical_samples(op, m, rng, ledger_p)
    qe = est_prob(oq, samples, k, rng, ledger_q)
    decision = "reject" if qe.estimate >= threshold else "accept"
    return RoundRecord(decision, qe.estimate, qe.target_set_mass, collision=None)


def orthogonality_test(
    op: OracleTable,
    oq: OracleTable,
    params: OrthogonalityParams,
    rng: np.random.Generator,
) -> TestVerdict:
    """One-sided amplification wrapper: reject if any round rejects.

    Disjoint pairs are accepted always; pairs with L1 distance at most
    ``2 - eps`` are rejected with probability at least ``1 - (3/4)^rounds``.
    Rounds after a rejection are skipped."""
    lp, lq = QueryLedger(), QueryLedger()
    return _any_round_rejects(
        params.rounds,
        lambda: otest(op, oq, params, rng, lp, lq),
        {"p": lp, "q": lq},
    )
