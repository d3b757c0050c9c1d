"""Lower-bound laboratory: collision-problem reduction and fingerprint bounds.

Two constructions live here.  The first turns a one-to-one vs two-to-one
function-distinction instance into an orthogonality-testing instance by
splitting a randomly relabeled domain into odd and even inputs; the L1
distance of the resulting pair is controlled exactly by how many matched
pairs straddle the parity classes.  The second is the fingerprint machinery
for the classical uniformity bound: Poissonized collision statistics, the
moment-series bound on the distance between fingerprint distributions, and
the arithmetic that certifies untestability at a square-root sample budget.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, OracleTable, classical_samples, make_oracle

__all__ = [
    "CollisionFunction",
    "build_collision_oracles",
    "matching_parity_distance",
    "fingerprint_of",
    "poissonized_occupation",
    "sample_poissonized_fingerprint",
    "valiant_bound",
    "CorollaryReport",
    "corollary_report",
    "empirical_fingerprint_tv",
]

ONE_TO_ONE = "one-to-one"
TWO_TO_ONE = "two-to-one"

# valiant_bound stops once a term falls below SERIES_TOL while decreasing,
# and gives up after SERIES_CAP terms.
SERIES_TOL = 1e-15
SERIES_CAP = 500


@dataclass(frozen=True)
class CollisionFunction:
    """A function on an even-size domain into a range of 1.5x that size,
    promised to be either injective or exactly two-to-one."""

    table: np.ndarray
    kind: str

    def __post_init__(self):
        arr = np.array(self.table, dtype=np.int64)  # a copy: the caller's array stays writable
        n = arr.size
        if n < 2 or n % 2:
            raise ValueError("domain size must be an even integer >= 2")
        if arr.min() < 0 or arr.max() >= (3 * n) // 2:
            raise ValueError("values must lie in [0, 3n/2)")
        _, mult = np.unique(arr, return_counts=True)
        if self.kind == ONE_TO_ONE:
            if not np.all(mult == 1):
                raise ValueError("one-to-one table must have all distinct values")
        elif self.kind == TWO_TO_ONE:
            if not np.all(mult == 2):
                raise ValueError("two-to-one table must hit every value exactly twice")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @property
    def n(self) -> int:
        return int(self.table.size)

    @property
    def range_size(self) -> int:
        return (3 * self.n) // 2

    @classmethod
    def one_to_one(cls, n: int, rng: np.random.Generator) -> "CollisionFunction":
        table = rng.permutation(3 * n // 2)[:n]
        return cls(table, ONE_TO_ONE)

    @classmethod
    def two_to_one(cls, n: int, rng: np.random.Generator) -> "CollisionFunction":
        values = rng.permutation(3 * n // 2)[: n // 2]
        table = np.repeat(values, 2)
        rng.shuffle(table)
        return cls(table, TWO_TO_ONE)


def _as_permutation(sigma, n: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.size != n or not np.array_equal(np.sort(sigma), np.arange(n)):
        raise ValueError("sigma must be a permutation of the function domain")
    return sigma


def build_collision_oracles(h: CollisionFunction, sigma) -> tuple[OracleTable, OracleTable]:
    """Split the function relabeled by the domain permutation ``sigma`` into
    odd-input and even-input oracles.

    With domain inputs numbered from 1, the first oracle reads the relabeled
    table at inputs 1, 3, 5, ... and the second at 2, 4, 6, ...; both have
    domain size n/2 and range 3n/2.  For an injective function the two
    generated distributions are uniform on disjoint sets, hence orthogonal;
    for a two-to-one function their distance is governed by the parity
    structure of the relabeling (see :func:`matching_parity_distance`).
    """
    relabeled = h.table[_as_permutation(sigma, h.n)]
    op = OracleTable(relabeled[0::2], h.range_size)
    oq = OracleTable(relabeled[1::2], h.range_size)
    return op, oq


def matching_parity_distance(h: CollisionFunction, sigma) -> float:
    """L1 distance of the split pair, computed from parity bookkeeping alone.

    A two-to-one function induces a perfect matching on the relabeled domain
    (inputs mapping to the same value are matched).  A matched pair whose
    inputs have different parity contributes the same mass to both oracles;
    a same-parity pair puts double mass on one side and none on the other.
    Hence distance = 2 - (4/n) * (#different-parity matched pairs), exactly.
    """
    if h.kind != TWO_TO_ONE:
        raise ValueError("parity formula applies to two-to-one functions only")
    sigma = _as_permutation(sigma, h.n)
    relabeled = h.table[sigma]
    order = np.argsort(relabeled, kind="stable")
    u, v = order[0::2], order[1::2]
    different = int(np.count_nonzero((u ^ v) & 1))
    return (2 * h.n - 4 * different) / h.n


def fingerprint_of(samples) -> tuple[tuple[int, int], ...]:
    """Collision-multiplicity profile of a sample list.

    Pairs ``(r, c_r)`` with ``r`` rising: ``c_r`` elements appeared exactly
    ``r`` times.  The profile forgets element identities, which is all a
    tester of a relabeling-invariant property can use.
    """
    _, mult = np.unique(samples, return_counts=True)
    orders, occur = np.unique(mult, return_counts=True)
    return tuple(zip(orders.tolist(), occur.tolist()))


def _poisson_draws(p: Distribution, m: float, rng: np.random.Generator) -> np.ndarray:
    """A Poisson(m)-size i.i.d. sample from p, drawn through its oracle."""
    if not m > 0:  # written so that NaN fails too
        raise ValueError("rate parameter must be positive")
    return classical_samples(make_oracle(p, p.denominator), int(rng.poisson(m)), rng)


def poissonized_occupation(
    p: Distribution, m: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-element occupation counts of a Poisson(m)-size i.i.d. sample.

    Drawn as: sample the list length from Poisson(m), then that many i.i.d.
    classical samples.  Under this sampling the count of each element i is
    marginally Poisson(m * p_i), independent across elements; tests use that
    standard fact as the oracle for this implementation.
    """
    return np.bincount(_poisson_draws(p, m, rng), minlength=p.n)


def sample_poissonized_fingerprint(
    p: Distribution, m: float, rng: np.random.Generator
) -> tuple[tuple[int, int], ...]:
    """Fingerprint (see :func:`fingerprint_of`) of a Poisson(m)-size i.i.d. sample from p."""
    return fingerprint_of(_poisson_draws(p, m, rng))


def valiant_bound(p: Distribution, m: float, delta: float) -> float:
    """Moment-series upper bound on the L1 distance between the Poissonized
    fingerprint distributions of ``p`` and of the uniform distribution:

        40*delta + 10 * sum_{k>=2} m^k (m_k(p) - n^(1-k))
                                   / (floor(k/2)! * sqrt(1 + m^k m_k(p)))

    Requires ``max_i p_i <= delta / m``.  The series is truncated once terms
    fall below ``SERIES_TOL`` while already decreasing; the factorial
    denominators guarantee convergence for any admissible input.  Where the
    powers ``(m p_i)^k`` overflow a float before the series converges (from
    ``m * max_i p_i`` of about 35) it raises ``ValueError``; the bound there
    is already past 1e15, and no L1 distance exceeds 2.
    """
    if not m > 0:  # written so that NaN fails too
        raise ValueError("rate parameter must be positive")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if p.max_weight > delta / m:
        raise ValueError(
            f"precondition failed: max weight {p.max_weight:.3g} exceeds delta/m={delta / m:.3g}"
        )
    # One term per block: its size times its element's term.
    sizes = p.sizes()
    base = m * (p.levels / p.denominator)
    ref = m * (1.0 / p.n)
    total = 0.0
    prev = math.inf
    converged = False
    with np.errstate(over="ignore"):  # an overflowing series is rejected below
        for k in range(2, SERIES_CAP + 1):
            powers = base**k
            scaled_moment = float((sizes * powers).sum())
            if scaled_moment == math.inf:  # diff and ref**k never exceed it
                raise ValueError(
                    f"the moment series overflows a float at m={m:g} "
                    f"(m times the largest weight is {m * p.max_weight:g})"
                )
            # Per-element difference so the uniform distribution cancels
            # exactly; clamp tiny negative rounding (the true difference is >= 0).
            diff = max(0.0, float((sizes * (powers - ref**k)).sum()))
            term = 10.0 * diff / (math.factorial(k // 2) * math.sqrt(1.0 + scaled_moment))
            total += term
            if term < SERIES_TOL and term <= prev:
                converged = True
                break
            prev = term
    if not converged:
        raise RuntimeError(f"moment series did not converge within {SERIES_CAP} terms")
    return 40.0 * delta + total


@dataclass(frozen=True)
class CorollaryReport:
    """Arithmetic certificate for classical uniformity untestability.

    For the half-support instance (weight 2/n on half the domain) and sample
    budget ``samples = m = 2^-a * sqrt(n)``, every series term is at most
    ``2^(-2a+1)`` and the term sum is at most 4 of those, so the fingerprint
    distance is at most ``bound = 40*delta + 10*2^(-2a+3)``.  The instance is
    certified when the bound is below 1/12 and the moment-series
    precondition ``2/n <= delta/m`` holds.
    """

    n: int
    a: int
    delta: float
    samples: float
    sup_weight: float
    precondition_ok: bool
    bound: float
    threshold: float
    certified: bool


def corollary_report(n: int, a: int, delta: float) -> CorollaryReport:
    """Evaluate the untestability arithmetic at ``m = 2^-a * sqrt(n)``."""
    n = int(n)
    a = int(a)
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    if a < 0:
        raise ValueError("a must be a non-negative integer")
    if not 0 < delta < math.inf:  # also rejects NaN
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    m = 2.0**-a * math.sqrt(n)
    sup_weight = 2.0 / n
    precondition_ok = sup_weight <= delta / m
    bound = 40.0 * delta + 10.0 * 2.0 ** (3 - 2 * a)
    threshold = 1.0 / 12.0
    return CorollaryReport(
        n=n,
        a=a,
        delta=float(delta),
        samples=m,
        sup_weight=sup_weight,
        precondition_ok=precondition_ok,
        bound=bound,
        threshold=threshold,
        certified=precondition_ok and bound < threshold,
    )


def empirical_fingerprint_tv(
    p: Distribution,
    q: Distribution,
    m: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Plug-in total-variation estimate between Poissonized fingerprint
    distributions, from ``trials`` draws per side.

    Plug-in TV is biased upward on sparse supports; a warning is issued when
    the trial count is below 100x the observed joint support size.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    cp = Counter(sample_poissonized_fingerprint(p, m, rng) for _ in range(trials))
    cq = Counter(sample_poissonized_fingerprint(q, m, rng) for _ in range(trials))
    support = set(cp) | set(cq)
    if trials < 100 * len(support):
        warnings.warn(
            f"plug-in TV over {len(support)} observed fingerprints from {trials} "
            "trials is likely biased upward",
            stacklevel=2,
        )
    return 0.5 * sum(abs(cp[f] - cq[f]) for f in support) / trials
