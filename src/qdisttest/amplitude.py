"""Measurement statistics of amplitude estimation, sampled exactly.

The probability of a marked subset A under an oracle-presented distribution
equals the squared amplitude ``a`` of the marked component of the uniform
superposition over oracle inputs.  Phase estimation applied to the induced
rotation (angle ``2*theta`` with ``sin^2 theta = a``) measures an outcome
``y`` in ``{0, ..., m-1}`` whose law is known in closed form: the initial
state splits half-and-half across the two rotation eigenphases ``+-theta/pi``
and each contributes a Fejer-type kernel around its grid position.
:func:`est_prob` samples that law exactly, with no state vector, at a cost
per draw that does not grow with m: an inverse CDF over a few offsets
around the branch's grid position, then rejection from a Jordan-inequality
envelope for the tails.  :func:`est_probs` draws the singleton estimates of
many elements under several oracles in one call, through the same sampler and
in the same order as the matching sequence of :func:`est_prob` calls; it
computes each distinct mass's branch (grid position and window) once per call.
:func:`ae_outcome_pmf` materializes the whole law in O(m) time and memory; it
is the reference the sampler is tested against.

A dense unitary simulator of the full network (:func:`unitary_reference_pmf`)
exists purely as an independent correctness oracle for small instances.

The returned estimate is ``sin^2(pi * y / m)``.  Headline guarantee: the
estimate lands within ``delta`` of the true subset mass with probability at
least ``1 - omega`` whenever

    m >= c * sqrt(a) / (omega * delta)   and   m >= c / (omega * sqrt(delta))

for the calibrated constant ``c`` shipped below.  If the subset mass is zero,
the estimate is zero with certainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import OracleTable, QueryLedger, _count, _elements, _positive, _same_support

__all__ = [
    "ProbEstimate",
    "ae_outcome_pmf",
    "unitary_reference_pmf",
    "est_prob",
    "est_probs",
    "coverage_probability",
    "queries_for",
    "check_accuracy",
    "calibrate_constant",
    "DEFAULT_C",
]

# Tolerance for detecting exact eigenphase alignment (where the kernel takes
# its limit value 1 instead of 0/0).
ALIGNMENT_TOL = 1e-12

# Caps for the dense reference simulator; cost grows as m * s^2.
DENSE_S_CAP = 256
DENSE_M_CAP = 64

# Largest outcome law ae_outcome_pmf will materialize (~67 MB of doubles).
PMF_LENGTH_CAP = 2**23

# Offsets from a branch's grid position that the sampler draws by inverse
# CDF, most probable first, and the first offsets of the two tails.
_BLOCK = (0, 1, -1, 2, -2, 3, -3, 4)
_RIGHT, _LEFT = 5, -4

# Calibrated estimation constant.  Produced by calibrate_constant() on the
# 3x3x3 CALIBRATION_GRID with 4000 trials per cell and seed 20240801;
# re-derivable with `qdisttest calibrate --trials 4000 --seed 20240801`.
DEFAULT_C = 1.681792830507429
# Confidence of the binomial lower bound each calibration cell must clear.
CALIBRATION_CONFIDENCE = 0.99
# The (mass, delta, omega) cells calibration covers, one per regime of the
# contract, and the candidate constants it tries in order: 1.0 .. 64 in
# quarter octaves.
CALIBRATION_GRID = tuple(
    (pa, delta, omega)
    for pa in (0.01, 0.1, 0.5)
    for delta in (0.2 * pa, 0.5 * pa, 0.05)
    for omega in (0.05, 0.1, 0.25)
)
CALIBRATION_SWEEP = tuple(2 ** (j / 4) for j in range(25))


def _fejer(delta: np.ndarray, m: int) -> np.ndarray:
    """Kernel ``sin^2(m*pi*d) / (m*sin(pi*d))^2`` with limit 1 at d = 0 mod 1."""
    delta = np.asarray(delta, dtype=float)
    frac = delta - np.round(delta)
    aligned = np.abs(frac) < ALIGNMENT_TOL
    den = (m * np.sin(np.pi * delta)) ** 2
    num = np.sin(m * np.pi * delta) ** 2
    safe = np.where(aligned, 1.0, den)
    return np.where(aligned, 1.0, num / safe)


def ae_outcome_pmf(a: float, m: int) -> np.ndarray:
    """Exact outcome law of m-step amplitude estimation at amplitude-squared ``a``.

    Returns a length-m probability vector over outcomes ``y``; the estimate
    associated with outcome ``y`` is ``sin^2(pi*y/m)``.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("amplitude-squared value must lie in [0, 1]")
    m = _count(m, "m")
    if m > PMF_LENGTH_CAP:
        raise ValueError(
            f"m={m} outcome law too large to materialize (cap {PMF_LENGTH_CAP}); "
            "use smaller query counts"
        )
    phi = math.asin(math.sqrt(a)) / math.pi
    y = np.arange(m) / m
    pmf = 0.5 * (_fejer(y - phi, m) + _fejer(y + phi, m))
    # The exact law sums to 1; float evaluation near alignment boundaries can
    # drift by ~1e-10, so rescale.  (A no-op at the exact special cases.)
    pmf /= pmf.sum()
    return pmf


def unitary_reference_pmf(o: OracleTable, target, m: int) -> np.ndarray:
    """Outcome law from a dense simulation of the full estimation network.

    Builds the s-dimensional rotation operator explicitly (reflection about
    the uniform state after the marked-input phase flip), runs the
    controlled-power ladder against an m-point register, applies the inverse
    discrete Fourier transform, and reads off the register measurement
    distribution.  Exponentially more expensive than :func:`ae_outcome_pmf`;
    intended as its independent test oracle.
    """
    m = _count(m, "m")
    if o.s > DENSE_S_CAP:
        raise ValueError(f"oracle size {o.s} exceeds dense-simulation cap {DENSE_S_CAP}")
    if m > DENSE_M_CAP:
        raise ValueError(f"m={m} exceeds dense-simulation cap {DENSE_M_CAP}")
    target = np.asarray(target if isinstance(target, np.ndarray) else list(target))
    _elements(target, o.n)
    s = o.s
    good = np.isin(o.table, target)
    psi = np.full(s, 1.0 / math.sqrt(s))
    flip = np.where(good, -1.0, 1.0)
    grover = (2.0 * np.outer(psi, psi) - np.eye(s)) * flip[None, :]

    chi = np.empty((m, s), dtype=complex)
    v = psi.astype(complex)
    for k in range(m):
        chi[k] = v
        v = grover @ v

    ks = np.arange(m)
    inverse_ft = np.exp(-2j * np.pi * np.outer(ks, ks) / m) / math.sqrt(m)
    amplitudes = inverse_ft @ (chi / math.sqrt(m))
    return (np.abs(amplitudes) ** 2).sum(axis=1)


@dataclass(frozen=True)
class ProbEstimate:
    """Result of one probability-estimation call.

    ``target_set_mass`` is the hidden true subset mass, retained purely for
    test harnesses; testing algorithms must only read ``estimate``.
    """

    estimate: float
    raw_outcome: int
    target_set_mass: float


def check_accuracy(delta: float, omega: float) -> None:
    """Reject an accuracy ``delta`` that is not positive and finite, or a
    failure probability ``omega`` outside (0, 1/2]; NaN fails both."""
    _positive(delta, "delta")
    if not 0 < omega <= 0.5:
        raise ValueError(f"omega must lie in (0, 1/2], got {omega!r}")


def queries_for(delta: float, omega: float, pa_upper: float, c: float | None = None) -> int:
    """Smallest m with ``m >= c*sqrt(pa)/(omega*delta)`` and ``m >= c/(omega*sqrt(delta))``."""
    check_accuracy(delta, omega)
    if not 0.0 <= pa_upper <= 1.0:
        raise ValueError("pa_upper must lie in [0, 1]")
    c = DEFAULT_C if c is None else float(c)
    _positive(c, "c")
    # omega * delta can underflow to 0 for a tiny delta: then m1 is too large.
    m1 = c * math.sqrt(pa_upper) / (omega * delta) if omega * delta else math.inf
    m2 = c / (omega * math.sqrt(delta))
    if max(m1, m2) >= 2**63:  # outcomes are stored as int64
        raise ValueError(f"query count overflows at c={c!r}, delta={delta!r}")
    return max(1, math.ceil(m1), math.ceil(m2))


def _target_mass(o: OracleTable, target) -> float:
    dist = o.distribution()
    if not isinstance(target, np.ndarray):
        target = list(target)
    if len(target) == 1 and not isinstance(target[0], np.ndarray):  # one element: no sort
        i = target[0]
        _elements(i, o.n)
        return int(dist.counts_at(i)) / dist.denominator
    idx = np.sort(target)
    _elements(idx, o.n, ordered=True)
    if idx.size == 0:
        return 0.0
    counts = dist.counts_at(idx)
    counts[1:][idx[1:] == idx[:-1]] = 0  # a repeated element counts once
    return int(counts.sum()) / dist.denominator


def _branch(a: float, m: int) -> tuple[int, tuple | None]:
    """Grid position ``base`` and window of the ``+phi`` branch of ``ae_outcome_pmf(a, m)``.

    The law is an even mixture of two branches, and the branch at ``-phi`` is
    the mirror image ``y -> -y mod m`` of the branch at ``+phi``.  On the
    ``+phi`` branch, with ``c = phi*m = base + f``, outcome ``base + k``
    has probability ``sin^2(pi f) / (m sin(pi (k - f) / m))^2`` for the m
    offsets ``k`` with ``-m/2 < k - f <= m/2``, ``lo`` to ``hi``.  The
    window is ``(f, lo, hi, sin(pi f) / m, pi / m)``, or None when the branch
    is aligned with the grid: then it is a point mass at ``base``.
    """
    c = math.asin(math.sqrt(a)) / math.pi * m
    base = math.floor(c)
    f = c - base
    if min(f, 1.0 - f) < ALIGNMENT_TOL:
        return base + round(f), None
    lo, hi = math.floor(f - m / 2) + 1, math.floor(f + m / 2)
    return base, (f, lo, hi, math.sin(math.pi * f) / m, math.pi / m)


def _draw(branch: tuple[int, tuple | None], m: int, rng: np.random.Generator) -> int:
    """One exact draw from the outcome law of a :func:`_branch`, in time independent of m."""
    u = rng.random()
    # One uniform both picks the eigenphase sign and, rescaled, drives the inverse CDF.
    sign, u = (1, 2.0 * u) if u < 0.5 else (-1, 2.0 * u - 1.0)
    base, window = branch
    if window is None:
        return sign * base % m
    f, lo, hi, scale, w = window
    for k in _BLOCK:
        if lo <= k <= hi:
            p = (scale / math.sin(w * (k - f))) ** 2
            if u < p:
                return sign * (base + k) % m
            u -= p
    # Tails.  Within the window |x| = |k - f| <= m/2, Jordan's inequality
    # sin(t) >= 2t/pi bounds each probability by sin^2(pi f) / (4 x^2), which
    # is at most sin^2(pi f)/4 times the integral of 1/t^2 over the cell
    # [|x| - 1, |x|].  Propose t from that density over both tails, map it to
    # its cell, and accept with the ratio of probability to envelope.
    right = 1.0 / (_RIGHT - 1 - f) - 1.0 / (hi - f) if hi >= _RIGHT else 0.0
    left = 1.0 / (f - _LEFT - 1) - 1.0 / (f - lo) if lo <= _LEFT else 0.0
    if right + left == 0.0:  # u passed the float sum of a whole window
        return sign * (base + min(max(k, lo), hi)) % m
    while True:
        v = rng.random() * (right + left)
        if v < right:
            k = math.ceil(f + 1.0 / (1.0 / (_RIGHT - 1 - f) - v))
        else:
            k = math.floor(f - 1.0 / (1.0 / (f - _LEFT - 1) - (v - right)))
        x = abs(k - f)
        if lo <= k <= hi and rng.random() * (m * math.sin(w * x)) ** 2 <= 4.0 * x * (x - 1.0):
            return sign * (base + k) % m


def _queries(m) -> int:
    """``m`` as a Python int; ``ValueError`` unless it is a count below ``2**63``,
    since outcomes are int64."""
    m = _count(m, "m")
    if m >= 2**63:
        raise ValueError(f"m must be a positive integer below 2**63, got {m}")
    return m


def est_prob(
    o: OracleTable,
    target,
    m: int,
    rng: np.random.Generator,
    ledger: QueryLedger | None = None,
) -> ProbEstimate:
    """Estimate the mass of ``target`` using exactly ``m`` oracle applications.

    Samples the outcome of the m-step estimation network exactly from its
    closed-form law, in time that does not grow with m.  Duplicate target
    elements count once.  Charges ``m`` quantum applications to the ledger;
    ``m`` must lie below ``2**63``.  Zero-mass targets yield estimate 0 with
    certainty.
    """
    m = _queries(m)
    a = _target_mass(o, target)
    y = _draw(_branch(a, m), m, rng)
    if ledger is not None:
        ledger.add_quantum(m)
    return ProbEstimate(
        estimate=math.sin(math.pi * y / m) ** 2,
        raw_outcome=y,
        target_set_mass=a,
    )


def est_probs(
    oracles,
    elements,
    m: int,
    rng: np.random.Generator,
    ledgers=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Singleton estimates of every element under every oracle, ``m`` applications each.

    Returns ``(outcomes, estimates)``, two arrays of shape
    ``(len(elements), len(oracles))``.  Draws element-major (element 0 under
    each oracle in turn, then element 1, ...), so the outcomes, the estimates
    and the generator's final state are those of the matching sequence of
    ``est_prob(oracle, (element,), m, rng, ledger)`` calls.  Each distinct
    mass's branch is computed once per call and reused by all of its draws.
    Charges ``m * len(elements)`` quantum applications to each oracle's ledger.
    The outcomes are int64, so ``m`` must lie below ``2**63``.
    """
    m = _queries(m)
    idx = np.asarray(elements)
    _elements(idx, _same_support(*oracles))
    masses = []
    for o in oracles:
        dist = o.distribution()
        masses.append([c / dist.denominator for c in dist.counts_at(idx).tolist()])
    branches = {}
    outcomes = []
    estimates = []
    for element_masses in zip(*masses):
        for a in element_masses:
            branch = branches.get(a)
            if branch is None:
                branch = branches[a] = _branch(a, m)
            y = _draw(branch, m, rng)
            outcomes.append(y)
            estimates.append(math.sin(math.pi * y / m) ** 2)
    for ledger in ledgers or ():
        ledger.add_quantum(m * idx.size)
    shape = (idx.size, len(oracles))
    return np.array(outcomes, dtype=np.int64).reshape(shape), np.array(estimates).reshape(shape)


def coverage_probability(a: float, delta: float, m: int) -> float:
    """Exact probability that the m-step estimate lands within ``delta`` of ``a``."""
    pmf = ae_outcome_pmf(a, m)
    estimates = np.sin(np.pi * np.arange(m) / m) ** 2
    return float(pmf[np.abs(estimates - a) <= delta].sum())


def _binomial_lcb(successes: int, trials: int) -> float:
    """One-sided lower confidence bound (Clopper-Pearson) on a success rate."""
    from scipy.stats import beta

    if successes <= 0:
        return 0.0
    if successes >= trials:
        return float((1.0 - CALIBRATION_CONFIDENCE) ** (1.0 / trials))
    return float(beta.ppf(1.0 - CALIBRATION_CONFIDENCE, successes, trials - successes + 1))


def calibrate_constant(trials_per_cell: int, rng: np.random.Generator) -> float:
    """Smallest constant in ``CALIBRATION_SWEEP`` meeting the coverage contract.

    For each candidate ``c`` and each ``CALIBRATION_GRID`` cell
    ``(a, delta, omega)``, draws how many of ``trials_per_cell`` estimates at
    ``m = queries_for(delta, omega, a, c)`` land within delta (a binomial
    count at the exact coverage probability) and requires the one-sided
    binomial lower confidence bound on that rate to reach ``1 - omega``.
    Returns the first passing candidate.

    Raises
    ------
    RuntimeError
        If no sweep value satisfies every cell.
    """
    trials_per_cell = _count(trials_per_cell, "trials_per_cell")
    for c in CALIBRATION_SWEEP:
        for a, delta, omega in CALIBRATION_GRID:
            coverage = min(1.0, coverage_probability(a, delta, queries_for(delta, omega, a, c)))
            hits = int(rng.binomial(trials_per_cell, coverage))
            if _binomial_lcb(hits, trials_per_cell) < 1.0 - omega:
                break
        else:
            return float(c)
    raise RuntimeError("calibration sweep exhausted without meeting coverage")

