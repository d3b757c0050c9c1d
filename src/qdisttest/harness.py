"""Seeded experiment runner: trial farms, scaling studies, CSV output.

Every experiment takes a single integer seed; all randomness flows from it
through named child streams (one per trial), so identical configurations
reproduce byte-identical CSV files.  Trials run sequentially in a fixed
order and rows are emitted in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines, testers
from .distributions import (
    OracleTable,
    _count,
    biased_pair,
    disjoint_pair,
    half_support,
    l1_distance,
    make_oracle,
    overlapping_pair,
    uniform,
)

__all__ = [
    "CSV_SCHEMA_VERSION",
    "RNG_STREAM",
    "render_csv",
    "render_record",
    "spawn_rngs",
    "fit_loglog",
    "ScalingRow",
    "ScalingResult",
    "run_scaling",
    "run_trial",
    "collision_samples",
    "INSTANCES",
    "PAIRS",
    "make_instance_pair",
    "make_instance",
]

CSV_SCHEMA_VERSION = "1"
# How a seed's random stream is consumed (files without the key: stream 1).
# Stream 2: the m-independent outcome sampler, batched est_dist mixture
# draws, and the uniformity instance shuffled from its own child stream.
# Stream 3: oracles are built in element order, drawing nothing.
# Stream 4: Poissonized fingerprints draw their samples through the
# distribution's oracle (classical_samples), not through a multinomial.
RNG_STREAM = "4"

# The scaling study's whole-run error target and statdiff settings.
DEFAULT_TARGET_ERROR = 1 / 3
STATDIFF_SCALING_SAMPLES = 50
STATDIFF_SCALING_TOLERANCE = 0.15

# Instance names (the CLI's --instance and --pair choices), each mapped to a
# function of (n, eps) that builds its distribution or pair.
INSTANCES = {
    "uniform": lambda n, eps: uniform(n),
    "biased": lambda n, eps: biased_pair(n, eps)[0],
    "half_support": lambda n, eps: half_support(n),
}
PAIRS = {
    "identical": lambda n, eps: (uniform(n), uniform(n)),
    "disjoint": lambda n, eps: disjoint_pair(n),
    "overlapping": overlapping_pair,
}


def _fmt(value) -> str:
    """Deterministic, round-trippable cell formatting."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_csv(command: str, columns, rows, meta: dict) -> str:
    """Render rows with a versioned comment header and a column header."""
    meta_str = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(meta.items()))
    head = f"# qdisttest-csv schema={CSV_SCHEMA_VERSION} rng_stream={RNG_STREAM} command={command}"
    if meta_str:
        head += " " + meta_str
    lines = [head, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_record(fields: dict) -> str:
    """Render a plain-text record: one ``key=value`` line per field, in order."""
    return "".join(f"{k}={_fmt(v)}\n" for k, v in fields.items())


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent child generators in a deterministic order."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(count)]


def fit_loglog(ns, queries) -> tuple[float, float]:
    """Least-squares slope of log(queries) against log(n), with standard error."""
    ns = np.asarray(ns, dtype=float)
    queries = np.asarray(queries, dtype=float)
    if ns.size < 4:
        raise ValueError("need at least 4 points for a scaling fit")
    if ns.max() / ns.min() < 100:
        raise ValueError("scaling points must span at least two decades")
    x = np.log(ns)
    y = np.log(queries)
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - y.mean())).sum()) / sxx
    resid = y - (y.mean() + slope * (x - xbar))
    dof = x.size - 2
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


@dataclass
class ScalingRow:
    n: int
    constant: float
    mean_queries: float
    error_rate: float
    saturated: bool
    included_in_fit: bool


@dataclass
class ScalingResult:
    tester: str
    rows: list[ScalingRow]
    slope: float
    slope_stderr: float


def make_instance(name: str, n: int, eps) -> OracleTable:
    """Single-distribution instances by name, realized as minimal-size oracles."""
    if name not in INSTANCES:
        raise ValueError(f"unknown instance {name!r}")
    dist = INSTANCES[name](n, eps)
    return make_oracle(dist, dist.denominator)


def make_instance_pair(name: str, n: int, eps) -> tuple[OracleTable, OracleTable, float]:
    """Pair instances by name; returns both oracles and their exact distance."""
    if name not in PAIRS:
        raise ValueError(f"unknown instance pair {name!r}")
    p, q = PAIRS[name](n, eps)
    return make_oracle(p, p.denominator), make_oracle(q, q.denominator), l1_distance(p, q)


def collision_samples(constant: float, n: int, eps: float) -> int:
    """The collision tester's sample count, ``max(2, ceil(constant * sqrt(n) / eps^2))``."""
    return max(2, math.ceil(constant * math.sqrt(n) / eps**2))


def run_trial(test, oracles, budget, rng) -> tuple:
    """One trial of ``test`` on ``oracles``: ``(outcome, classical, quantum)``.

    A quantum tester takes a params object as ``budget`` and charges the
    ledgers of its result, a :class:`~qdisttest.testers.TestVerdict`
    (outcome: the decision) or a distance estimate (the estimate).  A classical
    baseline takes a tuple, the arguments between its oracles and ``rng``, and
    is handed one fresh ledger per oracle."""
    if isinstance(budget, tuple):
        ledgers = [testers.QueryLedger() for _ in oracles]
        outcome = test(*oracles, *budget, rng, *ledgers)
    else:
        result = test(*oracles, budget, rng)
        ledgers = result.ledgers.values()
        outcome = result.decision if isinstance(result, testers.TestVerdict) else result.estimate
    classical = sum(l.classical_samples for l in ledgers)
    return outcome, classical, sum(l.quantum_applications for l in ledgers)


# ---------------------------------------------------------------------------
# Scaling study: each tester is its cases at one n, each an oracles tuple and
# the right outcome (a decision, or half the distance for an estimate), the
# tester, its budget at (constant, n, eps), and the constants swept upward.


def _uniformity_cases(n, eps):
    """The uniform instance, to accept, and the eps-far biased one, to reject."""
    cases = (("uniform", "accept"), ("biased", "reject"))
    return [((make_instance(name, n, eps),), right) for name, right in cases]


def _statdiff_cases(n, eps):
    """A distance-0 and a distance-1 pair, each with its halved distance."""
    del eps
    pairs = [make_instance_pair("identical", n, None), make_instance_pair("overlapping", n, 1)]
    return [((op, oq), distance / 2) for op, oq, distance in pairs]


def _uniformity_params(constant, n, eps):
    k = math.ceil(constant * testers._uniformity_base(n, eps))
    return testers.UniformityParams(epsilon=eps, k_queries=k)


def _statdiff_params(constant, n, eps):
    m_inner = math.ceil(constant * math.sqrt(n))
    return testers.StatDiffParams(n=STATDIFF_SCALING_SAMPLES, m_inner=m_inner)


_SCALING_TESTERS = {
    "uniformity": (_uniformity_cases, testers.uniformity_test, _uniformity_params,
                   (75.0, 150.0, 300.0, 600.0)),
    "uniformity-classical": (_uniformity_cases, baselines.classical_uniformity_test,
                             lambda c, n, eps: (collision_samples(c, n, eps), eps),
                             (4.0, 8.0, 16.0, 32.0)),
    "statdiff": (_statdiff_cases, testers.est_dist, _statdiff_params, (50.0, 100.0, 200.0, 400.0)),
}


def run_scaling(
    tester: str,
    n_values,
    epsilon,
    trials: int,
    seed: int,
    target_error: float = DEFAULT_TARGET_ERROR,
) -> ScalingResult:
    """Calibrate constants per domain size, then fit the query-count exponent.

    For each ``n``, the tester's constant sweep is walked upward and the
    first value whose empirical error (over ``trials`` runs per case) is at
    most ``target_error`` is retained; its mean total ledger queries become
    the data point.  A trial errs when its decision is wrong or its estimate
    is off by more than ``STATDIFF_SCALING_TOLERANCE``.  A point whose
    calibrated constant sits at the top of the sweep is flagged as saturated,
    and a saturated smallest-``n`` point is excluded from the fit (asymptotic
    claims need the asymptotic regime).

    Raises
    ------
    ValueError
        If the tester is unknown or ``target_error`` is not in [0, 1).
    RuntimeError
        If no sweep value meets the target at some ``n``.
    """
    if tester not in _SCALING_TESTERS:
        raise ValueError(f"unknown scaling tester {tester!r}")
    if not 0 <= target_error < 1:  # also rejects NaN
        raise ValueError("target error must lie in [0, 1)")
    cases_at, test, budget_at, sweep = _SCALING_TESTERS[tester]
    n_values = [_count(n, "n") for n in n_values]
    smallest = min(n_values)

    # Cell (i, j) has its own stream, so the cells tried at one n leave the
    # draws of every other n unchanged.
    rngs = spawn_rngs(seed, len(n_values) * len(sweep))
    rows: list[ScalingRow] = []
    for i, n in enumerate(n_values):
        cases = cases_at(n, epsilon)  # built from (n, eps) alone, drawing nothing
        for j, constant in enumerate(sweep):
            rng = rngs[i * len(sweep) + j]
            budget = budget_at(constant, n, epsilon)
            missed = queries = 0
            for oracles, right in cases:
                for _ in range(trials):
                    outcome, classical, quantum = run_trial(test, oracles, budget, rng)
                    missed += (outcome != right if isinstance(right, str)
                               else abs(outcome - right) > STATDIFF_SCALING_TOLERANCE)
                    queries += classical + quantum
            runs = len(cases) * trials
            err = missed / runs
            if err <= target_error:
                saturated = constant == sweep[-1]
                fit = not (saturated and n == smallest)
                rows.append(ScalingRow(n, constant, queries / runs, err, saturated, fit))
                break
        else:
            raise RuntimeError(f"calibration failed at n={n}: no sweep value met the target")

    fit_rows = [r for r in rows if r.included_in_fit]
    slope, stderr = fit_loglog([r.n for r in fit_rows], [r.mean_queries for r in fit_rows])
    return ScalingResult(tester=tester, rows=rows, slope=slope, slope_stderr=stderr)
