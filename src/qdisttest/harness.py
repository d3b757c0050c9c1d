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
    "spawn_rngs",
    "fit_loglog",
    "ScalingRow",
    "ScalingResult",
    "run_scaling",
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

# Whole-run error targets and sweep grids for the scaling study.
DEFAULT_TARGET_ERROR = 1 / 3
UNIFORMITY_SWEEP = (75.0, 150.0, 300.0, 600.0)
CLASSICAL_UNIFORMITY_SWEEP = (4.0, 8.0, 16.0, 32.0)
STATDIFF_SWEEP = (50.0, 100.0, 200.0, 400.0)
STATDIFF_SCALING_SAMPLES = 50
STATDIFF_SCALING_TOLERANCE = 0.15


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
    if name == "uniform":
        dist = uniform(n)
    elif name == "half_support":
        dist = half_support(n)
    elif name == "biased":
        dist, _ = biased_pair(n, eps)
    else:
        raise ValueError(f"unknown instance {name!r}")
    return make_oracle(dist, dist.denominator)


def make_instance_pair(name: str, n: int, eps) -> tuple[OracleTable, OracleTable, float]:
    """Pair instances by name; returns both oracles and their exact distance."""
    if name == "identical":
        u = uniform(n)
        return make_oracle(u, n), make_oracle(u, n), 0.0
    if name == "disjoint":
        p, q = disjoint_pair(n)
    elif name == "overlapping":
        p, q = overlapping_pair(n, eps)
    else:
        raise ValueError(f"unknown instance pair {name!r}")
    op = make_oracle(p, p.denominator)
    oq = make_oracle(q, q.denominator)
    return op, oq, l1_distance(p, q)


def _uniformity_trial(constant, n, eps, trials, rng, classical: bool):
    """Error rate and mean queries for one (n, constant) cell."""
    u = uniform(n)
    biased, _ = biased_pair(n, eps)
    ou = make_oracle(u, n)
    ob = make_oracle(biased, biased.denominator)
    base = n ** (1 / 3) / eps ** (4 / 3)
    wrong = 0
    queries = 0
    for oracle, should in ((ou, "accept"), (ob, "reject")):
        for _ in range(trials):
            if classical:
                ledger = testers.QueryLedger()
                m = max(2, math.ceil(constant * math.sqrt(n) / eps**2))
                decision = baselines.classical_uniformity_test(oracle, m, eps, rng, ledger)
                queries += ledger.total
            else:
                params = testers.UniformityParams(
                    epsilon=eps, mode="practical", k_queries=math.ceil(constant * base)
                )
                verdict = testers.uniformity_test(oracle, params, rng)
                decision = verdict.decision
                queries += verdict.total_queries
            wrong += decision != should
    return wrong / (2 * trials), queries / (2 * trials)


def _statdiff_trial(constant, n, eps, trials, rng, classical: bool):
    """Error = rate of estimates off by more than the tolerance, on a
    distance-0 pair and a distance-1 overlapping pair."""
    del eps
    cases = [
        make_instance_pair("identical", n, None),
        make_instance_pair("overlapping", n, 1),
    ]
    wrong = 0
    queries = 0
    for op, oq, distance in cases:
        for _ in range(trials):
            if classical:
                lp, lq = testers.QueryLedger(), testers.QueryLedger()
                m = max(1, math.ceil(constant * math.sqrt(n)))
                est = baselines.classical_statdiff_plugin(op, oq, m, rng, lp, lq)
                queries += lp.total + lq.total
            else:
                params = testers.StatDiffParams(
                    mode="practical",
                    n=STATDIFF_SCALING_SAMPLES,
                    m_inner=math.ceil(constant * math.sqrt(n)),
                )
                result = testers.est_dist(op, oq, params, rng)
                est = result.estimate
                queries += sum(l.total for l in result.ledgers.values())
            wrong += abs(est - distance / 2) > STATDIFF_SCALING_TOLERANCE
    return wrong / (2 * trials), queries / (2 * trials)


_SCALING_TESTERS = {
    "uniformity": (_uniformity_trial, UNIFORMITY_SWEEP, False),
    "uniformity-classical": (_uniformity_trial, CLASSICAL_UNIFORMITY_SWEEP, True),
    "statdiff": (_statdiff_trial, STATDIFF_SWEEP, False),
}


def run_scaling(
    tester: str,
    n_values,
    epsilon,
    trials: int,
    seed: int,
    target_error: float = DEFAULT_TARGET_ERROR,
    sweep=None,
) -> ScalingResult:
    """Calibrate constants per domain size, then fit the query-count exponent.

    For each ``n``, the constant sweep is walked upward and the first value
    whose empirical error (over ``trials`` runs per instance) is at most
    ``target_error`` is retained; its mean total ledger queries become the
    data point.  A point whose calibrated constant sits at the top of the
    sweep is flagged as saturated, and a saturated smallest-``n`` point is
    excluded from the fit (asymptotic claims need the asymptotic regime).

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
    trial_fn, default_sweep, classical = _SCALING_TESTERS[tester]
    sweep = tuple(sweep) if sweep is not None else default_sweep
    n_values = [int(n) for n in n_values]

    rngs = spawn_rngs(seed, len(n_values) * len(sweep))
    rows: list[ScalingRow] = []
    idx = 0
    for n in n_values:
        chosen = None
        for constant in sweep:
            err, mean_q = trial_fn(constant, n, epsilon, trials, rngs[idx], classical)
            idx += 1
            if err <= target_error:
                chosen = ScalingRow(
                    n=n,
                    constant=constant,
                    mean_queries=mean_q,
                    error_rate=err,
                    saturated=constant == sweep[-1],
                    included_in_fit=True,
                )
                break
        if chosen is None:
            raise RuntimeError(f"calibration failed at n={n}: no sweep value met the target")
        # skip the rng streams reserved for untried sweep values
        idx += len(sweep) - sweep.index(chosen.constant) - 1
        rows.append(chosen)

    smallest = min(r.n for r in rows)
    for r in rows:
        if r.n == smallest and r.saturated:
            r.included_in_fit = False
    fit_rows = [r for r in rows if r.included_in_fit]
    slope, stderr = fit_loglog([r.n for r in fit_rows], [r.mean_queries for r in fit_rows])
    return ScalingResult(tester=tester, rows=rows, slope=slope, slope_stderr=stderr)
