"""Command-line experiment runner.

Every subcommand runs a seeded experiment and writes a CSV file (schema
documented in the README); re-running with the same flags and seed produces
a byte-identical file.  Options may also be supplied through ``--spec``, a
plain-text file of ``key=value`` lines whose keys are the long option names
(hyphens or underscores); explicit command-line flags win over the file.

Each subcommand is one entry of ``EXPERIMENTS``: its help text, its flags,
its default ``--trials`` and the function that turns the parsed flags into
its output.  The parser is generated from that table, and ``run`` writes
every subcommand's output.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import amplitude, baselines, distributions, harness, lowerbounds, testers

CONFIG_ERROR = 2
RUNTIME_ERROR = 3


class _Count(argparse.Action):
    """Stores an explicit count; one below 1 is a configuration error."""

    # argparse turns only ArgumentError into usage-and-exit; the ValueError
    # raised here reaches main, which returns CONFIG_ERROR.
    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, distributions._count(value, option_string))


def _flag(name, **kw):
    return name, kw


def _count(name, default=None, help=None):
    """A count flag: absent means ``default`` (``None``: the experiment's
    rule), and an explicit value below 1 exits with a configuration error."""
    return _flag(name, type=int, default=default, action=_Count, help=help)


def _n(default):
    return _flag("--n", type=int, default=default)


def _pair(default):
    return _flag("--pair", choices=list(harness.PAIRS), default=default)


EPS = _flag("--eps", type=float, default=0.5)
MODE = _flag("--mode", choices=testers.MODES, default="practical")
INSTANCE = _flag("--instance", choices=list(harness.INSTANCES), default="uniform")
SAMPLES = _count("--samples")
K = _count("--k")
OUTPUT = [
    _flag("--out", default=None, help="output CSV path (default: stdout)"),
    _flag("--spec", default=None, help="key=value file supplying defaults for this command"),
]


# ---------------------------------------------------------------------------
# trial loops


def _trials(args, trial) -> list[dict]:
    """One row per trial: its index, then the fields ``trial()`` returns."""
    return [{"trial": t, **trial()} for t in range(args.trials)]


def _outcomes(args, key: str, test, oracles, budget, rng) -> list[dict]:
    """One row per ``harness.run_trial``: the outcome under ``key``, and the queries."""
    names = (key, "classical", "quantum")
    return _trials(args, lambda: dict(zip(names, harness.run_trial(test, oracles, budget, rng))))


def _decisions(args, positive: str, *trial):
    """Columns, rows and summary of an accept/reject experiment that runs
    ``trial`` (test, oracles, budget, rng) through ``_outcomes``; each row adds
    whether the decision was ``positive`` and the cumulative rate."""
    rate = "acceptance_rate" if positive == "accept" else "rejection_rate"
    rows = _outcomes(args, "decision", *trial)
    hits = 0
    for t, row in enumerate(rows):
        row[positive] = int(row["decision"] == positive)
        hits += row[positive]
        row[rate] = hits / (t + 1)
    columns = ["trial", "decision", positive, rate, "classical", "quantum"]
    return columns, rows, f"{rate}={hits / args.trials!r}"


def _estimates(args, distance: float, *trial):
    """Columns and rows of an estimation experiment; each row adds the
    target, half of ``distance``."""
    rows = [{**row, "target": distance / 2} for row in _outcomes(args, "estimate", *trial)]
    return ["trial", "estimate", "target", "classical", "quantum"], rows


def _pair_instance(args):
    rng = np.random.default_rng(args.seed)
    return (rng, *harness.make_instance_pair(args.pair, args.n, args.eps))


# ---------------------------------------------------------------------------
# experiments: each returns its output and a stderr summary (or None).  The
# output is a (columns, rows, meta) table, written as CSV with the seed added
# to meta, or a finished text.


def _estprob(args):
    if not 0 <= args.pa <= 1:  # also rejects NaN
        raise ValueError(f"--pa must lie in [0, 1], got {args.pa!r}")
    rng = np.random.default_rng(args.seed)
    frac = 1000
    count = round(args.pa * frac)
    if abs(count / frac - args.pa) > 1e-12:
        raise ValueError("--pa must be a multiple of 0.001 so the oracle is exact")
    dist = distributions.Distribution(np.array([count, frac - count], dtype=np.int64), frac)
    oracle = distributions.make_oracle(dist, frac)
    amplitude.check_accuracy(args.delta, args.omega)  # even when --m sets m
    m = args.m or amplitude.queries_for(args.delta, args.omega, args.pa, args.c)

    targets = np.zeros(args.trials, dtype=np.int64)  # every trial estimates element 0
    outcomes, estimates = amplitude.est_probs((oracle,), targets, m, rng)
    rows = [
        {"trial": t, "y": y, "estimate": e, "within": abs(e - args.pa) <= args.delta}
        for t, (y, e) in enumerate(zip(outcomes[:, 0].tolist(), estimates[:, 0].tolist()))
    ]
    c = amplitude.DEFAULT_C if args.c is None else args.c
    meta = {"pa": args.pa, "delta": args.delta, "omega": args.omega, "m": m, "c": c}
    coverage = sum(r["within"] for r in rows) / args.trials
    return (["trial", "y", "estimate", "within"], rows, meta), f"coverage={coverage!r} m={m}"


def _estdist(args):
    rng, op, oq, distance = _pair_instance(args)
    params = testers.StatDiffParams(
        epsilon=args.eps, tau=args.tau, mode=args.mode, n=args.samples, m_inner=args.m_inner
    )
    columns, rows = _estimates(args, distance, testers.est_dist, (op, oq), params, rng)
    meta = {"n": args.n, "pair": args.pair, "distance": distance, "mode": args.mode}
    return (columns, rows, meta), None


def _uniformity(args):
    rng = np.random.default_rng(args.seed)
    if args.instance_file:
        oracle, kind = distributions.load_oracle(args.instance_file)
        args.n = oracle.n
    else:
        kind = args.instance
        oracle = harness.make_instance(kind, args.n, args.eps)
    if args.save_instance:
        distributions.save_oracle(oracle, args.save_instance, kind=kind)
    params = testers.UniformityParams(
        epsilon=args.eps, mode=args.mode, m_samples=args.samples, k_queries=args.k,
        l_repeats=args.repeats,
    )
    columns, rows, note = _decisions(
        args, "accept", testers.uniformity_test, (oracle,), params, rng
    )
    m, k, l, thr = params.resolved(args.n)
    meta = {
        "n": args.n, "instance": kind or "unknown", "eps": args.eps, "mode": args.mode,
        "m": m, "k": k, "l": l, "threshold": thr,
    }
    return (columns, rows, meta), note


def _orthogonality(args):
    rng, op, oq, distance = _pair_instance(args)
    params = testers.OrthogonalityParams(
        epsilon=args.eps, m_samples=args.samples, k_queries=args.k, rounds=args.rounds
    )
    columns, rows, note = _decisions(
        args, "reject", testers.orthogonality_test, (op, oq), params, rng
    )
    meta = {"n": args.n, "pair": args.pair, "eps": args.eps, "distance": distance,
            "rounds": params.rounds}
    return (columns, rows, meta), note


def _baseline_uniformity(args):
    distributions._positive(args.eps, "eps")
    rng = np.random.default_rng(args.seed)
    oracle = harness.make_instance(args.instance, args.n, args.eps)
    m = args.samples or harness.collision_samples(4.0, args.n, args.eps)
    columns, rows, note = _decisions(
        args, "accept", baselines.classical_uniformity_test, (oracle,), (m, args.eps), rng
    )
    meta = {"n": args.n, "instance": args.instance, "eps": args.eps, "m": m}
    return (columns, rows, meta), note


def _baseline_statdiff(args):
    rng, op, oq, distance = _pair_instance(args)
    m = args.samples or args.n
    columns, rows = _estimates(
        args, distance, baselines.classical_statdiff_plugin, (op, oq), (m,), rng
    )
    meta = {"n": args.n, "pair": args.pair, "distance": distance, "m": m}
    return (columns, rows, meta), None


def _baseline_orthogonality(args):
    rng, op, oq, distance = _pair_instance(args)
    m = args.samples or max(1, math.ceil(4.0 * math.sqrt(args.n)))
    columns, rows, note = _decisions(
        args, "reject", baselines.classical_orthogonality_test, (op, oq), (m,), rng
    )
    meta = {"n": args.n, "pair": args.pair, "distance": distance, "m": m}
    return (columns, rows, meta), note


def _scaling(args):
    # An integer-valued token (1e9) is that count; run_scaling refuses any other (100.9).
    n_values = [float(tok) for tok in args.n_values.split(",")]
    result = harness.run_scaling(
        args.tester, [int(x) if x.is_integer() else x for x in n_values], args.eps,
        trials=args.trials, seed=args.seed, target_error=args.target_error,
    )
    columns = ["n", "constant", "mean_queries", "error_rate", "saturated", "included_in_fit"]
    meta = {
        "tester": args.tester, "eps": args.eps, "target_error": args.target_error,
        "slope": result.slope, "slope_stderr": result.slope_stderr,
    }
    note = f"slope={result.slope!r} stderr={result.slope_stderr!r}"
    return (columns, [asdict(r) for r in result.rows], meta), note


def _calibrate(args):
    rng = np.random.default_rng(args.seed)
    c = amplitude.calibrate_constant(args.trials, rng)
    grid = "default-3x3x3"
    if args.out:  # a file gets the plain-text record
        return harness.render_record({"c": c, "grid": grid, "seed": args.seed}), f"c={c!r}"
    row = {"c": c, "grid": grid, "trials_per_cell": args.trials, "seed": args.seed}
    return harness.render_csv("calibrate", list(row), [row], {}), f"c={c!r}"


def _lb_collision(args):
    rng = np.random.default_rng(args.seed)
    two_to_one = args.kind == lowerbounds.TWO_TO_ONE
    cf = lowerbounds.CollisionFunction
    make = cf.two_to_one if two_to_one else cf.one_to_one

    def trial():
        h = make(args.n, rng)
        sigma = rng.permutation(args.n)
        op, oq = lowerbounds.build_collision_oracles(h, sigma)
        dist = distributions.l1_distance(
            distributions.distribution_of(op), distributions.distribution_of(oq)
        )
        formula = lowerbounds.matching_parity_distance(h, sigma) if two_to_one else 2.0
        return {"distance": dist, "parity_formula": formula, "agrees": dist == formula}

    rows = _trials(args, trial)
    below = sum(r["distance"] <= 1.75 for r in rows)
    meta = {"n": args.n, "kind": args.kind, "frac_below_7_4": below / args.trials}
    return (["trial", "distance", "parity_formula", "agrees"], rows, meta), None


def _lb_fingerprint(args):
    rng = np.random.default_rng(args.seed)
    tv = lowerbounds.empirical_fingerprint_tv
    u = distributions.uniform(args.n)
    p = distributions.half_support(args.n)
    m = args.m if args.m is not None else 2.0**-5 * math.sqrt(args.n) * 5
    delta = max(args.delta, p.max_weight * m * 1.0000001)
    values = {
        "rate_parameter": m,
        "delta": delta,
        "valiant_bound_half_support": lowerbounds.valiant_bound(p, m, delta),
        "tv_uniform_vs_uniform": tv(u, u, m, args.trials, rng),
        "tv_half_support_vs_uniform": tv(p, u, m, args.trials, rng),
    }
    rows = [{"quantity": q, "value": v} for q, v in values.items()]
    return (["quantity", "value"], rows, {"n": args.n, "trials": args.trials}), None


def _corollary(args):
    report = lowerbounds.corollary_report(args.n, args.a, args.delta)
    return harness.render_record(asdict(report)), None


# ---------------------------------------------------------------------------
# the table and its runner


@dataclass(frozen=True)
class Experiment:
    """One subcommand.  ``trials`` is the default ``--trials``; ``None``
    means the subcommand takes no ``--seed`` or ``--trials``."""

    help: str
    flags: list
    trials: int | None
    run: Callable


EXPERIMENTS = {
    "estprob": Experiment("probability-estimation coverage experiment", [
        _flag("--pa", type=float, default=0.25, help="true target mass"),
        _flag("--delta", type=float, default=0.05),
        _flag("--omega", type=float, default=0.1),
        _count("--m", help="override query count"),
        _flag("--c", type=float, default=None, help="override estimation constant"),
    ], 100, _estprob),
    "estdist": Experiment("L1-distance estimator experiment", [
        _n(1000), _pair("overlapping"), EPS, _flag("--tau", type=float, default=1 / 3), MODE,
        _count("--samples", help="mixture sample count"),
        _count("--m-inner", help="inner estimation queries"),
    ], 50, _estdist),
    "uniformity": Experiment("quantum uniformity tester experiment", [
        _n(100000), INSTANCE, EPS, MODE, SAMPLES, K, _count("--repeats"),
        _flag("--instance-file", help="load the oracle from a plain-text instance file"),
        _flag("--save-instance", help="write the oracle as a plain-text instance file"),
    ], 200, _uniformity),
    "orthogonality": Experiment("quantum orthogonality tester experiment", [
        _n(1000), _pair("disjoint"), EPS, SAMPLES, K, _flag("--rounds", type=int, default=8),
    ], 200, _orthogonality),
    "baseline-uniformity": Experiment("classical collision-count tester", [
        _n(10000), INSTANCE, EPS, SAMPLES,
    ], 200, _baseline_uniformity),
    "baseline-statdiff": Experiment("classical plug-in distance estimator", [
        _n(1000), _pair("overlapping"), EPS, SAMPLES,
    ], 50, _baseline_statdiff),
    "baseline-orthogonality": Experiment("classical cross-collision finder", [
        _n(1000), _pair("disjoint"), EPS, SAMPLES,
    ], 200, _baseline_orthogonality),
    "scaling": Experiment("query-complexity scaling study with log-log fit", [
        _flag("--tester", choices=sorted(harness._SCALING_TESTERS), default="uniformity"),
        _flag("--n-values", default="1000,10000,100000,1000000"),
        EPS,
        _flag("--target-error", type=float, default=harness.DEFAULT_TARGET_ERROR),
    ], 50, _scaling),
    "calibrate": Experiment("calibrate the estimation constant", [], 2000, _calibrate),
    "lb-collision": Experiment("collision-reduction distance statistics", [
        _n(1024),
        _flag("--kind", choices=[lowerbounds.ONE_TO_ONE, lowerbounds.TWO_TO_ONE],
              default=lowerbounds.TWO_TO_ONE),
    ], 1000, _lb_collision),
    "lb-fingerprint": Experiment("Poissonized fingerprint statistics", [
        _n(100),
        _flag("--m", type=float, default=None, help="Poisson rate parameter"),
        _flag("--delta", type=float, default=0.05),
    ], 10000, _lb_fingerprint),
    "corollary": Experiment("untestability arithmetic certificate", [
        _n(10**6), _flag("--a", type=int, default=5), _flag("--delta", type=float, default=1e-4),
    ], None, _corollary),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand with its help, but flags only on ``command``, which parses."""
    parser = argparse.ArgumentParser(
        prog="qdisttest",
        description="Quantum and classical distribution property testing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name, help=exp.help)
        if name != command:
            continue
        seeded = [
            _flag("--seed", type=int, default=0, help="experiment seed"),
            _count("--trials", exp.trials, "trial count"),
        ] if exp.trials else []
        for flag, kw in [*exp.flags, *seeded, *OUTPUT]:
            p.add_argument(flag, **kw)
    return parser


def run(args) -> int:
    """Run the parsed subcommand: its output goes to ``--out`` (default:
    stdout) and its summary line, if any, to stderr."""
    output, note = EXPERIMENTS[args.command].run(args)
    if isinstance(output, tuple):
        columns, rows, meta = output
        output = harness.render_csv(args.command, columns, rows, {**meta, "seed": args.seed})
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    if note is not None:
        print(note, file=sys.stderr)
    return 0


def _apply_spec_file(argv: list[str]) -> list[str]:
    """Expand ``--spec FILE`` into long options placed before explicit flags."""
    if "--spec" not in argv:
        return argv
    at = argv.index("--spec")
    if at + 1 >= len(argv):
        raise ValueError("--spec requires a file path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2 :]
    if not rest:
        raise ValueError("--spec requires a subcommand")
    injected = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"malformed spec line {line!r}")
            injected.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    return [rest[0], *injected, *rest[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_spec_file(argv)
        command = next((a for a in argv if a in EXPERIMENTS), None)
        return run(build_parser(command).parse_args(argv))
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (RuntimeError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
