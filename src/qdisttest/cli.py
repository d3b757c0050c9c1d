"""Command-line experiment runner.

Every subcommand runs a seeded experiment and writes a CSV file (schema
documented in the README); re-running with the same flags and seed produces
a byte-identical file.  Options may also be supplied through ``--spec``, a
plain-text file of ``key=value`` lines whose keys are the long option names
(hyphens or underscores); explicit command-line flags win over the file.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import amplitude, baselines, harness, lowerbounds, testers

CONFIG_ERROR = 2
RUNTIME_ERROR = 3


def _add_common(parser: argparse.ArgumentParser, trials_default: int = 100) -> None:
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--trials", type=int, default=trials_default, help="trial count")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument(
        "--spec", default=None, help="key=value file supplying defaults for this command"
    )


def _emit(args, command, columns, rows, meta) -> None:
    text = harness.render_csv(command, columns, rows, meta)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_estprob(args) -> int:
    rng = np.random.default_rng(args.seed)
    frac = 1000
    count = round(args.pa * frac)
    if abs(count / frac - args.pa) > 1e-12:
        raise ValueError("--pa must be a multiple of 0.001 so the oracle is exact")
    counts = np.zeros(2, dtype=np.int64)
    counts[0] = count
    counts[1] = frac - count
    from .distributions import Distribution, make_oracle

    dist = Distribution(counts, frac)
    oracle = make_oracle(dist, frac, rng)
    m = args.m or amplitude.queries_for(args.delta, args.omega, args.pa, args.c)
    rows = []
    within = 0
    for t in range(args.trials):
        pe = amplitude.est_prob(oracle, (0,), m, rng)
        hit = abs(pe.estimate - args.pa) <= args.delta
        within += hit
        rows.append(
            {"trial": t, "y": pe.raw_outcome, "estimate": pe.estimate, "within": hit}
        )
    meta = {
        "pa": args.pa,
        "delta": args.delta,
        "omega": args.omega,
        "m": m,
        "c": args.c if args.c is not None else amplitude.DEFAULT_C,
        "seed": args.seed,
    }
    _emit(args, "estprob", ["trial", "y", "estimate", "within"], rows, meta)
    print(f"coverage={within / args.trials!r} m={m}", file=sys.stderr)
    return 0


def cmd_estdist(args) -> int:
    rng = np.random.default_rng(args.seed)
    op, oq, distance = harness.make_instance_pair(args.pair, args.n, args.eps, rng)
    params = testers.StatDiffParams(
        epsilon=args.eps, tau=args.tau, mode=args.mode, n=args.samples, m_inner=args.m_inner
    )
    rows = []
    for t in range(args.trials):
        res = testers.est_dist(op, oq, params, rng)
        rows.append(
            {
                "trial": t,
                "estimate": res.estimate,
                "target": distance / 2,
                "classical": sum(l.classical_samples for l in res.ledgers.values()),
                "quantum": sum(l.quantum_applications for l in res.ledgers.values()),
            }
        )
    meta = {"n": args.n, "pair": args.pair, "distance": distance, "mode": args.mode, "seed": args.seed}
    _emit(args, "estdist", ["trial", "estimate", "target", "classical", "quantum"], rows, meta)
    return 0


def _run_decision_experiment(args, run_one, positive: str):
    """Shared trial loop for accept/reject testers; emits cumulative rate."""
    rate_key = "acceptance_rate" if positive == "accept" else "rejection_rate"
    rows = []
    hits = 0
    for t in range(args.trials):
        decision, classical, quantum = run_one(t)
        hits += decision == positive
        rows.append(
            {
                "trial": t,
                "decision": decision,
                positive: int(decision == positive),
                rate_key: hits / (t + 1),
                "classical": classical,
                "quantum": quantum,
            }
        )
    return rows, hits / max(1, args.trials)


def cmd_uniformity(args) -> int:
    # The instance has its own stream, so a saved instance reloaded with
    # --instance-file leaves the trials' stream, and hence the rows, as they were.
    instance_rng, rng = harness.spawn_rngs(args.seed, 2)
    if args.instance_file:
        from .distributions import load_oracle

        oracle, kind = load_oracle(args.instance_file)
        args.n = oracle.n
    else:
        kind = args.instance
        oracle = harness.make_instance(kind, args.n, args.eps, instance_rng)
    if args.save_instance:
        from .distributions import save_oracle

        save_oracle(oracle, args.save_instance, kind=kind)
    params = testers.UniformityParams(
        epsilon=args.eps,
        mode=args.mode,
        m_samples=args.samples,
        k_queries=args.k,
        l_repeats=args.repeats,
    )

    def run_one(t):
        v = testers.uniformity_test(oracle, params, rng)
        l = v.ledgers["p"]
        return v.decision, l.classical_samples, l.quantum_applications

    rows, rate = _run_decision_experiment(args, run_one, "accept")
    m, k, l, thr = params.resolved(args.n)
    meta = {
        "n": args.n,
        "instance": kind or "unknown",
        "eps": args.eps,
        "mode": args.mode,
        "m": m,
        "k": k,
        "l": l,
        "threshold": thr,
        "seed": args.seed,
    }
    _emit(
        args,
        "uniformity",
        ["trial", "decision", "accept", "acceptance_rate", "classical", "quantum"],
        rows,
        meta,
    )
    print(f"acceptance_rate={rate!r}", file=sys.stderr)
    return 0


def cmd_orthogonality(args) -> int:
    rng = np.random.default_rng(args.seed)
    op, oq, distance = harness.make_instance_pair(args.pair, args.n, args.eps, rng)
    params = testers.OrthogonalityParams(
        epsilon=args.eps, m_samples=args.samples, k_queries=args.k, rounds=args.rounds
    )

    def run_one(t):
        v = testers.orthogonality_test(op, oq, params, rng)
        return (
            v.decision,
            sum(l.classical_samples for l in v.ledgers.values()),
            sum(l.quantum_applications for l in v.ledgers.values()),
        )

    rows, rate = _run_decision_experiment(args, run_one, "reject")
    meta = {
        "n": args.n,
        "pair": args.pair,
        "eps": args.eps,
        "distance": distance,
        "rounds": params.rounds,
        "seed": args.seed,
    }
    _emit(
        args,
        "orthogonality",
        ["trial", "decision", "reject", "rejection_rate", "classical", "quantum"],
        rows,
        meta,
    )
    print(f"rejection_rate={rate!r}", file=sys.stderr)
    return 0


def cmd_baseline_uniformity(args) -> int:
    rng = np.random.default_rng(args.seed)
    oracle = harness.make_instance(args.instance, args.n, args.eps, rng)
    m = args.samples or max(2, math.ceil(4.0 * math.sqrt(args.n) / args.eps**2))

    def run_one(t):
        ledger = testers.QueryLedger()
        decision = baselines.classical_uniformity_test(oracle, m, args.eps, rng, ledger)
        return decision, ledger.classical_samples, ledger.quantum_applications

    rows, rate = _run_decision_experiment(args, run_one, "accept")
    meta = {"n": args.n, "instance": args.instance, "eps": args.eps, "m": m, "seed": args.seed}
    _emit(
        args,
        "baseline-uniformity",
        ["trial", "decision", "accept", "acceptance_rate", "classical", "quantum"],
        rows,
        meta,
    )
    print(f"acceptance_rate={rate!r}", file=sys.stderr)
    return 0


def cmd_baseline_statdiff(args) -> int:
    rng = np.random.default_rng(args.seed)
    op, oq, distance = harness.make_instance_pair(args.pair, args.n, args.eps, rng)
    m = args.samples or args.n
    rows = []
    for t in range(args.trials):
        lp, lq = testers.QueryLedger(), testers.QueryLedger()
        est = baselines.classical_statdiff_plugin(op, oq, m, rng, lp, lq)
        rows.append(
            {
                "trial": t,
                "estimate": est,
                "target": distance / 2,
                "classical": lp.classical_samples + lq.classical_samples,
                "quantum": 0,
            }
        )
    meta = {"n": args.n, "pair": args.pair, "distance": distance, "m": m, "seed": args.seed}
    _emit(
        args,
        "baseline-statdiff",
        ["trial", "estimate", "target", "classical", "quantum"],
        rows,
        meta,
    )
    return 0


def cmd_baseline_orthogonality(args) -> int:
    rng = np.random.default_rng(args.seed)
    op, oq, distance = harness.make_instance_pair(args.pair, args.n, args.eps, rng)
    m = args.samples or max(1, math.ceil(4.0 * math.sqrt(args.n)))

    def run_one(t):
        lp, lq = testers.QueryLedger(), testers.QueryLedger()
        decision = baselines.classical_orthogonality_test(op, oq, m, rng, lp, lq)
        return decision, lp.classical_samples + lq.classical_samples, 0

    rows, rate = _run_decision_experiment(args, run_one, "reject")
    meta = {"n": args.n, "pair": args.pair, "distance": distance, "m": m, "seed": args.seed}
    _emit(
        args,
        "baseline-orthogonality",
        ["trial", "decision", "reject", "rejection_rate", "classical", "quantum"],
        rows,
        meta,
    )
    print(f"rejection_rate={rate!r}", file=sys.stderr)
    return 0


def cmd_scaling(args) -> int:
    n_values = [int(float(tok)) for tok in args.n_values.split(",")]
    result = harness.run_scaling(
        args.tester, n_values, args.eps, trials=args.trials, seed=args.seed,
        target_error=args.target_error,
    )
    meta = {
        "tester": args.tester,
        "eps": args.eps,
        "target_error": args.target_error,
        "slope": result.slope,
        "slope_stderr": result.slope_stderr,
        "seed": args.seed,
    }
    _emit(
        args,
        "scaling",
        ["n", "constant", "mean_queries", "error_rate", "saturated", "included_in_fit"],
        result.csv_rows(),
        meta,
    )
    print(f"slope={result.slope!r} stderr={result.slope_stderr!r}", file=sys.stderr)
    return 0


def cmd_calibrate(args) -> int:
    rng = np.random.default_rng(args.seed)
    c = amplitude.calibrate_constant(trials_per_cell=args.trials, rng=rng)
    if args.out:
        amplitude.save_calibration(args.out, c, "default-3x3x3", args.seed)
    print(f"c={c!r}", file=sys.stderr)
    rows = [{"c": c, "grid": "default-3x3x3", "trials_per_cell": args.trials, "seed": args.seed}]
    if not args.out:
        sys.stdout.write(harness.render_csv("calibrate", ["c", "grid", "trials_per_cell", "seed"], rows, {}))
    return 0


def cmd_lb_collision(args) -> int:
    rng = np.random.default_rng(args.seed)
    from .distributions import distribution_of, l1_distance

    rows = []
    below = 0
    for t in range(args.trials):
        if args.kind == lowerbounds.TWO_TO_ONE:
            h = lowerbounds.CollisionFunction.two_to_one(args.n, rng)
        else:
            h = lowerbounds.CollisionFunction.one_to_one(args.n, rng)
        sigma = rng.permutation(args.n)
        op, oq = lowerbounds.build_collision_oracles(h, sigma)
        dist = l1_distance(distribution_of(op), distribution_of(oq))
        if h.kind == lowerbounds.TWO_TO_ONE:
            formula = lowerbounds.matching_parity_distance(h, sigma)
        else:
            formula = 2.0
        below += dist <= 1.75
        rows.append(
            {"trial": t, "distance": dist, "parity_formula": formula, "agrees": dist == formula}
        )
    meta = {"n": args.n, "kind": args.kind, "seed": args.seed, "frac_below_7_4": below / max(1, args.trials)}
    _emit(args, "lb-collision", ["trial", "distance", "parity_formula", "agrees"], rows, meta)
    return 0


def cmd_lb_fingerprint(args) -> int:
    rng = np.random.default_rng(args.seed)
    from .distributions import half_support, uniform

    u = uniform(args.n)
    p = half_support(args.n)
    m = args.m if args.m is not None else 2.0**-5 * math.sqrt(args.n) * 5
    delta = max(args.delta, p.max_weight * m * 1.0000001)
    bound = lowerbounds.valiant_bound(p, m, delta)
    tv_uu = lowerbounds.empirical_fingerprint_tv(u, u, m, args.trials, rng)
    tv_pu = lowerbounds.empirical_fingerprint_tv(p, u, m, args.trials, rng)
    rows = [
        {"quantity": "rate_parameter", "value": m},
        {"quantity": "delta", "value": delta},
        {"quantity": "valiant_bound_half_support", "value": bound},
        {"quantity": "tv_uniform_vs_uniform", "value": tv_uu},
        {"quantity": "tv_half_support_vs_uniform", "value": tv_pu},
    ]
    meta = {"n": args.n, "trials": args.trials, "seed": args.seed}
    _emit(args, "lb-fingerprint", ["quantity", "value"], rows, meta)
    return 0


def cmd_corollary(args) -> int:
    report = lowerbounds.corollary_report(args.n, args.a, args.delta)
    text = report.render()
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdisttest",
        description="Quantum and classical distribution property testing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estprob", help="probability-estimation coverage experiment")
    p.add_argument("--pa", type=float, default=0.25, help="true target mass")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--omega", type=float, default=0.1)
    p.add_argument("--m", type=int, default=None, help="override query count")
    p.add_argument("--c", type=float, default=None, help="override estimation constant")
    _add_common(p)
    p.set_defaults(func=cmd_estprob)

    p = sub.add_parser("estdist", help="L1-distance estimator experiment")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--pair", choices=["identical", "disjoint", "overlapping"], default="overlapping")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=1 / 3)
    p.add_argument("--mode", choices=["paper", "practical"], default="practical")
    p.add_argument("--samples", type=int, default=None, help="mixture sample count")
    p.add_argument("--m-inner", type=int, default=None, help="inner estimation queries")
    _add_common(p, trials_default=50)
    p.set_defaults(func=cmd_estdist)

    p = sub.add_parser("uniformity", help="quantum uniformity tester experiment")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--instance", choices=["uniform", "biased", "half_support"], default="uniform")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--mode", choices=["paper", "practical"], default="practical")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--instance-file", default=None,
                   help="load the oracle from a plain-text instance file")
    p.add_argument("--save-instance", default=None,
                   help="write the oracle as a plain-text instance file")
    _add_common(p, trials_default=200)
    p.set_defaults(func=cmd_uniformity)

    p = sub.add_parser("orthogonality", help="quantum orthogonality tester experiment")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--pair", choices=["identical", "disjoint", "overlapping"], default="disjoint")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rounds", type=int, default=8)
    _add_common(p, trials_default=200)
    p.set_defaults(func=cmd_orthogonality)

    p = sub.add_parser("baseline-uniformity", help="classical collision-count tester")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--instance", choices=["uniform", "biased", "half_support"], default="uniform")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p, trials_default=200)
    p.set_defaults(func=cmd_baseline_uniformity)

    p = sub.add_parser("baseline-statdiff", help="classical plug-in distance estimator")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--pair", choices=["identical", "disjoint", "overlapping"], default="overlapping")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p, trials_default=50)
    p.set_defaults(func=cmd_baseline_statdiff)

    p = sub.add_parser("baseline-orthogonality", help="classical cross-collision finder")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--pair", choices=["identical", "disjoint", "overlapping"], default="disjoint")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p, trials_default=200)
    p.set_defaults(func=cmd_baseline_orthogonality)

    p = sub.add_parser("scaling", help="query-complexity scaling study with log-log fit")
    p.add_argument(
        "--tester",
        choices=sorted(harness._SCALING_TESTERS),
        default="uniformity",
    )
    p.add_argument("--n-values", default="1000,10000,100000,1000000")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--target-error", type=float, default=harness.DEFAULT_TARGET_ERROR)
    _add_common(p, trials_default=50)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("calibrate", help="calibrate the estimation constant")
    _add_common(p, trials_default=2000)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("lb-collision", help="collision-reduction distance statistics")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--kind", choices=[lowerbounds.ONE_TO_ONE, lowerbounds.TWO_TO_ONE],
                   default=lowerbounds.TWO_TO_ONE)
    _add_common(p, trials_default=1000)
    p.set_defaults(func=cmd_lb_collision)

    p = sub.add_parser("lb-fingerprint", help="Poissonized fingerprint statistics")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=float, default=None, help="Poisson rate parameter")
    p.add_argument("--delta", type=float, default=0.05)
    _add_common(p, trials_default=10000)
    p.set_defaults(func=cmd_lb_fingerprint)

    p = sub.add_parser("corollary", help="untestability arithmetic certificate")
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--a", type=int, default=5)
    p.add_argument("--delta", type=float, default=1e-4)
    p.add_argument("--out", default=None)
    p.add_argument("--spec", default=None)
    p.set_defaults(func=cmd_corollary)

    return parser


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
    parser = build_parser()
    try:
        argv = _apply_spec_file(argv)
        args = parser.parse_args(argv)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
