"""Run one benchmark workload in this process; write what happened as JSON.

``run.py`` starts this script once for each set-up sample (``--setup-only``)
and once for the measured or traced run.  The script imports the program
from the checkout's ``src``, builds the workload's inputs from the seed, runs
the warm-up ops, then runs timed ops in whole rounds until ``--seconds`` have
passed and at least the workload's minimum number of ops is done, and last
runs the untimed checks that need the program.  It judges nothing: the
outputs go to ``run.py``, which checks them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import traceback
from pathlib import Path
from time import monotonic_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
N = 10**6


def load_program() -> dict:
    sys.path.insert(0, str(SRC))
    import qdisttest
    from qdisttest import amplitude, baselines, cli, distributions, harness, testers

    if not Path(qdisttest.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qdisttest imported from {qdisttest.__file__}, not from {SRC}")
    return {
        "amplitude": amplitude,
        "baselines": baselines,
        "cli": cli,
        "distributions": distributions,
        "harness": harness,
        "testers": testers,
    }


def child_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def ledger_sum(ledgers) -> tuple[int, int]:
    ledgers = list(ledgers)
    return (
        sum(l.classical_samples for l in ledgers),
        sum(l.quantum_applications for l in ledgers),
    )


# ---------------------------------------------------------------------------
# Workloads.  Each op does the same work whatever its index; ``run`` is the
# timed part of an op, ``record`` turns its result into plain data after the
# clock stops.  ``min_ops`` leaves at least ten ops beyond the tail
# percentile run.py reports, and is the number of ops whose counts the traced
# run reports.  A record starts with the op's (classical, quantum) ledger; the
# worker puts the op's index in front of it.


class EstDist:
    """Practical-mode ``est_dist`` at n=1e6, alternating the identical pair
    and the overlapping pair at distance 1."""

    round_ops = 2
    warmup_ops = 4
    min_ops = 1000

    def __init__(self, p: dict, seed: int, scratch: Path):
        d = p["distributions"]
        self.p = p
        self.seed = seed
        u = d.uniform(N)
        lo, hi = d.overlapping_pair(N, 1)
        self.pairs = [
            (d.make_oracle(u, N, child_rng(seed, 0, 0)), d.make_oracle(u, N, child_rng(seed, 0, 1))),
            (
                d.make_oracle(lo, lo.denominator, child_rng(seed, 0, 2)),
                d.make_oracle(hi, hi.denominator, child_rng(seed, 0, 3)),
            ),
        ]
        self.params = p["testers"].StatDiffParams(mode="practical")

    def run(self, g: int, rng):
        op, oq = self.pairs[g % 2]
        return self.p["testers"].est_dist(op, oq, self.params, rng)

    def record(self, g: int, res) -> list:
        return [*ledger_sum(res.ledgers.values()), g % 2, res.estimate]

    def post(self) -> dict:
        """Single-draw estimates of one element of known mass (2/n: the
        overlapping pair's first distribution is uniform on the first half)."""
        oracle = self.pairs[1][0]
        m = math.ceil(200 * math.sqrt(N))
        rng = child_rng(self.seed, 1)
        counts: dict[int, int] = {}
        for _ in range(POST_DRAWS):
            y = self.p["amplitude"].est_prob(oracle, (0,), m, rng).raw_outcome
            counts[y] = counts.get(y, 0) + 1
        return {"m": m, "outcomes": sorted(counts.items())}


POST_DRAWS = 20_000


class Uniformity:
    """``uniformity_test`` on a uniform and a 0.5-biased oracle, and
    ``orthogonality_test`` on a disjoint and an overlapping pair, at n=1e6."""

    round_ops = 1
    warmup_ops = 20
    min_ops = 10000

    def __init__(self, p: dict, seed: int, scratch: Path):
        d, t = p["distributions"], p["testers"]
        self.p = p
        u = d.uniform(N)
        biased, _ = d.biased_pair(N, 0.5)
        dp, dq = d.disjoint_pair(N)
        lo, hi = d.overlapping_pair(N, 0.5)
        dists = [u, biased, dp, dq, lo, hi]
        o = [d.make_oracle(x, x.denominator, child_rng(seed, 0, i)) for i, x in enumerate(dists)]
        self.uniform, self.biased = o[0], o[1]
        self.disjoint, self.overlapping = (o[2], o[3]), (o[4], o[5])
        self.uparams = t.UniformityParams(epsilon=0.5, mode="practical")
        self.oparams = t.OrthogonalityParams(epsilon=0.5)

    def run(self, g: int, rng):
        t = self.p["testers"]
        return (
            t.uniformity_test(self.uniform, self.uparams, rng),
            t.uniformity_test(self.biased, self.uparams, rng),
            t.orthogonality_test(*self.disjoint, self.oparams, rng),
            t.orthogonality_test(*self.overlapping, self.oparams, rng),
        )

    def record(self, g: int, res) -> list:
        out = list(ledger_sum(l for v in res for l in v.ledgers.values()))
        for v in res[:2]:
            l = v.ledgers["p"]
            collisions = sum(bool(r.collision) for r in v.rounds)
            out.append([v.decision, len(v.rounds), collisions, l.classical_samples, l.quantum_applications])
        for v in res[2:]:
            lp, lq = v.ledgers["p"], v.ledgers["q"]
            out.append([
                v.decision, len(v.rounds),
                lp.classical_samples, lp.quantum_applications,
                lq.classical_samples, lq.quantum_applications,
            ])
        return out

    def post(self) -> dict:
        return {}


class Classical:
    """Collision-count uniformity tester on a uniform and a 0.5-biased oracle,
    plug-in distance and cross-collision finder on a disjoint pair, n=1e6."""

    round_ops = 1
    warmup_ops = 3
    min_ops = 1000
    EPS = 0.5

    def __init__(self, p: dict, seed: int, scratch: Path):
        d = p["distributions"]
        self.p = p
        u = d.uniform(N)
        biased, _ = d.biased_pair(N, self.EPS)
        dp, dq = d.disjoint_pair(N)
        dists = [u, biased, dp, dq]
        o = [d.make_oracle(x, x.denominator, child_rng(seed, 0, i)) for i, x in enumerate(dists)]
        self.uniform, self.biased, self.disjoint = o[0], o[1], (o[2], o[3])
        # Sample rules of the CLI's baseline subcommands.
        self.m_collision = max(2, math.ceil(4.0 * math.sqrt(N) / self.EPS**2))
        self.m_pair = math.ceil(4.0 * math.sqrt(N))

    def run(self, g: int, rng):
        b = self.p["baselines"]
        ledgers = [self.p["distributions"].QueryLedger() for _ in range(6)]
        return ledgers, (
            b.classical_uniformity_test(self.uniform, self.m_collision, self.EPS, rng, ledgers[0]),
            b.classical_uniformity_test(self.biased, self.m_collision, self.EPS, rng, ledgers[1]),
            b.classical_statdiff_plugin(*self.disjoint, self.m_pair, rng, ledgers[2], ledgers[3]),
            b.classical_orthogonality_test(*self.disjoint, self.m_pair, rng, ledgers[4], ledgers[5]),
        )

    def record(self, g: int, res) -> list:
        ledgers, out = res
        return [*ledger_sum(ledgers), *out, [l.classical_samples for l in ledgers]]

    def post(self) -> dict:
        return {"m_collision": self.m_collision, "m_pair": self.m_pair}


class Sweep:
    """One pass of a scaling study through ``qdisttest.cli.main``: the
    ``uniformity`` subcommand on the uniform and the biased instance at each
    n, with a budget ``--k`` no earlier op used."""

    round_ops = 1
    warmup_ops = 1
    min_ops = 40
    CALLS = tuple(itertools.product((10**3, 10**4, 10**5, 10**6), ("uniform", "biased")))
    TRIALS = 10

    def __init__(self, p: dict, seed: int, scratch: Path):
        from reference import uniformity_m_k

        self.p = p
        self.seed = seed
        self.k_base = {n: uniformity_m_k(n, 0.5)[1] for n, _ in self.CALLS}
        self.dir = scratch

    def argv(self, g: int, n: int, instance: str, out: Path) -> list[str]:
        seed = int(np.random.SeedSequence([self.seed, g]).generate_state(1)[0])
        return [
            "uniformity", "--n", str(n), "--instance", instance, "--eps", "0.5",
            "--k", str(self.k_base[n] + g), "--trials", str(self.TRIALS),
            "--seed", str(seed), "--out", str(out),
        ]

    def run(self, g: int, rng):
        main = self.p["cli"].main
        return [main(self.argv(g, n, i, self.dir / f"{i}-{n}.csv")) for n, i in self.CALLS]

    def record(self, g: int, codes) -> list:
        calls = []
        classical = quantum = 0
        for (n, instance), code in zip(self.CALLS, codes):
            text = (self.dir / f"{instance}-{n}.csv").read_text() if code == 0 else ""
            for row in text.splitlines()[2:]:
                cells = row.split(",")
                classical += int(cells[-2])
                quantum += int(cells[-1])
            calls.append([n, instance, self.k_base[n] + g, code, text])
        return [classical, quantum, calls]

    def post(self) -> dict:
        """Run one op's last call again and return both files."""
        g = self.warmup_ops
        out = self.dir / "again.csv"
        argv = self.argv(g, *self.CALLS[-1], out)
        code = self.p["cli"].main(argv)
        text = out.read_text() if code == 0 else ""
        return {"trials": self.TRIALS, "again": {"op": g, "argv": argv, "code": code, "text": text}}


WORKLOADS = {"estdist": EstDist, "uniformity": Uniformity, "classical": Classical, "sweep": Sweep}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this .npz file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", required=True, type=Path,
                    help="directory for this process's files; result.json is written there")
    args = ap.parse_args()

    program = load_program()
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder, program)
    kind = WORKLOADS[args.workload]
    workload = kind(program, args.seed, args.scratch)
    records = []
    for g in range(kind.warmup_ops):
        records.append([g, *workload.record(g, workload.run(g, child_rng(args.seed, 2, g)))])
    setup_end = monotonic_ns()
    result = {"setup_end_ns": setup_end}
    if args.setup_only:
        (args.scratch / "result.json").write_text(json.dumps(result))
        return 0

    op_times = []  # (start, end, completed) of each timed op
    failed = 0
    errors = []
    g = kind.warmup_ops
    deadline = setup_end + int(args.seconds * 1e9)
    while len(op_times) < kind.min_ops or op_times[-1][1] < deadline:
        for _ in range(kind.round_ops):
            rng = child_rng(args.seed, 2, g)
            if recorder is not None:
                recorder.op = len(op_times)
            start = monotonic_ns()
            try:
                res = workload.run(g, rng)
            except Exception:  # an op that raises counts as failed; the run goes on
                end = monotonic_ns()
                failed += 1
                errors.append(traceback.format_exc())
                res = None
            else:
                end = monotonic_ns()
            op_times.append((start, end, res is not None))
            if recorder is not None:
                recorder.op = tracing.POST_OP
            if res is not None:
                records.append([g, *workload.record(g, res)])
            g += 1
    result.update(
        op_times=op_times,
        failed=failed,
        errors=errors[:5],
        warmup_ops=kind.warmup_ops,
        min_ops=kind.min_ops,
        records=records,
        post=workload.post(),
    )
    if recorder is not None:
        recorder.save(args.trace)
    (args.scratch / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
