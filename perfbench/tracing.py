"""Spans around the program's layer boundaries, for the traced run only.

``install`` replaces public functions with timing wrappers in the namespaces
where the calling modules look them up (``testers.est_prob``,
``baselines.classical_samples``, ...), so the program's source is untouched
and an untraced run executes none of this.  Spans (name, start, end, parent,
op, value) stay in memory and are written out once, when the run ends;
``summarise`` turns the written file into the per-layer metrics.
"""

from __future__ import annotations

import tracemalloc
from array import array
from time import monotonic_ns

import numpy as np

SETUP_OP = -1  # op column of spans recorded while setting up (warm-up ops too)
POST_OP = -2  # op column of spans recorded after the timed part
FIELDS = 6  # name, start, end, parent, op, value

# Span name -> the (module, attribute) pairs it wraps.  Each attribute is the
# name its callers look up at call time.
SPANS = {
    "amplitude.est_prob": [("testers", "est_prob")],
    "amplitude.ae_outcome_pmf": [("amplitude", "ae_outcome_pmf")],
    "distributions.make_oracle": [("distributions", "make_oracle"), ("harness", "make_oracle")],
    "distributions.classical_samples": [("testers", "classical_samples"), ("baselines", "classical_samples")],
    "distributions.classical_sample": [("testers", "classical_sample")],
    "testers.est_dist": [("testers", "est_dist")],
    "testers.uniformity_test": [("testers", "uniformity_test")],
    "testers.orthogonality_test": [("testers", "orthogonality_test")],
    "baselines.classical_uniformity_test": [("baselines", "classical_uniformity_test")],
    "baselines.classical_statdiff_plugin": [("baselines", "classical_statdiff_plugin")],
    "baselines.classical_orthogonality_test": [("baselines", "classical_orthogonality_test")],
    "harness.make_instance": [("harness", "make_instance")],
    "harness.render_csv": [("harness", "render_csv")],
    "cli.main": [("cli", "main")],
}
# Rounds are counted, not timed, so that a tester's self time keeps its
# round logic.
ROUND_FUNCTIONS = [("testers", "utest"), ("testers", "otest")]


def _size(args, kwargs):
    return int(kwargs["size"] if "size" in kwargs else args[1])


def _m(args, kwargs):
    return int(kwargs["m"] if "m" in kwargs else args[1])


class Recorder:
    """In-memory span store; ``op`` is the index of the op being run."""

    def __init__(self):
        self.names: list[str] = []
        self.rows = array("q")
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.rounds: dict[int, int] = {}

    def wrap(self, name: str, fn, value=None, alloc: bool = False):
        nid = len(self.names)
        self.names.append(name)
        rows, stack = self.rows, self.stack

        def wrapper(*args, **kwargs):
            idx = len(rows) // FIELDS
            rows.extend((nid, 0, 0, stack[-1] if stack else -1, self.op, 0))
            stack.append(idx)
            if alloc:
                tracemalloc.start()
            start = monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = monotonic_ns()
                stack.pop()
                base = idx * FIELDS
                rows[base + 1] = start
                rows[base + 2] = end
                if alloc:
                    rows[base + 5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                elif value is not None:
                    rows[base + 5] = value(args, kwargs)

        return wrapper

    def count_rounds(self, fn):
        def wrapper(*args, **kwargs):
            self.rounds[self.op] = self.rounds.get(self.op, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            spans=np.frombuffer(self.rows, dtype=np.int64).reshape(-1, FIELDS),
            round_ops=np.array(sorted(self.rounds), dtype=np.int64),
            round_counts=np.array([self.rounds[k] for k in sorted(self.rounds)], dtype=np.int64),
        )


def install(recorder: Recorder, modules: dict) -> None:
    """Wrap every function in ``SPANS`` and ``ROUND_FUNCTIONS``."""
    values = {"amplitude.ae_outcome_pmf": _m, "distributions.classical_samples": _size}
    for name, targets in SPANS.items():
        mod, attr = targets[0]
        wrapper = recorder.wrap(
            name,
            getattr(modules[mod], attr),
            value=values.get(name),
            alloc=name == "distributions.make_oracle",
        )
        for mod, attr in targets:
            setattr(modules[mod], attr, wrapper)
    for mod, attr in ROUND_FUNCTIONS:
        setattr(modules[mod], attr, recorder.count_rounds(getattr(modules[mod], attr)))


# Per-layer metric -> unit, better.  ``setup.*`` metrics cover the set-up
# (oracles, laws and warm-up ops); the rest are per timed op unless their
# description in the README says otherwise.
METRICS = {
    "amplitude.est_prob.calls": ("count", "lower"),
    "amplitude.est_prob.self_us": ("us", "lower"),
    "amplitude.ae_outcome_pmf.calls": ("count", "lower"),
    "amplitude.ae_outcome_pmf.ms": ("ms", "lower"),
    "amplitude.law_points": ("count", "lower"),
    "amplitude.law_reuse": ("draws/law", "higher"),
    "setup.amplitude.ae_outcome_pmf.calls": ("count", "lower"),
    "setup.amplitude.ae_outcome_pmf.ms": ("ms", "lower"),
    "setup.amplitude.law_points": ("count", "lower"),
    "distributions.make_oracle.calls": ("count", "lower"),
    "distributions.make_oracle.ms": ("ms", "lower"),
    "distributions.make_oracle.alloc_mb": ("MiB", "lower"),
    "setup.distributions.make_oracle.calls": ("count", "lower"),
    "setup.distributions.make_oracle.ms": ("ms", "lower"),
    "distributions.classical_samples.calls": ("count", "lower"),
    "distributions.classical_samples.draws": ("count", "lower"),
    "distributions.classical_samples.ns_per_draw": ("ns", "lower"),
    "distributions.classical_sample.calls": ("count", "lower"),
    "distributions.classical_sample.self_us": ("us", "lower"),
    "distributions.ledger.classical_per_op": ("count", "lower"),
    "distributions.ledger.quantum_per_op": ("count", "lower"),
    "testers.est_dist.self_ms": ("ms", "lower"),
    "testers.uniformity_test.self_us": ("us", "lower"),
    "testers.orthogonality_test.self_us": ("us", "lower"),
    "testers.rounds_per_call": ("count", "lower"),
    "baselines.classical_uniformity_test.self_us": ("us", "lower"),
    "baselines.classical_statdiff_plugin.self_us": ("us", "lower"),
    "baselines.classical_orthogonality_test.self_us": ("us", "lower"),
    "harness.make_instance.ms": ("ms", "lower"),
    "harness.render_csv.ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
}


def summarise(path, timed_ops: int, count_ops: int, ledgers) -> dict[str, float]:
    """Per-layer metrics from a written trace.

    Counts (calls, draws, rounds, laws, ledger) cover timed ops
    ``0..count_ops-1`` only, so that they repeat exactly at a fixed seed
    whatever the run length; times cover every timed op.  ``ledgers`` holds
    the (classical, quantum) queries of each of the first ``count_ops`` ops.
    """
    with np.load(path) as f:
        names = list(f["names"])
        spans = f["spans"]
        round_ops, round_counts = f["round_ops"], f["round_counts"]
    name_col, start, end, parent, op, value = spans.T
    dur = (end - start).astype(float)
    child = np.zeros(len(spans))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_ns = dur - child
    timed = op >= 0
    counted = timed & (op < count_ops)

    def sel(name, where):
        return where & (name_col == names.index(name))

    def calls(name, where=counted):
        return int(sel(name, where).sum())

    def per_op(values, name, where, ops):
        return float(values[sel(name, where)].sum()) / ops if ops else 0.0

    setup = op == SETUP_OP
    law = "amplitude.ae_outcome_pmf"
    oracle = "distributions.make_oracle"
    draws = sel("distributions.classical_samples", timed)
    testers_calls = calls("testers.uniformity_test") + calls("testers.orthogonality_test")
    rounds = int(round_counts[(round_ops >= 0) & (round_ops < count_ops)].sum())
    laws_built = calls(law, counted | setup)
    m = {
        "amplitude.est_prob.calls": calls("amplitude.est_prob") / count_ops,
        "amplitude.est_prob.self_us": per_op(self_ns, "amplitude.est_prob", timed, timed_ops) / 1e3,
        f"{law}.calls": calls(law) / count_ops,
        f"{law}.ms": per_op(dur, law, timed, timed_ops) / 1e6,
        "amplitude.law_points": per_op(value, law, counted, count_ops),
        "amplitude.law_reuse": (
            calls("amplitude.est_prob", counted | setup) / laws_built if laws_built else 0.0
        ),
        f"setup.{law}.calls": float(calls(law, setup)),
        f"setup.{law}.ms": float(dur[sel(law, setup)].sum()) / 1e6,
        "setup.amplitude.law_points": float(value[sel(law, setup)].sum()),
        f"{oracle}.calls": calls(oracle) / count_ops,
        f"{oracle}.ms": per_op(dur, oracle, timed, timed_ops) / 1e6,
        f"{oracle}.alloc_mb": float(value[sel(oracle, timed | setup)].max(initial=0)) / 2**20,
        f"setup.{oracle}.calls": float(calls(oracle, setup)),
        f"setup.{oracle}.ms": float(dur[sel(oracle, setup)].sum()) / 1e6,
        "distributions.classical_samples.calls": calls("distributions.classical_samples") / count_ops,
        "distributions.classical_samples.draws": (
            per_op(value, "distributions.classical_samples", counted, count_ops)
        ),
        "distributions.classical_samples.ns_per_draw": (
            float(dur[draws].sum()) / value[draws].sum() if value[draws].sum() else 0.0
        ),
        "distributions.classical_sample.calls": calls("distributions.classical_sample") / count_ops,
        "distributions.classical_sample.self_us": (
            per_op(self_ns, "distributions.classical_sample", timed, timed_ops) / 1e3
        ),
        "distributions.ledger.classical_per_op": sum(c for c, _ in ledgers) / count_ops,
        "distributions.ledger.quantum_per_op": sum(q for _, q in ledgers) / count_ops,
        "testers.est_dist.self_ms": per_op(self_ns, "testers.est_dist", timed, timed_ops) / 1e6,
        "testers.rounds_per_call": rounds / testers_calls if testers_calls else 0.0,
        "harness.make_instance.ms": per_op(dur, "harness.make_instance", timed, timed_ops) / 1e6,
        "harness.render_csv.ms": per_op(dur, "harness.render_csv", timed, timed_ops) / 1e6,
        "cli.main.self_ms": per_op(self_ns, "cli.main", timed, timed_ops) / 1e6,
    }
    for name in (
        "testers.uniformity_test",
        "testers.orthogonality_test",
        "baselines.classical_uniformity_test",
        "baselines.classical_statdiff_plugin",
        "baselines.classical_orthogonality_test",
    ):
        m[f"{name}.self_us"] = per_op(self_ns, name, timed, timed_ops) / 1e3
    return m
