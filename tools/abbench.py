"""In-process A/B bench of two source trees: L0 timings and an equality hash.

Loads ``src/qdisttest`` of ``--base`` twice (as the parent and as a control
copy, whose spread against the parent shows the bench's own noise) and of
``--change`` once, each under its own package name in this process.  The
package imports only relatively, so the copies share no module.

- **L0.** One ``est_prob`` call at m = 997 with a ledger, on the two-block
  ``biased_pair(10**6, 0.5)`` oracle, for a one-element target (a tuple of a
  Python int) and a 64-element target (an unsorted int64 array).  The trees
  run interleaved blocks of ``--calls`` calls per target, in reversed order
  in odd blocks.  Each tree gets the median and minimum of its per-call
  block means, and the change and the control the median over blocks of
  their block mean over the parent's in the same block.
- **Equality.** One sha256 per tree over every golden CLI case of
  ``tests/test_cli_golden.py`` (exit code, stdout, stderr, written files and
  warnings, with ``{tmp}`` filled in as that test does), then seeded
  ``est_prob`` (one-element targets as Python, int64 and uint32 integers,
  and sets), ``est_probs`` and ``classical_samples`` draws on 1- to
  1,000-block oracles, ``classical_sample`` draws, and plug-in distances at
  n = 1,600 and m from 99 to 5,000, with the ledgers and the generator state
  afterwards.
  The cases are those of the checkout that holds this tool.

It prints the ``in_process`` and ``equality`` objects of the
``BENCH_*.json`` format as one JSON object; it is not a gate.

    python tools/abbench.py --base PARENT_CHECKOUT --change CHECKOUT > ab.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
M = 997
N = 10**6


def load_tree(checkout: Path, name: str) -> dict:
    """The modules of ``checkout/src/qdisttest``, imported as package ``name``."""
    package = checkout.resolve() / "src" / "qdisttest"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("amplitude", "baselines", "cli", "distributions")}


def _block(tree: dict, target, calls: int) -> float:
    """Per-call mean, in microseconds, of ``calls`` est_prob calls on ``target``."""
    est_prob, oracle = tree["amplitude"].est_prob, tree["oracle"]
    rng, ledger = np.random.default_rng(0), tree["distributions"].QueryLedger()
    start = perf_counter_ns()
    for _ in range(calls):
        est_prob(oracle, target, M, rng, ledger)
    return (perf_counter_ns() - start) / calls / 1e3


def l0(trees: dict[str, dict], blocks: int, calls: int) -> dict:
    targets = {
        "one_element": (3,),
        "sixty_four_elements": np.random.default_rng(1).choice(N, 64, replace=False),
    }
    for tree in trees.values():
        p, _ = tree["distributions"].biased_pair(N, 0.5)
        tree["oracle"] = tree["distributions"].make_oracle(p, p.denominator)
    means = {size: {name: [] for name in trees} for size in targets}
    order = list(trees)
    for b in range(blocks):
        for name in order if b % 2 == 0 else order[::-1]:
            for size, target in targets.items():
                gc.collect()
                means[size][name].append(_block(trees[name], target, calls))
    out = {
        "method": (
            f"one est_prob call at m = {M} with a ledger on the two-block biased_pair(1e6, 0.5) "
            "oracle, the one-element target a tuple of a Python int, the 64-element target an "
            f"unsorted int64 array; {blocks} interleaved blocks of {calls} calls per (tree, "
            "target), tree order reversed in odd blocks; median and min of the per-call block "
            "means; *_over_parent is the median over blocks of the tree's block mean over the "
            "parent's in the same block; control is a second copy of --base"
        ),
    }
    for size, by_tree in means.items():
        out[size] = {name: {"median_us": round(statistics.median(v), 3),
                            "min_us": round(min(v), 3)} for name, v in by_tree.items()}
        for name in ("change", "control"):  # paired: each block against the parent's
            ratios = [x / y for x, y in zip(by_tree[name], by_tree["parent"])]
            out[size][f"{name}_over_parent"] = round(statistics.median(ratios), 4)
    return out


def _golden_steps(cli) -> list:
    """Every golden CLI case, run through this tree's ``main``."""
    import test_cli_golden as golden

    golden.main = cli.main
    os.environ["COLUMNS"] = golden.COLUMNS
    steps = []
    for name in sorted(golden.CASES):
        with tempfile.TemporaryDirectory() as tmp:
            steps.append([name, golden.run_case(name, Path(tmp))])
    return steps


def _draws(tree: dict) -> list:
    """Seeded library draws and the ledgers and generator state after them."""
    a, d = tree["amplitude"], tree["distributions"]
    rng = np.random.default_rng(2024)
    ledger = d.QueryLedger()
    p, u = d.biased_pair(N, 0.5)
    oracles = [d.make_oracle(x, x.denominator) for x in (p, u, d.half_support(1000))]
    oracles.append(d.OracleTable(np.arange(30) % 7, 7))
    out = []
    for o in oracles:
        for m in (1, 2, 7, M, 10**6, 2**40):
            for target in ((0,), (o.n - 1,), (np.int64(o.n - 1),), (np.uint32(1),),
                           np.arange(min(64, o.n)), [1, 1, 2], []):
                e = a.est_prob(o, target, m, rng, ledger)
                out.append([e.estimate, e.raw_outcome, e.target_set_mass])
    for m in (3, M, 2**40):
        ledgers = (d.QueryLedger(), d.QueryLedger())
        ys, es = a.est_probs(tuple(oracles[:2]), rng.integers(0, N, 50), m, rng, ledgers)
        out.append([ys.tolist(), es.tolist(), [(l.classical_samples, l.quantum_applications)
                                               for l in ledgers]])
    for blocks in (1, 2, 8, 64, 1000):
        n = 10 * blocks
        starts = np.concatenate(([0], np.sort(rng.choice(np.arange(1, n), blocks - 1,
                                                         replace=False))))
        levels = rng.integers(0, 5, blocks)
        levels[0] += 1
        den = int((levels * np.diff(starts, append=n)).sum())
        o = d.make_oracle(d.Distribution.from_blocks(starts, levels, n, den), den)
        out.append(d.classical_samples(o, 500, rng, ledger).tolist())
    out.append([d.classical_sample(o, rng, ledger) for o in oracles for _ in range(50)])
    p, q = d.overlapping_pair(1600, 0.5)
    op, oq = d.make_oracle(p, p.denominator), d.make_oracle(q, q.denominator)
    for m in (99, 100, 101, 5000):  # m on both sides of n / 16 = 100, and above n
        out.append([tree["baselines"].classical_statdiff_plugin(x, y, m, rng, ledger)
                    for x, y in ((op, oq), (oq, op), (op, op))])
    out.append([ledger.classical_samples, ledger.quantum_applications])
    out.append(rng.bit_generator.state)
    return out


def equality(trees: dict[str, dict]) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # test_cli_golden imports qdisttest
    digests = {}
    for name, tree in trees.items():
        record = {"golden": _golden_steps(tree["cli"]), "draws": _draws(tree)}
        digests[name] = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    return {
        "script": "tools/abbench.py",
        "covers": "every golden CLI case of tests/test_cli_golden.py (exit code, stdout, "
                  "stderr, files, warnings), seeded est_prob draws (one-element targets as "
                  "Python, int64 and uint32 integers, and sets) and est_probs draws on four "
                  "oracles at m from 1 to 2**40, classical_samples on 1- to 1,000-block oracles, "
                  "classical_sample draws, classical_statdiff_plugin at n = 1,600 and m in "
                  "{99, 100, 101, 5000}, the ledgers and the final generator state",
        "sha256": digests,
        "result": "identical" if len(set(digests.values())) == 1 else "different",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--blocks", type=int, default=31)
    ap.add_argument("--calls", type=int, default=5000, help="est_prob calls per block")
    args = ap.parse_args(argv)
    trees = {
        "parent": load_tree(args.base, "qdisttest_parent"),
        "control": load_tree(args.base, "qdisttest_control"),
        "change": load_tree(args.change, "qdisttest_change"),
    }
    result = {
        "command": "python tools/abbench.py " + " ".join(sys.argv[1:] if argv is None else argv),
        "in_process": {"l0_est_prob_us": l0(trees, args.blocks, args.calls)},
        "equality": equality({k: trees[k] for k in ("parent", "change")}),
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
