"""Benchmark for qdisttest: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload estdist --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the workload runs
untraced in its own single-threaded process, after ``SETUP_SAMPLES - 1``
processes that only set up; the end-to-end metrics are measured from here,
from the op timestamps and the processes' resource usage.  With
``--trace 1`` one process runs with timing wrappers on the program's layer
boundaries and the per-layer metrics come from its spans.  Either way the
outputs are checked, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("estdist", "uniformity", "classical", "sweep")
SETUP_SAMPLES = 5
# Percentile reported as op_tail_ms; at the workload's minimum op count at
# least ten ops lie beyond it.  Not p99: on a shared 2-core host the p99 moved
# by up to 24% from run to run with the host's load (README).
TAIL_PERCENTILE = {"estdist": 90.0, "uniformity": 90.0, "classical": 90.0, "sweep": 75.0}
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 120  # on top of --seconds


def spawn(args, tag: str, extra: list[str], timeout: float):
    """Run the worker once; return (its JSON, its rusage, the spawn time)."""
    scratch = OUT / f"{args.workload}-{args.seed}-{os.getpid()}-{tag}"
    scratch.mkdir()
    try:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--scratch", str(scratch), *extra,
        ]
        env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
        with open(scratch / "worker.log", "w") as log:
            spawned = monotonic_ns()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
            try:
                # Wait without reaping, then reap with wait4 to read the usage.
                fd = os.pidfd_open(proc.pid)
                try:
                    ready = select.select([fd], [], [], timeout)[0]
                finally:
                    os.close(fd)
                if not ready:
                    raise SystemExit(f"worker {tag} did not finish within {timeout:.0f} s")
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            sys.stderr.write("".join((scratch / "worker.log").read_text().splitlines(True)[-20:]))
            raise SystemExit(f"worker {tag} exited with {proc.returncode}")
        return json.loads((scratch / "result.json").read_text()), usage, spawned
    finally:
        shutil.rmtree(scratch)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 100])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_metrics(op_times) -> dict:
    ok = [(end - start) / 1e6 for start, end, done in op_times if done]
    seconds = (op_times[-1][1] - op_times[0][0]) / 1e9
    return {"ops_per_s": len(ok) / seconds, "ok_ms": ok}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qdisttest" / "__init__.py").is_file():
        print(f"no qdisttest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        res, _, _ = spawn(args, "trace", ["--trace", str(trace_file)], args.seconds + RUN_TIMEOUT_S)
    else:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            got, _, spawned = spawn(args, f"setup{i}", ["--setup-only"], SETUP_TIMEOUT_S)
            setups.append((got["setup_end_ns"] - spawned) / 1e9)
        res, usage, spawned = spawn(args, "run", [], args.seconds + RUN_TIMEOUT_S)
        setups.append((res["setup_end_ns"] - spawned) / 1e9)

    import checks

    problems = checks.CHECKS[args.workload](res["records"], res["post"])
    for line in problems + res["errors"]:
        print(line, file=sys.stderr)
    op_times = res["op_times"]
    timed = timed_metrics(op_times)
    if args.trace:
        import tracing

        count_ops = res["min_ops"]
        first = res["warmup_ops"]
        ledgers = [(r[1], r[2]) for r in res["records"] if first <= r[0] < first + count_ops]
        metrics = tracing.summarise(trace_file, len(op_times), count_ops, ledgers)
        metrics["trace.ops_per_s"] = timed["ops_per_s"]
        units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
    else:
        metrics = {
            "ops_per_s": timed["ops_per_s"],
            "op_p50_ms": statistics.median(timed["ok_ms"]),
            "op_tail_ms": percentile(timed["ok_ms"], TAIL_PERCENTILE[args.workload]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}: {len(op_times)} ops, {res['failed']} failed, "
          f"tail percentile p{TAIL_PERCENTILE[args.workload]:g}, checks "
          f"{'passed' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(op_times),
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
