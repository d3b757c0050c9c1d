import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdisttest import baselines, harness, testers
from qdisttest.cli import EXPERIMENTS, main
from qdisttest.harness import (
    fit_loglog,
    make_instance,
    make_instance_pair,
    render_csv,
    render_record,
    run_scaling,
    spawn_rngs,
)


# ---------------------------------------------------------------------------
# harness plumbing


def test_render_csv_layout():
    text = render_csv(
        "demo",
        ["trial", "value"],
        [{"trial": 0, "value": 0.5}, {"trial": 1, "value": 1.0}],
        {"seed": 7, "n": 10},
    )
    lines = text.splitlines()
    assert lines[0] == "# qdisttest-csv schema=1 rng_stream=4 command=demo n=10 seed=7"
    assert lines[1] == "trial,value"
    assert lines[2] == "0,0.5"
    assert text.endswith("\n")


def test_render_csv_numpy_scalars():
    text = render_csv("demo", ["v"], [{"v": np.float64(0.25)}, {"v": np.int64(3)}], {})
    assert text.splitlines()[2:] == ["0.25", "3"]


def test_render_record_layout():
    text = render_record({"n": 10, "bound": 1 / 3, "ok": True, "no": False, "grid": "g"})
    assert text == "n=10\nbound=0.3333333333333333\nok=1\nno=0\ngrid=g\n"


def test_spawn_rngs_deterministic_and_distinct():
    a = spawn_rngs(5, 3)
    b = spawn_rngs(5, 3)
    assert [r.random() for r in a] == [r.random() for r in b]
    vals = [r.random() for r in spawn_rngs(5, 3)]
    assert len(set(vals)) == 3


def test_fit_loglog_recovers_exponent():
    ns = [10**3, 10**4, 10**5, 10**6]
    qs = [7.0 * n**0.5 for n in ns]
    slope, stderr = fit_loglog(ns, qs)
    assert slope == pytest.approx(0.5, abs=1e-9)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_loglog_preconditions():
    with pytest.raises(ValueError, match="4 points"):
        fit_loglog([10, 100, 1000], [1, 2, 3])
    with pytest.raises(ValueError, match="decades"):
        fit_loglog([10, 20, 40, 80], [1, 2, 3, 4])


def test_make_instance_pair_distances():
    _, _, d0 = make_instance_pair("identical", 100, None)
    _, _, d2 = make_instance_pair("disjoint", 100, None)
    _, _, dm = make_instance_pair("overlapping", 100, 0.5)
    assert (d0, d2, dm) == (0.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        make_instance_pair("nope", 100, None)
    with pytest.raises(ValueError):
        make_instance("nope", 100, None)


def test_run_scaling_small_quantum():
    result = run_scaling(
        "uniformity", [10**3, 10**4, 10**5, 10**6], 0.5, trials=20, seed=1
    )
    assert len(result.rows) == 4
    assert 0.2 <= result.slope <= 0.45
    assert all(r.error_rate <= 1 / 3 for r in result.rows)


def test_run_scaling_statdiff_slope():
    result = run_scaling("statdiff", [10**3, 10**4, 10**5, 10**6], 0.5, trials=20, seed=9)
    assert 0.40 <= result.slope <= 0.60
    assert all(r.error_rate <= 1 / 3 for r in result.rows)


def _with_sweep(monkeypatch, tester, sweep):
    """Run ``tester``'s cases, test and budget over ``sweep`` instead of its own."""
    cases, test, budget_at, _ = harness._SCALING_TESTERS[tester]
    monkeypatch.setitem(harness._SCALING_TESTERS, tester, (cases, test, budget_at, sweep))


def test_run_scaling_excludes_saturated_smallest_point(monkeypatch):
    # a one-value sweep makes every chosen constant "saturated"; the smallest
    # size is then dropped from the fit (but still reported)
    _with_sweep(monkeypatch, "uniformity", (300.0,))
    ns = [10**3, 10**4, 10**5, 10**6, 4 * 10**6]
    result = run_scaling("uniformity", ns, 0.5, trials=15, seed=3)
    assert all(r.saturated for r in result.rows)
    smallest = next(r for r in result.rows if r.n == 10**3)
    assert not smallest.included_in_fit
    assert sum(r.included_in_fit for r in result.rows) == 4
    assert 0.2 <= result.slope <= 0.45


def test_run_scaling_short_fit_after_exclusion_is_a_runtime_error(monkeypatch):
    # every point is saturated, so the smallest n is dropped and 3 remain
    _with_sweep(monkeypatch, "uniformity", (300.0,))
    with pytest.raises(RuntimeError, match="4 points"):
        run_scaling("uniformity", [10**3, 10**4, 10**5, 10**6], 0.5, trials=5, seed=3)


def test_run_scaling_checks_n_values_before_any_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    with pytest.raises(ValueError, match="4 points"):
        run_scaling("uniformity", [1000, 10000], 0.5, trials=5, seed=0)


def test_run_scaling_calibration_failure(monkeypatch):
    _with_sweep(monkeypatch, "uniformity", (1e-6,))
    with pytest.raises(RuntimeError, match="calibration failed"):
        run_scaling(
            "uniformity", [10**3, 10**4, 10**5, 10**6], 0.5, trials=20, seed=2, target_error=0.0
        )


def test_run_scaling_unknown_tester():
    with pytest.raises(ValueError):
        run_scaling("nope", [1000, 10**4, 10**5, 10**6], 0.5, trials=5, seed=0)


# name -> (tester, instance or pair name, budget): every tester the CLI runs.
_TRIALS = {
    "est_dist": (testers.est_dist, "overlapping", testers.StatDiffParams(n=20, m_inner=40)),
    "uniformity_test": (testers.uniformity_test, "biased", testers.UniformityParams(epsilon=0.5)),
    "orthogonality_test": (
        testers.orthogonality_test, "overlapping", testers.OrthogonalityParams(epsilon=0.5)
    ),
    "classical_uniformity_test": (baselines.classical_uniformity_test, "biased", (60, 0.5)),
    "classical_statdiff_plugin": (baselines.classical_statdiff_plugin, "overlapping", (50,)),
    "classical_orthogonality_test": (
        baselines.classical_orthogonality_test, "overlapping", (20,)
    ),
}


@pytest.mark.parametrize("name", sorted(_TRIALS))
def test_run_trial_matches_a_direct_call(name):
    test, instance, budget = _TRIALS[name]
    if instance in harness.PAIRS:
        oracles = make_instance_pair(instance, 1000, 0.5)[:2]
    else:
        oracles = (make_instance(instance, 1000, 0.5),)
    rng, direct = np.random.default_rng(21), np.random.default_rng(21)
    got = harness.run_trial(test, oracles, budget, rng)

    if isinstance(budget, tuple):
        ledgers = [testers.QueryLedger() for _ in oracles]
        outcome = test(*oracles, *budget, direct, *ledgers)
    else:
        result = test(*oracles, budget, direct)
        ledgers = result.ledgers.values()
        outcome = result.estimate if name == "est_dist" else result.decision
    classical = sum(l.classical_samples for l in ledgers)
    quantum = sum(l.quantum_applications for l in ledgers)
    assert got == (outcome, classical, quantum)
    assert classical > 0 and (quantum > 0) == (not isinstance(budget, tuple))
    assert rng.bit_generator.state == direct.bit_generator.state


# ---------------------------------------------------------------------------
# CLI


def run_cli(args):
    return main(args)


def test_cli_determinism_across_subcommands(tmp_path, capsys):
    commands = {
        "estprob": ["estprob", "--pa", "0.25", "--trials", "50"],
        "estdist": ["estdist", "--n", "200", "--pair", "disjoint", "--trials", "3"],
        "uniformity": ["uniformity", "--n", "1000", "--trials", "10"],
        "orthogonality": ["orthogonality", "--n", "216", "--pair", "disjoint", "--trials", "10"],
        "b-uni": ["baseline-uniformity", "--n", "1000", "--trials", "10"],
        "b-sd": ["baseline-statdiff", "--n", "200", "--pair", "overlapping", "--trials", "5"],
        "b-orth": ["baseline-orthogonality", "--n", "400", "--pair", "identical", "--trials", "10"],
        "lb-collision": ["lb-collision", "--n", "64", "--trials", "10"],
        "lb-fingerprint": ["lb-fingerprint", "--n", "64", "--trials", "300"],
        "corollary": ["corollary", "--n", "1000000", "--a", "5", "--delta", "1e-4"],
    }
    for name, argv in commands.items():
        out1 = tmp_path / f"{name}_1.out"
        out2 = tmp_path / f"{name}_2.out"
        extra = [] if name == "corollary" else ["--seed", "9"]
        assert run_cli(argv + extra + ["--out", str(out1)]) == 0
        assert run_cli(argv + extra + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), name


def test_cli_uniformity_rate_column(tmp_path):
    out = tmp_path / "u.csv"
    assert run_cli(["uniformity", "--n", "10000", "--trials", "30", "--seed", "3",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[3] == "acceptance_rate"
    final_rate = float(lines[-1].split(",")[3])
    assert final_rate >= 2 / 3


def test_cli_scaling_outputs_slope(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli([
        "scaling", "--tester", "uniformity", "--n-values", "1e3,1e4,1e5,1e6",
        "--trials", "10", "--seed", "4", "--out", str(out),
    ]) == 0
    head = out.read_text().splitlines()[0]
    assert "slope=" in head
    slope = float([tok for tok in head.split() if tok.startswith("slope=")][0][6:])
    assert 0.13 <= slope <= 0.53  # ten trials only; the acceptance suite tightens this


def test_cli_scaling_n_values_are_counts(tmp_path, capsys):
    # An integer-valued token is that count; any other exits 2, not truncated.
    argv = ["scaling", "--tester", "uniformity-classical", "--trials", "1", "--seed", "1"]
    assert run_cli([*argv, "--n-values", "100.9,1000,10000,100000"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: n must be an integer >= 1, got 100.9\n"
    assert captured.out == ""
    written = []
    for i, n_values in enumerate(["1e3,1e4,1e5,1e6", "1000,10000,100000,1000000"]):
        out = tmp_path / f"{i}.csv"
        assert run_cli([*argv, "--n-values", n_values, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_cli_spec_file_and_override(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text("n=1000\ntrials=5\nseed=11\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["uniformity", "--spec", str(spec), "--out", str(out1)]) == 0
    assert run_cli(["uniformity", "--n", "1000", "--trials", "5", "--seed", "11",
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_spec_file_unknown_key(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["uniformity", "--spec", str(spec)])
    assert exc.value.code == 2


def test_cli_config_error_codes(tmp_path, capsys):
    # unknown flag: argparse exits 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["uniformity", "--bogus"])
    assert exc.value.code == 2
    # missing spec file: config error return
    assert run_cli(["uniformity", "--spec", str(tmp_path / "missing.spec")]) == 2
    # infeasible instance parameters: config error return
    assert run_cli(["uniformity", "--n", "999", "--instance", "biased"]) == 2
    # malformed instance files: an empty or two-token kind, a negative table size
    capsys.readouterr()
    for text in ("kind \n2 2\n0\n1\n", "kind a b\n2 2\n0\n1\n", "4 -1\n"):
        inst = tmp_path / "bad-instance.txt"
        inst.write_text(text)
        assert run_cli(["uniformity", "--instance-file", str(inst), "--trials", "1"]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


# Each argv's default counts cannot be represented; each runs with --trials 1.
_UNRUNNABLE = {
    "uniformity-paper-rounds": "uniformity --n 1000 --mode paper --seed 0",  # L = inf
    "estdist-paper-eps": "estdist --mode paper --eps 1e-55 --pair identical",  # eps^6 = 0
    "estdist-paper-tau": "estdist --mode paper --tau 1e-90 --pair identical",  # tau^4 = 0
    "uniformity-practical-samples": "uniformity --eps 1e-240",  # M overflows
    "uniformity-paper-samples": "uniformity --mode paper --eps 1e-78",  # M overflows
    "uniformity-paper-eps": "uniformity --mode paper --eps 1e-82",  # eps^4 = 0
    "orthogonality-samples": "orthogonality --eps 1e-320",  # ceil(N^(1/3) / eps) overflows
    "baseline-uniformity-eps": "baseline-uniformity --eps 1e-200",  # eps^2 = 0
}


@pytest.mark.parametrize("argv", _UNRUNNABLE.values(), ids=_UNRUNNABLE.keys())
def test_cli_runtime_error_code(argv, capsys):
    # a count its formula cannot represent is refused before the first draw
    assert run_cli([*argv.split(), "--trials", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("runtime error: ") and err.count("\n") == 1, err


def test_cli_explicit_counts_win_over_unrepresentable_formulas(capsys):
    # tau^4 underflows to 0, but explicit counts leave the formulas unread
    assert run_cli(["estdist", "--mode", "paper", "--eps", "0.5", "--tau", "1e-90",
                    "--samples", "5", "--m-inner", "5", "--pair", "identical",
                    "--trials", "1"]) == 0


def test_cli_instance_file_fixture(tmp_path):
    # an instance saved to the plain-text format reproduces the same run
    inst = tmp_path / "inst.txt"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(["uniformity", "--n", "1000", "--instance", "biased",
                    "--trials", "5", "--seed", "3",
                    "--save-instance", str(inst), "--out", str(out1)]) == 0
    assert run_cli(["uniformity", "--n", "1000", "--instance-file", str(inst),
                    "--trials", "5", "--seed", "3", "--out", str(out2)]) == 0
    rows1 = out1.read_text().splitlines()[2:]
    rows2 = out2.read_text().splitlines()[2:]
    assert rows1 == rows2


def test_cli_estdist_paper_mode_runs_at_billions_of_queries(tmp_path):
    # 27 / (tau eps^2) = 8100 samples, each estimated on both oracles with
    # m = ceil(c sqrt(1000) / (eps^6 tau^4)) = 4,307,819,677 queries
    out = tmp_path / "p.csv"
    assert run_cli(["estdist", "--mode", "paper", "--eps", "0.1", "--trials", "1",
                    "--seed", "5", "--out", str(out)]) == 0
    columns, row = out.read_text().splitlines()[1:]
    row = dict(zip(columns.split(","), row.split(",")))
    assert int(row["classical"]) == 8100
    assert int(row["quantum"]) == 2 * 8100 * 4_307_819_677
    assert abs(float(row["estimate"]) - float(row["target"])) < 0.1


def test_cli_instance_file_reproduces_runs_over_seeds(tmp_path):
    inst = tmp_path / "inst.txt"
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for seed in range(10):
        common = ["--trials", "5", "--seed", str(seed)]
        assert run_cli(["uniformity", "--n", "1000", "--instance", "half_support", *common,
                        "--save-instance", str(inst), "--out", str(out1)]) == 0
        assert inst.read_text().startswith("kind half_support\n")
        assert run_cli(["uniformity", "--instance-file", str(inst), *common,
                        "--out", str(out2)]) == 0
        # same rows, and a header naming the file's instance, not the flag's default
        assert out1.read_text() == out2.read_text(), seed


def test_cli_rejects_non_positive_counts():
    for argv in (["uniformity", "--samples", "0"], ["uniformity", "--k", "-1"],
                 ["uniformity", "--repeats", "0"], ["orthogonality", "--k", "0"],
                 ["baseline-uniformity", "--samples", "0"],
                 ["baseline-statdiff", "--samples", "0"],
                 ["baseline-orthogonality", "--samples", "0"],
                 ["estdist", "--m-inner", "0"]):
        assert run_cli([*argv, "--n", "1000", "--trials", "1"]) == 2, argv
    assert run_cli(["estprob", "--m", "0", "--trials", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["estprob", "--trials", "0"],
    ["estdist", "--n", "100", "--samples", "0", "--trials", "1"],
    ["baseline-uniformity", "--n", "100", "--eps", "0", "--trials", "1"],
    ["uniformity", "--n", "1000", "--trials", "-3"],
    ["calibrate", "--trials", "0"],
    ["scaling", "--trials", "0"],
    ["lb-collision", "--trials", "0"],
    ["scaling", "--tester", "uniformity", "--target-error", "-1", "--trials", "1",
     "--n-values", "1e2,1e3,1e4,1e5"],
    ["scaling", "--tester", "uniformity", "--target-error", "nan", "--trials", "1",
     "--n-values", "1e2,1e3,1e4,1e5"],
    ["estdist", "--eps", "inf"],
    ["uniformity", "--instance", "biased", "--eps", "inf"],
    ["orthogonality", "--pair", "overlapping", "--eps", "inf"],
    ["baseline-uniformity", "--eps", "inf"],
    ["lb-fingerprint", "--n", "100", "--trials", "2", "--delta", "nan"],
    ["uniformity", "--eps", "inf", "--trials", "2"],
    ["uniformity", "--eps", "nan", "--trials", "2"],
    ["orthogonality", "--eps", "inf", "--trials", "2"],
    ["orthogonality", "--eps", "nan", "--trials", "2"],
    ["estprob", "--c", "inf"],
    ["estprob", "--delta", "inf"],
    ["estprob", "--delta", "nan"],
    ["estprob", "--pa", "nan"],
    ["corollary", "--delta", "nan"],
    ["corollary", "--delta", "inf"],
    ["lb-fingerprint", "--n", "100", "--trials", "2", "--delta", "inf"],
    ["lb-fingerprint", "--n", "100", "--m", "1000000", "--trials", "20"],
    ["estprob", "--c", "1e200", "--trials", "2"],
    ["estprob", "--m", "10000000000000000000000", "--trials", "2"],
    ["estprob", "--delta", "5e-324", "--trials", "2"],
    ["estprob", "--m", "10", "--delta", "nan", "--trials", "3"],
    ["estprob", "--m", "10", "--omega", "nan", "--trials", "3"],
])
def test_cli_invalid_counts_are_config_errors(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv, message", [
    (["estprob", "--c", "inf", "--trials", "2"], "c must be positive and finite, got inf"),
    (["estprob", "--c", "1e308", "--trials", "2"], "query count overflows at c=1e+308, delta=0.05"),
    (["estprob", "--delta", "nan", "--trials", "2"], "delta must be positive and finite, got nan"),
    (["estprob", "--pa", "nan", "--trials", "2"], "--pa must lie in [0, 1], got nan"),
    (["corollary", "--delta", "inf"], "delta must be positive and finite, got inf"),
    (["estprob", "--m", "10", "--delta", "nan", "--trials", "3"],
     "delta must be positive and finite, got nan"),
    (["estprob", "--m", "10", "--omega", "nan", "--trials", "3"], "omega must lie in (0, 1/2], got nan"),
])
def test_non_finite_values_are_named(argv, message, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _parse_error(argv, capsys) -> str:
    """stderr of an argv that argparse rejects (exit code 2)."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2, argv
    return capsys.readouterr().err


def test_cli_help_before_a_subcommand_is_the_top_level_help(capsys):
    texts = []
    for argv in (["--help"], ["-h", "estdist"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr())
    assert texts[0] == texts[1]
    assert "{estprob,estdist,uniformity," in texts[0].out


def test_cli_unknown_flag_before_a_subcommand_is_the_only_one_reported(capsys):
    err = _parse_error(["--bogus", "estdist", "--n", "5"], capsys)
    assert err.startswith("usage: qdisttest [-h]")
    assert err.endswith("\nqdisttest: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cli_flag_errors_print_the_subcommand_usage(name, capsys):
    exp = EXPERIMENTS[name]
    seeded = ["--seed", "--trials"] if exp.trials else []
    usage, prefix = f"usage: qdisttest {name} [-h]", f"qdisttest {name}: error: argument"
    for flag in [*(f for f, _ in exp.flags), *seeded, "--out"]:
        err = _parse_error([name, flag], capsys)
        assert err.startswith(usage) and err.endswith(f"{prefix} {flag}: expected one argument\n")
    for flag, kw in exp.flags:
        if "choices" in kw:
            err = _parse_error([name, flag, "nope"], capsys)
            assert err.startswith(usage) and f"{prefix} {flag}: invalid choice: 'nope'" in err


def test_non_finite_eps_names_epsilon(capsys):
    for command in ("uniformity", "orthogonality"):
        for eps in ("inf", "nan"):
            assert run_cli([command, "--eps", eps, "--trials", "2"]) == 2
            err = capsys.readouterr().err
            assert err == f"config error: epsilon must be positive and finite, got {eps}\n", (command, eps)


LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from qdisttest.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_limited(argv, tmp_path):
    """The CLI in a child process whose address space is capped at 2 GiB."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", LIMITED, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [
    ["uniformity", "--instance", "biased"],
    ["orthogonality", "--pair", "overlapping"],
    ["estdist", "--pair", "overlapping"],
    ["baseline-orthogonality"],
    ["lb-fingerprint"],
])
def test_cli_runs_at_a_billion_elements_in_2_gib(argv, tmp_path):
    # every instance is a few blocks, so nothing is as long as the domain
    done = run_limited([*argv, "--n", "1000000000", "--trials", "2", "--out", "o.csv"], tmp_path)
    assert done.returncode == 0, done.stderr
    header = "quantity," if argv[0] == "lb-fingerprint" else "trial,"
    assert (tmp_path / "o.csv").read_text().splitlines()[1].startswith(header)


def test_cli_out_of_memory_is_a_runtime_error(tmp_path):
    # m = n = 1e9 draws need 7.45 GiB; run only under the address-space cap
    done = run_limited(["baseline-statdiff", "--n", "1000000000", "--trials", "1"], tmp_path)
    assert done.returncode == 3
    assert done.stderr.startswith("runtime error: ")


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Subcommands:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([a-z-]+)`", listed) == list(EXPERIMENTS)


def test_readme_library_tour_names_exist():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in tour.splitlines() if line.startswith("| `qdisttest.")]
    assert len(rows) == 6
    for row in rows:
        module, contents = row.strip("|").split("|", 1)
        mod = importlib.import_module(module.strip(" `"))
        for name in re.findall(r"`(\w+)`", contents):
            assert hasattr(mod, name), (module, name)


def test_cli_estprob_coverage(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert run_cli(["estprob", "--pa", "0.1", "--delta", "0.02", "--omega", "0.1",
                    "--trials", "400", "--seed", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    within = [int(l.split(",")[3]) for l in lines[2:]]
    assert sum(within) / len(within) >= 0.9
