"""Golden CLI outputs: exit code, stdout, stderr and written files, byte for byte.

Each case runs one or more argvs in a fresh directory; ``{tmp}`` in an argv
(and in the recorded streams) stands for that directory.  The fixture
``tests/data/cli_golden.json`` is regenerated with

    PYTHONPATH=src python tests/test_cli_golden.py

and only together with an ``rng_stream`` or CSV schema bump recorded in
``CHANGES.md``: any other difference is a change in CLI behaviour.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from qdisttest.cli import main

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"
COLUMNS = "100"  # argparse wraps usage and help to the terminal width

# name -> (files to create first, argvs run in order)
CASES = {
    "estprob-stdout": ({}, [["estprob", "--pa", "0.25", "--trials", "5", "--seed", "1"]]),
    "estprob-overrides": ({}, [["estprob", "--pa", "0.1", "--m", "40", "--c", "2.0", "--delta", "0.1",
                                "--omega", "0.2", "--trials", "4", "--seed", "2", "--out", "{tmp}/e.csv"]]),
    "estdist": ({}, [["estdist", "--n", "200", "--pair", "disjoint", "--trials", "2", "--seed", "3"]]),
    "estdist-explicit": ({}, [["estdist", "--n", "100", "--samples", "20", "--m-inner", "30",
                               "--tau", "0.25", "--trials", "2", "--seed", "4"]]),
    "estdist-paper": ({}, [["estdist", "--mode", "paper", "--eps", "0.1", "--trials", "1",
                            "--seed", "5", "--out", "{tmp}/p.csv"]]),
    "uniformity": ({}, [["uniformity", "--n", "1000", "--trials", "5", "--seed", "3"]]),
    "uniformity-explicit": ({}, [["uniformity", "--n", "1000", "--eps", "0.4", "--samples", "3",
                                  "--k", "50", "--repeats", "2", "--trials", "4", "--seed", "6"]]),
    "uniformity-instance-file": ({}, [
        ["uniformity", "--n", "100", "--instance", "half_support", "--trials", "4", "--seed", "3",
         "--save-instance", "{tmp}/inst.txt", "--out", "{tmp}/a.csv"],
        ["uniformity", "--instance-file", "{tmp}/inst.txt", "--trials", "4", "--seed", "3",
         "--out", "{tmp}/b.csv"],
    ]),
    "uniformity-spec": ({"run.spec": "n=1000\ntrials=3\nseed=11\n"},
                        [["uniformity", "--spec", "{tmp}/run.spec", "--seed", "12"]]),
    "uniformity-spec-missing": ({}, [["uniformity", "--spec", "{tmp}/missing.spec"]]),
    "uniformity-spec-unknown-key": ({"bad.spec": "bogus=1\n"},
                                    [["uniformity", "--spec", "{tmp}/bad.spec"]]),
    "uniformity-infeasible-instance": ({}, [["uniformity", "--n", "999", "--instance", "biased"]]),
    "uniformity-paper-runtime-error": ({}, [["uniformity", "--n", "1000", "--mode", "paper",
                                             "--trials", "1", "--seed", "0"]]),
    "orthogonality": ({}, [["orthogonality", "--n", "216", "--pair", "disjoint", "--trials", "5",
                            "--seed", "9"]]),
    "orthogonality-explicit": ({}, [["orthogonality", "--n", "100", "--pair", "overlapping",
                                     "--samples", "5", "--k", "10", "--rounds", "2",
                                     "--trials", "4", "--seed", "9"]]),
    "baseline-uniformity": ({}, [["baseline-uniformity", "--n", "1000", "--trials", "5",
                                  "--seed", "9", "--out", "{tmp}/bu.csv"]]),
    "baseline-uniformity-explicit": ({}, [["baseline-uniformity", "--n", "1000", "--instance",
                                           "biased", "--samples", "100", "--trials", "4",
                                           "--seed", "9"]]),
    "baseline-statdiff": ({}, [["baseline-statdiff", "--n", "200", "--trials", "3", "--seed", "9"]]),
    "baseline-statdiff-explicit": ({}, [["baseline-statdiff", "--n", "200", "--pair", "identical",
                                         "--samples", "50", "--trials", "3", "--seed", "9"]]),
    "baseline-orthogonality": ({}, [["baseline-orthogonality", "--n", "400", "--pair", "identical",
                                     "--trials", "5", "--seed", "9"]]),
    "baseline-orthogonality-explicit": ({}, [["baseline-orthogonality", "--n", "400",
                                              "--samples", "30", "--trials", "5", "--seed", "9"]]),
    "scaling": ({}, [["scaling", "--tester", "uniformity-classical", "--n-values", "1e2,1e3,1e4,1e5",
                      "--trials", "3", "--seed", "4", "--out", "{tmp}/s.csv"]]),
    "scaling-statdiff": ({}, [["scaling", "--tester", "statdiff", "--n-values", "1e2,1e3,1e4,1e5",
                               "--target-error", "0.2", "--trials", "2", "--seed", "4"]]),
    "calibrate-stdout": ({}, [["calibrate", "--trials", "100", "--seed", "1"]]),
    "calibrate-out": ({}, [["calibrate", "--trials", "100", "--seed", "1", "--out", "{tmp}/cal.txt"]]),
    "calibrate-runtime-error": ({}, [["calibrate", "--trials", "20", "--seed", "1"]]),
    "lb-collision": ({}, [["lb-collision", "--n", "64", "--trials", "5", "--seed", "2"]]),
    "lb-collision-one-to-one": ({}, [["lb-collision", "--n", "64", "--kind", "one-to-one",
                                      "--trials", "3", "--seed", "2"]]),
    "lb-fingerprint": ({}, [["lb-fingerprint", "--n", "64", "--trials", "50", "--seed", "2"]]),
    "lb-fingerprint-explicit": ({}, [["lb-fingerprint", "--n", "64", "--m", "2.0", "--delta", "0.1",
                                      "--trials", "50", "--seed", "2"]]),
    "corollary": ({}, [["corollary"]]),
    "corollary-out": ({}, [["corollary", "--n", "1000000", "--a", "5", "--delta", "1e-4",
                            "--out", "{tmp}/c.txt"]]),
    "unknown-flag": ({}, [["estdist", "--bogus"]]),
    "no-subcommand": ({}, [[]]),
    "help": ({}, [["--help"]]),
}
# Every flag at its default but a small --trials, which pins the defaults.
DEFAULTS = {"estprob": "3", "estdist": "1", "uniformity": "2", "orthogonality": "2",
            "baseline-uniformity": "2", "baseline-statdiff": "1", "baseline-orthogonality": "2",
            "scaling": "2", "lb-collision": "2", "lb-fingerprint": "20"}
CASES.update({f"{name}-defaults": ({}, [[name, "--trials", trials]])
              for name, trials in DEFAULTS.items()})
# Help pins each subcommand's flags, defaults and help texts.  corollary's is
# left out: its --out and --spec carry the help text the others share.
HELP = ["estprob", "estdist", "uniformity", "orthogonality", "baseline-uniformity",
        "baseline-statdiff", "baseline-orthogonality", "scaling", "calibrate",
        "lb-collision", "lb-fingerprint"]
CASES.update({f"help-{name}": ({}, [[name, "--help"]]) for name in HELP})
# Usage and help text are laid out by argparse, whose layout changes between
# Python versions; these cases are compared on the version that recorded them.
ARGPARSE_CASES = {"help", "unknown-flag", "no-subcommand", "uniformity-spec-unknown-key",
                  *(f"help-{name}" for name in HELP)}
RECORDED_ON = (3, 11)


def _snapshot(tmp: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(tmp.iterdir())}


def run_case(name: str, tmp: Path) -> list[dict]:
    """Run one case in ``tmp``; per step, the argv, exit code, streams and
    the files the step wrote or changed, with ``tmp`` written as ``{tmp}``.
    Warnings are recorded by message, without the source line they name."""
    files, argvs = CASES[name]
    for fname, text in files.items():
        (tmp / fname).write_text(text)
    steps = []
    for argv in argvs:
        before = _snapshot(tmp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([a.replace("{tmp}", str(tmp)) for a in argv])
            except SystemExit as exc:
                code = exc.code
        after = _snapshot(tmp)
        steps.append({
            "argv": argv,
            "code": code,
            "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
            "files": {k: v for k, v in after.items() if before.get(k) != v},
            "warnings": [str(w.message) for w in caught],
        })
    return steps


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, monkeypatch):
    if name in ARGPARSE_CASES and sys.version_info[:2] != RECORDED_ON:
        pytest.skip(f"argparse layout is pinned on Python {RECORDED_ON}")
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = json.loads(FIXTURE.read_text())[name]
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    import os
    import tempfile

    os.environ["COLUMNS"] = COLUMNS
    golden = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            golden[case] = run_case(case, Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {FIXTURE}", file=sys.stderr)
