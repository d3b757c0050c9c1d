"""Reachability census of ``src/qdisttest`` under the program's own callers.

Runs every golden CLI case (through ``tests/test_cli_golden.run_case``), every
demo in ``demos/``, every n = 1e9 argv of ``tools/scale_argvs.txt`` (the list
CI runs in a 2 GiB address space) and the first ops of each workload in
``perfbench/worker.py``'s ``WORKLOADS``, in this process, under
``sys.settrace``.  Then it prints, per module, its size (``wc -l`` lines and
Python tokens, counted by ``tokenize`` without comments, newlines, indents
and dedents, and the encoding and end markers), the executable lines (from
the compiled line tables) and the ones no caller reached, with totals.  Last
it prints the functions and classes named in a module's ``__all__`` that no
caller reached (a function whose code never ran, a class none of whose
methods ran and that was never built), and the public methods and
properties, dunders included, of the classes named there that no caller
ran.  Constants, re-exported names and generated (dataclass) methods are
not listed.  The census reports and never fails.

    python tools/census.py
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import runpy
import sys
import tempfile
import tokenize
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdisttest"
PREFIX = str(PACKAGE) + os.sep
WORKLOAD_OPS = 2  # the estdist workload alternates two pairs
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}

reached: dict[str, set[int]] = {}  # file -> lines that ran
entered: set[types.CodeType] = set()  # code objects of the package that ran
built: set[type] = set()  # classes whose generated (dataclass) __init__ ran


def _lines(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(PREFIX):
        entered.add(code)
        reached.setdefault(code.co_filename, set()).add(frame.f_lineno)
        return _lines
    if code.co_name == "__init__" and code.co_filename == "<string>" and "self" in frame.f_locals:
        built.add(type(frame.f_locals["self"]))
    return None


def executable_lines(code: types.CodeType) -> set[int]:
    """Every line in ``code``'s line table and in those of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def ranges(lines) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def quiet() -> contextlib.ExitStack:
    """A context that discards what the callers print."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def run_callers() -> None:
    """The golden CLI cases, the demos, the n = 1e9 argvs and the first ops of
    each perfbench workload, with their output discarded."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    os.environ["COLUMNS"] = "100"  # the width the golden cases were recorded at
    from test_cli_golden import CASES, run_case
    from worker import WORKLOADS, child_rng, load_program

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            run_case(name, Path(tmp))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with quiet():
            runpy.run_path(str(demo), run_name="__main__")
    program = load_program()
    for line in (ROOT / "tools" / "scale_argvs.txt").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        with quiet():
            code = program["cli"].main(line.split())
        if code != 0:
            print(f"exit {code}: {line}")
    for kind in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as tmp, quiet():
            workload = kind(program, 1, Path(tmp))
            for g in range(WORKLOAD_OPS):
                workload.record(g, workload.run(g, child_rng(1, 2, g)))


def tokens(path: Path) -> int:
    """Python tokens of ``path``, without the ``UNCOUNTED`` kinds."""
    with open(path, "rb") as fh:
        return sum(t.type not in UNCOUNTED for t in tokenize.tokenize(fh.readline))


def public(attr: str) -> bool:
    """A public name or a dunder, not a ``_private`` one."""
    return not attr.startswith("_") or attr.startswith("__") and attr.endswith("__")


def methods(cls: type) -> dict[str, types.CodeType]:
    """The code of each method and property getter written in ``cls``'s body."""
    found = {}
    for attr, value in vars(cls).items():
        func = getattr(value, "__func__", getattr(value, "fget", value))
        if isinstance(func, types.FunctionType) and func.__code__.co_filename.startswith(PREFIX):
            found[attr] = func.__code__
    return found


def unreached_names(module) -> tuple[list[str], list[str]]:
    """The public names of ``module`` no caller reached, and the public
    methods (dunders included) of its public classes that no caller ran."""
    names, members = [], []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # a constant or a re-export
        if isinstance(obj, types.FunctionType):
            if obj.__code__ not in entered:
                names.append(name)
        elif isinstance(obj, type):
            codes = methods(obj)
            if obj not in built and not set(codes.values()) & entered:
                names.append(name)
            members += [f"{name}.{attr}" for attr, code in codes.items()
                        if code not in entered and public(attr)]
    return names, members


def main() -> int:
    sys.settrace(_calls)
    try:
        run_callers()
    finally:
        sys.settrace(None)
    print(f"{'module':<18}{'lines':>6}{'tokens':>7}{'executable':>11}{'unreached':>10}"
          "  unreached lines")
    totals = [0, 0, 0, 0]
    unused, members = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = executable_lines(compile(text, str(path), "exec"))
        left = lines - reached.get(str(path), set())
        row = [text.count("\n"), tokens(path), len(lines), len(left)]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{path.name:<18}{row[0]:>6}{row[1]:>7}{row[2]:>11}{row[3]:>10}  {ranges(left)}")
        module = importlib.import_module(
            "qdisttest" if path.stem == "__init__" else f"qdisttest.{path.stem}"
        )
        names, methods_left = unreached_names(module)
        unused += [f"{module.__name__}.{name}" for name in names]
        members += [f"{module.__name__}.{name}" for name in methods_left]
    print(f"{'total':<18}{totals[0]:>6}{totals[1]:>7}{totals[2]:>11}{totals[3]:>10}")
    print("public names no caller reached:", ", ".join(unused) or "none")
    print("public methods no caller reached:", ", ".join(members) or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
