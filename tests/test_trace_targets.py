"""The names perfbench's traced run wraps exist in the program.

``perfbench/tracing.py`` wraps each span's first ``(module, attribute)``
target and assigns that wrapper to the others, so a target the program no
longer defines would be added silently and its layer would read 0.  This
reads the span table from the file without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracing()


def _resolve(mod, attr):
    module = importlib.import_module(f"qdisttest.{mod}")
    assert hasattr(module, attr), f"qdisttest.{mod} has no {attr}"
    return getattr(module, attr)


@pytest.mark.parametrize("name", sorted(_T.SPANS))
def test_span_targets_are_one_function(name):
    targets = [_resolve(mod, attr) for mod, attr in _T.SPANS[name]]
    assert all(callable(t) for t in targets)
    assert all(t is targets[0] for t in targets), name


@pytest.mark.parametrize("mod, attr", _T.ROUND_FUNCTIONS)
def test_round_functions_resolve(mod, attr):
    assert callable(_resolve(mod, attr))
