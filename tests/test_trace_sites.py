"""The benchmark's tracer patches package functions by name, where their
callers look them up; a refactor that drops one of those names must fail
here, not only in a traced benchmark run."""

import importlib
import types
from pathlib import Path

import pytest

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"


def load_trace_layers() -> types.ModuleType:
    # executed from its source text, so no bytecode cache is written beside it
    module = types.ModuleType("trace_layers")
    module.__file__ = str(TRACE_LAYERS)
    exec(compile(TRACE_LAYERS.read_text(), str(TRACE_LAYERS), "exec"), module.__dict__)
    return module


PLACES = sorted(
    {place for _, places, _ in load_trace_layers().sites() for place in places}
)


@pytest.mark.parametrize("module_name, attr", PLACES, ids=[f"{m}.{a}" for m, a in PLACES])
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"ghzdist.{module_name}")
    assert callable(getattr(module, attr, None))
