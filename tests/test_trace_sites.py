"""The benchmark's tracer patches package functions by name, where their
callers look them up; a refactor that drops one of those names, or stops
calling a switch phase through it, must fail here, not only in a traced
benchmark run."""

import importlib
import types
from pathlib import Path

import pytest

from ghzdist import switch
from ghzdist.params import SimParams

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


PHASES = ("advance_to_link_event", "do_switch_bsms", "do_fusions", "run_to_ghz")


def uncalled_phases(monkeypatch) -> list[str]:
    """The switch phases that a 3-delivery ``estimate_switch`` never calls by
    their module name, each wrapped there by a counting patch as the tracer
    and the benchmark gate's delivery tap wrap them."""
    counts = dict.fromkeys(PHASES, 0)
    for name in PHASES:
        def counted(*args, _name=name, _phase=getattr(switch, name)):
            counts[_name] += 1
            return _phase(*args)
        monkeypatch.setattr(switch, name, counted)
    switch.estimate_switch(SimParams(n_end_nodes=4, q_link=0.3, q_bsm=0.9, shots=3, seed=5))
    return [name for name in PHASES if counts[name] == 0]


def test_switch_phases_are_called_by_name(monkeypatch):
    assert uncalled_phases(monkeypatch) == []


def test_phases_bound_at_definition_are_caught(monkeypatch):
    # negative control: a run_to_ghz whose phases were bound when it was
    # defined, as local or default-argument aliases would bind them
    bound = types.FunctionType(switch.run_to_ghz.__code__, dict(vars(switch)))
    monkeypatch.setattr(switch, "run_to_ghz", bound)
    assert uncalled_phases(monkeypatch) == [
        "advance_to_link_event", "do_switch_bsms", "do_fusions",
    ]
