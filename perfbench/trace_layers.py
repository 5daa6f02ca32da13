"""Timing spans around the package's public functions, from outside it.

Each traced function is replaced where its caller looks it up (for example
``ghzdist.factory.shot_rng`` and ``ghzdist.dm.tensor``), so calls between
``dm`` kernels nest.  A span records its name, start, end, parent span and
point id into flat in-memory arrays; self times (a span's duration minus
that of its children) are derived once the traced phase is over, and the
spans can be written out with ``Tracer.save``.  Counts are taken from the
values the traced functions return; pairs per delivery come from the gate's
``DeliveryTap`` instead.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("params", "analytics", "factory", "switch", "dm", "cli")
DM_KERNELS = (
    "tensor", "depolarize", "bsm", "fuse", "apply_unitary", "partial_trace",
    "project_bell", "project_z", "pauli_correct", "fidelity_to_ghz",
)


def _count_attempts(counts, args, result):
    counts["factory.teleport_attempts"] += result.teleport_attempts


def _count_links(counts, args, result):
    counts["switch.link_events"] += len(result)


def _count_bsms(counts, args, result):
    for event in result:
        counts["switch.bsm_ok" if event[3] else "switch.bsm_failed"] += 1


def _count_fusions(counts, args, result):
    counts["switch.fusions"] += len(result)


def _dm_counter(kernel: str):
    """Bytes of the density matrices a kernel reads and returns (computed
    from their sizes, not measured), and the widest register seen."""
    from ghzdist.dm import DensityMatrix

    key = f"dm.{kernel}.bytes"

    def count(counts, args, result):
        out = result[-1] if isinstance(result, tuple) else result
        for m in (*args, out):
            if isinstance(m, DensityMatrix):
                counts[key] += m.mat.nbytes
                if m.num_qubits > counts["dm.max_qubits"]:
                    counts["dm.max_qubits"] = m.num_qubits
    return count


def sites():
    """(span name, [(module, attribute where callers look it up)], counter)."""
    table = [
        ("params.shot_rng", [("factory", "shot_rng"), ("switch", "shot_rng")], None),
        ("params.sample_geometric",
         [("factory", "sample_geometric"), ("switch", "sample_geometric")], None),
        ("analytics.f_rand", [("factory", "f_rand")], None),
        ("analytics.fidelity_closed_form", [("analytics", "fidelity_closed_form")], None),
        ("analytics.g_value", [("analytics", "g_value")], None),
        ("analytics.rate_exact", [("analytics", "rate_exact")], None),
        ("analytics.rate_leading", [("analytics", "rate_leading")], None),
        ("factory.estimate", [("factory", "estimate"), ("cli", "estimate")], None),
        ("factory.run_shot_fast", [("factory", "run_shot_fast")], _count_attempts),
        ("factory.summarize", [("factory", "summarize"), ("switch", "summarize")], None),
        ("switch.estimate_switch",
         [("switch", "estimate_switch"), ("cli", "estimate_switch")], None),
        ("switch.link", [("switch", "advance_to_link_event")], _count_links),
        ("switch.bsm", [("switch", "do_switch_bsms")], _count_bsms),
        ("switch.fusion", [("switch", "do_fusions")], _count_fusions),
        ("switch.readout", [("switch", "run_to_ghz")], None),
        ("cli.main", [("cli", "main")], None),
    ]
    table += [(f"dm.{k}", [("dm", k)], _dm_counter(k)) for k in DM_KERNELS]
    return table


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in ("params.shot_rng", "params.sample_geometric", "analytics.f_rand",
                 "factory.run_shot_fast"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["factory.summarize.self_s"] = "s"
    units["factory.attempts_per_shot"] = "attempts/shot"
    for phase in ("link", "bsm", "fusion", "readout"):
        units[f"switch.{phase}.calls"] = "count"
        units[f"switch.{phase}.self_s"] = "s"
    units.update({
        "switch.link_events": "count",
        "switch.bsm_ok": "count",
        "switch.bsm_failed": "count",
        "switch.bsm_success_ratio": "frac",
        "switch.fusions": "count",
        "switch.pairs_per_delivery": "pairs/delivery",
        "switch.loop_iters_per_delivery": "iters/delivery",
    })
    for k in DM_KERNELS:
        units[f"dm.{k}.calls"] = "count"
        units[f"dm.{k}.self_s"] = "s"
        units[f"dm.{k}.bytes_computed"] = "B"
    units["dm.max_qubits"] = "qubits"
    units.update({
        "analytics.fidelity_closed_form.calls": "count",
        "analytics.fidelity_closed_form.self_s": "s",
        "analytics.g_value.calls": "count",
        "analytics.rate_exact.self_s": "s",
        "cli.main.self_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "frac"
        units[f"{layer}.errors"] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


PER_LAYER = _per_layer_units()


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was counted (the layer did not run)."""
    return num / den if den else 0.0


class Tracer:
    """Installs spans while in a ``with`` block; restores the package on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.point = array("i")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.counts: Counter = Counter()
        self.point_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    @property
    def span_count(self) -> int:
        return len(self.start)

    def __enter__(self):
        for span, places, counter in sites():
            for module_name, attr in places:
                module = importlib.import_module(f"ghzdist.{module_name}")
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, span: str, fn, counter):
        if span not in self.names:
            self.names.append(span)
        sid = self.names.index(span)
        name_id, parent, point = self.name_id, self.parent, self.point
        start, end, failed, stack = self.start, self.end, self.failed, self._stack
        counts, clock = self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            point.append(self.point_id)
            start.append(0)
            end.append(0)
            failed.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children, ns."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return dur - children

    def metrics(self, traced_wall_s: float, pairs: list[int]) -> dict[str, float]:
        """Per-layer metrics; ``traced_wall_s`` is the traced points' time
        and ``pairs`` the pairs consumed by each of their switch deliveries."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        n_names = len(self.names)
        calls = np.bincount(ids, minlength=n_names)
        self_s = np.bincount(ids, weights=self.self_times(), minlength=n_names) / 1e9
        errors = np.bincount(ids, weights=np.frombuffer(self.failed, dtype=np.int8),
                             minlength=n_names)
        by_name = {name: (int(calls[i]), float(self_s[i]), int(errors[i]))
                   for i, name in enumerate(self.names)}
        c = self.counts
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if span in by_name and field in ("calls", "self_s"):
                out[metric] = by_name[span][0 if field == "calls" else 1]
        for k in DM_KERNELS:
            out[f"dm.{k}.bytes_computed"] = c[f"dm.{k}.bytes"]
        out["dm.max_qubits"] = c["dm.max_qubits"]
        out["factory.attempts_per_shot"] = _ratio(
            c["factory.teleport_attempts"], by_name["factory.run_shot_fast"][0])
        for key in ("link_events", "bsm_ok", "bsm_failed", "fusions"):
            out[f"switch.{key}"] = c[f"switch.{key}"]
        out["switch.bsm_success_ratio"] = _ratio(
            c["switch.bsm_ok"], c["switch.bsm_ok"] + c["switch.bsm_failed"])
        out["switch.pairs_per_delivery"] = _ratio(sum(pairs), len(pairs))
        out["switch.loop_iters_per_delivery"] = _ratio(by_name["switch.link"][0], len(pairs))
        for layer in LAYERS:
            spans = [v for name, v in by_name.items() if name.split(".")[0] == layer]
            out[f"{layer}.self_share"] = _ratio(sum(v[1] for v in spans), traced_wall_s)
            out[f"{layer}.errors"] = sum(v[2] for v in spans)
        return out

    def save(self, path) -> None:
        """Write every span: names[name_id], start/end in perf_counter ns,
        parent span index (-1 at the top) and point id."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            point=np.frombuffer(self.point, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )
