"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench -q

Run from the root of a source checkout.
"""

import copy
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, END_TO_END, load_package, main, run, tail  # noqa: E402

load_package()

import ghzdist.switch  # noqa: E402
import workloads  # noqa: E402
from trace_layers import PER_LAYER  # noqa: E402

TINY = {"factory": 200, "switch": 20}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed=3, references=None, shots=TINY):
    cycle = workloads.resized(workloads.CYCLES[name], shots)
    return workloads.Workload(name, seed, references=references, cycle=cycle)


def run_tiny(name, trace=False, **kwargs):
    return run(tiny(name, **kwargs), seconds=0.0, trace=trace, probes=1)


def test_declared_metrics_are_the_ones_computed():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.CYCLES)


@pytest.mark.parametrize("name, trace, declared",
                         [("factory_fig5", 0, "end_to_end"), ("switch_fig5", 1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(capsys, name, trace, declared):
    code = main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    assert printed == want
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4


@pytest.mark.parametrize("name", list(workloads.CYCLES))
def test_tiny_run_passes_gate_and_reports_every_metric(name):
    metrics, units, _, points = run_tiny(name)
    assert units == END_TO_END and set(metrics) == set(END_TO_END)
    assert all(metrics[m] > 0 for m in END_TO_END)
    assert points and not any(p.problems for p in points)


@pytest.mark.parametrize("name, pairs, max_qubits",
                         [("switch_fig5", 8, 6), ("wide_n", 14, 9)])
def test_traced_run_reports_every_layer_metric(name, pairs, max_qubits):
    metrics, units, extra, points = run_tiny(name, trace=True)
    assert units == PER_LAYER and set(metrics) == set(PER_LAYER)
    assert metrics["switch.pairs_per_delivery"] == pairs
    assert metrics["dm.max_qubits"] == max_qubits
    assert metrics["dm.tensor.calls"] > 0 and metrics["dm.tensor.bytes_computed"] > 0
    assert extra["spans"] > 0 and not any(p.problems for p in points)


def test_traced_factory_counts_shots():
    metrics, _, extra, _ = run_tiny("factory_fig5", trace=True)
    shots = TINY["factory"] * extra["points_traced"]
    assert metrics["params.shot_rng.calls"] == shots
    assert metrics["factory.run_shot_fast.calls"] == shots
    assert metrics["analytics.f_rand.calls"] == shots
    assert metrics["factory.attempts_per_shot"] >= 1
    assert metrics["dm.tensor.calls"] == 0 and metrics["switch.link.calls"] == 0


def test_perturbed_switch_reference_fails_the_gate():
    refs = workloads.load_references()
    refs = {key: ({**e, "fid": e["fid"] + 0.3} if key[0] == "switch" else e)
            for key, e in refs.items()}
    _, _, _, points = run_tiny("switch_fig5", references=refs)
    assert all(any("fidelity" in msg for msg in p.problems) for p in points)


def test_realistic_switch_bias_fails_the_run_mean():
    """A fidelity shift of twice the spread of single points passes most
    per-row checks but not the check of the mean over the run."""
    row = workloads.Row("switch", 5, 0.01, TINY["switch"])
    true = workloads.Workload("switch_fig5", 4, cycle=[(row,)])
    points = [true.run_point((row,)) for _ in range(40)]
    assert not any(p.problems for p in points)
    sd = statistics.stdev(p.rows[0].fid for p in points)
    refs = workloads.load_references()
    key = ("switch", row.n, row.q_link)
    refs[key] = {**refs[key], "fid": refs[key]["fid"] + 2 * sd}
    biased = workloads.Workload("switch_fig5", 4, references=refs, cycle=[(row,)])

    unbiased_points = copy.deepcopy(points)
    true.check_means(unbiased_points)
    assert not any(p.problems for p in unbiased_points)
    assert sum(bool(biased._check(p.rows[0])) for p in points) < len(points) / 4
    biased.check_means(points)
    assert all(any("mean fidelity" in msg for msg in p.problems) for p in points)


def test_wrong_pair_count_fails_the_gate(monkeypatch):
    original = ghzdist.switch.run_to_ghz

    def leaky(*args, **kwargs):
        record, state = original(*args, **kwargs)
        return replace(record, pairs_consumed=record.pairs_consumed + 1), state

    monkeypatch.setattr(ghzdist.switch, "run_to_ghz", leaky)
    _, _, _, points = run_tiny("switch_fig5")
    assert all(any("pairs consumed" in msg for msg in p.problems) for p in points)


def test_tail_leaves_ten_points_beyond_and_never_drops_below_median():
    assert tail([float(v) for v in range(30)]) == (19.0, 100.0 * 19 / 29)
    assert tail([float(v) for v in range(21)]) == (10.0, 50.0)
    assert tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factory_fig5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
