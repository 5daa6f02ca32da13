"""Run one workload of the ghzdist benchmark and print its metrics.

    python3 perfbench/run.py --workload factory_fig5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  The workload runs as a closed loop with one client in this fresh
process: the next point is issued only after the previous one returned and
passed the correctness gate.  Every time is scaled to a nominal host speed
(see ``speed_factor``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` spends half the time untraced and half with timing spans around
the package's public functions, and prints the per-layer metrics.  Every
metric is printed as ``metric <name> <value> <unit>``, the run's metadata as
one ``meta {...}`` line, and the last line is the JSON result.  Exits 2
without a result when the checkout holds no package sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# numpy links a threaded OpenBLAS; unpinned, the figures would measure the
# scheduler of a small shared machine
PINNED_ENV = {"GHZDIST_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
# The host is a share of a bigger machine whose speed drifts by tens of
# percent over seconds to minutes.  A fixed pure-Python loop slows down with
# it, so a time multiplied by CHUNK_NOMINAL_S / (the loop's time measured
# right before and after it) reads about the same in fast and slow phases.
# The loop runs for CAL_SHARE of the time it follows, at least CAL_MIN_S.
CHUNK_ITERS = 20_000
CHUNK_NOMINAL_S = 0.002
CAL_SHARE = 0.1
CAL_MIN_S = 0.02
FID_TARGET = 1e-3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "fid_precision_s": "s",
    "peak_rss_mb": "MB",
}


class CheckoutError(RuntimeError):
    """The checkout has no usable ghzdist sources."""


def load_package():
    """Pin threads, put the checkout's ``src/`` first on the path, import
    ghzdist and make sure it came from there."""
    os.environ.update(PINNED_ENV)
    if not (SRC / "ghzdist" / "__init__.py").is_file():
        raise CheckoutError(f"no ghzdist sources under {SRC}")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    import ghzdist

    if not Path(ghzdist.__file__).resolve().is_relative_to(SRC):
        raise CheckoutError(f"ghzdist imported from {ghzdist.__file__}, not {SRC}")
    return ghzdist


def checkout_identity() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None  # a plain source checkout carries no git metadata
    return {"git_rev": rev, "src_sha256": digest.hexdigest(), "src_lines": lines}


def run_metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **checkout_identity(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def _chunk() -> int:
    acc = 0
    for i in range(CHUNK_ITERS):
        acc = (acc + i * i) % 1_000_003
    return acc


def speed_factor(seconds_calibrated: float) -> float:
    """CHUNK_NOMINAL_S over the mean time of the calibration loop, run now for
    CAL_SHARE of ``seconds_calibrated``: below 1 when the host runs slower
    than the nominal speed."""
    budget = max(CAL_SHARE * seconds_calibrated, CAL_MIN_S)
    chunks = 0
    t0 = time.perf_counter()
    while True:
        _chunk()
        chunks += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return CHUNK_NOMINAL_S * chunks / elapsed


def setup_probe(workload: str, before: float) -> tuple[float, float, float]:
    """Seconds for ``import ghzdist`` plus one tiny point in a fresh process,
    raw and scaled by the mean of the speed factor ``before`` it and the one
    measured after it, and that last factor."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise CheckoutError(f"setup probe failed:\n{done.stderr}")
    raw = float(done.stdout.split()[-1])
    after = speed_factor(raw)
    return raw, raw * (before + after) / 2, after


def closed_loop(workload, seconds: float, first_index: int = 0, tracer=None,
                probes: int = 0) -> tuple[list, list]:
    """Issue whole cycles of points back to back until ``seconds`` elapsed.

    Between points, outside their time, the calibration loop runs; a point's
    speed factor is the mean of the factors measured before and after it.
    A set-up probe runs whenever one is due, so that ``probes`` probes spread
    evenly over the run.  Returns the points and the probes' (raw, scaled)
    times.
    """
    points, setup = [], []
    index = first_index
    factor = speed_factor(0.0)
    start = time.perf_counter()
    while True:
        for point in workload.cycle:
            if tracer is not None:
                tracer.point_id = index
            result = workload.run_point(point)
            after = speed_factor(result.seconds)
            result.scale = (factor + after) / 2
            factor = after
            if result.problems and sum(bool(p.problems) for p in points) < 3:
                print(f"point {index} failed: {'; '.join(result.problems)}", file=sys.stderr)
            points.append(result)
            index += 1
            if len(setup) < probes and (time.perf_counter() - start) * probes >= seconds * len(setup):
                *times, factor = setup_probe(workload.name, factor)
                setup.append(tuple(times))
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < probes:
        *times, factor = setup_probe(workload.name, factor)
        setup.append(tuple(times))
    return points, setup


def samples_per_s(points, scaled: bool = True) -> float:
    return sum(p.samples for p in points) / sum(
        p.seconds * (p.scale if scaled else 1.0) for p in points)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND values beyond it, but never below the median.

    With fewer than 2 * TAIL_BEYOND + 1 values the tail reads the median.
    The clamp keeps the rank continuous in the number of values, so a faster
    commit that fits more points into a run moves the tail smoothly instead
    of jumping from the maximum to the minimum.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 1 - TAIL_BEYOND, (n - 1) / 2)
    lo, hi = math.floor(rank), math.ceil(rank)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    return value, (100.0 * rank / (n - 1) if n > 1 else 50.0)


def fid_precision_s(points) -> float:
    """Projected seconds to a fidelity stderr of FID_TARGET, summed over the
    kinds of row (the four q_link values of a Fig-5 workload are four kinds):
    per kind, the mean row time times the mean (fid_stderr / FID_TARGET)^2.

    Means, not medians: the machine's speed drifts in phases of seconds, and
    a median over such a time series jumps between phases.
    """
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for p in points:
        for r in p.rows:
            if r.row.in_precision:
                by_kind.setdefault(r.row.kind, []).append(
                    (r.seconds * p.scale, (r.fid_se / FID_TARGET) ** 2))
    return sum(
        statistics.fmean(t for t, _ in rows) * statistics.fmean(v for _, v in rows)
        for rows in by_kind.values()
    )


def end_to_end(points, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    times = [p.seconds * p.scale for p in points]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "samples_per_s": samples_per_s(points),
        "point_s_p50": statistics.median(times),
        "point_s_tail": tail_s,
        "fid_precision_s": fid_precision_s(points),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_sample: dict[str, list[float]] = {}
    for p in points:
        for r in p.rows:
            per_sample.setdefault(r.row.kind, []).append(r.seconds * p.scale / r.samples)
    extra = {
        "points": len(points),
        "tail_percentile": tail_pct,
        "speed_factor_median": statistics.median(p.scale for p in points),
        "samples_per_s_raw": samples_per_s(points, scaled=False),
        "point_s_p50_raw": statistics.median(p.seconds for p in points),
        "setup_s_raw": statistics.median(raw for raw, _ in setup),
        "s_per_sample_p50": {k: statistics.median(v) for k, v in per_sample.items()},
    }
    return metrics, extra


def run(workload, seconds: float, trace: bool, probes: int = SETUP_PROBES):
    """Warm up, run the closed loop, gate it, and return (metrics, units,
    extra, points).  A traced run also writes its spans to ``perfbench/out/``."""
    workload.warmup()
    if not trace:
        points, setup = closed_loop(workload, seconds, probes=probes)
        workload.check_means(points)
        ok = [p for p in points if not p.problems]
        metrics, extra = end_to_end(ok or points, setup)
        return metrics, dict(END_TO_END), extra, points

    from trace_layers import PER_LAYER, Tracer

    untraced, _ = closed_loop(workload, seconds / 2)
    with Tracer() as tracer:
        traced, _ = closed_loop(workload, seconds / 2, first_index=len(untraced), tracer=tracer)
    workload.check_means(untraced + traced)
    metrics = tracer.metrics(sum(p.seconds for p in traced),
                             [n for p in traced for r in p.rows for n in r.pairs])
    overhead = samples_per_s(untraced) / samples_per_s(traced) - 1.0
    metrics["trace.overhead_frac"] = overhead
    extra = {
        "points_untraced": len(untraced),
        "points_traced": len(traced),
        "samples_per_s_untraced": samples_per_s(untraced),
        "samples_per_s_traced": samples_per_s(traced),
        "spans": tracer.span_count,
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans_{workload.name}.npz"
    tracer.save(spans_path)
    extra["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, dict(PER_LAYER), extra, untraced + traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.CYCLES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.Workload(args.workload, args.seed)
    try:
        metrics, units, extra, points = run(workload, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    failed = sum(bool(p.problems) for p in points)
    meta = run_metadata(args)
    meta.update(extra, failed_frac=failed / len(points))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(points),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
