"""The benchmark's workloads: which points each one issues, how one point
runs, and the correctness gate every point's output must pass.

A point is one or two rows; a row is one Monte Carlo estimate (a factory
``estimate``, a switch ``estimate_switch``, or a ``ghzdist simulate`` CSV
row).  Every workload cycles through a fixed list of points, and each point
gets its own simulation seed drawn from the benchmark seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import ghzdist.cli
import ghzdist.factory
import ghzdist.switch
from ghzdist.params import SimParams, derive_p_ghz

REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"

# the Fig-5 point: noise of the paper's Fig. 5, local GHZ fidelity 0.9
FIG5_NOISE = {"q_bsm": 0.95, "p_link": 0.99, "p_bsm": 0.99, "p_mem": 1 - 1e-4}
LOCAL_GHZ_FIDELITY = 0.9
FIG5_Q_LINKS = (0.001, 0.005, 0.01, 0.05)
WIDE_Q_LINK = 0.01

K_SIGMA = 5.0
FACTORY_FID_FLOOR = 0.005  # leading-order closed form is biased by O(q_link)
ANALYTIC_RTOL = 1e-9


@dataclass(frozen=True)
class Row:
    """One estimate a point asks for.  ``via_cli`` runs it through
    ``ghzdist.cli.main(["simulate", ...])`` in process.  ``in_precision``
    says whether its fidelity stderr enters ``fid_precision_s``."""

    protocol: str
    n: int
    q_link: float
    shots: int
    via_cli: bool = False
    in_precision: bool = True

    @property
    def kind(self) -> str:
        return f"{self.protocol}/n={self.n}/q_link={self.q_link!r}"

    def params(self, seed: int) -> SimParams:
        return SimParams(
            n_end_nodes=self.n,
            q_link=self.q_link,
            p_ghz=derive_p_ghz(LOCAL_GHZ_FIDELITY, self.n),
            shots=self.shots,
            seed=seed,
            **FIG5_NOISE,
        )


CYCLES: dict[str, list[tuple[Row, ...]]] = {
    "factory_fig5": [(Row("factory", 5, q, 10_000),) for q in FIG5_Q_LINKS],
    "switch_fig5": [(Row("switch", 5, q, 200),) for q in FIG5_Q_LINKS],
    # 20 N=8 deliveries per row resolve rate and fidelity for the gate, but a
    # run holds too few of them to estimate their variance steadily
    "wide_n": [
        (
            Row("factory", 16, WIDE_Q_LINK, 10_000, via_cli=True),
            Row("switch", 8, WIDE_Q_LINK, 20, via_cli=True, in_precision=False),
        )
    ],
}

WARMUP_SHOTS = {"factory": 100, "switch": 2}
# the set-up probe's point is kept small in N too: at N = 16 the two closed
# forms alone take most of a second, which would bury import and first-call cost
PROBE_MAX_N = 5


def resized(cycle: list[tuple[Row, ...]], shots: dict[str, int]) -> list[tuple[Row, ...]]:
    """The same points with the sample count per protocol replaced."""
    return [tuple(replace(r, shots=shots[r.protocol]) for r in point) for point in cycle]


def probe_point(name: str) -> tuple[Row, ...]:
    """The tiny point a set-up probe runs: the workload's first point with
    warm-up sample counts and at most PROBE_MAX_N end nodes."""
    return tuple(replace(r, n=min(r.n, PROBE_MAX_N)) for r in resized(CYCLES[name], WARMUP_SHOTS)[0])


@dataclass
class RowResult:
    row: Row
    seconds: float
    samples: int
    rate: float
    rate_se: float
    fid: float
    fid_se: float
    pairs: tuple[int, ...] = ()  # pairs_consumed of every switch delivery


@dataclass
class PointResult:
    seed: int
    seconds: float = 0.0
    scale: float = 1.0  # host speed factor, set by the closed loop
    rows: list[RowResult] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def samples(self) -> int:
        return sum(r.samples for r in self.rows)


def load_references() -> dict:
    """Reference values keyed by (protocol, n, q_link)."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {(e["protocol"], e["n"], e["q_link"]): e for e in data["entries"]}


class DeliveryTap:
    """Records ``pairs_consumed`` of every GHZ state the switch delivers.

    Wraps ``ghzdist.switch.run_to_ghz`` where ``run_executions`` looks it up;
    one extra call per delivery, active in untraced runs too, because the
    gate needs the count of every delivery and ``estimate_switch`` returns
    only aggregates.
    """

    def __init__(self):
        self.pairs: list[int] = []
        self._original = None

    def __enter__(self):
        original = ghzdist.switch.run_to_ghz

        def run_to_ghz(*args, **kwargs):
            record, state = original(*args, **kwargs)
            self.pairs.append(record.pairs_consumed)
            return record, state

        self._original = original
        ghzdist.switch.run_to_ghz = run_to_ghz
        return self

    def __exit__(self, *exc):
        ghzdist.switch.run_to_ghz = self._original


class Workload:
    def __init__(
        self,
        name: str,
        seed: int,
        references: dict | None = None,
        cycle: list[tuple[Row, ...]] | None = None,
    ):
        if name not in CYCLES:
            raise ValueError(f"unknown workload {name!r}; known: {', '.join(CYCLES)}")
        self.name = name
        self.cycle = cycle if cycle is not None else CYCLES[name]
        self.references = references if references is not None else load_references()
        self._seeds = random.Random(f"{name}/{seed}")
        self.tap = DeliveryTap()

    def next_seed(self) -> int:
        return self._seeds.getrandbits(63)

    def warmup(self, points=None) -> None:
        """One tiny point of every kind in the cycle, unchecked."""
        with self.tap:
            for point in points or resized(self.cycle, WARMUP_SHOTS):
                for row in point:
                    self._run_row(row, seed=1)

    def run_point(self, point: tuple[Row, ...]) -> PointResult:
        """Run and check one point; its time covers the estimates only."""
        result = PointResult(self.next_seed())
        try:
            with self.tap:
                for row in point:
                    self.tap.pairs.clear()
                    row_result, problems = self._run_row(row, result.seed)
                    row_result.pairs = tuple(self.tap.pairs)
                    result.rows.append(row_result)
                    result.seconds += row_result.seconds
                    result.problems += problems
                    result.problems += self._check(row_result)
        except Exception as exc:  # a raising point is a failed point
            result.problems.append(f"raised {type(exc).__name__}: {exc}")
        return result

    def _run_row(self, row: Row, seed: int) -> tuple[RowResult, list[str]]:
        params = row.params(seed)
        if row.via_cli:
            return self._run_cli_row(row, params)
        fn = ghzdist.factory.estimate if row.protocol == "factory" else ghzdist.switch.estimate_switch
        t0 = time.perf_counter()
        est = fn(params)
        seconds = time.perf_counter() - t0
        return (
            RowResult(row, seconds, est.shots, est.rate_mean, est.rate_stderr,
                      est.fidelity_mean, est.fidelity_stderr),
            [],
        )

    def _run_cli_row(self, row: Row, params: SimParams) -> tuple[RowResult, list[str]]:
        argv = ["simulate", "--protocol", row.protocol, "--no-timestamp"]
        for key in ("n_end_nodes", "q_link", "q_bsm", "p_link", "p_bsm", "p_mem",
                    "p_ghz", "shots", "seed"):
            argv += ["--set", f"{key}={getattr(params, key)!r}"]
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = ghzdist.cli.main(argv)
        seconds = time.perf_counter() - t0
        lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        problems = []
        if code != 0 or len(rows) != 1:
            problems.append(f"simulate exited {code} with {len(rows)} CSV rows")
            return RowResult(row, seconds, 0, math.nan, math.nan, math.nan, math.nan), problems
        csv_row = rows[0]
        if int(csv_row["seed"]) != params.seed or int(csv_row["shots"]) != params.shots:
            problems.append("CSV row does not echo the requested seed and shots")
        if row.protocol == "factory":
            ref = self.references[("factory", row.n, row.q_link)]
            for col, key in (("analytic_rate_exact", "rate_exact"),
                             ("analytic_rate_leading", "rate_leading"),
                             ("analytic_fid_leading", "fid_leading"),
                             ("analytic_fid_lower_bound", "fid_lower_bound")):
                got = float(csv_row[col])
                if not math.isclose(got, ref[key], rel_tol=ANALYTIC_RTOL):
                    problems.append(f"{col}={got!r}, reference {ref[key]!r}")
        result = RowResult(
            row, seconds, int(csv_row["shots"]),
            float(csv_row["rate_mean"]), float(csv_row["rate_stderr"]),
            float(csv_row["fid_mean"]), float(csv_row["fid_stderr"]),
        )
        return result, problems

    def _check(self, r: RowResult) -> list[str]:
        """Statistical gate: bitwise checks would reject legitimate changes
        of the random streams."""
        row = r.row
        problems = []
        if not (r.rate_se > 0 and r.fid_se >= 0):
            return [f"{row.kind}: non-positive stderr"]
        if row.protocol == "factory":
            ref = self.references[("factory", row.n, row.q_link)]
            rate_tol = K_SIGMA * r.rate_se
            fid_ref, fid_tol = ref["fid_leading"], max(K_SIGMA * r.fid_se, FACTORY_FID_FLOOR)
            rate_ref = ref["rate_exact"]
        else:
            ref = self.references[("switch", row.n, row.q_link)]
            want = 2 * (row.n - 1)
            pairs = r.pairs
            if len(pairs) < r.samples or any(p != want for p in pairs):
                problems.append(
                    f"{row.kind}: pairs consumed {sorted(set(pairs))} over "
                    f"{len(pairs)} deliveries, want {want} on each"
                )
            rate_sd, fid_sd = self._switch_point_sd(r)
            rate_tol = K_SIGMA * math.hypot(rate_sd, ref["rate_se"])
            fid_tol = K_SIGMA * math.hypot(fid_sd, ref["fid_se"])
            rate_ref, fid_ref = ref["rate"], ref["fid"]
        if not abs(r.rate - rate_ref) <= rate_tol:
            problems.append(f"{row.kind}: rate {r.rate!r} vs {rate_ref!r} beyond {rate_tol:.3g}")
        if not abs(r.fid - fid_ref) <= fid_tol:
            problems.append(f"{row.kind}: fidelity {r.fid!r} vs {fid_ref!r} beyond {fid_tol:.3g}")
        return problems

    def _switch_point_sd(self, r: RowResult) -> tuple[float, float]:
        """Spread of single rate and fidelity estimates of this row's size.

        Consecutive deliveries share leftover pairs, so the engine's own
        stderr understates the spread; the reference measured it.
        """
        ref = self.references[("switch", r.row.n, r.row.q_link)]
        widen = math.sqrt(ref["deliveries_per_point"] / r.samples)
        return (max(r.rate_se, ref["rate_point_sd"] * widen),
                max(r.fid_se, ref["fid_point_sd"] * widen))

    def check_means(self, points: list[PointResult]) -> None:
        """Gate on the mean of each kind of row over a whole run.

        Averaging m points tightens the tolerance by about sqrt(m), so a bias
        of a few percent that passes every single point fails here; each
        point holding a row of the failing kind gets the problem.  Factory
        fidelity is left to the per-row check: its leading-order reference is
        itself biased by O(q_link).
        """
        by_kind: dict[str, list[RowResult]] = {}
        for p in points:
            for r in p.rows:
                if r.samples:
                    by_kind.setdefault(r.row.kind, []).append(r)
        failing: dict[str, list[str]] = {}
        for kind, rows in by_kind.items():
            m = len(rows)
            row = rows[0].row
            if row.protocol == "factory":
                ref = self.references[("factory", row.n, row.q_link)]
                sd = math.sqrt(sum(r.rate_se**2 for r in rows) / m)
                checks = [("rate", [r.rate for r in rows], ref["rate_exact"], K_SIGMA * sd / math.sqrt(m))]
            else:
                ref = self.references[("switch", row.n, row.q_link)]
                sds = [self._switch_point_sd(r) for r in rows]
                rate_sd = math.sqrt(sum(s[0] ** 2 for s in sds) / m)
                fid_sd = math.sqrt(sum(s[1] ** 2 for s in sds) / m)
                checks = [
                    ("rate", [r.rate for r in rows], ref["rate"],
                     K_SIGMA * math.hypot(rate_sd / math.sqrt(m), ref["rate_se"])),
                    ("fidelity", [r.fid for r in rows], ref["fid"],
                     K_SIGMA * math.hypot(fid_sd / math.sqrt(m), ref["fid_se"])),
                ]
            for what, values, want, tol in checks:
                mean = math.fsum(values) / m
                if not abs(mean - want) <= tol:
                    failing.setdefault(kind, []).append(
                        f"{kind}: mean {what} over {m} rows {mean!r} vs {want!r} beyond {tol:.3g}")
        for p in points:
            for kind in {r.row.kind for r in p.rows} & failing.keys():
                p.problems += failing[kind]
