"""Acceptance suite: every headline claim at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all) and then asserts.  Monte Carlo points use 10^4 shots.
"""

import itertools
import math
import os
import subprocess
import sys

import numpy as np

from ghzdist import dm as dmod
from ghzdist.analytics import (
    GSpec,
    expected_order_stat,
    fidelity_closed_form,
    g_value,
    harmonic,
    rate_exact,
    rate_leading,
)
from ghzdist.factory import estimate, fidelity_from_deltas
from ghzdist.oracles import (
    coefficient_identity_check,
    enumerate_waiting_times,
    factory_outcome_branches,
    mc_g,
    n_all_alternating_sum,
    replay_factory_dm,
    teleport_pipeline,
)
from ghzdist.params import SimParams, derive_p_ghz
from ghzdist.switch import estimate_switch

SHOTS = 10_000

P_GHZ_09 = derive_p_ghz(0.9, 5)


def report(criterion: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in clauses)
    detail = "; ".join(f"{name}={'ok' if passed else 'FAIL'}" for name, passed in clauses)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    failed = [name for name, passed in clauses if not passed]
    assert ok, f"criterion {criterion} failed clauses: {failed}"


def test_criterion_1_rate_exactness():
    clauses = []
    for q_link in (0.005, 0.01, 0.05):
        params = SimParams(
            n_end_nodes=5, q_link=q_link, q_bsm=0.95, shots=SHOTS, seed=101
        )
        est = estimate(params)
        exact = rate_exact(5, q_link, 0.95)
        lead = rate_leading(5, q_link, 0.95)
        clauses.append(
            (f"mc_vs_exact@q={q_link}", abs(est.rate_mean - exact) < 3 * est.rate_stderr)
        )
        if q_link <= 0.01:
            clauses.append(
                (f"leading_2pct@q={q_link}", abs(lead - exact) / exact < 0.02)
            )
    params = SimParams(n_end_nodes=5, q_link=1.0, q_bsm=0.95, shots=SHOTS, seed=102)
    est = estimate(params)
    factor = est.rate_mean / rate_leading(5, 1.0, 0.95)
    clauses.append((f"underestimation_factor={factor:.4f}<=2.2", factor <= 2.2))
    report("1 (rate exactness)", clauses)


def fig5_params(q_link: float) -> SimParams:
    return SimParams(
        n_end_nodes=5,
        q_link=q_link,
        q_bsm=0.95,
        p_bsm=0.99,
        p_link=0.99,
        p_mem=1 - 1e-4,
        p_ghz=P_GHZ_09,
        shots=SHOTS,
        seed=201,
    )


def test_criterion_2_fidelity_leading_order():
    clauses = []
    for q_link in (0.001, 0.005, 0.01):
        params = fig5_params(q_link)
        est = estimate(params)
        lead = fidelity_closed_form(params, "leading").value
        bound = fidelity_closed_form(params, "lower_bound").value
        tol = max(3 * est.fidelity_stderr, 0.005)
        clauses.append((f"leading@q={q_link}", abs(est.fidelity_mean - lead) <= tol))
        clauses.append(
            (
                f"bound@q={q_link}",
                bound <= est.fidelity_mean + 3 * est.fidelity_stderr,
            )
        )
    params = fig5_params(0.5)
    est = estimate(params)
    lead = fidelity_closed_form(params, "leading").value
    clauses.append(("leading@q=0.5_within_0.02", abs(est.fidelity_mean - lead) <= 0.02))
    report("2 (fidelity leading order)", clauses)


def test_criterion_3_fidelity_vs_memory():
    clauses = []
    for p_mem in (1 - 1e-4, 1 - 1e-3, 1 - 1e-2):
        params = SimParams(
            n_end_nodes=5, q_link=0.01, q_bsm=1.0, p_mem=p_mem, shots=SHOTS, seed=301
        )
        est = estimate(params)
        lead = fidelity_closed_form(params, "leading").value
        bound = fidelity_closed_form(params, "lower_bound").value
        tol = max(3 * est.fidelity_stderr, 0.01)
        clauses.append((f"leading@p_mem={p_mem}", abs(est.fidelity_mean - lead) <= tol))
        clauses.append(
            (f"bound@p_mem={p_mem}", bound <= est.fidelity_mean + 3 * est.fidelity_stderr)
        )
    report("3 (fidelity vs memory noise)", clauses)


def _random_config(rng, n):
    return SimParams(
        n_end_nodes=n,
        q_link=float(rng.uniform(0.05, 0.95)),
        p_link=float(rng.uniform(0.7, 1.0)),
        p_mem=float(rng.uniform(0.9, 1.0)),
        p_bsm=float(rng.uniform(0.7, 1.0)),
        p_ghz=float(rng.uniform(0.6, 1.0)),
    )


def test_criterion_4_dm_equivalence():
    rng = np.random.default_rng(401)
    worst_fid = 0.0
    worst_branch = 0.0
    for trial in range(200):
        n = 2 if trial % 2 == 0 else 3
        params = _random_config(rng, n)
        rounds = [int(r) for r in rng.integers(1, 7, size=n)]
        delta = [max(rounds) - r for r in rounds]
        worst_fid = max(
            worst_fid,
            abs(
                replay_factory_dm(params, rounds)
                - fidelity_from_deltas(params, delta)
            ),
        )
        # equality of the four corrected branches at every measurement step
        # makes all 4^N leaves of the outcome tree identical by induction
        for step in factory_outcome_branches(params, rounds):
            ref = step[0][1]
            for _, state in step[1:]:
                worst_branch = max(worst_branch, dmod.max_abs_diff(ref, state))
    # direct full-leaf enumeration on a handful of configurations
    all_bits = [(i, j) for i in (0, 1) for j in (0, 1)]
    for trial in range(6):
        n = 2 if trial % 2 == 0 else 3
        params = _random_config(rng, n)
        rounds = [int(r) for r in rng.integers(1, 5, size=n)]
        leaves = []
        for combo in itertools.product(all_bits, repeat=n):
            leaves.append(
                teleport_pipeline(
                    params, rounds, lambda state, qa, qb, c=combo: c[qa.slot]
                )
            )
        ref = leaves[0]
        for leaf in leaves[1:]:
            worst_branch = max(worst_branch, dmod.max_abs_diff(ref, leaf))
    report(
        "4 (density-matrix equivalence)",
        [
            (f"replay_vs_fast_max={worst_fid:.2e}", worst_fid < 1e-10),
            (f"branches_max={worst_branch:.2e}", worst_branch < 1e-10),
        ],
    )


def test_criterion_5_coefficient_identity():
    worst = max(
        coefficient_identity_check(n, samples=100, seed=501) for n in range(2, 7)
    )
    report(
        "5 (coefficient identity)",
        [(f"max_error={worst:.2e}", worst < 1e-10)],
    )


def test_criterion_6_decoherence_kernel():
    rng = np.random.default_rng(601)
    clauses = []
    worst_rel = 0.0
    bound_ok = True
    for mask in range(1, 32):
        positions = tuple(i + 1 for i in range(5) if (mask >> i) & 1)
        spec = GSpec(5, positions, (2e-4,) * len(positions))
        mean, stderr = mc_g(spec, 0.01, 1_000_000, rng)
        worst_rel = max(
            worst_rel, abs(g_value(spec, 0.01, "leading") - mean) / mean
        )
        if g_value(spec, 0.01, "lower_bound") > mean + 3 * stderr:
            bound_ok = False
    clauses.append((f"leading_1pct_worst={worst_rel:.4%}", worst_rel < 0.01))
    for q in (0.1, 0.5):
        for mask in range(1, 32):
            positions = tuple(i + 1 for i in range(5) if (mask >> i) & 1)
            spec = GSpec(5, positions, (2e-4,) * len(positions))
            mean, stderr = mc_g(spec, q, 200_000, rng)
            if g_value(spec, q, "lower_bound") > mean + 3 * stderr:
                bound_ok = False
    clauses.append(("lower_bound_all_grid_points", bound_ok))
    report("6 (decoherence kernel G)", clauses)


def test_criterion_7_order_statistics():
    clauses = []
    worst = max(
        abs(
            expected_order_stat(n, n, q, "exact") - n_all_alternating_sum(n, q)
        )
        for n in range(1, 7)
        for q in (0.1, 0.5, 0.9)
    )
    clauses.append((f"exact_vs_alternating={worst:.2e}", worst < 1e-10))

    worst_rel = max(
        abs(
            expected_order_stat(i, n, 0.001, "leading")
            - expected_order_stat(i, n, 0.001, "exact")
        )
        / expected_order_stat(i, n, 0.001, "exact")
        for n in range(1, 9)
        for i in range(1, n + 1)
    )
    clauses.append((f"leading_1pct={worst_rel:.4%}", worst_rel < 0.01))

    ub_ok = all(
        expected_order_stat(i, n, q, "upper_bound")
        >= expected_order_stat(i, n, q, "exact") - 1e-12
        for n in range(1, 9)
        for q in (0.001, 0.1, 0.5, 0.9)
        for i in range(1, n + 1)
    )
    clauses.append(("upper_bound_dominates", ub_ok))

    worst_enum = 0.0
    for n in range(1, 5):
        for q in (0.1, 0.5, 0.9):
            table = enumerate_waiting_times(n, q)
            for i in range(1, n + 1):
                worst_enum = max(
                    worst_enum,
                    abs(
                        table.expectations[i - 1]
                        - expected_order_stat(i, n, q, "exact")
                    ),
                )
    clauses.append((f"exact_vs_enumeration={worst_enum:.2e}", worst_enum < 1e-9))
    report("7 (waiting-time order statistics)", clauses)


def test_criterion_8_protocol_comparison():
    clauses = []

    # (a) perfect links and measurements
    perfect = SimParams(n_end_nodes=5, q_link=1.0, q_bsm=1.0, shots=SHOTS, seed=801)
    fac = estimate(perfect)
    sw = estimate_switch(perfect)
    clauses.append(("a_factory_rate_1", fac.rate_mean == 1.0 and fac.rate_stderr == 0.0))
    clauses.append(("a_switch_rate_half", 0.45 <= sw.rate_mean <= 0.55))

    # (b) memory noise only: fidelities approximately equal
    mem = SimParams(
        n_end_nodes=5, q_link=0.01, q_bsm=1.0, p_mem=1 - 1e-4, shots=SHOTS, seed=802
    )
    fac = estimate(mem)
    sw = estimate_switch(mem)
    clauses.append(
        ("b_memory_noise_similar", abs(fac.fidelity_mean - sw.fidelity_mean) < 0.02)
    )

    # (c) Bell-state noise only: factory is more resilient
    link = SimParams(
        n_end_nodes=5, q_link=0.01, q_bsm=1.0, p_link=0.95, shots=SHOTS, seed=803
    )
    fac = estimate(link)
    sw = estimate_switch(link)
    sigma = math.hypot(fac.fidelity_stderr, sw.fidelity_stderr)
    clauses.append(
        ("c_factory_beats_switch", fac.fidelity_mean - sw.fidelity_mean > 3 * sigma)
    )

    # (d) measurement noise only: switch is more resilient
    meas = SimParams(
        n_end_nodes=5, q_link=0.01, q_bsm=1.0, p_bsm=0.95, shots=SHOTS, seed=804
    )
    fac = estimate(meas)
    sw = estimate_switch(meas)
    sigma = math.hypot(fac.fidelity_stderr, sw.fidelity_stderr)
    clauses.append(
        ("d_switch_beats_factory", sw.fidelity_mean - fac.fidelity_mean > 3 * sigma)
    )

    # (e) probabilistic measurements: switch rate wins, factory rate matches
    # its q_bsm^N-suppressed closed form
    prob = SimParams(n_end_nodes=5, q_link=0.01, q_bsm=0.8, shots=SHOTS, seed=805)
    fac = estimate(prob)
    sw = estimate_switch(prob)
    sigma = math.hypot(fac.rate_stderr, sw.rate_stderr)
    clauses.append(("e_switch_rate_wins", sw.rate_mean - fac.rate_mean > 3 * sigma))
    lead = 0.8**5 * 0.01 / harmonic(5)
    clauses.append(
        ("e_factory_rate_near_leading", abs(fac.rate_mean - lead) < 3 * fac.rate_stderr)
    )
    report("8 (protocol comparison)", clauses)


def test_criterion_9_determinism_across_workers():
    config = "\n".join(
        [
            "n_end_nodes = 5",
            "q_link = 0.05",
            "q_bsm = 0.95",
            "p_mem = 0.9999",
            "shots = 2000",
            "seed = 901",
        ]
    )
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "point.cfg")
        with open(cfg, "w") as fh:
            fh.write(config + "\n")
        outputs = []
        for workers in ("1", "4"):
            out = os.path.join(tmp, f"out_{workers}.csv")
            env = dict(os.environ, GHZDIST_WORKERS=workers)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "ghzdist.cli",
                    "sweep", "--protocol", "factory", "--config", cfg,
                    "--param", "q_link", "--values", "0.02,0.05",
                    "--output", out, "--no-timestamp",
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            with open(out, "rb") as fh:
                outputs.append(fh.read())
    report(
        "9 (worker-count determinism)",
        [("byte_identical_csv", outputs[0] == outputs[1])],
    )
