"""Monte Carlo engine for factory-node GHZ distribution.

Each shot turns the drawn waiting times straight into per-qubit depolarizing
parameters and the closed-form fidelity ``f_rand``.  The density-matrix
replay of the same noisy teleportation that certifies this fast path lives
in ``ghzdist.oracles``.
"""

from __future__ import annotations

import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .analytics import f_rand
from .params import (
    TAG_FACTORY,
    ConfigError,
    SimParams,
    geometric_log_miss,
    geometric_rounds,
    longest_geometric_round,
    shot_rng,
)
from .params import sample_geometric  # noqa: F401  traced by name as factory.sample_geometric

WORKERS_ENV = "GHZDIST_WORKERS"
# expected uniforms an estimate may draw: at about a microsecond per failed
# attempt, tens of minutes of sampling at any N
ATTEMPT_DRAW_BUDGET = 1e10


class ShotRecord(NamedTuple):
    """One protocol execution: timing draws of the last (successful)
    teleportation attempt plus the resulting fidelity."""

    teleport_attempts: int
    rounds: tuple[int, ...]
    n_all: int
    delta_n: tuple[int, ...]
    duration_rounds: int
    fidelity: float


@dataclass(frozen=True)
class Estimates:
    """Monte Carlo point estimates; stderr is the standard deviation of the mean."""

    rate_mean: float
    rate_stderr: float
    fidelity_mean: float
    fidelity_stderr: float
    shots: int


def fidelity_from_deltas(params: SimParams, delta_n: Sequence[int]) -> float:
    """Per-shot fidelity given the waiting times of one successful attempt.

    End node i's qubit is depolarized by p_i = p_link p_bsm^2 p_mem^(2 delta_n_i).
    """
    base = params.p_link * params.p_bsm**2
    return f_rand(params.p_ghz, [base * params.p_mem ** (2 * d) for d in delta_n])


def run_shot_fast(params: SimParams, rng: np.random.Generator) -> ShotRecord:
    """One full protocol execution with closed-form noise bookkeeping.

    Each teleportation attempt draws its N link waits and then, unless
    q_bsm = 1, its Bernoulli(q_bsm^N) success coin, in one ``rng.random``
    call.  A failure restarts Bell distribution from scratch and adds only
    the attempt's longest wait to the duration, so only the successful
    attempt's uniforms are turned into rounds.
    """
    n = params.n_end_nodes
    log_miss = geometric_log_miss(params.q_link)
    coin = params.q_bsm != 1.0  # at q_bsm = 1 no coin is drawn
    p_teleport = params.q_bsm**n
    attempts = 1
    duration = 0
    u = rng.random(n + coin).tolist()
    while coin and u.pop() >= p_teleport:
        attempts += 1
        duration += longest_geometric_round(u, log_miss)
        u = rng.random(n + 1).tolist()
    rounds = geometric_rounds(u, log_miss)
    n_all = max(rounds)
    delta = tuple([n_all - r for r in rounds])
    return ShotRecord(
        attempts,
        tuple(rounds),
        n_all,
        delta,
        duration + n_all,
        fidelity_from_deltas(params, delta),
    )


def check_attempt_budget(params: SimParams) -> None:
    """Reject a point whose expected draws, q_bsm^-N attempts of N + 1
    uniforms per shot, exceed ``ATTEMPT_DRAW_BUDGET``."""
    n = params.n_end_nodes
    draws = params.q_bsm**-n * (n + 1) * params.shots
    if draws > ATTEMPT_DRAW_BUDGET:
        raise ConfigError(
            f"the factory would draw ~{draws:.2g} uniforms (budget "
            f"{ATTEMPT_DRAW_BUDGET:.0e}): each shot needs q_bsm ** -n_end_nodes = "
            f"{params.q_bsm**-n:.2g} teleportation attempts at q_bsm = {params.q_bsm}, "
            f"n_end_nodes = {n}; raise q_bsm or lower shots ({params.shots})"
        )


def summarize(
    durations_rounds: np.ndarray, fidelities: np.ndarray, dt: float
) -> Estimates:
    """Aggregate per-shot results.

    The rate is 1 / mean(duration * dt); its stderr follows by error
    propagation through the reciprocal.  Fidelity stderr is the plain standard
    deviation of the mean.
    """
    shots = len(durations_rounds)
    if shots < 2:
        raise ValueError("need at least 2 shots for standard errors")
    times = durations_rounds * dt
    t_mean = float(times.mean())
    t_stderr = float(times.std(ddof=1)) / float(np.sqrt(shots))
    return Estimates(
        rate_mean=1.0 / t_mean,
        rate_stderr=t_stderr / t_mean**2,
        fidelity_mean=float(fidelities.mean()),
        fidelity_stderr=float(fidelities.std(ddof=1)) / float(np.sqrt(shots)),
        shots=shots,
    )


def _fast_chunk(args: tuple[SimParams, int, int]) -> tuple[np.ndarray, np.ndarray]:
    params, lo, hi = args
    # typed arrays append as fast as lists but hold 8 bytes per shot
    durations = array("q")
    fidelities = array("d")
    for s in range(lo, hi):
        rec = run_shot_fast(params, shot_rng(params.seed, s, TAG_FACTORY))
        durations.append(rec.duration_rounds)
        fidelities.append(rec.fidelity)
    return np.array(durations, dtype=np.int64), np.array(fidelities)


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def estimate(params: SimParams) -> Estimates:
    """Run params.shots independent fast-path executions and aggregate.

    Shots are seeded per index, so the result is identical no matter how many
    workers split the range.
    """
    check_attempt_budget(params)
    shots = params.shots
    workers = worker_count()
    if workers == 1 or shots < 4 * workers:
        durations, fidelities = _fast_chunk((params, 0, shots))
    else:
        bounds = np.linspace(0, shots, workers + 1, dtype=int)
        jobs = [
            (params, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_fast_chunk, jobs))
        durations = np.concatenate([p[0] for p in parts])
        fidelities = np.concatenate([p[1] for p in parts])
    return summarize(durations, fidelities, params.dt)
