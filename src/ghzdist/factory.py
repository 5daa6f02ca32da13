"""Monte Carlo engine for factory-node GHZ distribution.

Each shot turns the drawn waiting times straight into per-qubit depolarizing
parameters.  ``teleport_pipeline`` replays the same noisy teleportation as
density matrices; ``ghzdist.oracles`` uses it to validate the fast path.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dm as dmod
from .analytics import f_rand
from .dm import BsmOutcome, DensityMatrix, Qubit
from .params import TAG_FACTORY, SimParams, sample_geometric, shot_rng

WORKERS_ENV = "GHZDIST_WORKERS"


@dataclass(frozen=True)
class ShotRecord:
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


def qubit_parameters(params: SimParams, delta_n: Sequence[int]) -> list[float]:
    """Combined depolarizing parameter per end node:
    p_i = p_link p_bsm^2 p_mem^(2 delta_n_i)."""
    base = params.p_link * params.p_bsm**2
    return [base * params.p_mem ** (2 * d) for d in delta_n]


def fidelity_from_deltas(params: SimParams, delta_n: Sequence[int]) -> float:
    """Per-shot fidelity given the waiting times of one successful attempt."""
    return f_rand(params.p_ghz, qubit_parameters(params, delta_n))


def run_shot_fast(params: SimParams, rng: np.random.Generator) -> ShotRecord:
    """One full protocol execution with closed-form noise bookkeeping.

    Teleportation success is a single Bernoulli(q_bsm^N) coin; a failure
    restarts Bell distribution from scratch, accumulating that attempt's
    rounds into the duration.
    """
    n = params.n_end_nodes
    attempts = 0
    duration = 0
    while True:
        rounds = sample_geometric(rng, params.q_link, n)
        n_all = max(rounds)
        attempts += 1
        duration += n_all
        if params.q_bsm == 1.0 or rng.random() < params.q_bsm**n:
            break
    delta = tuple(n_all - r for r in rounds)
    return ShotRecord(
        teleport_attempts=attempts,
        rounds=tuple(rounds),
        n_all=n_all,
        delta_n=delta,
        duration_rounds=duration,
        fidelity=fidelity_from_deltas(params, delta),
    )


def teleport_pipeline(
    params: SimParams,
    rounds: Sequence[int],
    choose_outcome: Callable[[DensityMatrix, Qubit, Qubit], tuple[int, int]],
) -> DensityMatrix:
    """Density-matrix replay of one successful teleportation attempt.

    Builds the depolarized local GHZ state, then consumes one noisy Bell pair
    per end node with a Bell measurement and Pauli correction.  Pairs are
    created and measured one at a time so the live register never exceeds
    N + 2 qubits; this reordering is exact because the measurements act on
    disjoint qubits.  ``choose_outcome`` picks each measurement branch (Born
    sampling or a forced outcome) given the pre-measurement state.
    """
    n = params.n_end_nodes
    if len(rounds) != n:
        raise ValueError(f"expected {n} waiting times, got {len(rounds)}")
    n_all = max(rounds)
    ghz_qubits = [Qubit(0, i) for i in range(n)]
    state = dmod.make_ghz(n, ghz_qubits)
    state = dmod.depolarize(state, ghz_qubits, params.p_ghz)
    for i in range(n):
        held = Qubit(0, n + i)
        remote = Qubit(i + 1, 0)
        pair = dmod.make_bell(held, remote)
        pair = dmod.depolarize(pair, (held, remote), params.p_link)
        wait = n_all - rounds[i]
        if wait > 0 and params.p_mem < 1.0:
            decay = params.p_mem**wait
            pair = dmod.depolarize(pair, (held,), decay)
            pair = dmod.depolarize(pair, (remote,), decay)
        state = dmod.tensor(state, pair)
        state = dmod.depolarize(state, (ghz_qubits[i],), params.p_bsm)
        state = dmod.depolarize(state, (held,), params.p_bsm)
        bits = choose_outcome(state, ghz_qubits[i], held)
        _, state = dmod.project_bell(state, ghz_qubits[i], held, bits)
        state = dmod.pauli_correct(state, remote, BsmOutcome(bits, True))
    return state


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
    durations = np.empty(hi - lo, dtype=np.int64)
    fidelities = np.empty(hi - lo)
    for s in range(lo, hi):
        rec = run_shot_fast(params, shot_rng(params.seed, s, TAG_FACTORY))
        durations[s - lo] = rec.duration_rounds
        fidelities[s - lo] = rec.fidelity
    return durations, fidelities


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
