"""Monte Carlo engine for factory-node GHZ distribution.

Each shot turns the drawn waiting times straight into per-qubit depolarizing
parameters and the closed-form fidelity ``f_rand``.  ``run_shot_fast`` runs
one shot on its own generator and is the reference; ``estimate`` runs
``run_block``, which steps the PCG64 streams of a span of shots together on
uint64 arrays and reproduces ``run_shot_fast`` on each of them bit for bit.
The density-matrix replay of the same noisy teleportation that certifies
this fast path lives in ``ghzdist.oracles``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .analytics import f_rand
from .params import (
    STREAM_WORK_ROWS,
    TAG_FACTORY,
    ConfigError,
    SimParams,
    geometric_log_miss,
    geometric_rounds,
    geometric_rounds_array,
    longest_geometric_round,
    shot_streams,
    stream_random,
)
# traced by name as factory.sample_geometric and factory.shot_rng; the block
# engine calls neither
from .params import sample_geometric, shot_rng  # noqa: F401

WORKERS_ENV = "GHZDIST_WORKERS"
# expected uniforms an estimate may draw: at about a microsecond per failed
# attempt, tens of minutes of sampling at any N
ATTEMPT_DRAW_BUDGET = 1e10
# shots whose streams step together in run_block: a span's arrays stay
# within a few hundred kB, and a 10^4-shot point is never one block
_SPAN = 1024
# most attempts a shot draws in one pass of run_block; as every pass draws
# N + 1 times a power of two uniforms, few jump tables are built, none of
# more than 64 (N + 1) rows
_MAX_AHEAD = 64


class ShotRecord(NamedTuple):
    """One protocol execution: timing draws of the last (successful)
    teleportation attempt plus the resulting fidelity."""

    teleport_attempts: int
    rounds: tuple[int, ...]
    duration_rounds: int
    fidelity: float


class ShotBlock(NamedTuple):
    """``ShotRecord``'s fields for a run of consecutive shots, one row each."""

    teleport_attempts: np.ndarray
    rounds: np.ndarray
    duration_rounds: np.ndarray
    fidelity: np.ndarray


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
    return ShotRecord(
        attempts,
        tuple(rounds),
        duration + n_all,
        fidelity_from_deltas(params, [n_all - r for r in rounds]),
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


def qubit_depolarizing(params: SimParams, deltas: np.ndarray) -> np.ndarray:
    """p_link p_bsm^2 p_mem^(2 delta) for every entry of a 1-D ``deltas``,
    as ``fidelity_from_deltas`` computes it: with Python's ``**``
    (``np.power`` can round differently)."""
    base = params.p_link * params.p_bsm**2
    return np.array([base * params.p_mem ** (2 * d) for d in deltas.tolist()])


def block_fidelities(params: SimParams, n_all: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """``fidelity_from_deltas`` for every row of ``rounds``, bit for bit,
    its deltas being its largest round ``n_all`` minus each entry: each
    distinct delta's parameter, and its two factors of ``f_rand``, once,
    and ``f_rand``'s three running products taken column by column in its
    order."""
    deltas = n_all - rounds.T  # one contiguous row per column of rounds
    values, index = np.unique(deltas, return_inverse=True)
    p = qubit_depolarizing(params, values)
    lost_factor = (1.0 - p) / 2.0
    kept_factor = (1.0 + p) / 2.0
    prod_p = np.ones(len(rounds))
    lost = np.ones(len(rounds))
    kept = np.ones(len(rounds))
    for col in index.reshape(deltas.shape):
        prod_p *= p[col]
        lost *= lost_factor[col]
        kept *= kept_factor[col]
    core = 0.5 * (prod_p + lost + kept)
    return (1.0 - params.p_ghz) / 2.0 ** rounds.shape[1] + params.p_ghz * core


def _draw_block(params: SimParams, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The attempts, the successful attempt's rounds and the rounds of the
    failed attempts of every shot in [lo, hi), as ``run_block`` draws them.
    Every pass steps the streams in one work array, freed on return."""
    n = params.n_end_nodes
    log_miss = geometric_log_miss(params.q_link)
    streams = shot_streams(params.seed, TAG_FACTORY, lo, hi)
    attempts = np.ones(hi - lo, dtype=np.int64)
    failed_rounds = np.zeros(hi - lo, dtype=np.int64)
    # no pass draws more than (n + 1) max(_SPAN, hi - lo) uniforms
    work = np.empty(STREAM_WORK_ROWS * (n + 1) * max(_SPAN, hi - lo), dtype=np.uint64)
    if params.q_bsm == 1.0:  # no coin: the first attempt succeeds
        rounds = geometric_rounds_array(stream_random(streams, n, work), log_miss)
        return attempts, rounds, failed_rounds
    p_teleport = params.q_bsm**n
    rounds = np.empty((hi - lo, n), dtype=np.int64)
    running = np.arange(hi - lo)
    while running.size:
        # about _SPAN attempts per pass, a power of two per shot
        ahead = min(_MAX_AHEAD, 1 << (max(1, _SPAN // running.size).bit_length() - 1))
        u = stream_random(streams, ahead * (n + 1), work).reshape(running.size, ahead, n + 1)
        won = u[:, :, n] < p_teleport
        done = won.any(axis=1)
        failures = np.where(done, won.argmax(axis=1), ahead)
        longest = geometric_rounds_array(u[:, :, :n].max(axis=2), log_miss)
        longest[np.arange(ahead) >= failures[:, None]] = 0
        failed_rounds[running] += longest.sum(axis=1)
        attempts[running] += failures
        last = u[done, failures[done], :n]
        rounds[running[done]] = geometric_rounds_array(last, log_miss)
        running = running[~done]
        streams = streams[:, ~done]
    return attempts, rounds, failed_rounds


def run_block(params: SimParams, lo: int, hi: int) -> ShotBlock:
    """``run_shot_fast(params, shot_rng(params.seed, s, TAG_FACTORY))`` for
    every shot s in [lo, hi), bit for bit, with all the shots' streams
    stepped together by ``params.stream_random``.

    The draws follow ``run_shot_fast``: each attempt draws its N waits and
    then, unless q_bsm = 1, its coin; a failed attempt adds the rounds of
    its largest uniform, and only the successful attempt's uniforms become
    rounds.  The fewer shots still run, the more attempts each draws in one
    pass (a power of two up to ``_MAX_AHEAD``), so a pass handles about as
    many attempts as the first; what a shot draws after its success goes
    unused, as its own generator would never draw it.  Memory grows with
    hi - lo.  The draws' work array is freed before the fidelities are
    taken, so their temporaries reuse its memory and the heap stays the
    same size from block to block.
    """
    attempts, rounds, duration = _draw_block(params, lo, hi)
    # column by column: numpy's max along a row of a few entries costs
    # several times more
    n_all = rounds[:, 0].copy()
    for col in rounds.T[1:]:
        np.maximum(n_all, col, out=n_all)
    duration += n_all
    return ShotBlock(attempts, rounds, duration, block_fidelities(params, n_all, rounds))


def _fast_chunk(args: tuple[SimParams, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Durations and fidelities of the shots [lo, hi), ``run_block`` over
    spans of at most ``_SPAN`` shots cut at multiples of it."""
    params, lo, hi = args
    cuts = [lo, *range((lo // _SPAN + 1) * _SPAN, hi, _SPAN), hi]
    durations = np.empty(hi - lo, dtype=np.int64)
    fidelities = np.empty(hi - lo)
    for a, b in zip(cuts[:-1], cuts[1:]):
        block = run_block(params, a, b)
        durations[a - lo:b - lo] = block.duration_rounds
        fidelities[a - lo:b - lo] = block.fidelity
    return durations, fidelities


def worker_count() -> int:
    """The worker processes ``GHZDIST_WORKERS`` asks for: 1 if it is unset or
    empty, else an integer >= 1."""
    raw = os.environ.get(WORKERS_ENV, "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


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
        # imported here: the process pool costs ~10 ms of import, which a
        # single-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_fast_chunk, jobs))
        durations = np.concatenate([p[0] for p in parts])
        fidelities = np.concatenate([p[1] for p in parts])
    return summarize(durations, fidelities, params.dt)
