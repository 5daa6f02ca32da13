"""Monte Carlo engine for factory-node GHZ distribution.

Each shot turns the drawn waiting times straight into per-qubit depolarizing
parameters and the closed-form fidelity ``f_rand``.  Shots come in spans of
1,024, each drawing from one stream, ``shot_rng(seed, span, TAG_FACTORY)``.
``run_shot_fast`` runs one shot on a generator as a plain loop over its
attempts and is the reference; ``estimate`` runs ``run_block``, which draws a
span's attempts as rows of an array, turns a failed row into rounds only
through its largest uniform (the inverse CDF is non-decreasing, so the
largest uniform waits longest), and reproduces ``run_shot_fast`` called shot
after shot on the span's stream, bit for bit.  The spans of one job share a
``DepolarizingTable``, the depolarizing parameter at every wait Δ up to the
largest seen, from which each span gathers its shots' parameters.  The
density-matrix replay of the same noisy teleportation that certifies this
fast path lives in ``ghzdist.oracles``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .analytics import f_rand, harmonic
from .params import (
    TAG_FACTORY,
    ConfigError,
    SimParams,
    geometric_log_miss,
    geometric_rounds_array,
    sample_geometric,
    shot_rng,
)

WORKERS_ENV = "GHZDIST_WORKERS"
# expected uniforms an estimate may draw: at about a microsecond per failed
# attempt, tens of minutes of sampling at any N
ATTEMPT_DRAW_BUDGET = 1e10
# a shot's rounds are int64: its expected rounds stay this factor below
# 2^63, so a shot running that many times its mean would still fit (for a
# sum of geometric attempts, a chance of about e^-64 per shot)
DURATION_SAFETY = 64
# shots per factory stream: span k, shots [k _SPAN, (k + 1) _SPAN), draws
# from shot_rng(seed, k, TAG_FACTORY)
_SPAN = 1024
# most uniforms run_block draws at once: 1 MiB of doubles
_DRAW_CAP = 2**17


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
    """One full protocol execution as a scalar loop, the reference that
    ``run_block`` reproduces: every attempt turns all N uniforms into rounds
    with ``sample_geometric``, takes their maximum, and then, unless
    q_bsm = 1, draws the Bernoulli(q_bsm^N) coin with a second call.

    No estimate runs it.  It keeps its name because the benchmark's tracer
    and ``tests/test_trace_sites.py`` look up ``factory.run_shot_fast``.
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
    return ShotRecord(
        teleport_attempts=attempts,
        rounds=tuple(rounds),
        duration_rounds=duration,
        fidelity=fidelity_from_deltas(params, [n_all - r for r in rounds]),
    )


def check_attempt_budget(params: SimParams) -> None:
    """Reject a point whose expected draws, q_bsm^-N attempts of N + 1
    uniforms per shot, exceed ``ATTEMPT_DRAW_BUDGET``, or whose expected
    rounds per shot, q_bsm^-N attempts of about H_N / q_link rounds, come
    within ``DURATION_SAFETY`` of the int64 durations' 2^63."""
    n = params.n_end_nodes
    p_teleport = params.q_bsm**n  # may underflow to 0, where q_bsm ** -n raises
    attempts = 1.0 / p_teleport if p_teleport else math.inf
    draws = attempts * (n + 1) * params.shots
    if draws > ATTEMPT_DRAW_BUDGET:
        raise ConfigError(
            f"the factory would draw ~{draws:.2g} uniforms (budget "
            f"{ATTEMPT_DRAW_BUDGET:.0e}): each shot needs q_bsm ** -n_end_nodes = "
            f"{attempts:.2g} teleportation attempts at q_bsm = {params.q_bsm}, "
            f"n_end_nodes = {n}; raise q_bsm or lower shots ({params.shots})"
        )
    rounds = attempts * harmonic(n) / params.q_link
    if rounds * DURATION_SAFETY > 2.0**63:
        raise ConfigError(
            f"a factory shot would last ~{rounds:.2g} rounds on average, more than "
            f"2**63 / {DURATION_SAFETY} (its int64 duration keeps a factor "
            f"{DURATION_SAFETY} of headroom): raise q_link ({params.q_link}) or "
            f"q_bsm ({params.q_bsm})"
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
    (``np.power`` can round differently).  ``DepolarizingTable`` makes every
    call the engine makes."""
    base = params.p_link * params.p_bsm**2
    return np.array([base * params.p_mem ** (2 * d) for d in deltas.tolist()])


class DepolarizingTable:
    """``qubit_depolarizing`` at every wait Δ = 0, 1, ..., up to the largest
    Δ seen, shared by the spans of one job of ``waits`` waits (N per shot).

    A span whose largest Δ reaches half of ``waits`` takes its distinct
    deltas from ``np.unique`` instead, so the table holds, and spends
    ``**`` on, fewer entries than half the job's waits: at small q_link the
    waits spread over millions of rounds, and a dense table would hold that
    many."""

    def __init__(self, params: SimParams, waits: int):
        self.params = params
        self.limit = waits / 2
        self.p = np.empty(0)

    def gather(self, deltas: np.ndarray) -> np.ndarray:
        """The depolarizing parameter of every entry of ``deltas``."""
        top = int(deltas.max(initial=0))
        if top >= self.limit:
            values, index = np.unique(deltas, return_inverse=True)
            return qubit_depolarizing(self.params, values)[index.reshape(deltas.shape)]
        if top >= len(self.p):
            self._grow(top)
        return self.p[deltas]

    def _grow(self, top: int) -> None:
        """Extend the table through Δ = ``top``."""
        more = qubit_depolarizing(self.params, np.arange(len(self.p), top + 1))
        self.p = np.concatenate((self.p, more))


def _tally(
    won: np.ndarray, lost: np.ndarray, carry: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """The attempts and failed rounds of each shot that succeeds at a row in
    ``won``, and the carry into the next chunk.  ``lost`` holds each row's
    failed rounds (0 for a success); ``carry`` holds the attempts and rounds
    failed since the last success in earlier chunks.

    At a small q_link the running total of a chunk's rounds can pass 2^63
    and wrap; each difference taken from it is rounds of one shot, far below
    2^63 (``check_attempt_budget``), so int64's modular arithmetic still
    gives it exactly.  They are all taken as one array ``np.diff``, which,
    unlike a scalar subtraction, does not warn when it wraps."""
    total = np.cumsum(lost)
    ends = np.concatenate(([-1 - carry[0]], won))
    rounds = np.diff(np.concatenate(([-carry[1]], total[won], total[-1:])))
    return np.diff(ends), rounds[:-1], (len(lost) - 1 - ends[-1], rounds[-1])


def run_block(
    params: SimParams, span: int, shots: int, table: DepolarizingTable | None = None
) -> ShotBlock:
    """The first ``shots`` shots of span ``span``, bit for bit as that many
    sequential ``run_shot_fast`` calls on ``shot_rng(params.seed, span,
    TAG_FACTORY)`` record them, with depolarizing parameters from ``table``
    (by default one of its own, for a job of these shots alone).

    Each attempt is one row of N waits and, unless q_bsm = 1, its coin, drawn
    in (rows, N + 1) chunks of at most ``_DRAW_CAP`` uniforms, sized for the
    shots still to run.  A shot ends at the first row whose coin is below
    q_bsm^N; it took the attempts since the previous shot's success, and a
    failed attempt adds the rounds of its largest uniform.  Rows drawn after
    the last shot's success go unused.
    """
    n = params.n_end_nodes
    log_miss = geometric_log_miss(params.q_link)
    coin = params.q_bsm != 1.0  # at q_bsm = 1 no coin is drawn
    p_teleport = params.q_bsm**n
    rng = shot_rng(params.seed, span, TAG_FACTORY)
    if table is None:
        table = DepolarizingTable(params, n * shots)
    attempts = np.empty(shots, dtype=np.int64)
    duration = np.empty(shots, dtype=np.int64)
    rounds = np.empty((shots, n), dtype=np.int64)
    # every chunk is drawn into a block of the cap, whatever its rows: blocks
    # of one size let glibc's allocator keep its heap from chunk to chunk
    # rather than return it and fault it back in (at N = 16, about 1,300
    # page faults per 10^4-shot estimate on Linux)
    cap = max(1, _DRAW_CAP // (n + coin))
    done, carry = 0, (0, 0)
    while done < shots:
        need = shots - done
        # the expected rows and four standard deviations: mostly one chunk
        rows = math.ceil((need + 4 * math.sqrt(need * (1.0 - p_teleport))) / p_teleport)
        u = rng.random(out=np.empty((cap, n + coin))[:min(rows, cap)])
        lost = np.zeros(len(u), dtype=np.int64)
        if coin:
            failed = u[:, n] >= p_teleport
            won = np.flatnonzero(~failed)[:need]
            lost[failed] = geometric_rounds_array(u[failed, :n].max(axis=1), log_miss)
        else:
            won = np.arange(len(u))
        found = slice(done, done + len(won))
        attempts[found], duration[found], carry = _tally(won, lost, carry)
        rounds[found] = geometric_rounds_array(u[won, :n], log_miss)
        done += len(won)
    # column by column: numpy's max along a row of a few entries costs
    # several times more
    n_all = rounds[:, 0].copy()
    for col in rounds.T[1:]:
        np.maximum(n_all, col, out=n_all)
    duration += n_all
    # one contiguous row of parameters per column of rounds, scored by f_rand
    # elementwise: ``fidelity_from_deltas`` on each shot, bit for bit
    fidelity = f_rand(params.p_ghz, table.gather(n_all - rounds.T))
    return ShotBlock(attempts, rounds, duration, fidelity)


def _run_spans(args: tuple[SimParams, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Durations and fidelities of the shots of spans [first, last), each
    span cut at ``params.shots``, with one ``DepolarizingTable`` for all."""
    params, first, last = args
    shots = min(last * _SPAN, params.shots) - first * _SPAN
    table = DepolarizingTable(params, params.n_end_nodes * shots)
    parts = []
    for k in range(first, last):
        block = run_block(params, k, min(_SPAN, params.shots - k * _SPAN), table)
        parts.append((block.duration_rounds, block.fidelity))
    durations, fidelities = zip(*parts)
    return np.concatenate(durations), np.concatenate(fidelities)


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

    Workers take whole spans, and each span has its own stream, so the result
    is identical no matter how many workers split the range; a single span
    starts no worker process.
    """
    check_attempt_budget(params)
    spans = -(-params.shots // _SPAN)
    workers = min(worker_count(), spans)
    if workers == 1:
        return summarize(*_run_spans((params, 0, spans)), params.dt)
    bounds = np.linspace(0, spans, workers + 1, dtype=int)
    jobs = [(params, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    # imported here: the process pool costs ~10 ms of import, which a
    # single-worker run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        durations, fidelities = zip(*pool.map(_run_spans, jobs))
    return summarize(np.concatenate(durations), np.concatenate(fidelities), params.dt)
