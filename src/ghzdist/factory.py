"""Monte Carlo engine for factory-node GHZ distribution.

Each shot turns the drawn waiting times straight into per-qubit depolarizing
parameters and the closed-form fidelity ``f_rand``.  Shots come in spans of
1,024, each drawing from one stream, ``shot_rng(seed, span, TAG_FACTORY)``,
in three parts: each shot's number of teleportation attempts, geometric in
q_bsm^N (no draw at q_bsm = 1); each shot's N waits of its successful
attempt; then one uniform per failed attempt, in shot order, which gives
the longest of that attempt's N waits (``longest_rounds``), all that a
failed attempt adds.  So the draws of a span's first m shots depend on m.
``run_shots_fast`` runs m shots of a span as plain loops and is the
reference; ``estimate`` runs ``run_block``, which reproduces it on arrays,
bit for bit.  Each span gathers its shots' depolarizing parameters through
``depolarizing`` from one table per process, kept for the latest noise
setting and filled entry by entry with the waits Δ below the estimate's
bound that the spans use, so the estimates of a sweep at fixed noise share
it.  ``summarize`` corrects the mean fidelity by each shot's summed wait, a
control of exactly known mean.  The density-matrix replay of the same noisy
teleportation that certifies this fast path lives in ``ghzdist.oracles``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .analytics import expected_n_all_exact, f_rand, harmonic
from .params import (
    TAG_FACTORY,
    ConfigError,
    SimParams,
    geometric_log_miss,
    geometric_rounds,
    geometric_rounds_array,
    longest_rounds,
    longest_rounds_array,
    sample_geometric,
    shot_rng,
)

WORKERS_ENV = "GHZDIST_WORKERS"
# expected uniforms an estimate may draw: minutes of sampling at any N (on
# one core of a 2-core x86 host, ~9 min for 2 * 10^9 shots at N = 5,
# q_bsm = 1, ~3 min for 2.8 * 10^6 shots at N = 16, q_bsm = 0.6)
ATTEMPT_DRAW_BUDGET = 1e10
# a shot's rounds are int64: its expected rounds stay this factor below
# 2^63, so a shot running that many times its mean would still fit (for a
# sum of geometric attempts, a chance of about e^-64 per shot)
DURATION_SAFETY = 64
# shots per factory stream: span k, shots [k _SPAN, (k + 1) _SPAN), draws
# from shot_rng(seed, k, TAG_FACTORY)
_SPAN = 1024
# most uniforms run_block draws at once: 128 KiB of doubles, a span's
# waits at N = 16
_DRAW_CAP = 2**14


class ShotRecord(NamedTuple):
    """One protocol execution: timing draws of the last (successful)
    teleportation attempt plus the resulting fidelity."""

    teleport_attempts: int
    rounds: tuple[int, ...]
    duration_rounds: int
    fidelity: float


class ShotBlock(NamedTuple):
    """``ShotRecord``'s fields for a run of consecutive shots, one row each,
    and each shot's summed wait S = sum_i (n_all - rounds_i) as a double,
    the control of ``summarize``'s fidelity estimate."""

    teleport_attempts: np.ndarray
    rounds: np.ndarray
    duration_rounds: np.ndarray
    fidelity: np.ndarray
    summed_wait: np.ndarray


@dataclass(frozen=True)
class Estimates:
    """Monte Carlo point estimates, each with the standard deviation of its
    sampling distribution as stderr.  The rate is the reciprocal of the mean
    duration.  The fidelity is the mean corrected by a control of exact mean
    (``summarize``): for the factory each shot's summed wait, for the switch
    each delivery's duration (the plain mean above
    ``chain.CHAIN_MAX_NODES`` end nodes)."""

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


def run_shots_fast(
    params: SimParams, rng: np.random.Generator, shots: int
) -> list[ShotRecord]:
    """The first ``shots`` shots of a span whose stream is ``rng``, as plain
    loops: the reference that ``run_block`` reproduces.  Each shot's
    attempts come from one uniform through ``geometric_rounds`` at
    q_bsm^N (all 1 at q_bsm = 1, with no draw), then each shot's N waits
    from ``sample_geometric``, then, shot by shot, ``run_shot_fast`` draws
    its failed attempts."""
    n = params.n_end_nodes
    if params.q_bsm == 1.0:
        attempts = [1] * shots
    else:
        log_fail = geometric_log_miss(params.q_bsm**n)
        attempts = geometric_rounds(rng.random(shots).tolist(), log_fail)
    waits = [sample_geometric(rng, params.q_link, n) for _ in range(shots)]
    return [run_shot_fast(params, rng, a, rounds) for a, rounds in zip(attempts, waits)]


def run_shot_fast(
    params: SimParams, rng: np.random.Generator, attempts: int, rounds: list[int]
) -> ShotRecord:
    """One shot of ``attempts`` teleportation attempts whose successful one
    waited ``rounds``: each failed attempt draws one uniform from ``rng`` and
    lasts the longest of N waits it gives (``longest_rounds``).

    No estimate runs it.  It keeps its name because the benchmark's tracer
    and ``tests/test_trace_sites.py`` look up ``factory.run_shot_fast``.
    """
    n_all = max(rounds)
    uniforms = rng.random(attempts - 1).tolist()
    failed = longest_rounds(uniforms, params.n_end_nodes, geometric_log_miss(params.q_link))
    return ShotRecord(
        teleport_attempts=attempts,
        rounds=tuple(rounds),
        duration_rounds=n_all + sum(failed),
        fidelity=fidelity_from_deltas(params, [n_all - r for r in rounds]),
    )


def check_attempt_budget(params: SimParams) -> None:
    """Reject a point whose expected draws exceed ``ATTEMPT_DRAW_BUDGET``, or
    whose expected rounds per shot, q_bsm^-N attempts of about H_N / q_link
    rounds, come within ``DURATION_SAFETY`` of the int64 durations' 2^63.

    A shot draws its N waits and, unless q_bsm = 1, one uniform for its
    attempts and one per failed attempt: N + q_bsm^-N uniforms expected."""
    n = params.n_end_nodes
    p_teleport = params.q_bsm**n  # may underflow to 0, where q_bsm ** -n raises
    attempts = 1.0 / p_teleport if p_teleport else math.inf
    draws = (n + (attempts if params.q_bsm != 1.0 else 0.0)) * params.shots
    if draws > ATTEMPT_DRAW_BUDGET:
        raise ConfigError(
            f"the factory would draw ~{draws:.2g} uniforms (budget "
            f"{ATTEMPT_DRAW_BUDGET:.0e}): each shot needs n_end_nodes = {n} waits and "
            f"q_bsm ** -n_end_nodes = {attempts:.2g} teleportation attempts at "
            f"q_bsm = {params.q_bsm}; raise q_bsm or lower shots ({params.shots})"
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
    durations_rounds: np.ndarray,
    fidelities: np.ndarray,
    dt: float,
    controls: np.ndarray | None = None,
    control_mean: float = 0.0,
) -> Estimates:
    """Aggregate per-shot results.

    The rate is 1 / mean(duration * dt); its stderr follows by error
    propagation through the reciprocal.

    The fidelity is estimated as mean(F) - beta (mean(S) - E[S]), with S the
    per-shot ``controls`` of known mean ``control_mean`` and beta the sample
    regression slope of F on S (a control variate: Lavenberg and Welch; Law
    and Kelton).  Its stderr is the residual standard deviation, with n - 2
    degrees of freedom, times sqrt(1/n + (mean(S) - E[S])^2 / S_xx), where
    S_xx is the sum of squared deviations of S.  Without controls (the
    switch above ``chain.CHAIN_MAX_NODES`` end nodes), when S has no spread
    (q_link = 1; for the switch, q_bsm = 1 too) or with fewer than 3 shots,
    beta = 0: the plain mean and its standard deviation of the mean, with
    n - 1 degrees of freedom.
    """
    shots = len(durations_rounds)
    if shots < 2:
        raise ValueError("need at least 2 shots for standard errors")
    # float even for an integer dt, as the in-place steps below need
    times = durations_rounds * float(dt)
    t_mean = float(times.sum()) / shots
    # the steps of ndarray.std(ddof=1), bit for bit, in place and at half
    # its cost
    times -= t_mean
    t_var = float(np.square(times, out=times).sum()) / (shots - 1)
    t_stderr = math.sqrt(t_var) / math.sqrt(shots)
    f_mean = float(fidelities.sum()) / shots
    df = fidelities - f_mean
    beta = sxy = gap = leverage = 0.0
    dof = shots - 1
    # the dot products are products summed by ndarray.sum, whose pairwise
    # order is fixed, rather than einsum or BLAS, whose order follows the
    # host's vector width: every field is a pure function of the draws
    if controls is not None and shots > 2:
        s_mean = float(controls.sum()) / shots
        ds = np.subtract(controls, s_mean, out=times)  # times is spent
        sxy = float((ds * df).sum())
        sxx = float(np.square(ds, out=ds).sum())
        if sxx > 0.0:
            beta, gap = sxy / sxx, s_mean - control_mean
            leverage, dof = gap * gap / sxx, shots - 2
    residual = max(float(np.square(df, out=df).sum()) - beta * sxy, 0.0)
    return Estimates(
        rate_mean=1.0 / t_mean,
        rate_stderr=t_stderr / t_mean**2,
        fidelity_mean=f_mean - beta * gap,
        # at beta = 0, ndarray.std(ddof=1) / sqrt(shots), bit for bit
        fidelity_stderr=math.sqrt(residual / dof * (1.0 + shots * leverage))
        / math.sqrt(shots),
        shots=shots,
    )


def qubit_depolarizing(params: SimParams, deltas: np.ndarray) -> np.ndarray:
    """p_link p_bsm^2 p_mem^(2 delta) for every entry of a 1-D ``deltas``,
    as ``fidelity_from_deltas`` computes it: with Python's ``**``
    (``np.power`` can round differently).  ``depolarizing`` makes every call
    the engine makes."""
    base = params.p_link * params.p_bsm**2
    return np.array([base * params.p_mem ** (2 * d) for d in deltas.tolist()])


def depolarizing_key(params: SimParams) -> tuple[float, float]:
    """The noise that fixes every table entry: p_link p_bsm^2 and p_mem."""
    return params.p_link * params.p_bsm**2, params.p_mem


# the latest noise setting's key and its table, entry Δ the depolarizing
# parameter at wait Δ (NaN until filled): at most one table per process
_key: tuple[float, float] | None = None
_table = np.empty(0)


def depolarizing(params: SimParams, deltas: np.ndarray) -> np.ndarray:
    """``qubit_depolarizing`` of every entry of ``deltas``, through the
    process's table for ``params``' noise: a new empty one (replacing the
    last) when its key differs from the last table's, so every span of every
    estimate at that noise (a ``sweep`` over q_link, say) gathers from it.

    Entries are filled one at a time, each the first time a span uses its Δ,
    and only below the estimate's bound, half its waits (N per shot): at
    small q_link the waits spread over millions of rounds, so a span's waits
    at or above the bound take their distinct deltas from ``np.unique``
    instead, and the table never grows past half the estimate's waits.
    Worker processes keep tables of their own."""
    global _key, _table
    key = depolarizing_key(params)
    if key != _key:
        _key, _table = key, np.empty(0)
    bound = params.n_end_nodes * params.shots / 2
    near, top = deltas, int(deltas.max(initial=0))
    if top >= bound:
        far = deltas >= bound
        near = deltas[~far]
        top = int(near.max(initial=0))
    if top >= len(_table):
        _table = np.concatenate((_table, np.full(top + 1 - len(_table), np.nan)))
    p = _table[near]
    missing = np.isnan(p)
    if missing.any():
        # with return_inverse, np.unique does not import numpy.ma, ~20 ms
        # of a process's first estimate
        fill, index = np.unique(near[missing], return_inverse=True)
        values = qubit_depolarizing(params, fill)
        _table[fill] = values
        p[missing] = values[index]
    if near is deltas:
        return p
    values, index = np.unique(deltas[far], return_inverse=True)
    gathered = np.empty(deltas.shape)
    gathered[far], gathered[~far] = qubit_depolarizing(params, values)[index], p
    return gathered


def run_block(params: SimParams, span: int, shots: int) -> ShotBlock:
    """The first ``shots`` shots of span ``span``, bit for bit as
    ``run_shots_fast`` records them on ``shot_rng(params.seed, span,
    TAG_FACTORY)``, with depolarizing parameters from ``depolarizing``.

    The stream gives, in order: one uniform per shot for its attempts,
    unless q_bsm = 1; the shots' N waits; one uniform per failed attempt, in
    shot order.  The waits and the failed attempts are drawn in blocks of
    at most ``_DRAW_CAP`` uniforms, and each failed attempt's rounds are
    added to its own shot's duration alone: no sum runs across shots, so
    none nears 2^63 unless a shot does (``check_attempt_budget``).
    """
    n = params.n_end_nodes
    log_miss = geometric_log_miss(params.q_link)
    rng = shot_rng(params.seed, span, TAG_FACTORY)
    if params.q_bsm == 1.0:
        attempts = np.ones(shots, dtype=np.int64)
    else:
        attempts = geometric_rounds_array(rng.random(shots), geometric_log_miss(params.q_bsm**n))
    # every block is drawn into one buffer of the cap, whatever its size:
    # blocks of one size let glibc's allocator keep its heap from block to
    # block rather than return it and fault it back in (a fresh array per
    # block costs about 700 page faults per 10^4-shot estimate at N = 16,
    # q_bsm = 0.95, on Linux)
    buffer = np.empty(_DRAW_CAP)
    rounds = np.empty((shots, n), dtype=np.int64)
    waits = rounds.reshape(-1)
    for start in range(0, waits.size, _DRAW_CAP):
        u = rng.random(out=buffer[:min(_DRAW_CAP, waits.size - start)])
        waits[start:start + len(u)] = geometric_rounds_array(u, log_miss)
    # one contiguous row of waits per column of rounds, the layout on which
    # the maximum over the rows and f_rand's products run fastest; f_rand
    # scores them elementwise: ``fidelity_from_deltas`` on each shot, bit
    # for bit
    deltas = rounds.T.copy()
    n_all = np.maximum.reduce(deltas)
    np.subtract(n_all, deltas, out=deltas)
    duration = n_all.copy()
    # shot i's failed attempts are those from edges[i] to edges[i + 1]; a
    # block's share of them, edges clipped to the block, goes to their shot
    edges = np.zeros(shots + 1, dtype=np.int64)
    np.cumsum(attempts - 1, out=edges[1:])
    failed, owners = int(edges[-1]), np.arange(shots)
    for start in range(0, failed, _DRAW_CAP):
        u = rng.random(out=buffer[:min(_DRAW_CAP, failed - start)])
        inside = np.minimum(np.maximum(edges, start), start + len(u))
        owner = np.repeat(owners, inside[1:] - inside[:-1])
        np.add.at(duration, owner, longest_rounds_array(u, n, log_miss))
    fidelity = f_rand(params.p_ghz, depolarizing(params, deltas))
    # as doubles, which hold S exactly below 2^53 and, unlike int64 at
    # large N and tiny q_link, never wrap
    summed_wait = deltas.sum(axis=0, dtype=np.float64)
    return ShotBlock(attempts, rounds, duration, fidelity, summed_wait)


def _run_spans(
    args: tuple[SimParams, int, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Durations, fidelities and summed waits of the shots of spans
    [first, last), each span cut at ``params.shots``."""
    params, first, last = args
    parts = []
    for k in range(first, last):
        block = run_block(params, k, min(_SPAN, params.shots - k * _SPAN))
        parts.append((block.duration_rounds, block.fidelity, block.summed_wait))
    return tuple(np.concatenate(column) for column in zip(*parts))


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

    The fidelity takes each shot's summed wait S as its control: the
    successful attempt's rounds are plain geometric draws (its coin is
    independent of them), so E[S] = N (E[n_all] - 1 / q_link) exactly, from
    ``expected_n_all_exact``, computed once per call at O(N^2) cost (~0.1 ms
    at N = 16, ~0.15 s at N = 1,000).

    Workers take whole spans, and each span has its own stream, so the result
    is identical no matter how many workers split the range; a single span
    starts no worker process.
    """
    check_attempt_budget(params)
    n, q_link = params.n_end_nodes, params.q_link
    mean_wait = n * (expected_n_all_exact(n, q_link) - 1.0 / q_link)
    spans = -(-params.shots // _SPAN)
    workers = min(worker_count(), spans)
    if workers == 1:
        columns = _run_spans((params, 0, spans))
    else:
        bounds = np.linspace(0, spans, workers + 1, dtype=int)
        jobs = [(params, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        # imported here: the process pool costs ~10 ms of import, which a
        # single-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            columns = [np.concatenate(c) for c in zip(*pool.map(_run_spans, jobs))]
    durations, fidelities, summed_waits = columns
    return summarize(durations, fidelities, params.dt, summed_waits, mean_wait)
