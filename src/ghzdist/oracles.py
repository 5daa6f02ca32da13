"""Independent brute-force references for the closed forms and the engines.

Nothing here reuses the formula under test: waiting-time expectations come
from exhaustive round enumeration and the alternating binomial sum, G from
direct sampling, ``f_rand`` from the explicit 2^N-term overlap sum and from
dense channel composition, the subset coefficients B_|U| from the
coefficient identity against that sum, the closed-form fidelity from the
literal sum over subsets of arrival ranks, per-shot fidelities from a full
density-matrix replay of the teleportation pipeline, the factory's block
engine from its plain per-attempt loop (``factory.run_shot_fast``, which
turns every attempt's uniforms into rounds) run shot after shot on the
span's stream, the switch's entanglement swap with its pending noise from a
dense Bell measurement, its fusions and noise-ledger read-out from the same
fusions on dense matrices (a dense CNOT, a Z projection and dense X gates),
the read-out's tree DP from the 2^(N-1)-term character sum, its link jump
from a loop of single rounds, and its deliveries at p_mem = 1 from the tree
closed form.
The dense side is ``ghzdist.dm``.  ``CHECKS`` lists the comparisons that
``verify`` runs.  The engines import nothing from here, which
``tests/test_layering.py`` checks.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import analytics, dm as dmod, factory, switch
from .analytics import GSpec
from .dm import DensityMatrix, Qubit
from .factory import fidelity_from_deltas
from .params import TAG_FACTORY, ConfigError, SimParams, shot_rng

SUBSET_SUM_MAX_QUBITS = 24  # 2^N subset enumeration feasibility cap
ENUMERATION_MAX_LINKS = 4
ENUMERATION_RESIDUAL = 1e-13
ENUMERATION_MAX_HORIZON = 5_000_000


@dataclass(frozen=True)
class WaitingTimeTable:
    """E[round of i-th success] for i = 1..n, exact up to the residual tail."""

    expectations: tuple[float, ...]
    captured_mass: float
    horizon: int


def enumerate_waiting_times(
    n: int, q: float, horizon: int | None = None
) -> WaitingTimeTable:
    """Expected order statistics of n geometric(q) links by exhaustive rounds.

    The round-by-round state collapses to the number of unfinished links
    (links are exchangeable), so the enumeration is exact over the horizon.
    The horizon is sized so the untracked tail mass is below 1e-13 per order
    statistic.
    """
    if not 1 <= n <= ENUMERATION_MAX_LINKS:
        raise ConfigError(f"enumeration supports 1..{ENUMERATION_MAX_LINKS} links")
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"q must be in (0, 1], got {q}")
    if horizon is None:
        if q == 1.0:
            horizon = 1
        else:
            horizon = int(math.ceil(math.log(ENUMERATION_RESIDUAL / n) / math.log1p(-q)))
        horizon = max(horizon, 1)
    if horizon > ENUMERATION_MAX_HORIZON:
        raise ConfigError(
            f"horizon {horizon} infeasible (cap {ENUMERATION_MAX_HORIZON}); q too small"
        )

    # binom_step[j, k]: j unfinished links, k of them succeed this round
    binom_step = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k in range(j + 1):
            binom_step[j, k] = math.comb(j, k) * q**k * (1.0 - q) ** (j - k)

    state = np.zeros(n + 1)
    state[n] = 1.0
    expectations = np.zeros(n)
    mass = np.zeros(n)
    for r in range(1, horizon + 1):
        new_state = np.zeros(n + 1)
        for j in range(n + 1):
            if state[j] == 0.0:
                continue
            for k in range(j + 1):
                prob = state[j] * binom_step[j, k]
                if prob == 0.0:
                    continue
                new_state[j - k] += prob
                done_before = n - j
                for i in range(done_before + 1, done_before + k + 1):
                    expectations[i - 1] += r * prob
                    mass[i - 1] += prob
        state = new_state
    captured = float(mass.min())
    if captured < 1.0 - 1e-12:
        raise ConfigError(
            f"horizon {horizon} leaves residual mass {1.0 - captured:.3e}"
        )
    return WaitingTimeTable(tuple(expectations), captured, horizon)


def n_all_alternating_sum(n: int, q: float) -> float:
    """E[max of n iid geometric(q)] as the alternating binomial sum
    sum_j (-1)^(j+1) C(n, j) / (1 - (1-q)^j).

    Exact in exact arithmetic, but its terms cancel catastrophically in
    doubles beyond n ~ 40; use it at small n only.
    """
    return math.fsum(
        (-1.0) ** (j + 1) * math.comb(n, j) / (1.0 - (1.0 - q) ** j)
        for j in range(1, n + 1)
    )


def mc_g(
    spec: GSpec, q: float, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of G: draw the N waiting times, take order
    statistics, and average prod (1 - r_i)^(last arrival - arrival of c_i)."""
    if samples < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {samples}")
    n = spec.n_total
    total = 0.0
    total_sq = 0.0
    batch = 250_000
    done = 0
    while done < samples:
        size = min(batch, samples - done)
        draws = rng.geometric(q, size=(size, n))
        draws.sort(axis=1)
        last = draws[:, -1]
        vals = np.ones(size)
        for pos, rate in zip(spec.positions, spec.rates):
            if rate > 0.0:
                vals *= (1.0 - rate) ** (last - draws[:, pos - 1])
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += size
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0) * samples / (samples - 1)
    return mean, math.sqrt(var / samples)


def ghz_overlap_subset_sum(p: Sequence[float]) -> float:
    """Explicit 2^N-term subset sum behind ``analytics.f_rand`` (p_ghz
    stripped); f_rand evaluates the same polynomial in product form."""
    n = len(p)
    if n > SUBSET_SUM_MAX_QUBITS:
        raise ValueError(f"subset sum infeasible beyond {SUBSET_SUM_MAX_QUBITS} qubits")
    total = 0.0
    for mask in range(2**n):
        size = mask.bit_count()
        weight = 2.0 ** ((size == 0) + (size == n) - 1)
        term = weight
        for i in range(n):
            term *= (1.0 - p[i]) / 2.0 if (mask >> i) & 1 else p[i]
        total += term
    return total


def coefficient_identity_check(
    n: int, rng: np.random.Generator, samples: int = 100
) -> float:
    """Max |subset-sum form - B-coefficient form| over the all-zero, the
    all-one and ``samples`` random p vectors drawn from ``rng``, with B_|U|
    from ``analytics.subset_coefficient_b``."""
    if n > 8:
        raise ValueError("identity check capped at n = 8")
    vectors = [np.zeros(n), np.ones(n)]
    vectors += [rng.random(n) for _ in range(samples)]
    worst = 0.0
    for p in vectors:
        lhs = ghz_overlap_subset_sum(p)
        rhs = 0.0
        for mask in range(2**n):
            size = mask.bit_count()
            term = analytics.subset_coefficient_b(size, n)
            for i in range(n):
                if (mask >> i) & 1:
                    term *= p[i]
            rhs += term
        worst = max(worst, abs(lhs - rhs))
    return worst


def fidelity_subset_sum(params: SimParams, mode: str) -> float:
    """The closed-form factory fidelity as the literal 2^N-term sum of
    A_|U| G(U) over all subsets U of arrival ranks."""
    n = params.n_end_nodes
    if n > SUBSET_SUM_MAX_QUBITS:
        raise ConfigError(f"subset sum infeasible beyond {SUBSET_SUM_MAX_QUBITS} end nodes")
    rate = 1.0 - params.p_mem**2
    total = 0.0
    for mask in range(2**n):
        positions = tuple(i + 1 for i in range(n) if (mask >> i) & 1)
        coeff = analytics.fidelity_coefficient(
            len(positions), n, params.p_link, params.p_bsm
        )
        spec = GSpec(n, positions, (rate,) * len(positions))
        total += coeff * analytics.g_value(spec, params.q_link, mode)
    return (1.0 - params.p_ghz) / 2.0**n + params.p_ghz * total


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
        state = dmod.pauli_correct(state, remote, bits)
    return state


def replay_factory_dm(
    params: SimParams,
    rounds: Sequence[int],
    outcomes: Sequence[tuple[int, int]] | None = None,
) -> float:
    """Fidelity of one factory execution replayed as density matrices.

    ``rounds`` are the per-node Bell distribution rounds of the successful
    attempt; ``outcomes`` optionally forces the Bell measurement branches.
    Defaults to identity outcomes; branch equivalence is tested elsewhere.
    """
    n = params.n_end_nodes
    if n > 3:
        raise ConfigError("density-matrix replay supports at most 3 end nodes")
    if outcomes is None:
        outcomes = [(0, 0)] * n
    outcomes = list(outcomes)

    def choose(state: DensityMatrix, q_a: Qubit, q_b: Qubit) -> tuple[int, int]:
        return outcomes[q_a.slot]

    final = teleport_pipeline(params, rounds, choose)
    return dmod.fidelity_to_ghz(final)


def factory_outcome_branches(
    params: SimParams, rounds: Sequence[int]
) -> list[list[tuple[float, DensityMatrix]]]:
    """Per teleportation step, the four corrected post-measurement states.

    The pipeline is advanced along the identity-outcome branch; equality of
    the four corrected branches at every step implies equality of all 4^N
    leaves of the full outcome tree.
    """
    n = params.n_end_nodes
    if n > 3:
        raise ConfigError("branch enumeration supports at most 3 end nodes")
    branches: list[list[tuple[float, DensityMatrix]]] = []

    def choose(state: DensityMatrix, q_a: Qubit, q_b: Qubit) -> tuple[int, int]:
        step: list[tuple[float, DensityMatrix]] = []
        remote = Qubit(q_a.slot + 1, 0)
        for i in (0, 1):
            for j in (0, 1):
                prob, post = dmod.project_bell(state, q_a, q_b, (i, j))
                step.append((prob, dmod.pauli_correct(post, remote, (i, j))))
        branches.append(step)
        return (0, 0)

    teleport_pipeline(params, rounds, choose)
    return branches


@lru_cache(maxsize=None)
def _even_weight_rows(k: int) -> np.ndarray:
    """Every t in {0, 1}^k of even weight, one read-only 0/1 row each."""
    bits = np.arange(2**k)[:, None] >> np.arange(k) & 1
    rows = bits[bits.sum(axis=1) % 2 == 0]
    rows.flags.writeable = False
    return rows


def ghz_fidelity_character_sum(group: switch.Component, now: int, p_mem: float) -> float:
    """Fidelity to the GHZ state on the group's k qubits at round now,
    each qubit's pending channel entered as (d_v, 1 << v):
    1/2 prod_e d_e + 2^-k sum_t prod_e d_e^[<t, S_e> odd] over the
    even-weight t, its 2^(k-1) terms one row each.  The reference for
    ``switch.Component.ghz_fidelity``'s tree DP."""
    nodes = list(group.pending)
    entries = group.entries + [(group.factor(v, now, p_mem), 1 << v) for v in nodes]
    d = np.array([p for p, _ in entries])
    members = np.array([s for _, s in entries])[:, None] >> np.array(nodes) & 1
    odd = (_even_weight_rows(len(nodes)) @ members.T) & 1
    terms = np.where(odd, d, 1.0).prod(axis=1)
    return 0.5 * float(d.prod()) + float(terms.sum()) / 2 ** len(nodes)


def advance_round(
    state: switch.NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """One time step: stored qubits age by one round, then every connection
    with no link pair waiting attempts one."""
    state.round += 1
    events: list[tuple] = []
    for conn in range(1, params.n_end_nodes + 1):
        if state.born[conn] == switch.NO_LINK and rng.random() < params.q_link:
            state.born[conn] = state.round
            events.append(("link", conn))
    return events


def order_stat_error(_rng) -> float:
    """Waiting-time enumeration against the exact order-statistic recursion."""
    worst = 0.0
    for n, q in [(2, 0.5), (3, 0.3), (4, 0.6), (4, 0.1)]:
        table = enumerate_waiting_times(n, q)
        for i in range(1, n + 1):
            exact = analytics.expected_order_stat(i, n, q, "exact")
            worst = max(worst, abs(exact - table.expectations[i - 1]))
    return worst


def n_all_error(_rng) -> float:
    """The alternating-sum maximum against the recursion at i = n."""
    return max(
        abs(n_all_alternating_sum(n, q) - analytics.expected_order_stat(n, n, q, "exact"))
        for n in range(1, 7)
        for q in (0.1, 0.5, 0.9)
    )


def depolarize_composition_error(rng: np.random.Generator) -> float:
    """Depolarizing composition law on random two-qubit states."""
    worst = 0.0
    for _ in range(20):
        state = _random_state(rng, 2)
        q = state.labels[0]
        p1, p2 = rng.random(), rng.random()
        once = dmod.depolarize(dmod.depolarize(state, (q,), p1), (q,), p2)
        fused = dmod.depolarize(state, (q,), p1 * p2)
        worst = max(worst, dmod.max_abs_diff(once, fused))
    return worst


def teleportation_error(rng: np.random.Generator) -> float:
    """Noiseless teleportation round trip over all four outcomes."""
    worst = 0.0
    for _ in range(10):
        single = _random_state(rng, 1, labels=(Qubit(9, 9),))
        resource = dmod.make_bell(Qubit(0, 0), Qubit(1, 0))
        joint = dmod.tensor(single, resource)
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            prob, post = dmod.project_bell(joint, Qubit(9, 9), Qubit(0, 0), bits)
            fixed = dmod.pauli_correct(post, Qubit(1, 0), bits)
            err = float(np.max(np.abs(fixed.mat - single.mat)))
            worst = max(worst, abs(prob - 0.25), err)
    return worst


def f_rand_dm_error(rng: np.random.Generator) -> float:
    """``f_rand`` against the GHZ fidelity of channel composition: a dense
    GHZ state depolarized by p_ghz on all qubits, then by p_i on qubit i."""
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(10):
            p_ghz, p = rng.random(), rng.random(n)
            state = dmod.make_ghz(n)
            state = dmod.depolarize(state, state.labels, p_ghz)
            for q, pi in zip(state.labels, p):
                state = dmod.depolarize(state, (q,), pi)
            worst = max(worst, abs(dmod.fidelity_to_ghz(state) - analytics.f_rand(p_ghz, p)))
    return worst


def f_rand_subset_sum_error(rng: np.random.Generator) -> float:
    """``f_rand``'s product form against the explicit subset sum (p_ghz = 1
    strips the mixing term, leaving exactly the summed overlap)."""
    worst = 0.0
    for n in (2, 4, 6):
        for _ in range(10):
            p = rng.random(n)
            worst = max(worst, abs(ghz_overlap_subset_sum(p) - analytics.f_rand(1.0, p)))
    return worst


G_SPEC = GSpec(5, (1, 3, 5), (2e-4, 2e-4, 2e-4))


def g_leading_error(rng: np.random.Generator) -> float:
    """Leading-order G against direct sampling, relative: the approximation
    carries an O(q_link) systematic error, so the gate is not statistical."""
    mean, _ = mc_g(G_SPEC, 0.01, 200_000, rng)
    return abs(analytics.g_value(G_SPEC, 0.01, "leading") - mean) / mean


def g_lower_bound_z(rng: np.random.Generator) -> float:
    """By how many standard errors the lower bound on G exceeds direct
    sampling."""
    mean, stderr = mc_g(G_SPEC, 0.01, 200_000, rng)
    return (analytics.g_value(G_SPEC, 0.01, "lower_bound") - mean) / stderr


def g_lower_bound_gap(rng: np.random.Generator) -> float:
    """How far the lower bound on G falls below direct sampling, relative to
    the sampled mean: the other side of ``g_lower_bound_z``, so that a bound
    that is valid but loose fails too."""
    mean, _ = mc_g(G_SPEC, 0.01, 200_000, rng)
    return (mean - analytics.g_value(G_SPEC, 0.01, "lower_bound")) / mean


def dm_replay_error(rng: np.random.Generator) -> float:
    """Density-matrix replay against the fast fidelity kernel."""
    worst = 0.0
    for n in (2, 3):
        for _ in range(8):
            params = SimParams(
                n_end_nodes=n,
                q_link=0.5,
                p_link=0.9 + 0.1 * rng.random(),
                p_mem=0.95 + 0.05 * rng.random(),
                p_bsm=0.9 + 0.1 * rng.random(),
                p_ghz=0.8 + 0.2 * rng.random(),
            )
            rounds = [int(x) for x in rng.integers(1, 6, size=n)]
            delta = [max(rounds) - r for r in rounds]
            ref = replay_factory_dm(params, rounds)
            worst = max(worst, abs(ref - fidelity_from_deltas(params, delta)))
    return worst


def fidelity_recursion_error(rng: np.random.Generator) -> float:
    """The O(N^2) fidelity recursion against the literal subset sum, relative."""
    worst = 0.0
    for n in range(2, 9):
        params = SimParams(
            n_end_nodes=n,
            q_link=float(rng.choice([0.005, 0.05, 0.5])),
            p_link=0.9 + 0.1 * rng.random(),
            p_mem=1.0 - 0.01 * rng.random(),
            p_bsm=0.9 + 0.1 * rng.random(),
            p_ghz=0.8 + 0.2 * rng.random(),
        )
        for mode in ("leading", "lower_bound"):
            ref = fidelity_subset_sum(params, mode)
            got = analytics.fidelity_closed_form(params, mode).value
            worst = max(worst, abs(got - ref) / ref)
    return worst


def block_factory_mismatches(rng: np.random.Generator) -> int:
    """How many shots of ``factory.run_block(params, span, m)`` differ in any
    field from m sequential calls of the plain loop ``factory.run_shot_fast``
    on ``shot_rng(seed, span, TAG_FACTORY)``, at one random seed.  Over q_bsm
    in {1, 0.95, 0.8}, N in {2, 5, 16} and q_link in {1e-6, 0.01, 0.5, 1},
    (span, m) runs through (0, a whole span), (1, 7) and (2^40, 1), so each
    (q_bsm, N) meets all three; and m = 3 at span 1 at N = 16, q_bsm = 0.6,
    where a chunk of draws can hold no success (one does on the ``verify``
    stream)."""
    seed = int(rng.integers(2**64, dtype=np.uint64))
    cases = itertools.cycle(((0, factory._SPAN), (1, 7), (2**40, 1)))
    grid = itertools.product((1.0, 0.95, 0.8), (2, 5, 16), (1e-6, 0.01, 0.5, 1.0))
    points = [(n, q_link, q_bsm, *next(cases)) for q_bsm, n, q_link in grid]
    points.append((16, 0.5, 0.6, 1, 3))
    mismatches = 0
    for n, q_link, q_bsm, span, m in points:
        params = SimParams(
            n_end_nodes=n, q_link=q_link, q_bsm=q_bsm,
            p_link=0.98, p_mem=0.999, p_bsm=0.99, p_ghz=0.9, seed=seed,
        )
        block = factory.run_block(params, span, m)
        stream = shot_rng(seed, span, TAG_FACTORY)
        for row in range(m):
            mismatches += factory.run_shot_fast(params, stream) != (
                block.teleport_attempts[row], tuple(block.rounds[row].tolist()),
                block.duration_rounds[row], block.fidelity[row],
            )
    return mismatches


def werner_swap_error(rng: np.random.Generator) -> float:
    """Worst deviation of a successful ``switch.do_switch_bsms`` on two aged
    link pairs, read out by its ledger, from the dense chain: each pair
    depolarized by p_link, both its qubits by p_mem per round waited and its
    switch qubit by p_bsm, then each Bell outcome projected (with
    probability 1/4) and Pauli-corrected, and <Phi+| rho |Phi+> taken.
    20 random draws of p_link, p_mem, p_bsm and waits."""
    worst = 0.0
    for _ in range(20):
        params = SimParams(
            n_end_nodes=2,
            q_link=0.5,
            p_link=float(rng.random()),
            p_mem=float(rng.choice([1.0, 0.8 + 0.2 * rng.random()])),
            p_bsm=0.8 + 0.2 * rng.random(),
        )
        born = {c: int(b) for c, b in zip((1, 2), rng.integers(0, 5, size=2))}
        now = max(born.values()) + int(rng.integers(0, 4))
        state = switch.NetworkState(2, round=now)
        for conn, b in born.items():
            state.born[conn] = b
        switch.do_switch_bsms(state, params, rng)
        (group,) = state.groups()
        fidelity = group.ghz_fidelity(now, params.p_mem)
        pairs = []
        for conn, b in born.items():
            held, remote = Qubit(0, conn), Qubit(conn, 0)
            pair = dmod.depolarize(dmod.make_bell(held, remote), (held,), params.p_link)
            for q in [held, remote] * (now - b):
                pair = dmod.depolarize(pair, (q,), params.p_mem)
            pairs.append(dmod.depolarize(pair, (held,), params.p_bsm))
        joint = dmod.tensor(*pairs)
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            prob, post = dmod.project_bell(joint, Qubit(0, 1), Qubit(0, 2), bits)
            fixed = dmod.pauli_correct(post, Qubit(2, 0), bits)
            worst = max(worst, abs(prob - 0.25), abs(dmod.fidelity_to_ghz(fixed) - fidelity))
    return worst


def switch_ledger_error(rng: np.random.Generator) -> float:
    """Worst deviation of ``switch.do_fusions`` and the ledger read-out from
    the same fusions on dense matrices, each Z outcome drawn here.

    For N in 2..7, a random chain through the end nodes holds one Phi+ group
    per link, each qubit owing a random pending factor since a random round.
    The links go in over two rounds, each fused as it goes in, with p_mem
    aging between the rounds and before the read-out.  The dense side builds each pair with
    ``dm.make_bell``, depolarizes each qubit by what it owes when it is
    fused or read out, fuses with ``dm.fusion`` read as a fair coin from this
    check's stream (a dense CNOT and Z projection, whose probability of
    reading 0 must be 1/2, then on outcome 1 X on the target group's other
    qubits), and reads ``dm.fidelity_to_ghz``.  The engine draws no outcome,
    as once corrected both leave one state; the coin makes the dense side
    show it.  The dense control is the qubit in slot 0, the engine's that of
    the group already held at the node, so either may be the one that
    arrived.  Three chains per N."""
    worst = 0.0
    for n, _ in itertools.product(range(2, 8), range(3)):
        params = SimParams(n_end_nodes=n, q_link=0.5, p_mem=0.8 + 0.2 * float(rng.random()))
        nodes = [int(x) + 1 for x in rng.permutation(n)]
        # a node's link to its successor takes its random slot, the one to
        # its predecessor the other
        slot = {node: int(rng.integers(2)) for node in nodes}
        pairs = [(Qubit(u, slot[u]), Qubit(v, 1 - slot[v])) for u, v in zip(nodes, nodes[1:])]
        owed = {q: (float(rng.random()), int(rng.integers(0, 3))) for pair in pairs for q in pair}
        state = switch.NetworkState(n)
        dense: dict[Qubit, DensityMatrix] = {}

        def decay(group: DensityMatrix, q: Qubit, now: int) -> DensityMatrix:
            """``group`` with the channel q owes at round now applied."""
            d, since = owed[q]
            owed[q] = (1.0, now)
            return dmod.depolarize(group, (q,), d * params.p_mem ** (now - since))

        first = int(rng.integers(len(pairs) + 1))
        for batch in (pairs[:first], pairs[first:]):
            state.round += int(rng.integers(3, 6))
            for a, b in batch:
                state.arriving = switch.Component(
                    1 << a.node | 1 << b.node, {q.node: owed[q] for q in (a, b)}, 2)
                dense[a] = dense[b] = dmod.make_bell(a, b)
                for _, node in switch.do_fusions(state, params, rng):
                    bit = int(rng.random() >= 0.5)
                    control, target = Qubit(node, 0), Qubit(node, 1)
                    group_a = decay(dense[control], control, state.round)
                    group_b = decay(dense[target], target, state.round)
                    flip = [q for q in group_b.labels if q != target]
                    p0, _, fused = dmod.fusion(
                        dmod.tensor(group_a, group_b), control, target, lambda _: bit, flip
                    )
                    worst = max(worst, abs(p0 - 0.5))
                    del dense[target]
                    dense.update(dict.fromkeys(fused.labels, fused))
        state.round += int(rng.integers(0, 3))
        (group,) = state.groups()
        # every label left maps to the one fused matrix
        final = next(iter(dense.values()))
        for q in final.labels:
            final = decay(final, q, state.round)
        ref = dmod.fidelity_to_ghz(final)
        worst = max(worst, abs(group.ghz_fidelity(state.round, params.p_mem) - ref))
    return worst


def switch_fidelity_error(rng: np.random.Generator) -> float:
    """Worst relative gap between switch deliveries at p_mem = 1 and the tree
    closed form: 4 deliveries at each N in 2..7, 16 and 24 and q_bsm in
    {1, 0.7}, with p_link and p_bsm from [0.7, 1] and q_link from [0.2, 1]."""
    worst = 0.0
    for n, q_bsm in itertools.product((*range(2, 8), 16, 24), (1.0, 0.7)):
        p_link, p_bsm = 0.7 + 0.3 * rng.random(2)
        params = SimParams(n_end_nodes=n, q_link=0.2 + 0.8 * rng.random(), q_bsm=q_bsm,
                           p_link=float(p_link), p_bsm=float(p_bsm))
        ref = analytics.switch_fidelity_perfect_memory(n, params.p_link, params.p_bsm)
        state = switch.NetworkState(n)
        for _ in range(4):
            fidelity = switch.run_to_ghz(state, params, rng)[0].fidelity
            worst = max(worst, abs(fidelity - ref) / ref)
    return worst


def switch_readout_error(rng: np.random.Generator) -> float:
    """Worst relative gap between the tree DP ``switch.Component.
    ghz_fidelity`` and the character sum ``ghz_fidelity_character_sum`` on
    ledgers at N in 2..14, built as ``switch_ledger_error`` builds its: one
    Phi+ group per edge of a random tree on the end nodes, each qubit owing
    a pending factor since a random round, fused by ``switch.do_fusions``
    as it goes in, with p_mem aging between the edges and before the
    read-out.  The tree is a chain through a random order of the nodes, or
    joins each node of that order to a random earlier one; its edges go in
    in random order.  A factor is 0, 1 or
    uniform, and the finished ledger gains a copy of a random entry's S
    with d = 1.  Three ledgers per N and tree shape."""
    worst = 0.0
    for n, chain, _ in itertools.product(range(2, 15), (True, False), range(3)):
        params = SimParams(n_end_nodes=n, q_link=0.5, p_mem=0.8 + 0.2 * float(rng.random()))
        order = [int(x) + 1 for x in rng.permutation(n)]
        edges = [(order[i - 1] if chain else order[int(rng.integers(i))], order[i])
                 for i in range(1, n)]
        state = switch.NetworkState(n)
        for k in rng.permutation(len(edges)):
            u, v = edges[k]
            state.round += int(rng.integers(0, 3))
            owed = {x: (float(rng.choice([0.0, 1.0, rng.random()], p=[0.1, 0.3, 0.6])),
                        state.round - int(rng.integers(0, 3))) for x in (u, v)}
            state.arriving = switch.Component(1 << u | 1 << v, owed, 2)
            switch.do_fusions(state, params, rng)
        state.round += int(rng.integers(0, 3))
        (group,) = state.groups()
        if group.entries:
            group.entries.append((1.0, group.entries[int(rng.integers(len(group.entries)))][1]))
        ref = ghz_fidelity_character_sum(group, state.round, params.p_mem)
        worst = max(worst, abs(group.ghz_fidelity(state.round, params.p_mem) - ref) / ref)
    return worst


def _random_state(
    rng: np.random.Generator, k: int, labels: Sequence[Qubit] | None = None
) -> DensityMatrix:
    """Random full-rank density matrix on k qubits (Wishart construction)."""
    dim = 2**k
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    if labels is None:
        labels = tuple(Qubit(50 + i, 0) for i in range(k))
    return DensityMatrix(tuple(labels), mat)


VERIFY_SEED = 20240601

# The oracle suite behind the ``verify`` command, as (name, tolerance, check):
# each check compares an independent reference against the closed form or
# engine it covers, draws only from the stream it is handed, and returns the
# observed error, which passes when it is at most the tolerance.
CHECKS = (
    ("order_stat_exact_vs_enumeration", 1e-9, order_stat_error),
    ("n_all_alternating_sum_vs_recursion", 1e-10, n_all_error),
    ("depolarize_composition", 1e-12, depolarize_composition_error),
    ("noiseless_teleportation_identity", 1e-12, teleportation_error),
    ("f_rand_vs_dm_fidelity", 1e-12, f_rand_dm_error),
    ("f_rand_product_vs_subset_sum", 1e-12, f_rand_subset_sum_error),
    ("coefficient_identity", 1e-10,
     lambda rng: max(coefficient_identity_check(n, rng) for n in range(2, 7))),
    ("g_leading_vs_mc_relative", 0.01, g_leading_error),
    ("g_lower_bound_below_mc", 3.0, g_lower_bound_z),
    ("dm_replay_vs_fast_kernel", 1e-10, dm_replay_error),
    ("fidelity_recursion_vs_subset_sum", 1e-12, fidelity_recursion_error),
    ("werner_swap_vs_dense_bsm", 1e-12, werner_swap_error),
    ("block_vs_scalar_factory", 0.0, block_factory_mismatches),
    ("g_lower_bound_gap_relative", 0.055, g_lower_bound_gap),
    ("switch_fidelity_vs_tree_closed_form", 1e-12, switch_fidelity_error),
    ("switch_ledger_vs_dense_groups", 1e-12, switch_ledger_error),
    ("switch_readout_vs_character_sum", 1e-12, switch_readout_error),
)


def run_verification() -> dict:
    """Run every entry of ``CHECKS`` on a stream of its own, seeded by
    ``VERIFY_SEED`` and the CRC-32 of the check's name, so no check's draws
    depend on which checks run before it."""
    start = time.perf_counter()
    checks = []
    for name, tolerance, check in CHECKS:
        rng = np.random.default_rng((VERIFY_SEED, zlib.crc32(name.encode())))
        observed = float(check(rng))
        checks.append(
            {"name": name, "tolerance": tolerance, "observed": observed,
             "passed": observed <= tolerance}
        )
    return {
        "all_passed": all(c["passed"] for c in checks),
        "runtime_s": time.perf_counter() - start,
        "checks": checks,
    }
