"""Independent brute-force references for the closed forms and the engines.

Nothing here reuses the formula under test: waiting-time expectations come
from exhaustive round enumeration and the alternating binomial sum, G from
direct sampling, ``f_rand`` from the explicit 2^N-term overlap sum, the
subset coefficients B_|U| from the coefficient identity against that sum,
the closed-form fidelity from the literal sum over subsets of arrival ranks,
per-shot fidelities from a full density-matrix replay of the teleportation
pipeline, the factory's shot kernel from a loop that turns every attempt's
uniforms into rounds, fusion from a dense CNOT plus a Z projection, the
per-shot streams from a literal numpy SeedSequence, the switch's
Werner-weight entanglement swap from a dense Bell measurement, and its
diagonal read-out from dense per-qubit depolarizing.  The engines import
nothing from here.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import analytics, dm as dmod, factory, switch
from .analytics import GSpec
from .dm import DensityMatrix, Qubit
from .factory import ShotRecord, fidelity_from_deltas
from .params import (
    TAG_FACTORY,
    TAG_SWITCH,
    ConfigError,
    SimParams,
    sample_geometric,
    shot_rng,
)

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


def coefficient_identity_check(n: int, samples: int = 100, seed: int = 0) -> float:
    """Max |subset-sum form - B-coefficient form| over random p vectors,
    with B_|U| from ``analytics.subset_coefficient_b``."""
    if n > 8:
        raise ValueError("identity check capped at n = 8")
    rng = np.random.default_rng(seed)
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


def fuse_by_cnot(
    dm: DensityMatrix, control: Qubit, target: Qubit, bit: int
) -> tuple[float, DensityMatrix]:
    """Fusion through the dense kernels: the probability p0 of reading 0 on
    the target after CNOT(control -> target), and the normalized state left
    by reading ``bit``."""
    rotated = dmod.apply_unitary(dm, (control, target), dmod.CNOT)
    red = dmod.partial_trace(rotated, tuple(q for q in rotated.labels if q != target))
    _, post = dmod.project_z(rotated, target, bit)
    return float(red.mat[0, 0].real), post


class FixedDraw:
    """Stand-in generator whose every ``random()`` returns ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


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
        state = dmod.pauli_correct(state, remote, dmod.BsmOutcome(bits, True))
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
                corrected = dmod.pauli_correct(
                    post, remote, dmod.BsmOutcome((i, j), True)
                )
                step.append((prob, corrected))
        branches.append(step)
        return (0, 0)

    teleport_pipeline(params, rounds, choose)
    return branches


def reference_run_shot(params: SimParams, rng: np.random.Generator) -> ShotRecord:
    """``factory.run_shot_fast`` as a scalar loop: every attempt turns all N
    uniforms into rounds with ``sample_geometric``, takes their maximum, and
    then draws the Bernoulli(q_bsm^N) coin with a second call."""
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


def reference_shot_rng(seed: int, shot_index: int, tag: int) -> np.random.Generator:
    """The per-shot stream as numpy builds it from the entropy tuple."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(seed, shot_index, tag)))
    )


def shot_rng_cases(
    rng: np.random.Generator, count: int = 64
) -> list[tuple[int, int, int]]:
    """(seed, shot, tag) triples: ``count`` random ones of random bit width,
    so every entropy word count occurs, plus the edges of the word count and
    of power-of-two shot blocks."""

    def draw() -> int:
        return int(rng.integers(2 ** int(rng.integers(1, 65)), dtype=np.uint64))

    cases = [(draw(), draw(), draw()) for _ in range(count)]
    for seed in (0, 2**32 + 5, 2**64 - 1):
        for shot in (0, 1023, 1024, 2**32 - 1, 2**32, 2**64 - 1):
            cases.extend((seed, shot, tag) for tag in (TAG_FACTORY, TAG_SWITCH))
    return cases


def shot_rng_mismatches(cases: Sequence[tuple[int, int, int]]) -> int:
    """How many cases' first 16 doubles from ``shot_rng`` differ from the
    reference stream."""
    return sum(
        not np.array_equal(shot_rng(*c).random(16), reference_shot_rng(*c).random(16))
        for c in cases
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool


def _check(name: str, tolerance: float, observed: float) -> CheckResult:
    observed = float(observed)
    return CheckResult(name, float(tolerance), observed, bool(observed <= tolerance))


def run_all_checks() -> list[CheckResult]:
    """The oracle suite behind the ``verify`` command.

    Every check compares an independent reference against the corresponding
    closed form or engine and reports the observed error.
    """
    rng = np.random.default_rng(20240601)
    checks: list[CheckResult] = []

    # waiting-time enumeration against the exact order-statistic recursion
    worst = 0.0
    for n, q in [(2, 0.5), (3, 0.3), (4, 0.6), (4, 0.1)]:
        table = enumerate_waiting_times(n, q)
        for i in range(1, n + 1):
            exact = analytics.expected_order_stat(i, n, q, "exact")
            worst = max(worst, abs(exact - table.expectations[i - 1]))
    checks.append(_check("order_stat_exact_vs_enumeration", 1e-9, worst))

    # the alternating-sum maximum against the recursion at i = n
    worst = max(
        abs(
            n_all_alternating_sum(n, q)
            - analytics.expected_order_stat(n, n, q, "exact")
        )
        for n in range(1, 7)
        for q in (0.1, 0.5, 0.9)
    )
    checks.append(_check("n_all_alternating_sum_vs_recursion", 1e-10, worst))

    # depolarizing composition law on random two-qubit states
    worst = 0.0
    for _ in range(20):
        state = _random_state(rng, 2)
        q = state.labels[0]
        p1, p2 = rng.random(), rng.random()
        once = dmod.depolarize(dmod.depolarize(state, (q,), p1), (q,), p2)
        fused = dmod.depolarize(state, (q,), p1 * p2)
        worst = max(worst, dmod.max_abs_diff(once, fused))
    checks.append(_check("depolarize_composition", 1e-12, worst))

    # noiseless teleportation round trip over all four outcomes
    worst = 0.0
    for _ in range(10):
        single = _random_state(rng, 1, labels=(Qubit(9, 9),))
        resource = dmod.make_bell(Qubit(0, 0), Qubit(1, 0))
        joint = dmod.tensor(single, resource)
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            prob, post = dmod.project_bell(joint, Qubit(9, 9), Qubit(0, 0), bits)
            fixed = dmod.pauli_correct(post, Qubit(1, 0), dmod.BsmOutcome(bits, True))
            worst = max(worst, abs(prob - 0.25))
            worst = max(
                worst, float(np.max(np.abs(fixed.mat - single.mat)))
            )
    checks.append(_check("noiseless_teleportation_identity", 1e-12, worst))

    # structured state against channel composition, and f_rand against both
    worst_state = 0.0
    worst_frand = 0.0
    for n in (2, 3, 4):
        for _ in range(10):
            p_ghz = rng.random()
            p = rng.random(n)
            built = dmod.structured_state(p_ghz, p)
            ghz = dmod.make_ghz(n, built.labels)
            channel = dmod.depolarize(ghz, built.labels, p_ghz)
            for q, pi in zip(built.labels, p):
                channel = dmod.depolarize(channel, (q,), pi)
            worst_state = max(worst_state, dmod.trace_distance(built, channel))
            worst_frand = max(
                worst_frand,
                abs(dmod.fidelity_to_ghz(built) - analytics.f_rand(p_ghz, p)),
            )
    checks.append(_check("structured_state_vs_channels", 1e-10, worst_state))
    checks.append(_check("f_rand_vs_dm_fidelity", 1e-12, worst_frand))

    # f_rand product form against the explicit subset sum (p_ghz = 1 strips
    # the mixing term, leaving exactly the summed overlap)
    worst = 0.0
    for n in (2, 4, 6):
        for _ in range(10):
            p = rng.random(n)
            worst = max(
                worst,
                abs(ghz_overlap_subset_sum(p) - analytics.f_rand(1.0, p)),
            )
    checks.append(_check("f_rand_product_vs_subset_sum", 1e-12, worst))

    # subset-coefficient identity
    observed = max(
        coefficient_identity_check(n, samples=100, seed=7) for n in range(2, 7)
    )
    checks.append(_check("coefficient_identity", 1e-10, observed))

    # leading-order G against direct sampling (the approximation carries an
    # O(q_link) systematic error, so the gate is relative, not statistical)
    spec = GSpec(5, (1, 3, 5), (2e-4, 2e-4, 2e-4))
    mean, stderr = mc_g(spec, 0.01, 200_000, rng)
    lead = analytics.g_value(spec, 0.01, "leading")
    bound = analytics.g_value(spec, 0.01, "lower_bound")
    checks.append(_check("g_leading_vs_mc_relative", 0.01, abs(lead - mean) / mean))
    checks.append(_check("g_lower_bound_below_mc", 3 * stderr, bound - mean))

    # density-matrix replay against the fast fidelity kernel
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
            worst = max(
                worst,
                abs(
                    replay_factory_dm(params, rounds)
                    - fidelity_from_deltas(params, delta)
                ),
            )
    checks.append(_check("dm_replay_vs_fast_kernel", 1e-10, worst))

    # O(N^2) fidelity recursion against the literal subset sum, relative
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
    checks.append(_check("fidelity_recursion_vs_subset_sum", 1e-12, worst))

    # fusion as an index gather against the dense CNOT and Z projection: a
    # draw just below (above) the reference p0 must read 0 (1) and leave the
    # reference state
    worst = 0.0
    for k in range(3, 7):
        state = _random_state(rng, k)
        for _ in range(2):
            a, b = (state.labels[int(i)] for i in rng.choice(k, 2, replace=False))
            for control, target in ((a, b), (b, a)):
                for bit, shift in ((0, -1e-12), (1, 1e-12)):
                    p0, ref = fuse_by_cnot(state, control, target, bit)
                    got, post = dmod.fuse(state, control, target, FixedDraw(p0 + shift))
                    err = dmod.max_abs_diff(ref, post) if got == bit else math.inf
                    worst = max(worst, err)
    checks.append(_check("fuse_gather_vs_cnot_projection", 1e-12, worst))

    # block-hashed per-shot seeding against a literal SeedSequence
    mismatches = shot_rng_mismatches(shot_rng_cases(rng))
    checks.append(_check("shot_rng_vs_seed_sequence", 0, mismatches))

    # the switch's Werner-weight swap against a dense Bell measurement on two
    # link pairs aged one round at a time: every outcome has probability 1/4
    # and, once corrected, leaves the Werner pair of the closed-form weight
    checks.append(_check("werner_swap_vs_dense_bsm", 1e-12, werner_swap_error(rng)))

    # the switch's read-out, which applies pending depolarizing channels in
    # one pass over the diagonal, against flushing them densely first
    checks.append(_check("ghz_readout_vs_dense_flush", 1e-12, ghz_readout_error(rng)))

    # the factory kernel, which turns only the successful attempt's uniforms
    # into rounds, against the loop that turns every attempt's
    checks.append(_check("factory_kernel_vs_reference", 0, factory_kernel_mismatches()))

    return checks


def factory_kernel_mismatches() -> int:
    """How many ``factory.run_shot_fast`` records differ in any field from
    ``reference_run_shot``, over N in {2, 5, 16}, q_link in {1e-6, 0.01,
    0.5, 1} and q_bsm in {1, 0.95, 0.8}, at shots 0..9 of one seed below
    2^32 and one above."""
    mismatches = 0
    grid = itertools.product((2, 5, 16), (1e-6, 0.01, 0.5, 1.0), (1.0, 0.95, 0.8))
    for n, q_link, q_bsm in grid:
        params = SimParams(
            n_end_nodes=n, q_link=q_link, q_bsm=q_bsm,
            p_link=0.98, p_mem=0.999, p_bsm=0.99, p_ghz=0.9,
        )
        for seed, s in itertools.product((17, 2**32 + 17), range(10)):
            fast = factory.run_shot_fast(params, shot_rng(seed, s, TAG_FACTORY))
            ref = reference_run_shot(params, shot_rng(seed, s, TAG_FACTORY))
            mismatches += fast != ref
    return mismatches


def werner_swap_error(rng: np.random.Generator) -> float:
    """Worst deviation of ``switch.swapped_weight`` from dense Bell
    measurements on 20 random draws of Werner links, memory waits and
    ``p_bsm``."""
    worst = 0.0
    for _ in range(20):
        params = SimParams(
            n_end_nodes=2,
            q_link=0.5,
            p_mem=float(rng.choice([1.0, 0.8 + 0.2 * rng.random()])),
            p_bsm=0.8 + 0.2 * rng.random(),
        )
        born = [int(b) for b in rng.integers(0, 5, size=2)]
        now = max(born) + int(rng.integers(0, 4))
        links = [
            switch.Link(Qubit(c, 0), float(rng.random()), b) for c, b in zip((1, 2), born)
        ]
        pairs = []
        for link in links:
            held = Qubit(0, link.remote.node)
            pair = dmod.make_bell(held, link.remote)
            pair = dmod.depolarize(pair, (link.remote,), link.weight)
            for _ in range(now - link.born):
                pair = dmod.depolarize(pair, (held,), params.p_mem)
            pairs.append(dmod.depolarize(pair, (held,), params.p_bsm))
        joint = dmod.tensor(*pairs)
        w = switch.swapped_weight(*links, now, params)
        expected = switch.werner((links[0].remote, links[1].remote), w)
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            prob, post = dmod.project_bell(joint, Qubit(0, 1), Qubit(0, 2), bits)
            fixed = dmod.pauli_correct(post, links[1].remote, dmod.BsmOutcome(bits, True))
            worst = max(worst, abs(prob - 0.25), dmod.max_abs_diff(fixed, expected))
    return worst


def ghz_readout_error(rng: np.random.Generator) -> float:
    """Worst deviation of ``dm.fidelity_to_ghz`` with pending depolarizing
    parameters from depolarizing each qubit densely and then reading the
    plain corner formula, on random full-rank complex states of 2..7 qubits.
    Per size, one draw holds a 0 and a 1, one is all 1, one is uniform."""
    worst = 0.0
    for k in range(2, 8):
        for trial in range(3):
            state = _random_state(rng, k)
            d = rng.random(k)
            if trial == 0:
                i, j = rng.choice(k, 2, replace=False)
                d[i], d[j] = 0.0, 1.0
            elif trial == 1:
                d[:] = 1.0
            flushed = state
            for q, dq in zip(state.labels, d):
                flushed = dmod.depolarize(flushed, (q,), float(dq))
            m = flushed.mat
            ref = float((m[0, 0] + m[0, -1] + m[-1, 0] + m[-1, -1]).real / 2.0)
            worst = max(worst, abs(dmod.fidelity_to_ghz(state, d.tolist()) - ref))
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


def report(checks: list[CheckResult], runtime_s: float) -> dict:
    return {
        "all_passed": all(c.passed for c in checks),
        "runtime_s": runtime_s,
        "checks": [
            {
                "name": c.name,
                "tolerance": c.tolerance,
                "observed": c.observed,
                "passed": c.passed,
            }
            for c in checks
        ],
    }


def run_verification() -> dict:
    start = time.perf_counter()
    checks = run_all_checks()
    return report(checks, time.perf_counter() - start)
