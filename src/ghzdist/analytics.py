"""Closed-form rate and fidelity expressions for GHZ distribution.

Everything here is a pure function of the parameters: for the factory node,
exact, leading-order and bounded expressions for the distribution rate, the
per-qubit noise combinatorics of the delivered state, expected order
statistics of geometric waiting times and the memory-decoherence kernel G;
for the switch, the fidelity of every delivery at perfect memory.  The routes
these are checked against (the explicit 2^N subset sums, the coefficient
identity, dense channel composition and the switch engine) are in
``ghzdist.oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .params import ConfigError, SimParams

# 2^N and every C(N, u) stay finite doubles; the exact order statistics cost N^2
CLOSED_FORM_MAX_NODES = 1023


def _one_minus_q_pow(q: float, k: int) -> float:
    """(1 - q)^k without underflow surprises for small q and large k."""
    if k == 0:
        return 1.0
    if q == 1.0:
        return 0.0
    return math.exp(k * math.log1p(-q))


def _one_minus_miss(q: float, k: int, survive: float = 1.0) -> float:
    """1 - (1 - q)^k survive (k >= 1 if q = 1), as -expm1 of the logarithm
    of the product, so it keeps its digits where k q << 1 and the
    subtraction would cancel."""
    if q == 1.0 or survive == 0.0:
        return 1.0
    return -math.expm1(k * math.log1p(-q) + math.log(survive))


def check_node_cap(n: int) -> None:
    """Reject an N beyond ``CLOSED_FORM_MAX_NODES`` with a ConfigError that
    names the config key."""
    if n > CLOSED_FORM_MAX_NODES:
        raise ConfigError(
            f"n_end_nodes = {n} exceeds {CLOSED_FORM_MAX_NODES}, the closed forms' node cap"
        )


def harmonic(n: int) -> float:
    """n-th harmonic number, exact partial sum."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    return math.fsum(1.0 / i for i in range(1, n + 1))


def expected_n_all_exact(n: int, q: float) -> float:
    """Expected maximum of n iid geometric(q) variables.

    The last order statistic of the T-mass recursion, whose terms are all
    positive, so it stays accurate at any n; the alternating binomial sum
    (``oracles.n_all_alternating_sum``) cancels catastrophically beyond
    n ~ 40.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return expected_order_stat(n, n, q)


def expected_n_all_upper_bound(n: int, q: float) -> float:
    """Upper bound 1 + H_n / (-log(1 - q)); equals 1 in the q -> 1 limit."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if q == 1.0:
        return 1.0
    return 1.0 + harmonic(n) / (-math.log1p(-q))


def rate_exact(n: int, q_link: float, q_bsm: float, dt: float = 1.0) -> float:
    """GHZ distribution rate q_bsm^n / (<n_all> dt) with the exact <n_all>."""
    return q_bsm**n / (expected_n_all_exact(n, q_link) * dt)


def rate_leading(n: int, q_link: float, q_bsm: float, dt: float = 1.0) -> float:
    """Leading order in q_link: q_bsm^n q_link / (H_n dt)."""
    return q_bsm**n * q_link / (harmonic(n) * dt)


def _t_masses(n: int, q: float, i_max: int) -> list[float]:
    """Total masses T_(i/n) of the exactly-i-after-last-success distributions.

    T_0 = 1 and
    T_i = sum_l C(n-i+l, l) q^l (1-q)^(n-i) / (1 - (1-q)^(n-i+l)) T_(i-l).
    Every term is positive.  The binomial weight is one term of
    (q + 1 - q)^(n-i+l), so at most 1; it is carried as a logarithm, so
    neither C(n-i+l, l) nor (1-q)^(n-i) leaves the double range at large n.
    """
    if q == 1.0:
        return [1.0] + [0.0] * i_max  # all links succeed in round 1
    log_q, log_miss = math.log(q), math.log1p(-q)
    hit = [_one_minus_miss(q, k) for k in range(n + 1)]
    t = [1.0]
    for i in range(1, i_max + 1):
        log_weight = (n - i) * log_miss
        acc = 0.0
        for l in range(1, i + 1):
            log_weight += log_q + math.log((n - i + l) / l)
            acc += math.exp(log_weight) / hit[n - i + l] * t[i - l]
        t.append(acc)
    return t


def expected_order_stat(i: int, n: int, q: float, mode: str = "exact") -> float:
    """Expected round of the i-th success among n parallel geometric(q) links.

    exact        closed form via the T-mass recursion
    leading      (1/q) sum_{k=n+1-i}^{n} 1/k, leading order in q
    upper_bound  sum_{k=n+1-i}^{n} 1 / (1 - (1-q)^k)
    """
    if not 1 <= i <= n:
        raise ValueError(f"order index {i} outside 1..{n}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if mode == "leading":
        return math.fsum(1.0 / k for k in range(n + 1 - i, n + 1)) / q
    if mode == "upper_bound":
        return math.fsum(1.0 / _one_minus_miss(q, k) for k in range(n + 1 - i, n + 1))
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    t = _t_masses(n, q, i - 1)
    total = 1.0 / _one_minus_miss(q, n)
    for k in range(1, i):
        total += t[k] / _one_minus_miss(q, n - k)
    return total


@dataclass(frozen=True)
class GSpec:
    """Tracked subset for the decoherence expectation G.

    positions are the ordered ranks c_1 < ... < c_M (in order of Bell-state
    arrival) of the tracked qubits among all n_total; rates[i] is the
    per-round loss probability of tracked qubit i (1 - p_mem^2 in the
    symmetric network).
    """

    n_total: int
    positions: tuple[int, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        if self.n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {self.n_total}")
        if len(self.positions) != len(self.rates):
            raise ValueError("positions and rates must have equal length")
        if len(self.positions) > self.n_total:
            raise ValueError("cannot track more positions than n_total")
        for a, b in zip(self.positions, self.positions[1:]):
            if a >= b:
                raise ValueError(f"positions must be strictly increasing: {self.positions}")
        if self.positions and not (
            1 <= self.positions[0] and self.positions[-1] <= self.n_total
        ):
            raise ValueError(f"positions must lie in 1..{self.n_total}")
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"rates must lie in [0, 1], got {r}")


def _rank_factor(
    n: int, k: int, q_link: float, rate_sum: float, survive: float, mode: str
) -> float:
    """Factor of arrival rank k in G, given the tracked ranks before k through
    their summed loss rates (``leading``) or joint survival (``lower_bound``)."""
    boost = (n + 1 - k) * q_link
    if mode == "leading":
        return boost / (rate_sum + boost)
    if mode == "lower_bound":
        num = boost * _one_minus_q_pow(q_link, n - k) * survive
        return num / _one_minus_miss(q_link, n + 1 - k, survive)
    raise ValueError(f"unknown mode {mode!r}")


def g_value(spec: GSpec, q_link: float, mode: str = "leading") -> float:
    """E[prod_i (1 - r_i)^(rounds qubit i waits until the last arrival)].

    leading      prod_k (N+1-k) q / (sum_{c_i<k} r_i + (N+1-k) q),
                 leading order in q_link and the rates
    lower_bound  strict lower bound keeping the no-simultaneous-success terms
                 exact:
                 prod_k (N+1-k) q (1-q)^(N-k) R_k / (1 - (1-q)^(N+1-k) R_k)
                 with R_k = prod_{c_i<k} (1 - r_i)
    """
    if not 0.0 < q_link <= 1.0:
        raise ValueError(f"q_link must be in (0, 1], got {q_link}")
    out = 1.0
    rate_sum = 0.0
    survive = 1.0
    idx = 0
    for k in range(1, spec.n_total + 1):
        while idx < len(spec.positions) and spec.positions[idx] < k:
            rate_sum += spec.rates[idx]
            survive *= 1.0 - spec.rates[idx]
            idx += 1
        out *= _rank_factor(spec.n_total, k, q_link, rate_sum, survive, mode)
    return out


def fidelity_coefficient(u_size: int, n: int, p_link: float, p_bsm: float) -> float:
    """Subset-size coefficient A_|U| = (p_link p_bsm^2)^|U| B_|U| of the
    rearranged fidelity sum."""
    if not 0 <= u_size <= n:
        raise ValueError(f"subset size {u_size} outside 0..{n}")
    return (p_link * p_bsm**2) ** u_size * subset_coefficient_b(u_size, n)


def f_rand(p_ghz: float, p: Sequence[float]) -> float:
    """GHZ fidelity of a p_ghz-depolarized GHZ state after per-qubit
    depolarizing channels p_i.

    The subset sum with weights 2^(delta_{|U|,0} + delta_{|U|,N} - 1)
    (``oracles.ghz_overlap_subset_sum``) collapses to the product form
    (1-p_ghz)/2^N + p_ghz [prod p_i + prod (1-p_i)/2 + prod (1+p_i)/2] / 2.
    """
    n = len(p)
    if n < 2:
        raise ValueError("f_rand needs at least 2 qubits")
    prod_p = lost = kept = 1.0
    for pi in p:
        prod_p *= pi
        lost *= (1.0 - pi) / 2.0
        kept *= (1.0 + pi) / 2.0
    core = 0.5 * (prod_p + lost + kept)
    return (1.0 - p_ghz) / 2.0**n + p_ghz * core


def switch_fidelity_perfect_memory(n: int, p_link: float, p_bsm: float) -> float:
    """GHZ fidelity of every switch delivery at p_mem = 1: a tree of N - 1
    swapped pairs, each Phi+ with one qubit depolarized by w = (p_link p_bsm)^2.
    Their Pauli errors leave the GHZ state iff none has an X part (a tree's
    cuts are independent) and an even number have a Z part, whatever the tree."""
    w = (p_link * p_bsm) ** 2
    return w ** (n - 1) / 2.0 + (1.0 + w) ** (n - 1) / 2.0**n


def subset_coefficient_b(u_size: int, n: int) -> float:
    """Coefficient B_|U| collecting the subset sum by monomials prod p_i."""
    if u_size % 2 == 0:
        return 2.0**-n + (0.5 if u_size == n else 0.0)
    return 0.5 if u_size == n else 0.0


@dataclass(frozen=True)
class FidelityBreakdown:
    """Closed-form fidelity and its per-subset-size contributions.

    value = (1 - p_ghz)/2^N + p_ghz * sum(contributions.values()); key u holds
    A_u times G summed over all subsets of u tracked ranks.
    """

    value: float
    contributions: dict[int, float]


def fidelity_closed_form(params: SimParams, mode: str = "leading") -> FidelityBreakdown:
    """Expected GHZ fidelity of the factory protocol.

    The sum of A_|U| G(U) over all subsets U of arrival ranks, with every
    tracked rate equal to 1 - p_mem^2.  Rank k's factor in G(U) then depends on
    U only through the number j of tracked ranks before k, so the G values
    summed per subset size follow in O(N^2) from one pass over the ranks.
    ``mode`` selects the leading-order or lower-bound evaluation of G.
    """
    n = params.n_end_nodes
    check_node_cap(n)
    keep = params.p_mem**2
    # sums[j]: G restricted to the ranks so far, summed over their j-subsets
    sums = [1.0]
    for k in range(1, n + 1):
        scaled = [
            s * _rank_factor(n, k, params.q_link, j * (1.0 - keep), keep**j, mode)
            for j, s in enumerate(sums)
        ]
        sums = [a + b for a, b in zip(scaled + [0.0], [0.0] + scaled)]
    contributions = {
        u: fidelity_coefficient(u, n, params.p_link, params.p_bsm) * s
        for u, s in enumerate(sums)
    }
    value = (1.0 - params.p_ghz) / 2.0**n + params.p_ghz * sum(contributions.values())
    return FidelityBreakdown(value, contributions)
