"""Exact mean rounds between switch deliveries, from the protocol's jump chain
lumped by node symmetry (Nain, Vardoyan, Guha, Towsley, "On the analysis of a
multipartite entanglement distribution switch"; lumpability as in Kemeny and
Snell, "Finite Markov Chains").

The switch treats end nodes alike: each Bell measurement pairs a uniform
valid pair.  So the network lumps exactly onto a multiset of blocks (s, w):
a cluster of s end nodes (a lone node is a block of size 1) and the w links
waiting at them.  A pair of blocks i, j is measured with weight w_i w_j.
The chain steps as the engine's ``run_to_ghz`` does, from one state after a
phase to the next:

- the link event: each of the E = sum (s - w) eligible connections arrives
  with probability q_link, conditioned on at least one arriving, after a
  mean 1 / (1 - (1 - q_link)^E) rounds.  The conditioning leaves no
  self-loop of weight 1 - E q_link, so the chain stays well posed at
  q_link = 1e-12.  E > 0 in every state: with all N links waiting and no
  valid pair, one cluster would hold every node, a delivery, and a delivery
  keeps at most N - 2 links;
- the Bell measurements, as a memoized recursion until no valid pair is
  left: success gives (s_i + s_j, w_i + w_j - 2), failure (s_i, w_i - 1)
  and (s_j, w_j - 1).  A block of N nodes is a delivery: the phase stops
  there and every node is a lone block again, keeping the w links.

That is the engine's order, in which links a delivery leaves at freed nodes
wait for the next link event (ROADMAP item 2): a change to that order
changes this chain in the same change.  By renewal reward the mean rounds
per delivery is sum pi h / sum pi d, with pi the jump chain's stationary
distribution, h each state's mean holding time and d its chance of a
delivery.  This module imports nothing from the engine it checks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, product

import numpy as np

# the largest N whose chain is built: 138 states and ~20 ms at N = 8,
# 213 states at N = 9
CHAIN_MAX_NODES = 8


def _arrivals(state: tuple, q: float) -> dict[tuple, float]:
    """States after one round from ``state`` in which some connection
    arrives, and their chances: each eligible connection arrives with
    probability q."""
    # per kind of block, the m blocks' arrivals as a multiset, each with its
    # multinomial chance
    per_kind = []
    for (s, w), group in groupby(state):
        m, e = len(list(group)), s - w
        p = [math.comb(e, a) * q**a * (1.0 - q) ** (e - a) for a in range(e + 1)]
        per_kind.append([
            (tuple((s, w + a) for a in arrived),
             math.factorial(m) // math.prod(math.factorial(arrived.count(a)) for a in set(arrived))
             * math.prod(p[a] for a in arrived))
            for arrived in combinations_with_replacement(range(e + 1), m)])
    result: dict[tuple, float] = {}
    for parts in product(*per_kind):
        blocks = tuple(sorted(b for part, _ in parts for b in part))
        if blocks != state:  # some connection arrived
            result[blocks] = result.get(blocks, 0.0) + math.prod(c for _, c in parts)
    return result


@lru_cache(maxsize=64)
def mean_delivery_rounds(n: int, q_link: float, q_bsm: float) -> float:
    """Exact mean rounds between the switch's deliveries at N = n, in the
    engine's order; the rate is its reciprocal per dt.  Cached: a sweep
    builds one chain per point, and each estimate at that point reuses it."""
    phases: dict[tuple, dict[tuple, float]] = {}

    def phase(state: tuple) -> dict[tuple, float]:
        """End states of the Bell measurements from ``state``, each keyed
        (state, delivered)."""
        if state in phases:
            return phases[state]
        # block kinds with links and their counts: pairs of kinds, the
        # weight summed over the pairs of blocks they hold
        kinds = [(b, len(list(g))) for b, g in groupby(state) if b[1]]
        pairs = [(bi, bj, bi[1] * bj[1] * (mi * mj if x < y else mi * (mi - 1) // 2))
                 for x, (bi, mi) in enumerate(kinds) for y, (bj, mj) in enumerate(kinds)
                 if x < y or x == y and mi > 1]
        total = sum(weight for *_, weight in pairs)
        ends: dict[tuple, float] = {} if pairs else {(state, False): 1.0}
        for (si, wi), (sj, wj), weight in pairs:
            rest = list(state)
            rest.remove((si, wi))
            rest.remove((sj, wj))
            rest = tuple(rest)
            links = wi + wj - 2
            if si + sj == n:
                won = {(((1, 0),) * (n - links) + ((1, 1),) * links, True): 1.0}
            else:
                won = phase(tuple(sorted(rest + ((si + sj, links),))))
            lost = phase(tuple(sorted(rest + ((si, wi - 1), (sj, wj - 1))))) if q_bsm < 1.0 else {}
            for outcomes, p in ((won, q_bsm), (lost, 1.0 - q_bsm)):
                for end, chance in outcomes.items():
                    ends[end] = ends.get(end, 0.0) + weight / total * p * chance
        phases[state] = ends
        return ends

    states = [((1, 0),) * n]
    index = {states[0]: 0}
    rows: list[dict[int, float]] = []
    hold, deliver = [], []
    while len(rows) < len(states):
        state = states[len(rows)]
        eligible = sum(s - w for s, w in state)
        # 1 - (1 - q)^E, by -expm1 where E q << 1 would cancel
        some = 1.0 if q_link == 1.0 else -math.expm1(eligible * math.log1p(-q_link))
        hold.append(1.0 / some)
        row: dict[int, float] = {}
        delivered = 0.0
        for arrived, p in _arrivals(state, q_link).items():
            for (end, done), chance in phase(arrived).items():
                if end not in index:
                    index[end] = len(states)
                    states.append(end)
                k, chance = index[end], p / some * chance
                row[k] = row.get(k, 0.0) + chance
                delivered += chance * done
        rows.append(row)
        deliver.append(delivered)
    size = len(rows)
    # pi (P - I) = 0 with one equation swapped for sum pi = 1
    a = -np.eye(size)
    for k, row in enumerate(rows):
        for j, p in row.items():
            a[j, k] += p
    a[-1] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return float(pi @ np.array(hold) / (pi @ np.array(deliver)))
