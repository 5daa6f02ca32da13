"""Discrete-event Monte Carlo engine for 2-switch GHZ distribution.

The state says where each qubit lives: the link pair waiting at the switch on
each connection (the central node holds at most one qubit per connection,
until a Bell measurement consumes it), and the end-to-end groups built by
successful measurements and by fusions.  It persists across executions: pairs
not consumed while building one GHZ state seed the next one.

No group is stored as a matrix.  Every operation of the switch (a Bell
measurement with its Pauli correction, a CNOT fusion with its Z read-out and
outcome-1 X correction) is Clifford, and all noise (p_link, p_mem per round,
p_bsm) is single-qubit depolarizing.  So a group is its GHZ state under a
ledger of independent noise entries (d, S), S a set of its qubits: with
probability 1 - d an entry applies one of I, X_S, Z, X_S Z, chosen uniformly
(on a GHZ state every single-qubit Z acts alike, and X_S as X on the rest of
the group).  Depolarizing qubit q by d is the entry (d, {q}).  Parameters of
one qubit's channels multiply, so each group qubit owes one pending factor
(``Component.factor``), entered into the ledger when the qubit is fused
(``Component.flush``) or read out.  A link pair is only its remote and birth
round: a successful Bell measurement on two gives each outcome with
probability 1/4 and, once Pauli-corrected, Phi+ on the remotes with an empty
ledger and both pairs' noise pending on one remote (``swapped_weight``), as
depolarizing either qubit of Phi+ gives one state.  A fusion of control a in
group A with target b in group B turns an A-side S into A minus S when a is
in S, and a B-side S into B minus S when b is in S; its Z outcome has
probability 1/2 and, once corrected, leaves the same state.  The read-out
(``Component.ghz_fidelity``) is the character sum
F = 1/2 prod_e d_e + 2^-k sum_t prod_e d_e^[<t, S_e> odd] over the
even-weight t in {0, 1}^k, whose 2^(k-1) terms bound N by MAX_END_NODES.

A phase runs only when it can act: the Bell measurements when at least two
links wait, the fusions and the delivery check only after a measurement
succeeded.  Each phase reads the group labels once per call:
``do_switch_bsms`` pairs only end nodes in different clusters (one id per
node), and ``do_fusions`` visits the nodes holding two group qubits in
ascending order; a node with a waiting link pair holds no second group qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .factory import Estimates, summarize
from .labels import Qubit
from .params import TAG_SWITCH, ConfigError, SimParams, sample_geometric, shot_rng

NODE_MEMORY_SLOTS = 2
# the read-out sums 2^(N-1) terms over N qubits
MAX_END_NODES = 11


class ProtocolInvariantError(RuntimeError):
    """The network reached a state the protocol rules are meant to exclude."""


class Link(NamedTuple):
    """A link pair waiting at the switch: Phi+ on (Qubit(0, connection),
    remote), created at round born.  Its noise is not stored: the Bell
    measurement that consumes it turns it into the swapped pair's pending
    factors."""

    remote: Qubit
    born: int


@lru_cache(maxsize=None)
def _even_weight_rows(k: int) -> np.ndarray:
    """Every t in {0, 1}^k of even weight, one read-only 0/1 row each."""
    bits = np.arange(2**k)[:, None] >> np.arange(k) & 1
    rows = bits[bits.sum(axis=1) % 2 == 0]
    rows.flags.writeable = False
    return rows


@dataclass
class Component:
    """One end-to-end group: its qubits, the pending factor ``(d, since)`` of
    each (it owes depolarizing by d p_mem^(now - since)), how many link-level
    Bell pairs it has absorbed, and its noise ledger of entries (d, S)."""

    qubits: tuple[Qubit, ...]
    pending: dict[Qubit, tuple[float, int]]
    pairs_consumed: int
    entries: list[tuple[float, frozenset[Qubit]]] = field(default_factory=list)

    def factor(self, q: Qubit, now: int, p_mem: float) -> float:
        """The depolarizing parameter q owes at round now."""
        d, since = self.pending[q]
        return d * p_mem ** (now - since)

    def flush(self, q: Qubit, now: int, p_mem: float) -> None:
        """Enter q's pending channel into the ledger; q then owes nothing."""
        p = self.factor(q, now, p_mem)
        if p != 1.0:
            self.entries.append((p, frozenset((q,))))
        self.pending[q] = (1.0, now)

    def fused_entries(self, q: Qubit) -> list[tuple[float, frozenset[Qubit]]]:
        """The ledger as a fusion at q, control or target, leaves it: an S
        holding q becomes the rest of the group, X on which acts on the
        group's GHZ state as X_S does and passes the fusion unchanged."""
        side = frozenset(self.qubits)
        return [(d, side - s if q in s else s) for d, s in self.entries]

    def ghz_fidelity(self, now: int, p_mem: float) -> float:
        """Fidelity to the GHZ state on the group's k qubits at round now,
        each qubit's pending channel entered as (d_q, {q}):
        1/2 prod_e d_e + 2^-k sum_t prod_e d_e^[<t, S_e> odd] over the
        even-weight t.  The first term holds the Z part, which each entry
        draws together with its X part, not independently of it."""
        qubits = self.qubits
        entries = self.entries + [
            (self.factor(q, now, p_mem), frozenset((q,))) for q in qubits
        ]
        d = np.array([p for p, _ in entries])
        members = np.array([[q in s for q in qubits] for _, s in entries], dtype=np.int64)
        odd = (_even_weight_rows(len(qubits)) @ members.T) & 1
        terms = np.where(odd, d, 1.0).prod(axis=1)
        return float(0.5 * d.prod() + terms.sum() / 2 ** len(qubits))


@dataclass
class NetworkState:
    """Persistent 2-switch network: the round clock, the link pair waiting at
    the switch on each connection, and the end-to-end groups."""

    round: int = 0
    links: dict[int, Link] = field(default_factory=dict)
    groups: list[Component] = field(default_factory=list)

    def full_component(self, n_end_nodes: int) -> Component | None:
        """The group spanning every end node, if one exists: one of >= n_end_nodes qubits."""
        for comp in self.groups:
            labels = comp.qubits
            if len(labels) >= n_end_nodes and len({node for node, _ in labels}) == n_end_nodes:
                return comp
        return None

    def validate(self, n_end_nodes: int) -> None:
        """Where each qubit lives: links are keyed by their end node, with a
        birth no later than now; groups hold end-node qubits only, each with a
        pending factor, and ledger entries (d, S) with d in [0, 1] and S a
        non-empty set of the group's qubits; labels are unique and slot
        capacities kept."""
        for conn, link in self.links.items():
            node = link.remote.node
            if node == 0 or node != conn or link.born > self.round:
                raise ProtocolInvariantError(f"connection {conn} holds a bad link {link}")
        for comp in self.groups:
            if any(q.node == 0 for q in comp.qubits):
                raise ProtocolInvariantError("a group holds a switch qubit")
            if set(comp.pending) != set(comp.qubits):
                raise ProtocolInvariantError("pending factors out of sync")
            for d, s in comp.entries:
                if not (0.0 <= d <= 1.0 and s and s <= set(comp.qubits)):
                    raise ProtocolInvariantError(f"bad ledger entry ({d}, {sorted(s)})")
        held = [link.remote for link in self.links.values()]
        held += [q for comp in self.groups for q in comp.qubits]
        if len(set(held)) != len(held):
            raise ProtocolInvariantError("a qubit in two components")
        for node in range(1, n_end_nodes + 1):
            if len([q for q in held if q.node == node]) > NODE_MEMORY_SLOTS:
                raise ProtocolInvariantError(f"node {node} over memory capacity")


def _eligible_connections(state: NetworkState, n_end_nodes: int) -> list[tuple[int, int]]:
    """(connection, node slot to fill) for each connection with no link pair
    waiting, in order.  Between rounds a node holds at most one group qubit (a
    second is fused in the round it arrives), so its other slot is free."""
    group_slot = {node: slot for comp in state.groups for node, slot in comp.qubits}
    return [(conn, 1 - group_slot.get(conn, 1))
            for conn in range(1, n_end_nodes + 1) if conn not in state.links]


def swapped_weight(a: Link, b: Link, round_now: int, params: SimParams) -> float:
    """Pending factor a successful BSM on the switch qubits of a and b adds to
    the swapped pair: each link's p_link, its switch qubit's p_mem per round
    since the link's birth, and p_bsm before the measurement.  The remotes'
    own aging stays pending from their links' births."""
    w = 1.0
    for link in (a, b):
        w *= params.p_link * params.p_mem ** (round_now - link.born) * params.p_bsm
    return w


def advance_to_link_event(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Fast-forward: ``oracles.advance_round`` repeated until a pair is created.

    Equivalent in distribution to the per-round loop by memorylessness: each
    eligible connection draws its geometric time to success, the clock jumps
    to the earliest one, and every connection attaining it succeeds in that
    round.  With no eligible connection the clock moves a single round.
    Memory decoherence is unaffected: it is bookkept from the round counter.
    """
    eligible = _eligible_connections(state, params.n_end_nodes)
    if not eligible:
        state.round += 1
        return []
    times = sample_geometric(rng, params.q_link, len(eligible))
    first = min(times)
    state.round += first
    events: list[tuple] = []
    for (conn, slot), t in zip(eligible, times):
        if t == first:
            state.links[conn] = Link(Qubit(conn, slot), state.round)
            events.append(("link", conn))
    return events


def do_switch_bsms(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Measure random valid pairs of switch qubits until none remain.

    A pair is valid when the end nodes reached through the two qubits are in
    different clusters, a cluster being the end nodes joined by a chain of
    groups: every connected group is fused into one GHZ-like state by the end
    of the round, and pairing inside a cluster would create a cycle that
    fusion cannot absorb.  The clusters are one id per node, read from the
    groups (node-disjoint between fusion phases) and relabelled as
    measurements succeed; a failed one changes no group.  Success merges the
    two link pairs into Phi+ on their remotes (Pauli-corrected at the second
    end node), its noise pending on the second remote; failure resets both.
    """
    cluster = list(range(params.n_end_nodes + 1))  # a lone node's id is itself
    for gid, comp in enumerate(state.groups, start=len(cluster)):
        for node, _ in comp.qubits:
            if cluster[node] not in (node, gid):
                raise ProtocolInvariantError(f"node {node} in two groups")
            cluster[node] = gid
    links = state.links
    events: list[tuple] = []
    while True:
        valid = [(a, b) for a, b in combinations(sorted(links), 2) if cluster[a] != cluster[b]]
        if not valid:
            return events
        # integers(1) draws nothing, so a single valid pair skips the call
        a, b = valid[rng.integers(len(valid))] if len(valid) > 1 else valid[0]
        link_a, link_b = links.pop(a), links.pop(b)
        if params.q_bsm < 1.0 and rng.random() >= params.q_bsm:
            # failed measurement: both source pairs are reset in full
            events.append(("bsm", a, b, False))
            continue
        rng.random()  # Born draw, unused: all four outcomes leave the same pair
        w = swapped_weight(link_a, link_b, state.round, params)
        pending = {link_a.remote: (1.0, link_a.born), link_b.remote: (w, link_b.born)}
        state.groups.append(Component((link_a.remote, link_b.remote), pending, 2))
        old, new = cluster[b], cluster[a]
        cluster = [new if c == old else c for c in cluster]
        events.append(("bsm", a, b, True))


def do_fusions(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Fuse end-to-end groups at every node holding two of their qubits.

    Only nodes holding two group qubits are visited, in ascending index: a
    fusion keeps every other qubit where it was, so it never gives another
    node a second one.  A waiting link pair takes one of its node's
    NODE_MEMORY_SLOTS = 2 slots, so no fusion meets it.  The control is the
    lower slot's qubit a in group A, the target b in group B; the merged
    group holds A's qubits, then B's without b, and both sides' ledgers as
    the fusion leaves them (``Component.fused_entries``).  The Z outcome, 1
    with probability 1/2, is drawn and reported; once corrected by X on B's
    other qubits, either outcome leaves the same state.
    """
    owner: dict[Qubit, Component] = {}
    first: dict[int, Qubit] = {}
    shared: list[tuple[int, Qubit, Qubit]] = []
    for comp in state.groups:
        for q in comp.qubits:
            owner[q] = comp
            other = first.setdefault(q.node, q)
            if other != q:
                shared.append((q.node, *sorted((other, q))))
    events: list[tuple] = []
    for node, q_a, q_b in sorted(shared):
        comp_a, comp_b = owner[q_a], owner.pop(q_b)
        if comp_a is comp_b:
            raise ProtocolInvariantError(f"node {node} holds two qubits of one component")
        comp_a.flush(q_a, state.round, params.p_mem)
        comp_b.flush(q_b, state.round, params.p_mem)
        bit = int(rng.random() >= 0.5)
        entries = comp_a.fused_entries(q_a) + comp_b.fused_entries(q_b)
        qubits = comp_a.qubits + tuple(q for q in comp_b.qubits if q != q_b)
        pending = {**comp_a.pending, **comp_b.pending}
        del pending[q_b]
        merged = Component(
            qubits, pending, comp_a.pairs_consumed + comp_b.pairs_consumed, entries
        )
        state.groups.remove(comp_a)
        state.groups.remove(comp_b)
        state.groups.append(merged)
        owner.update(dict.fromkeys(qubits, merged))
        events.append(("fusion", node, bit))
    return events


@dataclass(frozen=True)
class SwitchRecord:
    """One delivered GHZ state: rounds spent since the previous delivery,
    its fidelity, and the exact number of link-level pairs it absorbed."""

    duration_rounds: int
    fidelity: float
    pairs_consumed: int


def run_to_ghz(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> tuple[SwitchRecord, NetworkState]:
    """Advance the network until a component spans all end nodes.

    The finished component is measured out of the network (its fidelity to the
    GHZ state recorded) and the remaining entanglement carries over.  A phase
    is skipped when it cannot act, which draws nothing: with fewer than two
    links waiting no pair is valid, and groups change, so that a node can hold
    two group qubits or a group can span every end node, only through a
    successful measurement.
    """
    start = state.round
    n = params.n_end_nodes
    while True:
        advance_to_link_event(state, params, rng)
        if len(state.links) < 2:
            continue
        if not any(ok for *_, ok in do_switch_bsms(state, params, rng)):
            continue
        do_fusions(state, params, rng)
        full = state.full_component(n)
        if full is None:
            continue
        if len(full.qubits) != n:
            raise ProtocolInvariantError("delivered state is not an n-qubit GHZ")
        record = SwitchRecord(
            duration_rounds=state.round - start,
            fidelity=full.ghz_fidelity(state.round, params.p_mem),
            pairs_consumed=full.pairs_consumed,
        )
        state.groups.remove(full)
        return record, state


WARMUP_EXECUTIONS = 1


def check_node_limit(params: SimParams) -> None:
    """Reject a point with more than ``MAX_END_NODES`` end nodes."""
    if params.n_end_nodes > MAX_END_NODES:
        raise ConfigError(
            f"the switch supports n_end_nodes <= {MAX_END_NODES}, "
            f"got {params.n_end_nodes}"
        )


def run_executions(params: SimParams, shots: int) -> list[SwitchRecord]:
    """Consecutive executions on one persistent network stream."""
    check_node_limit(params)
    rng = shot_rng(params.seed, 0, TAG_SWITCH)
    state = NetworkState()
    for _ in range(WARMUP_EXECUTIONS):
        run_to_ghz(state, params, rng)
    return [run_to_ghz(state, params, rng)[0] for _ in range(shots)]


def estimate_switch(params: SimParams) -> Estimates:
    """Aggregate params.shots consecutive executions (after one discarded
    warm-up execution that damps the empty-network transient)."""
    records = run_executions(params, params.shots)
    durations = np.array([r.duration_rounds for r in records], dtype=np.int64)
    fidelities = np.array([r.fidelity for r in records])
    return summarize(durations, fidelities, params.dt)
