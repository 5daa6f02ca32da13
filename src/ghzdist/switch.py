"""Discrete-event Monte Carlo engine for 2-switch GHZ distribution.

The state says where each qubit lives: the link pair waiting at the switch on
each connection (the central node holds at most one qubit per connection,
until a Bell measurement consumes it), and the end-to-end groups built by
successful measurements and by fusions.  It persists across executions: pairs
not consumed while building one GHZ state seed the next one.

All noise (p_link, p_mem per round, p_bsm) is single-qubit depolarizing,
which composes by multiplying parameters and commutes with whatever acts on
other qubits.  So it has one rule: each group qubit owes the channel of its
pending factor (``Component.factor``), applied when the qubit is fused
(``Component.flush``) or folded into the read-out's one pass over the
diagonal (``dm.fidelity_to_ghz``).  A link pair is only its remote and birth
round: a successful Bell measurement on two gives each outcome with
probability 1/4 and, once Pauli-corrected, Phi+ on the remotes (one shared
read-only matrix) with both pairs' noise pending on one remote
(``swapped_weight``), as depolarizing either qubit of Phi+ gives one state.
Dense matrices exist only per group and are real (float64): every state the
switch reaches is real in the computational basis.  A phase runs only when it
can act: the Bell measurements when at least two links wait, the fusions and
the delivery check only after a measurement succeeded.  ``do_switch_bsms``
pairs only end nodes in different clusters, and ``do_fusions`` fuses in one
ascending pass over the nodes; a node with a waiting link pair holds at most
one group qubit, so no fusion ever touches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import dm as dmod
from .dm import DensityMatrix, Qubit
from .factory import Estimates, summarize
from .params import TAG_SWITCH, ConfigError, SimParams, sample_geometric, shot_rng

NODE_MEMORY_SLOTS = 2

# Phi+ on two qubits, shared by every swapped pair, so kept read-only
_PHI_PLUS = np.zeros((4, 4))
_PHI_PLUS[::3, ::3] = 0.5
_PHI_PLUS.flags.writeable = False


class ProtocolInvariantError(RuntimeError):
    """The network reached a state the protocol rules are meant to exclude."""


@dataclass(frozen=True)
class Link:
    """A link pair waiting at the switch: Phi+ on (Qubit(0, connection),
    remote), created at round born.  Its noise is not stored: the Bell
    measurement that consumes it turns it into the swapped pair's pending
    factors."""

    remote: Qubit
    born: int


@dataclass
class Component:
    """One end-to-end group: its density matrix, the pending factor
    ``(d, since)`` of each qubit (it owes depolarizing by d p_mem^(now -
    since)), and how many link-level Bell pairs it has absorbed."""

    dm: DensityMatrix
    pending: dict[Qubit, tuple[float, int]]
    pairs_consumed: int

    @property
    def qubits(self) -> tuple[Qubit, ...]:
        return self.dm.labels

    def end_nodes(self) -> set[int]:
        return {q.node for q in self.dm.labels}

    def factor(self, q: Qubit, now: int, p_mem: float) -> float:
        """The depolarizing parameter q owes at round now."""
        d, since = self.pending[q]
        return d * p_mem ** (now - since)

    def flush(self, q: Qubit, now: int, p_mem: float) -> None:
        """Apply q's pending channel to the matrix; q then owes nothing."""
        p = self.factor(q, now, p_mem)
        if p != 1.0:
            self.dm = dmod.depolarize(self.dm, (q,), p)
        self.pending[q] = (1.0, now)


@dataclass
class NetworkState:
    """Persistent 2-switch network: the round clock, the link pair waiting at
    the switch on each connection, and the end-to-end groups."""

    round: int = 0
    links: dict[int, Link] = field(default_factory=dict)
    groups: list[Component] = field(default_factory=list)

    def full_component(self, n_end_nodes: int) -> Component | None:
        """The group spanning every end node, if one exists."""
        for comp in self.groups:
            if len(comp.end_nodes()) == n_end_nodes:
                return comp
        return None

    def validate(self, n_end_nodes: int) -> None:
        """Where each qubit lives: links are keyed by their end node, with a
        birth no later than now; groups hold end-node qubits only, each with a
        pending factor; labels are unique, slot capacities kept, dm healthy."""
        for conn, link in self.links.items():
            node = link.remote.node
            if node == 0 or node != conn or link.born > self.round:
                raise ProtocolInvariantError(f"connection {conn} holds a bad link {link}")
        for comp in self.groups:
            if any(q.node == 0 for q in comp.qubits):
                raise ProtocolInvariantError("a group holds a switch qubit")
            if set(comp.pending) != set(comp.qubits):
                raise ProtocolInvariantError("decoherence ledger out of sync")
            comp.dm.validate(context="component")
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
    group_slot = {q.node: q.slot for comp in state.groups for q in comp.qubits}
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
    fusion cannot absorb.  The clusters are built once from the groups and
    joined as measurements succeed; a failed one changes no group.  Success
    merges the two link pairs into Phi+ on their remotes (Pauli-corrected at
    the second end node), whose noise is pending on the second remote;
    failure resets both source pairs entirely.
    """
    clusters = {node: {node} for node in range(1, params.n_end_nodes + 1)}

    def join(nodes) -> None:
        merged = set().union(*(clusters[node] for node in nodes))
        for node in merged:
            clusters[node] = merged

    for comp in state.groups:
        join(comp.end_nodes())
    events: list[tuple] = []
    while True:
        conns = sorted(state.links)
        valid = [(a, b) for a, b in combinations(conns, 2) if b not in clusters[a]]
        if not valid:
            return events
        a, b = valid[rng.integers(len(valid))]
        link_a, link_b = state.links.pop(a), state.links.pop(b)
        if params.q_bsm < 1.0 and rng.random() >= params.q_bsm:
            # failed measurement: both source pairs are reset in full
            events.append(("bsm", a, b, False))
            continue
        rng.random()  # Born draw, unused: all four outcomes leave the same pair
        w = swapped_weight(link_a, link_b, state.round, params)
        pending = {link_a.remote: (1.0, link_a.born), link_b.remote: (w, link_b.born)}
        pair = DensityMatrix((link_a.remote, link_b.remote), _PHI_PLUS)
        state.groups.append(Component(pair, pending, 2))
        join((a, b))
        events.append(("bsm", a, b, True))


def do_fusions(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Fuse end-to-end groups at every node holding two of their qubits.

    One pass over the nodes in ascending index.  A fusion at a node keeps
    every other qubit where it was, so each lower node that held two group
    qubits is already fused and every other lower node still holds fewer.  A
    waiting link pair never meets a fusion: it takes one of the node's
    NODE_MEMORY_SLOTS = 2 slots, so that node holds at most one group qubit.
    """
    owner: dict[Qubit, Component] = {}
    held: dict[int, list[Qubit]] = {}
    for comp in state.groups:
        for q in comp.qubits:
            owner[q] = comp
            held.setdefault(q.node, []).append(q)
    events: list[tuple] = []
    for node in range(1, params.n_end_nodes + 1):
        if len(held.get(node, ())) != 2:
            continue
        q_a, q_b = sorted(held[node])
        comp_a, comp_b = owner[q_a], owner.pop(q_b)
        if comp_a is comp_b:
            raise ProtocolInvariantError(f"node {node} holds two qubits of one component")
        comp_a.flush(q_a, state.round, params.p_mem)
        comp_b.flush(q_b, state.round, params.p_mem)
        joint = dmod.tensor(comp_a.dm, comp_b.dm)
        bit, post = dmod.fuse(joint, q_a, q_b, rng.random())
        if bit == 1:
            # classical broadcast of the outcome: flip the detached branch
            post = dmod.apply_pauli_x(post, *(q for q in comp_b.qubits if q != q_b))
        pending = {**comp_a.pending, **comp_b.pending}
        del pending[q_b]
        merged = Component(post, pending, comp_a.pairs_consumed + comp_b.pairs_consumed)
        state.groups.remove(comp_a)
        state.groups.remove(comp_b)
        state.groups.append(merged)
        owner.update(dict.fromkeys(merged.qubits, merged))
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
        pending = [full.factor(q, state.round, params.p_mem) for q in full.qubits]
        record = SwitchRecord(
            duration_rounds=state.round - start,
            fidelity=dmod.fidelity_to_ghz(full.dm, pending),
            pairs_consumed=full.pairs_consumed,
        )
        state.groups.remove(full)
        return record, state


WARMUP_EXECUTIONS = 1


def check_register_limit(params: SimParams) -> None:
    """Reject a point whose widest register exceeds ``dm.MAX_QUBITS``."""
    # the widest register is a fusion's joint state: every end node's qubit
    # plus the second qubit at the fused node
    if params.n_end_nodes + 1 > dmod.MAX_QUBITS:
        raise ConfigError(
            f"the switch supports n_end_nodes <= {dmod.MAX_QUBITS - 1}, "
            f"got {params.n_end_nodes}"
        )


def run_executions(params: SimParams, shots: int) -> list[SwitchRecord]:
    """Consecutive executions on one persistent network stream."""
    check_register_limit(params)
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
