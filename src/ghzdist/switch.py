"""Discrete-event Monte Carlo engine for 2-switch GHZ distribution.

The state says where each qubit lives: the link pair waiting at the switch on
each connection (the central node holds at most one qubit per connection,
until a Bell measurement consumes it), and the end-to-end groups built by
successful measurements and by fusions.  It persists across executions: pairs
not consumed while building one GHZ state seed the next one.  A link pair is a
Werner state, stored as its weight alone.  That is exact: depolarizing either
qubit by d scales the weight by d, and a Bell measurement on the switch qubits
of two Werner pairs gives each outcome with probability 1/4 and, once Pauli-
corrected, a Werner pair of weight w_a w_b.  Dense density matrices start at
the end-to-end groups, one per group, never network-wide.  They are real
(float64): every state the switch reaches is real in the computational basis.
Memory decoherence is bookkept lazily per qubit (depolarizing channels on idle
qubits commute with everything acting elsewhere) and flushed just before a
qubit is fused; read-out applies the pending channels inside one pass over
the diagonal of the delivered group (``dm.fidelity_to_ghz``).  A phase runs
only when it can act: the Bell measurements when at least two links wait, the
fusions and the delivery check only after a measurement succeeded.  Each
round's middle phases build their bookkeeping once per call:
``do_switch_bsms`` keeps the rule that only end nodes in different clusters
are paired, and ``do_fusions`` fuses in one ascending pass over the nodes; a
node with a waiting link pair holds at most one group qubit, so no fusion ever
touches it.
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


class ProtocolInvariantError(RuntimeError):
    """The network reached a state the protocol rules are meant to exclude."""


@dataclass(frozen=True)
class Link:
    """A link pair waiting at the switch: the Werner state weight Phi+ + (1 -
    weight) 1/4 on (Qubit(0, connection), remote), both fresh at round born."""

    remote: Qubit
    weight: float
    born: int


@dataclass
class Component:
    """One end-to-end group: its density matrix, the round through which
    each qubit's memory decoherence has been applied, and how many link-level
    Bell pairs it has absorbed."""

    dm: DensityMatrix
    fresh: dict[Qubit, int]
    pairs_consumed: int

    @property
    def qubits(self) -> tuple[Qubit, ...]:
        return self.dm.labels

    def end_nodes(self) -> set[int]:
        return {q.node for q in self.dm.labels}

    def flush_memory(self, qubits, round_now: int, p_mem: float) -> None:
        """Apply the pending p_mem^k decoherence on the given qubits."""
        for q in qubits:
            waited = round_now - self.fresh[q]
            if waited > 0:
                if p_mem < 1.0:
                    self.dm = dmod.depolarize(self.dm, (q,), p_mem**waited)
                self.fresh[q] = round_now


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
        weight in [0, 1] and a birth no later than now; groups hold end-node
        qubits only; labels are unique, slot capacities kept, dm healthy."""
        for conn, link in self.links.items():
            node = link.remote.node
            weight_ok = 0.0 <= link.weight <= 1.0
            if node == 0 or node != conn or not weight_ok or link.born > self.round:
                raise ProtocolInvariantError(f"connection {conn} holds a bad link {link}")
        for comp in self.groups:
            if any(q.node == 0 for q in comp.qubits):
                raise ProtocolInvariantError("a group holds a switch qubit")
            if set(comp.fresh) != set(comp.qubits):
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


def werner(labels: tuple[Qubit, Qubit], w: float) -> DensityMatrix:
    """The Werner state w Phi+ + (1 - w) 1/4 on two qubits, as a real matrix.

    Built from its closed-form entries.  Phi+'s entry is the dense
    ``make_bell`` one, |1/sqrt 2|^2 as rounded there (0.4999999999999999, not
    0.5), so every entry is the bits of w Phi+ + (1 - w)/4 1 summed densely.
    """
    c = w * 0.4999999999999999
    d = (1.0 - w) / 4.0
    return DensityMatrix(labels, np.array([
        [c + d, 0.0, 0.0, c],
        [0.0, d, 0.0, 0.0],
        [0.0, 0.0, d, 0.0],
        [c, 0.0, 0.0, c + d],
    ]))


def swapped_weight(a: Link, b: Link, round_now: int, params: SimParams) -> float:
    """Werner weight of the pair a successful BSM leaves on the remotes of a
    and b: each switch qubit ages p_mem per round since its link's birth and
    is depolarized by p_bsm before the measurement; the remotes age lazily."""
    w = 1.0
    for link in (a, b):
        w *= link.weight * params.p_mem ** (round_now - link.born) * params.p_bsm
    return w


def _create_pair(state: NetworkState, params: SimParams, conn: int, slot: int) -> None:
    state.links[conn] = Link(Qubit(conn, slot), params.p_link, state.round)


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
            _create_pair(state, params, conn, slot)
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
    merges the two link pairs into an end-to-end Werner pair (Pauli-corrected
    at the second end node); failure resets both source pairs entirely.
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
        pair = werner((link_a.remote, link_b.remote), w)
        fresh = {link_a.remote: link_a.born, link_b.remote: link_b.born}
        state.groups.append(Component(pair, fresh, 2))
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
        comp_a.flush_memory([q_a], state.round, params.p_mem)
        comp_b.flush_memory([q_b], state.round, params.p_mem)
        joint = dmod.tensor(comp_a.dm, comp_b.dm)
        bit, post = dmod.fuse(joint, q_a, q_b, rng.random())
        if bit == 1:
            # classical broadcast of the outcome: flip the detached branch
            post = dmod.apply_pauli_x(post, *(q for q in comp_b.qubits if q != q_b))
        fresh = {**comp_a.fresh, **comp_b.fresh}
        del fresh[q_b]
        merged = Component(post, fresh, comp_a.pairs_consumed + comp_b.pairs_consumed)
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
        pending = [params.p_mem ** (state.round - full.fresh[q]) for q in full.qubits]
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
