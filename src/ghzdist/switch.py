"""Discrete-event Monte Carlo engine for 2-switch GHZ distribution.

The network state persists across executions: Bell pairs distributed but not
consumed while building one GHZ state seed the next one.  Each entangled
component carries its own density matrix, so full-network states are never
materialized.  Memory decoherence is bookkept lazily per qubit (depolarizing
channels on idle qubits commute with everything acting elsewhere) and flushed
just before a qubit is operated on or read out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dm as dmod
from .dm import DensityMatrix, Qubit
from .factory import Estimates, summarize
from .params import TAG_SWITCH, ConfigError, SimParams, sample_geometric, shot_rng

NODE_MEMORY_SLOTS = 2


class ProtocolInvariantError(RuntimeError):
    """The network reached a state the protocol rules are meant to exclude."""


@dataclass
class Component:
    """One connected entangled state: its density matrix, the round through
    which each qubit's memory decoherence has been applied, and how many
    link-level Bell pairs it has absorbed."""

    dm: DensityMatrix
    fresh: dict[Qubit, int]
    pairs_consumed: int = 1

    @property
    def qubits(self) -> tuple[Qubit, ...]:
        return self.dm.labels

    def end_nodes(self) -> set[int]:
        return {q.node for q in self.dm.labels if q.node != 0}

    def switch_qubits(self) -> list[Qubit]:
        return [q for q in self.dm.labels if q.node == 0]

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
    """Persistent 2-switch network: round clock plus the live components."""

    round: int = 0
    components: list[Component] = field(default_factory=list)

    def switch_owners(self) -> dict[int, Component]:
        """Connection index -> component currently holding its switch qubit."""
        owners: dict[int, Component] = {}
        for comp in self.components:
            for q in comp.switch_qubits():
                if q.slot in owners:
                    raise ProtocolInvariantError(
                        f"switch slot {q.slot} held by two components"
                    )
                owners[q.slot] = comp
        return owners

    def full_component(self, n_end_nodes: int) -> Component | None:
        """The component spanning every end node, if one exists."""
        for comp in self.components:
            if len(comp.end_nodes()) == n_end_nodes:
                return comp
        return None

    def validate(self, n_end_nodes: int) -> None:
        """Occupancy bookkeeping: unique labels, slot capacities, dm health."""
        seen: set[Qubit] = set()
        for comp in self.components:
            for q in comp.qubits:
                if q in seen:
                    raise ProtocolInvariantError(f"qubit {q} in two components")
                seen.add(q)
            if set(comp.fresh) != set(comp.qubits):
                raise ProtocolInvariantError("decoherence ledger out of sync")
            comp.dm.validate(context="component")
        for node in range(1, n_end_nodes + 1):
            if len([q for q in seen if q.node == node]) > NODE_MEMORY_SLOTS:
                raise ProtocolInvariantError(f"node {node} over memory capacity")
        switch = [q for q in seen if q.node == 0]
        if len({q.slot for q in switch}) != len(switch):
            raise ProtocolInvariantError("a connection holds two switch qubits")


def _entangled_clusters(state: NetworkState, n_end_nodes: int) -> dict[int, int]:
    """Union-find roots of end nodes under "shares a component, directly or
    through a chain of components".

    Step 2's condition that measured qubits must not belong to end nodes that
    are already part of the same (to-be) GHZ state is evaluated on these
    clusters: every connected group is fused into a single GHZ-like state by
    the end of the round, and pairing inside a cluster would create a cycle
    that fusion cannot absorb.
    """
    parent = list(range(n_end_nodes + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for comp in state.components:
        nodes = sorted(comp.end_nodes())
        for a, b in zip(nodes, nodes[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    return {node: find(node) for node in range(1, n_end_nodes + 1)}


def _occupancy(state: NetworkState, n_end_nodes: int):
    """One sweep over the components: busy switch connections and the used
    memory slots per end node."""
    busy: set[int] = set()
    used: list[set[int]] = [set() for _ in range(n_end_nodes + 1)]
    for comp in state.components:
        for q in comp.qubits:
            if q.node == 0:
                busy.add(q.slot)
            else:
                used[q.node].add(q.slot)
    return busy, used


def _eligible_connections(state: NetworkState, n_end_nodes: int) -> list[tuple[int, int]]:
    """Connections that may attempt a Bell pair: free switch slot and a free
    end-node slot.  Returns (connection, node slot to fill) in fixed order."""
    busy, used = _occupancy(state, n_end_nodes)
    out = []
    for conn in range(1, n_end_nodes + 1):
        if conn in busy or len(used[conn]) >= NODE_MEMORY_SLOTS:
            continue
        slot = min(set(range(NODE_MEMORY_SLOTS)) - used[conn])
        out.append((conn, slot))
    return out


_BELL_MAT = dmod.make_bell().mat
_EYE4 = np.eye(4, dtype=complex)


def _create_pair(state: NetworkState, params: SimParams, conn: int, slot: int) -> None:
    held = Qubit(0, conn)
    remote = Qubit(conn, slot)
    # two-qubit depolarized Bell pair, written out directly
    mat = params.p_link * _BELL_MAT + ((1.0 - params.p_link) / 4.0) * _EYE4
    pair = dmod.DensityMatrix((held, remote), mat)
    state.components.append(Component(pair, {held: state.round, remote: state.round}))


def advance_round(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """One time step: stored qubits age by one round, then every connection
    with a free switch slot and a free end-node slot attempts a Bell pair."""
    state.round += 1
    events: list[tuple] = []
    for conn, slot in _eligible_connections(state, params.n_end_nodes):
        if rng.random() < params.q_link:
            _create_pair(state, params, conn, slot)
            events.append(("link", conn))
    return events


def advance_to_link_event(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Fast-forward: repeat advance_round until at least one pair is created.

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
    different entangled clusters.  Success merges the two link pairs into an
    end-to-end state (Pauli-corrected at the second end node); failure resets
    both source pairs entirely.
    """
    events: list[tuple] = []
    while True:
        owners = state.switch_owners()
        conns = sorted(owners)
        roots = _entangled_clusters(state, params.n_end_nodes)
        valid = [
            (a, b)
            for i, a in enumerate(conns)
            for b in conns[i + 1 :]
            if roots[a] != roots[b]
        ]
        if not valid:
            return events
        a, b = valid[rng.integers(len(valid))]
        comp_a, comp_b = owners[a], owners[b]
        if len(comp_a.qubits) != 2 or len(comp_b.qubits) != 2:
            # switch qubits live in link pairs only; anything else means the
            # fusion step leaked a switch qubit into a grown component
            raise ProtocolInvariantError("switch slot held by a non-pair component")
        held_a, held_b = Qubit(0, a), Qubit(0, b)
        comp_a.flush_memory([held_a], state.round, params.p_mem)
        comp_b.flush_memory([held_b], state.round, params.p_mem)
        comp_a.dm = dmod.depolarize(comp_a.dm, (held_a,), params.p_bsm)
        comp_b.dm = dmod.depolarize(comp_b.dm, (held_b,), params.p_bsm)
        joint = dmod.tensor(comp_a.dm, comp_b.dm)
        outcome, post = dmod.bsm(joint, held_a, held_b, params.q_bsm, rng)
        state.components.remove(comp_a)
        state.components.remove(comp_b)
        if outcome.succeeded:
            partner_b = next(q for q in comp_b.qubits if q != held_b)
            post = dmod.pauli_correct(post, partner_b, outcome)
            fresh = {
                q: r
                for comp in (comp_a, comp_b)
                for q, r in comp.fresh.items()
                if q not in (held_a, held_b)
            }
            state.components.append(
                Component(post, fresh, comp_a.pairs_consumed + comp_b.pairs_consumed)
            )
            events.append(("bsm", a, b, True))
        else:
            # failed measurement: both source pairs are reset in full
            events.append(("bsm", a, b, False))
    return events


def do_fusions(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Fuse end-to-end components at every node holding two of their qubits.

    Nodes are processed in ascending index until stable.  A link pair still
    waiting for its switch-side measurement is not fused: pulling a qubit that
    is entangled to the switch into a finished GHZ state would leave the
    delivered state entangled with the central node.
    """
    events: list[tuple] = []
    restart = True
    while restart:
        restart = False
        holdings: dict[int, list[tuple[Component, Qubit]]] = {}
        for comp in state.components:
            for q in comp.qubits:
                if q.node != 0:
                    holdings.setdefault(q.node, []).append((comp, q))
        for node in range(1, params.n_end_nodes + 1):
            held = holdings.get(node, [])
            if len(held) != 2:
                continue
            held.sort(key=lambda cq: cq[1].slot)
            (comp_a, q_a), (comp_b, q_b) = held
            if comp_a is comp_b:
                raise ProtocolInvariantError(
                    f"node {node} holds two qubits of one component"
                )
            if comp_a.switch_qubits() or comp_b.switch_qubits():
                continue
            comp_a.flush_memory([q_a], state.round, params.p_mem)
            comp_b.flush_memory([q_b], state.round, params.p_mem)
            joint = dmod.tensor(comp_a.dm, comp_b.dm)
            bit, post = dmod.fuse(joint, q_a, q_b, rng)
            if bit == 1:
                # classical broadcast of the outcome: flip the detached branch
                for q in comp_b.qubits:
                    if q != q_b:
                        post = dmod.apply_pauli_x(post, q)
            fresh = {
                q: r
                for comp in (comp_a, comp_b)
                for q, r in comp.fresh.items()
                if q != q_b
            }
            state.components.remove(comp_a)
            state.components.remove(comp_b)
            state.components.append(
                Component(post, fresh, comp_a.pairs_consumed + comp_b.pairs_consumed)
            )
            events.append(("fusion", node, bit))
            restart = True
            break
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
    GHZ state recorded) and the remaining entanglement carries over.
    """
    start = state.round
    n = params.n_end_nodes
    while True:
        advance_to_link_event(state, params, rng)
        do_switch_bsms(state, params, rng)
        do_fusions(state, params, rng)
        full = state.full_component(n)
        if full is None:
            continue
        if full.switch_qubits() or len(full.qubits) != n:
            raise ProtocolInvariantError("delivered state is not an n-qubit GHZ")
        full.flush_memory(full.qubits, state.round, params.p_mem)
        record = SwitchRecord(
            duration_rounds=state.round - start,
            fidelity=dmod.fidelity_to_ghz(full.dm),
            pairs_consumed=full.pairs_consumed,
        )
        state.components.remove(full)
        return record, state


WARMUP_EXECUTIONS = 1


def run_executions(params: SimParams, shots: int, warmup: int = WARMUP_EXECUTIONS):
    """Consecutive executions on one persistent network stream."""
    # the widest component holds every end node's qubit plus one switch qubit
    if params.n_end_nodes + 1 > dmod.MAX_QUBITS:
        raise ConfigError(
            f"the switch supports n_end_nodes <= {dmod.MAX_QUBITS - 1}, "
            f"got {params.n_end_nodes}"
        )
    rng = shot_rng(params.seed, 0, TAG_SWITCH)
    state = NetworkState()
    records: list[SwitchRecord] = []
    for i in range(warmup + shots):
        record, state = run_to_ghz(state, params, rng)
        if i >= warmup:
            records.append(record)
    return records


def estimate_switch(params: SimParams) -> Estimates:
    """Aggregate params.shots consecutive executions (after one discarded
    warm-up execution that damps the empty-network transient)."""
    records = run_executions(params, params.shots)
    durations = np.array([r.duration_rounds for r in records], dtype=np.int64)
    fidelities = np.array([r.fidelity for r in records])
    return summarize(durations, fidelities, params.dt)
