"""Discrete-event Monte Carlo engine for 2-switch GHZ distribution.

The state is flat per-node data, indexed by end node 1..N (connection c
joins the switch to end node c).  Per connection: the birth round of the
link pair waiting at the switch (``NO_LINK`` for none; the central node
holds at most one qubit per connection, until a Bell measurement consumes
it).  Per node: the end-to-end group holding its qubit.  Besides them, at
most one group arrives: the pair a successful measurement made, until the
fusion phase places it.  No qubit is given a memory slot, as which of a
node's qubits is which never changes a state; a node holds at most
``NODE_MEMORY_SLOTS`` qubits.  The state persists across executions: pairs
not consumed while building one GHZ state seed the next one.

No group is stored as a matrix.  Every operation of the switch (a Bell
measurement with its Pauli correction, a CNOT fusion with its Z read-out and
outcome-1 X correction) is Clifford, and all noise (p_link, p_mem per round,
p_bsm) is single-qubit depolarizing.  A group holds one qubit per node, so
it is its node bitmask, each node qubit's pending factor, and its GHZ state
under a ledger of independent noise entries (d, S), S a node bitmask within
the group's: with probability 1 - d an entry applies one of I, X_S, Z,
X_S Z, chosen uniformly (on a GHZ state every single-qubit Z acts alike,
and X_S as X on the rest of the group).  Depolarizing node v's qubit by d
is the entry (d, 1 << v).  Parameters of one qubit's channels multiply, so
each group qubit owes one pending factor (``Component.factor``), entered
into the ledger when the qubit is fused (``Component.flush``) or read out.
A waiting link pair is only its birth round: a successful Bell measurement
on two gives each outcome with probability 1/4 and, once Pauli-corrected,
Phi+ on the remotes with an empty ledger and both pairs' noise pending on
one remote (``swapped_weight``), as depolarizing either qubit of Phi+ gives
one state.  A fusion at node v, its control the qubit of the group A
already held at v and its target that of the arriving group B, turns an S
holding v into the rest of its side, ``mask ^ S``
(``Component.fused_entries``); its Z outcome has probability 1/2 and, once
corrected, leaves the same state, so none is drawn.  The read-out
(``Component.ghz_fidelity``) is the character sum
F = 1/2 prod_e d_e + 2^-k sum_t prod_e d_e^[<t, S_e> odd] over the
even-weight t in {0, 1}^k, evaluated by a tree DP: read as its side without
the group's lowest node, each S is a cut of the tree of fusions that built
the group, so the sides form a laminar family, and each side's parity
weights are the XOR convolution of its children's and its free nodes'.  Its
cost grows with the ledger, not as 2^k, so the switch takes any N;
``oracles`` keeps the 2^(k-1)-term sum as its reference.

Each success is fused at once, so the groups are the clusters the protocol
pairs across: ``do_switch_bsms`` pairs only end nodes not both held by one
group and stops at its first success, whose pair waits as the arriving group
(``NetworkState.arriving``); ``do_fusions`` places it node by node, in
ascending order, each held group absorbing the arriving one.  A phase runs
only when it can act: the Bell measurements when at least two links wait,
the fusions and the delivery check only after a measurement succeeded.  A
group spans every end node when its mask is bits 1..N.

A run reads one stream of uniforms (``params.Uniforms`` on ``shot_rng(seed,
0, TAG_SWITCH)``) and draws nothing else, in this order: one per eligible
connection of each link phase, then per Bell measurement the pair
``valid[floor(u * len(valid))]`` when more than one pair is valid and the
success coin when q_bsm < 1.  Nothing that leaves the state as it is, a Bell
or fusion outcome, is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .factory import Estimates, summarize
from .params import TAG_SWITCH, ConfigError, SimParams, Uniforms, sample_geometric, shot_rng

NODE_MEMORY_SLOTS = 2
NO_LINK = -1
# expected Bell measurements an estimate may make: at 4 to 10 us a
# measurement, 7 to 17 minutes of sampling
BSM_BUDGET = 1e8


class ProtocolInvariantError(RuntimeError):
    """The network reached a state the protocol rules are meant to exclude."""


@dataclass
class Component:
    """One end-to-end group: its end nodes' bitmask (bit v for node v), the
    pending factor ``(d, since)`` of each node's qubit (it owes depolarizing
    by d p_mem^(now - since)), keyed by node in the order the nodes joined,
    how many link-level Bell pairs it has absorbed, and its noise ledger of
    entries (d, S), S a node bitmask."""

    mask: int
    pending: dict[int, tuple[float, int]]
    pairs_consumed: int
    entries: list[tuple[float, int]] = field(default_factory=list)

    def factor(self, node: int, now: int, p_mem: float) -> float:
        """The depolarizing parameter node's qubit owes at round now."""
        d, since = self.pending[node]
        return d * p_mem ** (now - since)

    def flush(self, node: int, now: int, p_mem: float) -> None:
        """Enter node's pending channel into the ledger; it then owes nothing."""
        p = self.factor(node, now, p_mem)
        if p != 1.0:
            self.entries.append((p, 1 << node))
        self.pending[node] = (1.0, now)

    def fused_entries(self, node: int) -> list[tuple[float, int]]:
        """The ledger as a fusion at node, control or target, leaves it: an S
        holding node becomes the rest of the group, X on which acts on the
        group's GHZ state as X_S does and passes the fusion unchanged."""
        bit, mask = 1 << node, self.mask
        return [(d, mask ^ s if s & bit else s) for d, s in self.entries]

    def absorb(self, other: Component, node: int) -> None:
        """Fuse other into this group at node, this group's qubit there the
        control: the group keeps its nodes, then other's without node, and
        both sides' ledgers as the fusion leaves them.  Both qubits at node
        must have been flushed."""
        self.entries = self.fused_entries(node) + other.fused_entries(node)
        del other.pending[node]
        self.mask |= other.mask
        self.pending.update(other.pending)
        self.pairs_consumed += other.pairs_consumed

    def ghz_fidelity(self, now: int, p_mem: float) -> float:
        """Fidelity to the GHZ state on the group's qubits at round now, each
        qubit's pending channel entered as (d_v, 1 << v), by a tree DP over
        the entries' sides.

        On the GHZ state X_S acts as X on the rest of the group, so an entry
        stands for its side without the group's lowest node; entries of one
        side act as one, their d's multiplied.  The sides form a laminar
        family (a side crossing another raises), walked by increasing size.
        A side's (even, odd) pair is the weight of the parity of a uniform
        t on its nodes, each entry inside it weighing d_e when t is odd on
        it: the XOR convolution of its children's pairs and of its free
        nodes' (1/2, 1/2), its odd part times its own d.  The group is the
        root, with its lowest node free, and F = 1/2 prod_e d_e plus the
        root's even part; the first term holds the Z part, which each entry
        draws together with its X part, not independently of it."""
        mask = self.mask
        low = mask & -mask
        sides: dict[int, float] = {}
        whole = 1.0
        pending = [(self.factor(v, now, p_mem), 1 << v) for v in self.pending]
        for d, s in self.entries + pending:
            side = mask ^ s if s & low else s
            sides[side] = sides.get(side, 1.0) * d
            whole *= d
        # per node bit, a walked side holding it; per walked side, the side
        # that took it in as a child: following ``taken`` from any side
        # holding a node reaches the top, the largest walked side holding it
        held: dict[int, int] = {}
        taken: dict[int, int] = {}
        tops: dict[int, tuple[float, float]] = {}
        for side in sorted(sides, key=int.bit_count):
            even, odd, free, rest = 1.0, 0.0, False, side
            while rest:
                bit = rest & -rest
                top = held.get(bit, 0)
                while top in taken:
                    top = taken[top]
                held[bit] = side
                if not top:
                    free, rest = True, rest ^ bit
                    continue
                if top & ~side:
                    a, b = sorted((top, side))
                    raise ProtocolInvariantError(f"ledger sides {a:#b} and {b:#b} cross")
                taken[top] = side
                e, o = tops.pop(top)
                even, odd = even * e + odd * o, even * o + odd * e
                rest &= ~top
            if free:
                even = odd = (even + odd) / 2
            tops[side] = (even, odd * sides[side])
        # the root's lowest node is free: its even part is half its total
        root = 1.0
        for even, odd in tops.values():
            root *= even + odd
        return 0.5 * whole + 0.5 * root


class NetworkState:
    """Persistent 2-switch network, as lists indexed by end node (index 0
    is the switch and holds nothing), sized for n_end_nodes end nodes.

    ``round`` is the clock.  Per connection: ``born``, the waiting link
    pair's birth round or NO_LINK.  Per node: ``owner``, the group holding
    its qubit.  ``arriving`` is the pair a successful measurement made, held
    at none of its nodes until ``do_fusions`` places it."""

    def __init__(self, n_end_nodes: int, round: int = 0):
        size = n_end_nodes + 1
        self.round = round
        self.born = [NO_LINK] * size
        self.owner: list[Component | None] = [None] * size
        self.arriving: Component | None = None

    def remove(self, comp: Component) -> None:
        """Take a delivered group out: its nodes hold no group qubit."""
        for v in comp.pending:
            self.owner[v] = None

    def groups(self) -> list[Component]:
        """Every group in the network, once each."""
        held = [c for c in self.owner + [self.arriving] if c is not None]
        return list({id(c): c for c in held}.values())

    def validate(self, n_end_nodes: int) -> None:
        """Where each qubit lives: links wait only on connections 1..N, born
        no later than now; groups hold end-node qubits only, one pending
        factor per node of their mask, and ledger entries (d, S) with d in
        [0, 1] and S a non-empty subset of the group's mask whose sides (S
        without the group's lowest node) are pairwise nested or disjoint (the
        read-out's walk raises on a crossing); owner and mask agree, the
        arriving group aside; no node holds more than NODE_MEMORY_SLOTS
        qubits, the arriving group's counted."""
        nodes = range(1, n_end_nodes + 1)
        for conn, born in enumerate(self.born):
            if born != NO_LINK and not (conn in nodes and born <= self.round):
                raise ProtocolInvariantError(f"connection {conn} holds a bad link")
        for comp in self.groups():
            if comp.mask & 1:
                raise ProtocolInvariantError("a group holds a switch qubit")
            if comp.mask != sum(1 << v for v in comp.pending):
                raise ProtocolInvariantError(
                    f"group pending factors {list(comp.pending)} and mask disagree")
            for d, s in comp.entries:
                if not (0.0 <= d <= 1.0 and s and not s & ~comp.mask):
                    raise ProtocolInvariantError(f"bad ledger entry ({d}, {s:#b})")
            comp.ghz_fidelity(self.round, 1.0)
            for v in comp.pending:
                if comp is not self.owner[v] and comp is not self.arriving:
                    raise ProtocolInvariantError(f"group {comp.mask:#b} not held at node {v}")
        for v, comp in enumerate(self.owner):
            if comp is not None and not comp.mask >> v & 1:
                raise ProtocolInvariantError(f"node {v} held by a group outside its mask")
        arriving = self.arriving.mask if self.arriving is not None else 0
        for v in nodes:
            held, linked = self.owner[v] is not None, self.born[v] != NO_LINK
            if held + (arriving >> v & 1) + linked > NODE_MEMORY_SLOTS:
                raise ProtocolInvariantError(f"node {v} over memory capacity")


def swapped_weight(born_a: int, born_b: int, round_now: int, params: SimParams) -> float:
    """Pending factor a successful BSM on the switch qubits of links born at
    born_a and born_b adds to the swapped pair: each link's p_link, its
    switch qubit's p_mem per round since the link's birth, and p_bsm before
    the measurement.  The remotes' own aging stays pending from their links'
    births."""
    w = 1.0
    for born in (born_a, born_b):
        w *= params.p_link * params.p_mem ** (round_now - born) * params.p_bsm
    return w


def advance_to_link_event(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Fast-forward: ``oracles.advance_round`` repeated until a pair is created.

    By memorylessness, each connection with no link waiting draws its
    geometric time to success, the clock jumps to the earliest one, and
    every connection attaining it succeeds in that round.  With no eligible
    connection the clock moves a single round.  Memory decoherence is
    unaffected: it is bookkept from the round counter.  This is the
    per-round loop in distribution only while no valid pair waits: links
    left waiting at a delivered group's nodes wait here for the next
    arrival, where that loop measures them in the next round (ROADMAP
    item 2).
    """
    born = state.born
    eligible = [c for c in range(1, params.n_end_nodes + 1) if born[c] == NO_LINK]
    if not eligible:
        state.round += 1
        return []
    times = sample_geometric(rng, params.q_link, len(eligible))
    first = min(times)
    state.round += first
    events: list[tuple] = []
    for conn, t in zip(eligible, times):
        if t == first:
            born[conn] = state.round
            events.append(("link", conn))
    return events


def do_switch_bsms(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Measure random valid pairs of switch qubits until one succeeds.

    A pair is valid unless one group holds both end nodes reached through
    the two qubits: pairing inside a group would create a cycle that fusion
    cannot absorb.  The groups are the clusters, as every success is fused
    (``do_fusions``) before the next call; a failed measurement changes
    none.  The pair is ``valid[floor(u * len(valid))]`` on one uniform,
    drawn only when more than one pair is valid, and the measurement
    succeeds when a second uniform is below q_bsm, drawn only when
    q_bsm < 1.  Success merges the two link pairs into Phi+ on their remotes
    (Pauli-corrected at the second end node), its noise pending on the
    second remote, makes it the arriving group and ends the call; failure
    resets both pairs.  The Bell outcome is not drawn: once Pauli-corrected,
    all four leave the same pair.
    """
    if state.arriving is not None:
        raise ProtocolInvariantError(f"group {state.arriving.mask:#b} still arriving")
    born, owner = state.born, state.owner
    waiting = [c for c in range(1, params.n_end_nodes + 1) if born[c] != NO_LINK]
    events: list[tuple] = []
    while len(waiting) > 1:
        valid = [(a, b) for a, b in combinations(waiting, 2)
                 if owner[a] is None or owner[a] is not owner[b]]
        if not valid:
            break
        a, b = valid[int(rng.random() * len(valid))] if len(valid) > 1 else valid[0]
        waiting.remove(a)
        waiting.remove(b)
        born_a, born_b = born[a], born[b]
        born[a] = born[b] = NO_LINK
        if params.q_bsm < 1.0 and rng.random() >= params.q_bsm:
            # failed measurement: both source pairs are reset in full
            events.append(("bsm", a, b, False))
            continue
        w = swapped_weight(born_a, born_b, state.round, params)
        state.arriving = Component(1 << a | 1 << b, {a: (1.0, born_a), b: (w, born_b)}, 2, [])
        events.append(("bsm", a, b, True))
        break
    return events


def do_fusions(
    state: NetworkState, params: SimParams, rng: np.random.Generator
) -> list[tuple]:
    """Place the arriving group at each of its nodes, in ``pending`` order.

    A free node takes the group.  At a node already holding a group A, the
    control is A's qubit and the target that of the arriving group B; which
    is which does not change the fused state.  A absorbs B
    (``Component.absorb``), every node B held points to A, and A arrives at
    B's next node.  A waiting link pair is not a group qubit, so no fusion
    meets it.  The Z outcome, 1 with probability 1/2, is not drawn: once
    corrected by X on B's other qubits, either outcome leaves the same
    state.  Each fusion is reported as ``("fusion", node)``.
    """
    owner, pair = state.owner, state.arriving
    state.arriving = None
    events: list[tuple] = []
    for node in list(pair.pending):
        held = owner[node]
        if held is None:
            owner[node] = pair
            continue
        if held is pair:
            raise ProtocolInvariantError(f"node {node} holds two qubits of one component")
        held.flush(node, state.round, params.p_mem)
        pair.flush(node, state.round, params.p_mem)
        held.absorb(pair, node)
        for v in pair.pending:
            if owner[v] is pair:
                owner[v] = held
        pair = held
        events.append(("fusion", node))
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

    The finished component is measured out of the network (its fidelity to
    the GHZ state recorded) and the remaining entanglement carries over.
    After each link event, measurements and fusions alternate until a
    measurement call ends without success.  A phase is skipped when it
    cannot act, which draws nothing: with fewer than two links waiting no
    pair is valid, and only a success makes a group arrive, and with it a
    group that may span every end node.
    """
    start = state.round
    n = params.n_end_nodes
    born, owner = state.born, state.owner
    every_node = (2 << n) - 2  # bits 1..N
    while True:
        advance_to_link_event(state, params, rng)
        if len(born) - born.count(NO_LINK) < 2:
            continue
        while any(event[3] for event in do_switch_bsms(state, params, rng)):
            do_fusions(state, params, rng)
            full = owner[1]
            if full is not None and full.mask == every_node:
                if len(full.pending) != n:
                    raise ProtocolInvariantError("delivered state is not an n-qubit GHZ")
                record = SwitchRecord(
                    duration_rounds=state.round - start,
                    fidelity=full.ghz_fidelity(state.round, params.p_mem),
                    pairs_consumed=full.pairs_consumed,
                )
                state.remove(full)
                return record, state


WARMUP_EXECUTIONS = 1


def check_measurement_budget(params: SimParams) -> None:
    """Reject a point whose expected Bell measurements, (N - 1) / q_bsm per
    delivery over the warm-up and params.shots deliveries, exceed
    ``BSM_BUDGET``."""
    per_delivery = (params.n_end_nodes - 1) / params.q_bsm
    bsms = (params.shots + WARMUP_EXECUTIONS) * per_delivery
    if bsms > BSM_BUDGET:
        raise ConfigError(
            f"the switch would make ~{bsms:.2g} Bell measurements (budget "
            f"{BSM_BUDGET:.0e}): each delivery needs (n_end_nodes - 1) / q_bsm = "
            f"{per_delivery:.2g} of them at q_bsm = {params.q_bsm}; raise q_bsm or lower "
            f"shots ({params.shots})"
        )


def run_executions(params: SimParams, shots: int) -> list[SwitchRecord]:
    """Consecutive executions on one persistent network, read through one
    buffered stream of uniforms."""
    rng = Uniforms(shot_rng(params.seed, 0, TAG_SWITCH))
    state = NetworkState(params.n_end_nodes)
    for _ in range(WARMUP_EXECUTIONS):
        run_to_ghz(state, params, rng)
    return [run_to_ghz(state, params, rng)[0] for _ in range(shots)]


def estimate_switch(params: SimParams) -> Estimates:
    """Aggregate params.shots consecutive executions (after one discarded
    warm-up execution that damps the empty-network transient)."""
    check_measurement_budget(params)
    records = run_executions(params, params.shots)
    # float64: exact below 2^53 and, past 2^63, no overflow; ``summarize``
    # takes the durations to floats anyway
    durations = np.array([r.duration_rounds for r in records], dtype=np.float64)
    fidelities = np.array([r.fidelity for r in records])
    return summarize(durations, fidelities, params.dt)
