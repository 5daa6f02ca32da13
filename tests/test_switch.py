"""2-switch engine: round mechanics, measurements, fusions, carry-over."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzdist import dm as dmod, switch as switch_module
from ghzdist.analytics import switch_fidelity_perfect_memory
from ghzdist.dm import Qubit
from ghzdist.oracles import advance_round, ghz_fidelity_character_sum
from ghzdist.chain import mean_delivery_rounds
from ghzdist.factory import summarize
from ghzdist.params import TAG_SWITCH, ConfigError, SimParams, derive_p_ghz, shot_rng
from ghzdist.switch import (
    BSM_BUDGET,
    NO_LINK,
    NODE_MEMORY_SLOTS,
    WARMUP_EXECUTIONS,
    Component,
    NetworkState,
    ProtocolInvariantError,
    advance_to_link_event,
    check_measurement_budget,
    do_fusions,
    do_switch_bsms,
    estimate_switch,
    run_executions,
    run_to_ghz,
    swapped_weight,
)


def make_params(**kwargs):
    base = dict(n_end_nodes=5, q_link=0.5, q_bsm=1.0, seed=1, shots=50)
    base.update(kwargs)
    return SimParams(**base)


def group(*nodes: int, entries=(), pairs=2) -> Component:
    """A group on the nodes, in their order, owing nothing since round 0."""
    return Component(sum(1 << v for v in nodes), dict.fromkeys(nodes, (1.0, 0)), pairs,
                     list(entries))


def place(state: NetworkState, comp: Component, *nodes: int) -> None:
    """Hold comp's qubits at the nodes or, when one of them holds a group
    already, make comp the arriving group."""
    if any(state.owner[v] is not None for v in nodes):
        state.arriving = comp
    else:
        for v in nodes:
            state.owner[v] = comp


def spanning_group(state: NetworkState, n: int) -> Component | None:
    """The group spanning end nodes 1..n, if one exists: node 1's, when its
    mask is bits 1..n."""
    comp = state.owner[1]
    return comp if comp is not None and comp.mask == (2 << n) - 2 else None


def network(*pairs: tuple[int, int]) -> NetworkState:
    """A state for make_params' five end nodes holding each pair in order:
    (0, conn) as a link waiting on conn since round 0, any other (u, v) as a
    two-node group, which becomes the arriving group when one of its nodes
    holds a group already."""
    state = NetworkState(5)
    for u, v in pairs:
        if u == 0:
            state.born[v] = 0
        else:
            place(state, group(u, v), u, v)
    return state


class StandInStream:
    """A Generator's ``random`` alone, counting the uniforms it hands out;
    the switch draws nothing else, so ``integers`` raises."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.drawn = rng, 0

    def random(self, size=None):
        self.drawn += 1 if size is None else size
        return self.rng.random(size)

    def integers(self, *args, **kwargs):
        raise AssertionError("the switch draws only uniforms")


def links(state: NetworkState) -> list[int]:
    """The connections with a link pair waiting."""
    return [conn for conn, born in enumerate(state.born) if born != NO_LINK]


class TestAdvanceRound:
    def test_certain_links_fill_all_connections(self):
        state = NetworkState(5)
        params = make_params(q_link=1.0, p_link=0.9)
        events = advance_round(state, params, shot_rng(0, 0, 9))
        assert sorted(events) == [("link", c) for c in range(1, 6)]
        assert links(state) == [1, 2, 3, 4, 5] and state.groups() == []
        for conn in links(state):
            assert state.born[conn] == 1

    def test_busy_connection_does_not_attempt(self):
        state = NetworkState(5)
        params = make_params(q_link=1.0)
        advance_round(state, params, shot_rng(0, 0, 9))
        events = advance_round(state, params, shot_rng(0, 1, 9))
        assert events == []

    def test_perfect_memory_leaves_components_unchanged(self):
        state = NetworkState(5)
        params = make_params(q_link=1.0, p_mem=1.0, p_link=0.9)
        advance_round(state, params, shot_rng(0, 0, 9))
        before = list(state.born)
        for _ in range(5):
            advance_round(state, params, shot_rng(0, 2, 9))
        assert state.born == before
        assert swapped_weight(state.born[1], state.born[2], state.round, params) == 0.9 * 0.9

    def test_lazy_memory_aging_matches_direct_channel(self):
        # a group qubit owing (d, since) flushes into the ledger as one entry
        # with d applied once and p_mem once per round since, whatever the
        # clock did, and reads out as the dense state does
        params = make_params(q_link=1e-9, p_mem=0.9)
        a, b = Qubit(1, 0), Qubit(2, 0)
        comp = Component(0b110, {1: (1.0, 0), 2: (0.95, 1)}, 2)
        state = NetworkState(5)
        place(state, comp, 1, 2)
        for _ in range(4):
            advance_round(state, params, shot_rng(0, 1, 9))
        reference = dmod.depolarize(dmod.make_bell(a, b), (b,), 0.95)
        for q, waited in ((a, 4), (b, 3)):
            for _ in range(waited):
                reference = dmod.depolarize(reference, (q,), 0.9)
        assert comp.factor(2, state.round, params.p_mem) == 0.95 * 0.9**3
        for v in (1, 2):
            comp.flush(v, state.round, params.p_mem)
        assert comp.pending == {1: (1.0, 4), 2: (1.0, 4)}
        assert comp.entries == [(0.9**4, 1 << 1), (0.95 * 0.9**3, 1 << 2)]
        fidelity = comp.ghz_fidelity(state.round, params.p_mem)
        assert fidelity == pytest.approx(dmod.fidelity_to_ghz(reference), abs=1e-12)

    def test_success_frequency(self):
        params = make_params(q_link=0.01)
        rng = shot_rng(4, 0, 9)
        rounds = 100_000
        hits = 0
        for _ in range(rounds):
            state = NetworkState(5)  # keep all five links free
            hits += len(advance_round(state, params, rng))
        mean = rounds * 5 * 0.01
        sigma = np.sqrt(rounds * 5 * 0.01 * 0.99)
        assert abs(hits - mean) < 3 * sigma

    def test_event_jump_matches_round_loop_distribution(self):
        params = make_params(q_link=0.2, n_end_nodes=3)
        jump_rounds = []
        loop_rounds = []
        for s in range(4000):
            state = NetworkState(3)
            advance_to_link_event(state, params, shot_rng(11, s, 9))
            jump_rounds.append(state.round)
            state = NetworkState(3)
            rng = shot_rng(12, s, 9)
            while not advance_round(state, params, rng):
                pass
            loop_rounds.append(state.round)
        # same geometric first-event law: compare means within 5 sigma
        jump_rounds, loop_rounds = np.array(jump_rounds), np.array(loop_rounds)
        pooled = np.sqrt(jump_rounds.var() / 4000 + loop_rounds.var() / 4000)
        assert abs(jump_rounds.mean() - loop_rounds.mean()) < 5 * pooled


class TestWerner:
    @pytest.mark.parametrize("w", [0.0, 0.3, 0.99, 1.0])
    def test_closed_form_is_the_dense_mixture(self, w):
        # a swapped pair is Phi+ owing w = p_link^2 on one remote, that is
        # the Werner state w Phi+ + (1 - w) 1/4, of fidelity (1 + 3 w) / 4;
        # independent X and Z marginals would give (1 + w)^2 / 4
        a, b = Qubit(1, 0), Qubit(2, 0)
        state = network((0, 1), (0, 2))
        params = make_params(n_end_nodes=2, p_link=float(np.sqrt(w)))
        do_switch_bsms(state, params, shot_rng(0, 0, 9))
        (pair,) = state.groups()
        assert list(pair.pending) == [1, 2] and pair.entries == []
        fidelity = pair.ghz_fidelity(state.round, params.p_mem)
        assert fidelity == pytest.approx((1 + 3 * w) / 4, rel=1e-15)
        dense = w * dmod.make_bell(a, b).mat + (1.0 - w) / 4.0 * np.eye(4)
        assert fidelity == pytest.approx(
            dmod.fidelity_to_ghz(dmod.DensityMatrix((a, b), dense)), rel=1e-15)
        for v in (1, 2):
            pair.flush(v, state.round, params.p_mem)
        assert pair.ghz_fidelity(state.round, params.p_mem) == pytest.approx(fidelity, rel=1e-15)


@st.composite
def tree_ledgers(draw) -> Component:
    """A group on 2..12 nodes in a random qubit order whose ledger is the
    cuts of a random tree on them, each entry (d, S) with S either side of
    its cut, plus single-node entries, in random order; each node owes a
    pending factor since a round in 0..5."""
    n = draw(st.integers(2, 12))
    nodes = draw(st.permutations(range(1, n + 1)))
    unit = st.floats(0.0, 1.0)
    # node i hangs below an earlier node; children are folded in first
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    below = [1 << v for v in nodes]
    for i in range(n - 1, 0, -1):
        below[parents[i - 1]] |= below[i]
    mask = below[0]
    entries = [(draw(unit), s if draw(st.booleans()) else mask ^ s) for s in below[1:]]
    entries += [(draw(unit), 1 << v) for v in draw(st.lists(st.sampled_from(nodes)))]
    pending = {v: (draw(unit), draw(st.integers(0, 5))) for v in nodes}
    return Component(mask, pending, 2 * (n - 1), draw(st.permutations(entries)))


class TestTreeReadout:
    """The read-out's tree DP against the 2^(N-1)-term character sum."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(comp=tree_ledgers(), p_mem=st.floats(0.5, 1.0))
    def test_dp_is_the_character_sum(self, comp, p_mem):
        reference = ghz_fidelity_character_sum(comp, 5, p_mem)
        assert abs(comp.ghz_fidelity(5, p_mem) - reference) <= 1e-12 * reference

    def test_crossing_sides_are_flagged(self):
        # {1, 2} reads as its side {3, 4}, which crosses {2, 3}: no tree of
        # fusions leaves both cuts
        comp = group(1, 2, 3, 4, entries=[(0.9, 0b00110), (0.8, 0b01100)])
        assert 0.0 < ghz_fidelity_character_sum(comp, 0, 1.0) < 1.0
        with pytest.raises(ProtocolInvariantError, match="cross"):
            comp.ghz_fidelity(0, 1.0)

    def test_two_thousand_node_chain_reads_a_fidelity(self):
        rng = np.random.default_rng(2000)
        nodes = list(range(1, 2001))
        mask = (2 << 2000) - 2
        cuts = [sum(1 << v for v in nodes[:i]) for i in range(1, 2000)]
        sides = [s if flip else mask ^ s for s, flip in zip(cuts, rng.integers(0, 2, 1999))]
        entries = [(float(d), s) for d, s in zip(rng.uniform(0.99, 1.0, 1999), sides)]
        comp = Component(mask, {v: (float(rng.uniform(0.99, 1.0)), 0) for v in nodes},
                         3998, [entries[i] for i in rng.permutation(1999)])
        fidelity = comp.ghz_fidelity(3, 0.999)
        assert math.isfinite(fidelity) and 0.0 <= fidelity <= 1.0


class TestSwitchBsms:
    def test_two_pairs_merge_into_end_to_end_bell(self):
        state = network((0, 1), (0, 2))
        events = do_switch_bsms(state, make_params(n_end_nodes=2), shot_rng(0, 0, 9))
        assert events == [("bsm", 1, 2, True)]
        assert links(state) == [] and len(state.groups()) == 1
        comp = state.groups()[0]
        assert state.arriving is comp and state.owner[1:3] == [None, None]
        state.validate(2)
        assert do_fusions(state, make_params(n_end_nodes=2), shot_rng(0, 0, 9)) == []
        assert comp.mask == 0b110 and state.owner[1] is state.owner[2] is comp
        assert state.arriving is None
        state.validate(2)
        assert comp.entries == []
        assert comp.ghz_fidelity(state.round, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert comp.pairs_consumed == 2

    def test_failed_measurement_destroys_both_pairs(self):
        state = network((0, 1), (0, 2))
        events = do_switch_bsms(
            state, make_params(n_end_nodes=2, q_bsm=1e-6), shot_rng(0, 0, 9)
        )
        assert events == [("bsm", 1, 2, False)]
        assert links(state) == [] and state.groups() == []
        assert state.owner[1:3] == [None, None]  # a failed measurement joins no clusters

    def test_three_pairs_single_uniform_measurement(self):
        params = make_params(n_end_nodes=3)
        counts = {(1, 2): 0, (1, 3): 0, (2, 3): 0}
        trials = 3000
        for s in range(trials):
            state = network(*((0, c) for c in (1, 2, 3)))
            events = do_switch_bsms(state, params, shot_rng(13, s, 9))
            assert len(events) == 1
            counts[events[0][1:3]] += 1
        sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
        for pair_count in counts.values():
            assert abs(pair_count - trials / 3) < 3 * sigma

    def test_pairs_to_already_entangled_nodes_wait(self):
        # nodes 1 and 2 already share a Bell state: their fresh link pairs
        # must not be measured into a redundant second one
        state = network((1, 2), (0, 1), (0, 2))
        events = do_switch_bsms(state, make_params(n_end_nodes=2), shot_rng(0, 0, 9))
        assert events == []
        assert links(state) == [1, 2] and len(state.groups()) == 1

    def test_single_valid_pair_draws_no_choice(self):
        # one valid pair at q_bsm = 1: neither a choice nor a coin is drawn
        state = network((0, 1), (0, 2))
        stream = StandInStream(shot_rng(0, 0, 9))
        assert do_switch_bsms(state, make_params(n_end_nodes=2), stream) == [("bsm", 1, 2, True)]
        assert stream.drawn == 0

    def test_groups_sharing_a_node_are_flagged(self):
        # 1-3 arrives where 1-2 is held: a measurement call starts only once
        # the last success was fused
        state = network((1, 2), (1, 3), (0, 2), (0, 3))
        with pytest.raises(ProtocolInvariantError, match="group 0b1010 still arriving"):
            do_switch_bsms(state, make_params(n_end_nodes=3), shot_rng(0, 0, 9))

    @pytest.mark.parametrize("seed", range(8))
    def test_success_joins_clusters_within_the_call(self, seed):
        # groups 1-2 and 3-4 with a link waiting on every connection: the
        # call stops at its first success, whose fusions join both groups,
        # so the other two links are no valid pair
        state = network((1, 2), (3, 4), *((0, c) for c in (1, 2, 3, 4)))
        params = make_params(n_end_nodes=4, q_bsm=1.0)
        events = do_switch_bsms(state, params, shot_rng(seed, 0, 9))
        assert len(events) == 1 and events[0][3] is True
        a, b = events[0][1:3]
        assert (a in (1, 2)) != (b in (1, 2))
        assert links(state) == sorted({1, 2, 3, 4} - {a, b})
        assert len(state.groups()) == 3 and state.arriving.mask == 1 << a | 1 << b
        state.validate(4)
        assert do_fusions(state, params, shot_rng(seed, 0, 9)) == [
            ("fusion", min(a, b)), ("fusion", max(a, b))]
        assert len(state.groups()) == 1
        stream = StandInStream(shot_rng(seed, 0, 9))
        assert do_switch_bsms(state, params, stream) == [] and stream.drawn == 0
        assert links(state) == sorted({1, 2, 3, 4} - {a, b})
        state.validate(4)


class TestFusions:
    def test_fuses_two_bells_at_shared_node(self):
        state = network((1, 2), (1, 3))
        events = do_fusions(state, make_params(n_end_nodes=3), shot_rng(0, 0, 9))
        assert len(events) == 1 and events[0][0] == "fusion"
        assert len(state.groups()) == 1
        comp = state.groups()[0]
        assert comp.mask == 0b1110
        assert comp.ghz_fidelity(state.round, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_fused_qubits_entries_become_the_rest_of_their_group(self):
        # the group held at node 1 absorbs the one arriving there, though
        # the arriving group is the larger
        held = group(1, 2, entries=[(0.9, 1 << 1), (0.8, 1 << 2)])
        arrived = group(1, 3, 4, entries=[(0.7, 1 << 1), (0.6, 1 << 3)], pairs=4)
        state = NetworkState(4)
        place(state, held, 1, 2)
        place(state, arrived, 1, 3, 4)
        assert state.arriving is arrived
        do_fusions(state, make_params(n_end_nodes=4, p_mem=1.0), shot_rng(0, 0, 9))
        (merged,) = state.groups()
        assert merged is held and list(merged.pending) == [1, 2, 3, 4]
        assert merged.mask == 0b11110
        assert merged.entries == [(0.9, 1 << 2), (0.8, 1 << 2), (0.7, 0b11000), (0.6, 1 << 3)]
        assert merged.pairs_consumed == 6
        assert state.owner[1:5] == [held] * 4 and state.arriving is None

    def test_no_shared_node_no_fusion(self):
        # free nodes take the arriving group as it is
        state = network((1, 2))
        state.arriving = arrived = group(3, 4)
        assert do_fusions(state, make_params(), shot_rng(0, 0, 9)) == []
        assert len(state.groups()) == 2 and state.owner[3] is state.owner[4] is arrived

    def test_fusion_cascade_builds_ghz4(self):
        chains = [
            [(1, 2), (2, 3), (3, 4)],
            # groups placed out of chain order: the arriving 2-3 is fused at
            # node 2 and the group it joined arrives at node 3, in one call
            [(3, 4), (2, 3), (1, 2)],
        ]
        for pairs in chains:
            state = network(*pairs)
            events = do_fusions(state, make_params(n_end_nodes=4), shot_rng(0, 0, 9))
            assert [e[:2] for e in events] == [("fusion", 2), ("fusion", 3)]
            assert len(state.groups()) == 1
            comp = state.groups()[0]
            assert comp.mask == 0b11110
            state.validate(4)
            assert comp.ghz_fidelity(state.round, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_link_pair_is_not_absorbed(self):
        state = network((0, 1))
        state.arriving = group(1, 2)
        assert do_fusions(state, make_params(), shot_rng(0, 0, 9)) == []
        assert links(state) == [1] and len(state.groups()) == 1

    def test_same_component_twice_at_node_is_flagged(self):
        state = NetworkState(2)
        comp = group(1, 2)
        place(state, comp, 1, 2)
        place(state, comp, 1, 2)  # held at both nodes, it arrives there again
        with pytest.raises(ProtocolInvariantError, match="node 1 holds two qubits of one"):
            do_fusions(state, make_params(n_end_nodes=2), shot_rng(0, 0, 9))


class TestRunToGhz:
    def test_perfect_links_two_rounds(self):
        params = make_params(q_link=1.0)
        state = NetworkState(5)
        rec, state = run_to_ghz(state, params, shot_rng(2, 0, TAG_SWITCH))
        assert rec.duration_rounds == 2
        assert rec.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_always_unit_fidelity(self):
        rng_outer = np.random.default_rng(33)
        for trial in range(250):
            params = make_params(
                n_end_nodes=int(rng_outer.integers(2, 6)),
                q_link=float(rng_outer.uniform(0.2, 1.0)),
                q_bsm=float(rng_outer.uniform(0.5, 1.0)),
            )
            state = NetworkState(params.n_end_nodes)
            rng = shot_rng(int(rng_outer.integers(2**32)), 0, TAG_SWITCH)
            for _ in range(4):
                rec, state = run_to_ghz(state, params, rng)
                assert rec.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_pair_accounting_with_certain_measurements(self):
        # every delivered GHZ absorbs exactly 2(N-1) link pairs when no
        # measurement can fail
        params = make_params(n_end_nodes=4, q_link=0.3, q_bsm=1.0)
        state = NetworkState(4)
        rng = shot_rng(8, 0, TAG_SWITCH)
        for _ in range(30):
            rec, state = run_to_ghz(state, params, rng)
            assert rec.pairs_consumed == 2 * (4 - 1)

    @pytest.mark.parametrize("n", [4, 16])
    def test_invariants_hold_along_a_run(self, n):
        params = make_params(
            n_end_nodes=n, q_link=0.4, q_bsm=0.7, p_link=0.95, p_mem=0.999, p_bsm=0.97
        )
        state = NetworkState(n)
        rng = shot_rng(3, 0, TAG_SWITCH)
        deliveries = 0
        while deliveries < 12:
            advance_round(state, params, rng)
            state.validate(params.n_end_nodes)
            while any(e[3] for e in do_switch_bsms(state, params, rng)):
                state.validate(params.n_end_nodes)
                do_fusions(state, params, rng)
                state.validate(params.n_end_nodes)
                # the arriving group was placed at every node, none skipped
                nodes = [v for comp in state.groups() for v in comp.pending]
                assert state.arriving is None and len(nodes) == len(set(nodes))
            state.validate(params.n_end_nodes)
            full = spanning_group(state, params.n_end_nodes)
            if full is not None:
                assert sorted(full.pending) == list(range(1, n + 1))
                state.remove(full)
                state.validate(params.n_end_nodes)
                assert state.owner[1:] == [None] * n and state.arriving is None
                deliveries += 1


def draw_rule_count(monkeypatch, params: SimParams, deliveries: int) -> tuple[int, int]:
    """Uniforms ``deliveries`` ``run_to_ghz`` calls draw, and the count the
    stream rule gives from the phases' states and events: one per eligible
    connection of each link phase, one per BSM that had more than one valid
    pair, and one per BSM when q_bsm < 1."""
    expected = [0]
    link_phase, bsm_phase = switch_module.advance_to_link_event, switch_module.do_switch_bsms
    n = params.n_end_nodes

    def links_counted(state, params, rng):
        expected[0] += sum(state.born[c] == NO_LINK for c in range(1, n + 1))
        return link_phase(state, params, rng)

    def bsms_counted(state, params, rng):
        # a call ends at its first success, so every pair it measures is
        # drawn under the groups it started with
        waiting = [c for c in range(1, n + 1) if state.born[c] != NO_LINK]
        owner = list(state.owner)
        events = bsm_phase(state, params, rng)
        for _, a, b, _ in events:
            valid = [(x, y) for i, x in enumerate(waiting) for y in waiting[i + 1:]
                     if owner[x] is None or owner[x] is not owner[y]]
            expected[0] += (len(valid) > 1) + (params.q_bsm < 1.0)
            waiting.remove(a)
            waiting.remove(b)
        return events

    monkeypatch.setattr(switch_module, "advance_to_link_event", links_counted)
    monkeypatch.setattr(switch_module, "do_switch_bsms", bsms_counted)
    state = NetworkState(params.n_end_nodes)
    stream = StandInStream(shot_rng(params.seed, 0, TAG_SWITCH))
    for _ in range(deliveries):
        run_to_ghz(state, params, stream)
    return stream.drawn, expected[0]


DRAW_POINTS = [
    dict(n_end_nodes=2, q_link=0.3, q_bsm=1.0),
    dict(n_end_nodes=3, q_link=0.5, q_bsm=0.6),
    dict(n_end_nodes=5, q_link=0.01, q_bsm=0.95, p_mem=0.999),
    dict(n_end_nodes=8, q_link=1.0, q_bsm=1.0),
    dict(n_end_nodes=11, q_link=0.2, q_bsm=0.9),
]


class TestDrawRule:
    """The switch's uniforms, in the order a lockstep engine must reproduce."""

    @pytest.mark.parametrize("kwargs", DRAW_POINTS, ids=lambda k: f"n{k['n_end_nodes']}")
    def test_draws_follow_the_stream_rule(self, monkeypatch, kwargs):
        drawn, expected = draw_rule_count(monkeypatch, make_params(seed=4, **kwargs), 20)
        assert drawn == expected > 0

    def test_an_unused_draw_breaks_the_count(self, monkeypatch):
        # negative control: the Born draw the engine no longer makes
        bsm_phase = switch_module.do_switch_bsms

        def with_born_draw(state, params, rng):
            events = bsm_phase(state, params, rng)
            for *_, ok in events:
                if ok:
                    rng.random()
            return events

        monkeypatch.setattr(switch_module, "do_switch_bsms", with_born_draw)
        drawn, expected = draw_rule_count(monkeypatch, make_params(seed=4, **DRAW_POINTS[2]), 5)
        assert drawn > expected

    @pytest.mark.parametrize("kwargs", DRAW_POINTS, ids=lambda k: f"n{k['n_end_nodes']}")
    def test_runs_on_uniforms_alone(self, kwargs):
        state = NetworkState(kwargs["n_end_nodes"])
        stream = StandInStream(shot_rng(9, 0, TAG_SWITCH))
        for _ in range(10):
            record, state = run_to_ghz(state, make_params(**kwargs), stream)
            assert record.pairs_consumed == 2 * (kwargs["n_end_nodes"] - 1)


class TestJumpEquivalence:
    def test_full_delivery_statistics_match_literal_round_loop(self):
        # system-level check of the fast-forward: complete GHZ deliveries via
        # the event jump must follow the same duration/fidelity law as the
        # literal one-round loop
        params = make_params(
            n_end_nodes=4, q_link=0.15, q_bsm=0.85, p_mem=0.995, p_link=0.97
        )
        n_exec = 1500

        def run_literal(state, rng):
            start = state.round
            while True:
                advance_round(state, params, rng)
                while any(e[3] for e in do_switch_bsms(state, params, rng)):
                    do_fusions(state, params, rng)
                full = spanning_group(state, params.n_end_nodes)
                if full is not None:
                    for v in full.pending:
                        full.flush(v, state.round, params.p_mem)
                    fid = full.ghz_fidelity(state.round, params.p_mem)
                    state.remove(full)
                    return state.round - start, fid

        rng = shot_rng(71, 0, TAG_SWITCH)
        state = NetworkState(params.n_end_nodes)
        literal = np.array([run_literal(state, rng) for _ in range(n_exec)])

        rng = shot_rng(72, 0, TAG_SWITCH)
        state = NetworkState(params.n_end_nodes)
        jump = []
        for _ in range(n_exec):
            rec, state = run_to_ghz(state, params, rng)
            jump.append((rec.duration_rounds, rec.fidelity))
        jump = np.array(jump)

        for col in (0, 1):
            pooled = np.sqrt(
                literal[:, col].var() / n_exec + jump[:, col].var() / n_exec
            )
            assert abs(literal[:, col].mean() - jump[:, col].mean()) < 5 * pooled


def literal_executions(params: SimParams, shots: int) -> list[tuple[int, int, float]]:
    """run_executions as a literal loop: the link and measurement phases run
    every iteration, measurement and fusion alternating until a measurement
    call ends without success, every group qubit's pending channel enters the ledger
    after each phase, and the read-out has none left to fold in.  Returns
    (duration_rounds, pairs_consumed, fidelity) per delivery."""
    rng = shot_rng(params.seed, 0, TAG_SWITCH)
    state = NetworkState(params.n_end_nodes)

    def run(phase) -> list[tuple]:
        events = phase(state, params, rng)
        for comp in state.groups():
            for v in comp.pending:
                comp.flush(v, state.round, params.p_mem)
        return events

    records = []
    for _ in range(WARMUP_EXECUTIONS + shots):
        start = state.round
        full = None
        while full is None:
            run(advance_to_link_event)
            while any(e[3] for e in run(do_switch_bsms)):
                run(do_fusions)
            full = spanning_group(state, params.n_end_nodes)
        fidelity = full.ghz_fidelity(state.round, params.p_mem)
        records.append((state.round - start, full.pairs_consumed, fidelity))
        state.remove(full)
    return records[WARMUP_EXECUTIONS:]


NOISE = dict(p_link=0.97, p_mem=0.99, p_bsm=0.98)


class TestSkippedPhasesAndDiagonalReadout:
    """run_to_ghz runs a phase only when it can act and reads out with the
    pending channels folded into the ledger's sum; neither may change a
    record."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_end_nodes=2, q_link=0.3, q_bsm=0.8, shots=40, **NOISE),
            dict(n_end_nodes=4, q_link=0.2, q_bsm=0.6, shots=30, **NOISE),
            dict(n_end_nodes=5, q_link=1.0, q_bsm=0.95, shots=30, **NOISE),
            dict(n_end_nodes=5, q_link=0.4, q_bsm=1.0, shots=30),
            dict(n_end_nodes=8, q_link=0.1, q_bsm=0.95, shots=6, **NOISE),
        ],
        ids=["n2-bsm-delivers", "n4-qbsm-0.6", "n5-qlink-1", "n5-noiseless", "n8"],
    )
    def test_records_match_literal_loop(self, kwargs):
        params = make_params(seed=21, **kwargs)
        literal = literal_executions(params, params.shots)
        records = run_executions(params, params.shots)
        assert [(r.duration_rounds, r.pairs_consumed) for r in records] == [
            rec[:2] for rec in literal
        ]
        for r, (_, _, fidelity) in zip(records, literal):
            assert r.fidelity == pytest.approx(fidelity, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n", [5, 8])
    def test_ledgers_stay_well_formed(self, monkeypatch, n):
        # after every phase each entry's S is a non-empty proper subset of
        # its group's mask, and d lies in [0, 1]
        seen = []

        def watch(phase):
            def run(state, params, rng):
                events = phase(state, params, rng)
                for comp in state.groups():
                    for d, s in comp.entries:
                        assert 0.0 <= d <= 1.0 and s and not s & ~comp.mask and s != comp.mask
                        seen.append(bin(s).count("1"))
                state.validate(params.n_end_nodes)
                return events
            return run

        for name in ("do_switch_bsms", "do_fusions"):
            monkeypatch.setattr(switch_module, name, watch(getattr(switch_module, name)))
        run_executions(make_params(n_end_nodes=n, q_link=0.3, q_bsm=0.95, shots=4,
                                   **NOISE), 4)
        # fusions complement entries into sets of more than one qubit
        assert max(seen) > 1


def perfect_memory_gap(configs: int = 30, shots: int = 8) -> float:
    """Worst relative gap between switch records at p_mem = 1 and the tree
    closed form, over random configs with N in 2..8 and q_bsm in {1, 0.7}."""
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(configs):
        params = make_params(
            n_end_nodes=int(rng.integers(2, 9)),
            q_link=float(rng.uniform(0.2, 1.0)),
            q_bsm=float(rng.choice([1.0, 0.7])),
            p_link=float(rng.uniform(0.7, 1.0)),
            p_bsm=float(rng.uniform(0.7, 1.0)),
            seed=int(rng.integers(2**32)),
            shots=shots,
        )
        ref = switch_fidelity_perfect_memory(
            params.n_end_nodes, params.p_link, params.p_bsm
        )
        for r in run_executions(params, shots):
            worst = max(worst, abs(r.fidelity - ref) / ref)
    return worst


class TestPerfectMemoryClosedForm:
    """At p_mem = 1 every delivery is a tree of N - 1 swapped pairs, each Phi+
    depolarized by (p_link p_bsm)^2 on one qubit, whose GHZ fidelity does not
    depend on the tree."""

    def test_every_record_matches(self):
        assert perfect_memory_gap() < 1e-12

    def test_two_nodes_is_the_werner_fidelity(self):
        w = (0.9 * 0.8) ** 2
        assert switch_fidelity_perfect_memory(2, 0.9, 0.8) == pytest.approx(
            (1 + 3 * w) / 4, rel=1e-15
        )

    def test_swap_without_p_bsm_fails(self, monkeypatch):
        def without_p_bsm(born_a, born_b, round_now, params):
            return params.p_link**2 * params.p_mem ** (2 * round_now - born_a - born_b)

        monkeypatch.setattr(switch_module, "swapped_weight", without_p_bsm)
        assert perfect_memory_gap(configs=5) > 1e-3


class TestEstimateSwitch:
    def test_deterministic(self):
        params = make_params(q_link=0.6, shots=40, seed=5)
        assert estimate_switch(params) == estimate_switch(params)

    def test_measurement_budget(self):
        # (shots + warm-up) (N - 1) / q_bsm expected measurements: 1.2e8 here
        params = make_params(q_link=1.0, q_bsm=1e-7, shots=2)
        with pytest.raises(ConfigError, match="q_bsm = 1e-07"):
            estimate_switch(params)
        assert (2 + WARMUP_EXECUTIONS) * 4 / 1.25e-7 < BSM_BUDGET
        check_measurement_budget(replace(params, q_bsm=1.25e-7))

    def test_perfect_point_rate_half(self):
        params = make_params(q_link=1.0, shots=60)
        est = estimate_switch(params)
        assert est.rate_mean == pytest.approx(0.5, abs=1e-12)
        assert est.fidelity_mean == pytest.approx(1.0, abs=1e-12)

    def test_warmup_execution_is_discarded(self):
        params = make_params(q_link=0.7, shots=25, seed=6)
        records = run_executions(params, 25)
        assert len(records) == 25
        state, rng = NetworkState(params.n_end_nodes), shot_rng(6, 0, TAG_SWITCH)
        stream = [run_to_ghz(state, params, rng)[0] for _ in range(26)]
        assert records == stream[1:]


FIG5 = dict(n_end_nodes=5, q_bsm=0.95, p_link=0.99, p_bsm=0.99, p_mem=1 - 1e-4,
            p_ghz=derive_p_ghz(0.9, 5))


def durations_and_fidelities(params: SimParams) -> tuple[np.ndarray, np.ndarray]:
    records = run_executions(params, params.shots)
    return (np.array([r.duration_rounds for r in records], dtype=np.float64),
            np.array([r.fidelity for r in records]))


def summaries(params: SimParams, runs, scale: float = 1.0) -> tuple[list, list]:
    """``summarize`` of each (durations, fidelities) run without controls
    (the plain mean) and with the durations, of mean ``scale`` times the
    chain's E[T]."""
    mean = scale * mean_delivery_rounds(params.n_end_nodes, params.q_link, params.q_bsm)
    return ([summarize(t, f, params.dt) for t, f in runs],
            [summarize(t, f, params.dt, t, mean) for t, f in runs])


@functools.lru_cache(maxsize=None)
def seed_runs(q_link: float) -> list:
    """Durations and fidelities of 40 seeds x 200 deliveries at the Fig-5
    point."""
    return [durations_and_fidelities(SimParams(q_link=q_link, shots=200, seed=seed, **FIG5))
            for seed in range(40)]


def pooled_gap(q_link: float, scale: float = 1.0) -> float:
    """The pooled control and plain means' gap over their pooled stderrs,
    each taken from the spread over seeds."""
    plain, control = summaries(SimParams(q_link=q_link, **FIG5), seed_runs(q_link), scale)
    means = [np.array([e.fidelity_mean for e in es]) for es in (plain, control)]
    sigma = math.hypot(*(m.std(ddof=1) / math.sqrt(len(m)) for m in means))
    return abs(means[1].mean() - means[0].mean()) / sigma


class TestDurationControl:
    """The switch's fidelity is the plain mean corrected by each delivery's
    duration, mean(F) - beta (mean(T) - E[T]), E[T] from the lumped chain."""

    def test_estimate_is_summarize_with_the_chain_mean(self):
        params = make_params(q_link=0.05, q_bsm=0.9, p_mem=0.999, p_link=0.98, shots=300)
        [plain], [control] = summaries(params, [durations_and_fidelities(params)])
        est = estimate_switch(params)
        assert est == control
        assert control.fidelity_stderr < plain.fidelity_stderr
        assert (est.rate_mean, est.rate_stderr, est.shots) == (
            plain.rate_mean, plain.rate_stderr, plain.shots)

    @pytest.mark.parametrize("q_link", [0.001, 0.01])
    def test_reported_stderr_covers_the_spread_over_seeds(self, q_link):
        # deliveries share leftover links, so both stderrs understate the
        # spread (ROADMAP item 4); the control's less so.  40 seeds resolve
        # each ratio to about +-0.11
        def ratio(ests):
            spread = np.std([e.fidelity_mean for e in ests], ddof=1)
            return spread / np.mean([e.fidelity_stderr for e in ests])

        plain, control = summaries(SimParams(q_link=q_link, **FIG5), seed_runs(q_link))
        assert ratio(control) <= min(ratio(plain), 1.3), (ratio(control), ratio(plain))

    @pytest.mark.parametrize("q_link", [0.001, 0.01])
    def test_control_and_plain_means_agree(self, q_link):
        assert pooled_gap(q_link) <= 5

    @pytest.mark.parametrize("q_link", [0.001, 0.01])
    def test_high_mean_duration_fails_agreement(self, q_link):
        # negative control: an E[T] 10 % high moves each estimate by beta
        # E[T] / 10
        assert pooled_gap(q_link, scale=1.1) > 5

    @pytest.mark.parametrize(
        "point",
        # T has no spread: every delivery takes two rounds
        [dict(q_link=1.0, q_bsm=1.0, shots=100),
         # no residual degree of freedom is left after the slope
         dict(q_link=0.01, shots=2),
         # beyond the chain's nodes: no control
         dict(q_link=0.3, n_end_nodes=9, shots=20)],
    )
    def test_plain_mean_where_no_slope_is_fit(self, point):
        params = SimParams(**{**FIG5, "seed": 7, **point})
        durations, fidelities = durations_and_fidelities(params)
        assert estimate_switch(params) == summarize(durations, fidelities, params.dt)


class TestValidate:
    """Negative controls: each state the engine cannot reach is flagged."""

    def test_engine_state_passes(self):
        network((0, 1), (1, 2)).validate(2)

    def test_group_holding_a_switch_qubit(self):
        state = NetworkState(2)
        place(state, group(0, 1), 0, 1)
        with pytest.raises(ProtocolInvariantError, match="switch qubit"):
            state.validate(2)

    @pytest.mark.parametrize(
        "conn, born",
        [(3, 0), (0, 0), (1, 4)],
        ids=["on-a-connection-beyond-n", "remote-is-a-switch-qubit", "born-after-now"],
    )
    def test_bad_link_is_flagged(self, conn, born):
        state = NetworkState(3, round=3)
        state.born[conn] = born
        with pytest.raises(ProtocolInvariantError, match=f"connection {conn}"):
            state.validate(2)

    @pytest.mark.parametrize(
        "entry",
        [(0.5, 0), (0.5, 1 << 3), (1.5, 1 << 1), (-0.1, 1 << 2)],
        ids=["empty-set", "qubit-outside-the-group", "d-above-1", "d-below-0"],
    )
    def test_bad_ledger_entry_is_flagged(self, entry):
        state = network((1, 2))
        state.owner[1].entries.append(entry)
        with pytest.raises(ProtocolInvariantError, match="bad ledger entry"):
            state.validate(3)

    def test_nodes_and_mask_disagree(self):
        # the group's nodes are its pending factors' keys
        state = network((1, 2))
        state.owner[1].mask |= 1 << 3
        with pytest.raises(ProtocolInvariantError, match="pending factors .* and mask disagree"):
            state.validate(3)

    def test_crossing_ledger_sides(self):
        # {1, 2} reads as its side {3, 4}, which crosses {2, 3}: the read-out
        # would raise at delivery, validate at the phase that made it
        state = NetworkState(4)
        place(state, group(1, 2, 3, 4, entries=[(0.9, 0b00110), (0.8, 0b01100)]), 1, 2, 3, 4)
        with pytest.raises(ProtocolInvariantError, match="ledger sides 0b1100 and 0b11000 cross"):
            state.validate(4)

    def test_group_not_held_at_one_of_its_nodes(self):
        state = network((1, 2))
        state.owner[2] = None
        with pytest.raises(ProtocolInvariantError, match="not held at node 2"):
            state.validate(3)

    def test_node_held_by_a_group_outside_its_mask(self):
        state = network((1, 2))
        state.owner[3] = state.owner[1]
        with pytest.raises(ProtocolInvariantError, match="node 3 held by a group outside"):
            state.validate(3)

    def test_node_over_memory_slots(self):
        # node 1 holds a group qubit, the arriving group's and a waiting link
        assert NODE_MEMORY_SLOTS == 2
        state = network((0, 1), (1, 2), (1, 3))
        with pytest.raises(ProtocolInvariantError, match="node 1 over memory"):
            state.validate(NODE_MEMORY_SLOTS + 2)
