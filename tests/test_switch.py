"""2-switch engine: round mechanics, measurements, fusions, carry-over."""

import numpy as np
import pytest

from ghzdist import dm as dmod, switch as switch_module
from ghzdist.analytics import switch_fidelity_perfect_memory
from ghzdist.dm import Qubit
from ghzdist.oracles import advance_round
from ghzdist.params import TAG_SWITCH, SimParams, shot_rng
from ghzdist.switch import (
    NODE_MEMORY_SLOTS,
    WARMUP_EXECUTIONS,
    Component,
    Link,
    NetworkState,
    ProtocolInvariantError,
    advance_to_link_event,
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


def bell_component(a: Qubit, b: Qubit, born_round=0) -> Component:
    return Component((a, b), {a: (1.0, born_round), b: (1.0, born_round)}, 2)


def network(*comps: Component) -> NetworkState:
    """A state holding each pair where the engine keeps it: a pair holding a
    switch qubit as a Link under its connection, any other component among
    the groups."""
    state = NetworkState()
    for comp in comps:
        held = [q for q in comp.qubits if q.node == 0]
        if held:
            (remote,) = (q for q in comp.qubits if q.node != 0)
            state.links[held[0].slot] = Link(remote, comp.pending[remote][1])
        else:
            state.groups.append(comp)
    return state


class TestAdvanceRound:
    def test_certain_links_fill_all_connections(self):
        state = NetworkState()
        params = make_params(q_link=1.0, p_link=0.9)
        events = advance_round(state, params, shot_rng(0, 0, 9))
        assert sorted(events) == [("link", c) for c in range(1, 6)]
        assert sorted(state.links) == [1, 2, 3, 4, 5] and state.groups == []
        for conn, link in state.links.items():
            assert link == Link(Qubit(conn, 0), 1)

    def test_busy_connection_does_not_attempt(self):
        state = NetworkState()
        params = make_params(q_link=1.0)
        advance_round(state, params, shot_rng(0, 0, 9))
        events = advance_round(state, params, shot_rng(0, 1, 9))
        assert events == []

    def test_perfect_memory_leaves_components_unchanged(self):
        state = NetworkState()
        params = make_params(q_link=1.0, p_mem=1.0, p_link=0.9)
        advance_round(state, params, shot_rng(0, 0, 9))
        before = dict(state.links)
        for _ in range(5):
            advance_round(state, params, shot_rng(0, 2, 9))
        assert state.links == before
        a, b = state.links[1], state.links[2]
        assert swapped_weight(a, b, state.round, params) == 0.9 * 0.9

    def test_lazy_memory_aging_matches_direct_channel(self):
        # a group qubit owing (d, since) flushes into the ledger as one entry
        # with d applied once and p_mem once per round since, whatever the
        # clock did, and reads out as the dense state does
        params = make_params(q_link=1e-9, p_mem=0.9)
        a, b = Qubit(1, 0), Qubit(2, 0)
        comp = Component((a, b), {a: (1.0, 0), b: (0.95, 1)}, 2)
        state = NetworkState(groups=[comp])
        for _ in range(4):
            advance_round(state, params, shot_rng(0, 1, 9))
        reference = dmod.depolarize(dmod.make_bell(a, b), (b,), 0.95)
        for q, waited in ((a, 4), (b, 3)):
            for _ in range(waited):
                reference = dmod.depolarize(reference, (q,), 0.9)
        assert comp.factor(b, state.round, params.p_mem) == 0.95 * 0.9**3
        for q in (a, b):
            comp.flush(q, state.round, params.p_mem)
        assert comp.pending == {a: (1.0, 4), b: (1.0, 4)}
        assert comp.entries == [(0.9**4, frozenset({a})), (0.95 * 0.9**3, frozenset({b}))]
        fidelity = comp.ghz_fidelity(state.round, params.p_mem)
        assert fidelity == pytest.approx(dmod.fidelity_to_ghz(reference), abs=1e-12)

    def test_success_frequency(self):
        params = make_params(q_link=0.01)
        rng = shot_rng(4, 0, 9)
        rounds = 100_000
        hits = 0
        for _ in range(rounds):
            state = NetworkState()  # keep all five links free
            hits += len(advance_round(state, params, rng))
        mean = rounds * 5 * 0.01
        sigma = np.sqrt(rounds * 5 * 0.01 * 0.99)
        assert abs(hits - mean) < 3 * sigma

    def test_event_jump_matches_round_loop_distribution(self):
        params = make_params(q_link=0.2, n_end_nodes=3)
        jump_rounds = []
        loop_rounds = []
        for s in range(4000):
            state = NetworkState()
            advance_to_link_event(state, params, shot_rng(11, s, 9))
            jump_rounds.append(state.round)
            state = NetworkState()
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
        state = NetworkState(links={1: Link(a, 0), 2: Link(b, 0)})
        params = make_params(n_end_nodes=2, p_link=float(np.sqrt(w)))
        do_switch_bsms(state, params, shot_rng(0, 0, 9))
        (pair,) = state.groups
        assert pair.qubits == (a, b) and pair.entries == []
        fidelity = pair.ghz_fidelity(state.round, params.p_mem)
        assert fidelity == pytest.approx((1 + 3 * w) / 4, rel=1e-15)
        dense = w * dmod.make_bell(a, b).mat + (1.0 - w) / 4.0 * np.eye(4)
        assert fidelity == pytest.approx(
            dmod.fidelity_to_ghz(dmod.DensityMatrix((a, b), dense)), rel=1e-15)
        for q in (a, b):
            pair.flush(q, state.round, params.p_mem)
        assert pair.ghz_fidelity(state.round, params.p_mem) == pytest.approx(fidelity, rel=1e-15)


class TestSwitchBsms:
    def test_two_pairs_merge_into_end_to_end_bell(self):
        state = network(
            bell_component(Qubit(0, 1), Qubit(1, 0)),
            bell_component(Qubit(0, 2), Qubit(2, 0)),
        )
        events = do_switch_bsms(state, make_params(n_end_nodes=2), shot_rng(0, 0, 9))
        assert events == [("bsm", 1, 2, True)]
        assert state.links == {} and len(state.groups) == 1
        comp = state.groups[0]
        assert set(comp.qubits) == {Qubit(1, 0), Qubit(2, 0)}
        state.validate(2)
        assert comp.entries == []
        assert comp.ghz_fidelity(state.round, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert comp.pairs_consumed == 2

    def test_failed_measurement_destroys_both_pairs(self):
        state = network(
            bell_component(Qubit(0, 1), Qubit(1, 0)),
            bell_component(Qubit(0, 2), Qubit(2, 0)),
        )
        events = do_switch_bsms(
            state, make_params(n_end_nodes=2, q_bsm=1e-6), shot_rng(0, 0, 9)
        )
        assert events == [("bsm", 1, 2, False)]
        assert state.links == {} and state.groups == []

    def test_three_pairs_single_uniform_measurement(self):
        params = make_params(n_end_nodes=3)
        counts = {(1, 2): 0, (1, 3): 0, (2, 3): 0}
        trials = 3000
        for s in range(trials):
            state = network(
                *(bell_component(Qubit(0, c), Qubit(c, 0)) for c in (1, 2, 3))
            )
            events = do_switch_bsms(state, params, shot_rng(13, s, 9))
            assert len(events) == 1
            counts[events[0][1:3]] += 1
        sigma = np.sqrt(trials * (1 / 3) * (2 / 3))
        for pair_count in counts.values():
            assert abs(pair_count - trials / 3) < 3 * sigma

    def test_pairs_to_already_entangled_nodes_wait(self):
        # nodes 1 and 2 already share a Bell state: their fresh link pairs
        # must not be measured into a redundant second one
        state = network(
            bell_component(Qubit(1, 0), Qubit(2, 0)),
            bell_component(Qubit(0, 1), Qubit(1, 1)),
            bell_component(Qubit(0, 2), Qubit(2, 1)),
        )
        events = do_switch_bsms(state, make_params(n_end_nodes=2), shot_rng(0, 0, 9))
        assert events == []
        assert sorted(state.links) == [1, 2] and len(state.groups) == 1

    def test_single_valid_pair_draws_no_choice(self):
        # the pair choice skips rng.integers(1), which would draw nothing
        rng = shot_rng(0, 0, 9)
        before = rng.bit_generator.state
        assert rng.integers(1) == 0 and rng.bit_generator.state == before

    def test_groups_sharing_a_node_are_flagged(self):
        # between fusion phases every node holds at most one group qubit
        state = network(
            bell_component(Qubit(1, 0), Qubit(2, 0)),
            bell_component(Qubit(1, 1), Qubit(3, 0)),
            bell_component(Qubit(0, 2), Qubit(2, 1)),
            bell_component(Qubit(0, 3), Qubit(3, 1)),
        )
        with pytest.raises(ProtocolInvariantError, match="node 1 in two groups"):
            do_switch_bsms(state, make_params(n_end_nodes=3), shot_rng(0, 0, 9))

    @pytest.mark.parametrize("seed", range(8))
    def test_success_joins_clusters_within_the_call(self, seed):
        # groups 1-2 and 3-4 with a link waiting on every connection: the
        # first measured pair joins both clusters, so the other two links wait
        state = network(
            bell_component(Qubit(1, 0), Qubit(2, 0)),
            bell_component(Qubit(3, 0), Qubit(4, 0)),
            *(bell_component(Qubit(0, c), Qubit(c, 1)) for c in (1, 2, 3, 4)),
        )
        params = make_params(n_end_nodes=4, q_bsm=1.0)
        events = do_switch_bsms(state, params, shot_rng(seed, 0, 9))
        assert len(events) == 1 and events[0][3] is True
        a, b = events[0][1:3]
        assert (a in (1, 2)) != (b in (1, 2))
        assert sorted(state.links) == sorted({1, 2, 3, 4} - {a, b})
        assert len(state.groups) == 3
        state.validate(4)


class TestFusions:
    def test_fuses_two_bells_at_shared_node(self):
        state = network(
            bell_component(Qubit(1, 0), Qubit(2, 0)),
            bell_component(Qubit(1, 1), Qubit(3, 0)),
        )
        events = do_fusions(state, make_params(n_end_nodes=3), shot_rng(0, 0, 9))
        assert len(events) == 1 and events[0][0] == "fusion"
        assert len(state.groups) == 1
        comp = state.groups[0]
        assert {q.node for q in comp.qubits} == {1, 2, 3}
        assert comp.ghz_fidelity(state.round, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_fused_qubits_entries_become_the_rest_of_their_group(self):
        a, b = Qubit(1, 0), Qubit(1, 1)  # control in the first group, target in the second
        first = Component((a, Qubit(2, 0)), {a: (1.0, 0), Qubit(2, 0): (1.0, 0)}, 2,
                          [(0.9, frozenset({a})), (0.8, frozenset({Qubit(2, 0)}))])
        second = Component((b, Qubit(3, 0)), {b: (1.0, 0), Qubit(3, 0): (1.0, 0)}, 2,
                           [(0.7, frozenset({b})), (0.6, frozenset({Qubit(3, 0)}))])
        state = network(first, second)
        do_fusions(state, make_params(n_end_nodes=3, p_mem=1.0), shot_rng(0, 0, 9))
        (merged,) = state.groups
        assert merged.qubits == (a, Qubit(2, 0), Qubit(3, 0))
        assert merged.entries == [
            (0.9, frozenset({Qubit(2, 0)})), (0.8, frozenset({Qubit(2, 0)})),
            (0.7, frozenset({Qubit(3, 0)})), (0.6, frozenset({Qubit(3, 0)})),
        ]
        assert merged.pairs_consumed == 4

    def test_no_shared_node_no_fusion(self):
        state = network(
            bell_component(Qubit(1, 0), Qubit(2, 0)),
            bell_component(Qubit(3, 0), Qubit(4, 0)),
        )
        assert do_fusions(state, make_params(), shot_rng(0, 0, 9)) == []
        assert len(state.groups) == 2

    def test_fusion_cascade_builds_ghz4(self):
        chains = [
            [((1, 0), (2, 0)), ((2, 1), (3, 0)), ((3, 1), (4, 0))],
            # shared nodes out of group order: the single ascending pass
            # still fuses node 2 and then node 3 in one call
            [((3, 0), (4, 0)), ((2, 1), (3, 1)), ((1, 0), (2, 0))],
        ]
        for pairs in chains:
            state = network(*(bell_component(Qubit(*a), Qubit(*b)) for a, b in pairs))
            events = do_fusions(state, make_params(n_end_nodes=4), shot_rng(0, 0, 9))
            assert [e[:2] for e in events] == [("fusion", 2), ("fusion", 3)]
            assert len(state.groups) == 1
            comp = state.groups[0]
            assert {q.node for q in comp.qubits} == {1, 2, 3, 4}
            assert comp.ghz_fidelity(state.round, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_link_pair_is_not_absorbed(self):
        state = network(
            bell_component(Qubit(1, 0), Qubit(2, 0)),
            bell_component(Qubit(0, 1), Qubit(1, 1)),
        )
        assert do_fusions(state, make_params(), shot_rng(0, 0, 9)) == []
        assert list(state.links) == [1] and len(state.groups) == 1

    def test_same_component_twice_at_node_is_flagged(self):
        labels = (Qubit(1, 0), Qubit(1, 1), Qubit(2, 0))
        state = network(Component(labels, dict.fromkeys(labels, (1.0, 0)), 4))
        with pytest.raises(ProtocolInvariantError):
            do_fusions(state, make_params(n_end_nodes=2), shot_rng(0, 0, 9))


class TestRunToGhz:
    def test_perfect_links_two_rounds(self):
        params = make_params(q_link=1.0)
        state = NetworkState()
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
            state = NetworkState()
            rng = shot_rng(int(rng_outer.integers(2**32)), 0, TAG_SWITCH)
            for _ in range(4):
                rec, state = run_to_ghz(state, params, rng)
                assert rec.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_pair_accounting_with_certain_measurements(self):
        # every delivered GHZ absorbs exactly 2(N-1) link pairs when no
        # measurement can fail
        params = make_params(n_end_nodes=4, q_link=0.3, q_bsm=1.0)
        state = NetworkState()
        rng = shot_rng(8, 0, TAG_SWITCH)
        for _ in range(30):
            rec, state = run_to_ghz(state, params, rng)
            assert rec.pairs_consumed == 2 * (4 - 1)

    def test_invariants_hold_along_a_run(self):
        params = make_params(
            n_end_nodes=4, q_link=0.4, q_bsm=0.7, p_link=0.95, p_mem=0.999, p_bsm=0.97
        )
        state = NetworkState()
        rng = shot_rng(3, 0, TAG_SWITCH)
        deliveries = 0
        while deliveries < 12:
            advance_round(state, params, rng)
            state.validate(params.n_end_nodes)
            do_switch_bsms(state, params, rng)
            state.validate(params.n_end_nodes)
            do_fusions(state, params, rng)
            state.validate(params.n_end_nodes)
            # every node that held two group qubits was fused, none skipped
            nodes = [q.node for comp in state.groups for q in comp.qubits]
            assert len(nodes) == len(set(nodes))
            full = state.full_component(params.n_end_nodes)
            if full is not None:
                assert len(full.qubits) == params.n_end_nodes
                assert {q.node for q in full.qubits} == {1, 2, 3, 4}
                state.groups.remove(full)
                deliveries += 1


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
                do_switch_bsms(state, params, rng)
                do_fusions(state, params, rng)
                full = state.full_component(params.n_end_nodes)
                if full is not None:
                    for q in full.qubits:
                        full.flush(q, state.round, params.p_mem)
                    fid = full.ghz_fidelity(state.round, params.p_mem)
                    state.groups.remove(full)
                    return state.round - start, fid

        rng = shot_rng(71, 0, TAG_SWITCH)
        state = NetworkState()
        literal = np.array([run_literal(state, rng) for _ in range(n_exec)])

        rng = shot_rng(72, 0, TAG_SWITCH)
        state = NetworkState()
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
    """run_executions as a literal loop: every phase runs every iteration,
    every group qubit's pending channel enters the ledger after each phase,
    and the read-out has none left to fold in.  Returns (duration_rounds,
    pairs_consumed, fidelity) per delivery."""
    rng = shot_rng(params.seed, 0, TAG_SWITCH)
    state = NetworkState()
    records = []
    for _ in range(WARMUP_EXECUTIONS + shots):
        start = state.round
        full = None
        while full is None:
            for phase in (advance_to_link_event, do_switch_bsms, do_fusions):
                phase(state, params, rng)
                for comp in state.groups:
                    for q in comp.qubits:
                        comp.flush(q, state.round, params.p_mem)
            full = state.full_component(params.n_end_nodes)
        fidelity = full.ghz_fidelity(state.round, params.p_mem)
        records.append((state.round - start, full.pairs_consumed, fidelity))
        state.groups.remove(full)
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
        # its group, and d lies in [0, 1]
        seen = []

        def watch(phase):
            def run(state, params, rng):
                events = phase(state, params, rng)
                for comp in state.groups:
                    group = set(comp.qubits)
                    for d, s in comp.entries:
                        assert 0.0 <= d <= 1.0 and s and s < group
                        seen.append(len(s))
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
        def without_p_bsm(a, b, round_now, params):
            return params.p_link**2 * params.p_mem ** (2 * round_now - a.born - b.born)

        monkeypatch.setattr(switch_module, "swapped_weight", without_p_bsm)
        assert perfect_memory_gap(configs=5) > 1e-3


class TestEstimateSwitch:
    def test_deterministic(self):
        params = make_params(q_link=0.6, shots=40, seed=5)
        assert estimate_switch(params) == estimate_switch(params)

    def test_perfect_point_rate_half(self):
        params = make_params(q_link=1.0, shots=60)
        est = estimate_switch(params)
        assert est.rate_mean == pytest.approx(0.5, abs=1e-12)
        assert est.fidelity_mean == pytest.approx(1.0, abs=1e-12)

    def test_warmup_execution_is_discarded(self):
        params = make_params(q_link=0.7, shots=25, seed=6)
        records = run_executions(params, 25)
        assert len(records) == 25
        state, rng = NetworkState(), shot_rng(6, 0, TAG_SWITCH)
        stream = [run_to_ghz(state, params, rng)[0] for _ in range(26)]
        assert records == stream[1:]


class TestValidate:
    """Negative controls: each state the engine cannot reach is flagged."""

    def test_engine_state_passes(self):
        network(
            bell_component(Qubit(0, 1), Qubit(1, 0)),
            bell_component(Qubit(1, 1), Qubit(2, 0)),
        ).validate(2)

    def test_group_holding_a_switch_qubit(self):
        state = NetworkState(groups=[bell_component(Qubit(0, 1), Qubit(1, 0))])
        with pytest.raises(ProtocolInvariantError, match="switch qubit"):
            state.validate(2)

    @pytest.mark.parametrize(
        "conn, link",
        [
            (2, Link(Qubit(1, 0), 0)),
            (1, Link(Qubit(2, 0), 0)),
            (0, Link(Qubit(0, 0), 0)),
            (1, Link(Qubit(1, 0), 4)),
        ],
        ids=[
            "stored-under-another-connection",
            "remote-on-another-node",
            "remote-is-a-switch-qubit",
            "born-after-now",
        ],
    )
    def test_bad_link_is_flagged(self, conn, link):
        state = NetworkState(round=3, links={conn: link})
        with pytest.raises(ProtocolInvariantError, match=f"connection {conn}"):
            state.validate(2)

    @pytest.mark.parametrize(
        "entry",
        [(0.5, frozenset()), (0.5, frozenset({Qubit(3, 0)})), (1.5, frozenset({Qubit(1, 0)})),
         (-0.1, frozenset({Qubit(2, 0)}))],
        ids=["empty-set", "qubit-outside-the-group", "d-above-1", "d-below-0"],
    )
    def test_bad_ledger_entry_is_flagged(self, entry):
        comp = bell_component(Qubit(1, 0), Qubit(2, 0))
        comp.entries.append(entry)
        with pytest.raises(ProtocolInvariantError, match="bad ledger entry"):
            NetworkState(groups=[comp]).validate(3)

    def test_qubit_in_two_components(self):
        state = network(
            bell_component(Qubit(0, 1), Qubit(1, 0)),
            bell_component(Qubit(1, 0), Qubit(2, 0)),
        )
        with pytest.raises(ProtocolInvariantError, match="two components"):
            state.validate(2)

    def test_node_over_memory_slots(self):
        state = network(
            bell_component(Qubit(0, 1), Qubit(1, NODE_MEMORY_SLOTS)),
            *(bell_component(Qubit(1, s), Qubit(s + 2, 0))
              for s in range(NODE_MEMORY_SLOTS)),
        )
        with pytest.raises(ProtocolInvariantError, match="node 1 over memory"):
            state.validate(NODE_MEMORY_SLOTS + 2)
