"""Brute-force references and the verification runner."""

import dataclasses
import itertools

import numpy as np
import pytest

from ghzdist import (
    analytics as analytics_module,
    dm as dm_module,
    factory as factory_module,
    oracles as oracles_module,
    params as params_module,
    switch as switch_module,
)
from ghzdist.analytics import GSpec, expected_order_stat, g_value
from ghzdist.factory import fidelity_from_deltas, run_shot_fast
from ghzdist.oracles import (
    CHECKS,
    coefficient_identity_check,
    enumerate_waiting_times,
    factory_kernel_mismatches,
    mc_g,
    replay_factory_dm,
    run_verification,
    werner_swap_error,
)
from ghzdist.params import TAG_FACTORY, ConfigError, SimParams, shot_rng


class TestEnumeration:
    def test_two_links_frozen_value(self):
        table = enumerate_waiting_times(2, 0.5)
        assert table.expectations[1] == pytest.approx(8 / 3, abs=1e-10)
        assert table.expectations[0] == pytest.approx(4 / 3, abs=1e-10)

    def test_single_link_mean(self):
        for q in (0.3, 0.8):
            table = enumerate_waiting_times(1, q)
            assert table.expectations[0] == pytest.approx(1 / q, abs=1e-10)

    def test_mass_captured(self):
        for n in (1, 2, 4):
            for q in (0.1, 0.5, 0.9):
                assert enumerate_waiting_times(n, q).captured_mass >= 1 - 1e-12

    def test_matches_exact_recursion(self):
        for n in (1, 2, 3, 4):
            for q in (0.1, 0.5, 0.9):
                table = enumerate_waiting_times(n, q)
                for i in range(1, n + 1):
                    assert table.expectations[i - 1] == pytest.approx(
                        expected_order_stat(i, n, q, "exact"), abs=1e-9
                    )

    def test_link_cap(self):
        with pytest.raises(ConfigError):
            enumerate_waiting_times(5, 0.5)

    def test_insufficient_horizon_rejected(self):
        with pytest.raises(ConfigError):
            enumerate_waiting_times(2, 0.01, horizon=10)


class TestMcG:
    def test_zero_rates_exact_one(self):
        rng = np.random.default_rng(0)
        mean, stderr = mc_g(GSpec(3, (1, 2, 3), (0.0,) * 3), 0.2, 10_000, rng)
        assert mean == 1.0 and stderr == 0.0

    def test_last_position_only_is_one(self):
        rng = np.random.default_rng(1)
        mean, stderr = mc_g(GSpec(4, (4,), (0.3,)), 0.2, 10_000, rng)
        assert mean == 1.0 and stderr == 0.0

    def test_two_tracked_agrees_with_leading(self):
        rng = np.random.default_rng(2)
        spec = GSpec(2, (1, 2), (0.01, 0.01))
        mean, stderr = mc_g(spec, 0.01, 1_000_000, rng)
        lead = g_value(spec, 0.01, "leading")
        bound = g_value(spec, 0.01, "lower_bound")
        assert abs(mean - lead) < 3 * stderr + 0.01 * lead
        assert bound <= mean + 3 * stderr

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mc_g(GSpec(2, (1,), (0.1,)), 0.5, 100, np.random.default_rng(0))

    def test_last_arrival_rate_is_irrelevant(self):
        # the c_M = N qubit waits zero rounds, so its loss rate cancels from
        # every sampled product; identical streams give identical estimates
        a = mc_g(GSpec(4, (2, 4), (0.05, 0.0)), 0.2, 50_000, np.random.default_rng(7))
        b = mc_g(GSpec(4, (2, 4), (0.05, 0.9)), 0.2, 50_000, np.random.default_rng(7))
        assert a == b

    def test_heterogeneous_rates_match_leading(self):
        rng = np.random.default_rng(8)
        spec = GSpec(4, (1, 2, 4), (3e-4, 1e-3, 5e-4))
        mean, stderr = mc_g(spec, 0.005, 400_000, rng)
        lead = g_value(spec, 0.005, "leading")
        assert abs(mean - lead) / mean < 0.01
        assert g_value(spec, 0.005, "lower_bound") <= mean + 3 * stderr


class TestReplay:
    def test_noiseless_replay(self):
        params = SimParams(n_end_nodes=3, q_link=0.5)
        assert replay_factory_dm(params, [4, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_fast_kernel(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 4))
            params = SimParams(
                n_end_nodes=n,
                q_link=0.5,
                p_link=float(rng.uniform(0.8, 1.0)),
                p_mem=float(rng.uniform(0.9, 1.0)),
                p_bsm=float(rng.uniform(0.8, 1.0)),
                p_ghz=float(rng.uniform(0.7, 1.0)),
            )
            rounds = [int(r) for r in rng.integers(1, 8, size=n)]
            delta = [max(rounds) - r for r in rounds]
            assert replay_factory_dm(params, rounds) == pytest.approx(
                fidelity_from_deltas(params, delta), abs=1e-10
            )

    def test_outcome_choice_is_irrelevant(self):
        params = SimParams(
            n_end_nodes=2, q_link=0.5, p_link=0.9, p_mem=0.97, p_bsm=0.92, p_ghz=0.8
        )
        rounds = [2, 5]
        fids = {
            replay_factory_dm(params, rounds, outcomes=[o1, o2])
            for o1 in [(0, 0), (1, 1)]
            for o2 in [(0, 1), (1, 0)]
        }
        base = replay_factory_dm(params, rounds)
        assert all(abs(f - base) < 1e-10 for f in fids)

    def test_node_cap(self):
        with pytest.raises(ConfigError):
            replay_factory_dm(SimParams(n_end_nodes=4, q_link=0.5), [1, 1, 1, 1])

    def test_noiseless_fast_records(self):
        params = SimParams(n_end_nodes=3, q_link=0.3, q_bsm=0.9)
        for s in range(10):
            rec = run_shot_fast(params, shot_rng(17, s, TAG_FACTORY))
            assert replay_factory_dm(params, rec.rounds) == pytest.approx(1.0, abs=1e-12)

    def test_dead_ghz_source_gives_mixed(self):
        params = SimParams(n_end_nodes=3, q_link=0.5, p_ghz=0.0)
        rec = run_shot_fast(params, shot_rng(19, 0, TAG_FACTORY))
        assert replay_factory_dm(params, rec.rounds) == pytest.approx(1 / 8, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_fast_records(self, n):
        rng = np.random.default_rng(23)
        for trial in range(200):
            params = SimParams(
                n_end_nodes=n,
                q_link=float(rng.uniform(0.1, 0.9)),
                q_bsm=float(rng.uniform(0.5, 1.0)),
                p_link=float(rng.uniform(0.8, 1.0)),
                p_mem=float(rng.uniform(0.9, 1.0)),
                p_bsm=float(rng.uniform(0.8, 1.0)),
                p_ghz=float(rng.uniform(0.7, 1.0)),
                seed=int(rng.integers(2**32)),
            )
            rec = run_shot_fast(params, shot_rng(params.seed, trial, TAG_FACTORY))
            assert abs(replay_factory_dm(params, rec.rounds) - rec.fidelity) < 1e-10


class TestFactoryKernelCheck:
    def test_kernel_matches_reference(self):
        assert factory_kernel_mismatches() == 0

    def test_off_by_one_longest_wait_trips_check(self, monkeypatch):
        fault, _ = FAULTS["factory_kernel_vs_reference"]
        fault(monkeypatch)
        assert factory_kernel_mismatches() > 0


def _weight_dropping_p_bsm(a, b, round_now, params):
    return params.p_link**2 * params.p_mem ** (2 * round_now - a.born - b.born)


def _weight_as_sum(a, b, round_now, params):
    # the two links' factors averaged where they multiply
    terms = [params.p_link * params.p_mem ** (round_now - link.born) * params.p_bsm
             for link in (a, b)]
    return sum(terms) / 2.0


def _weight_without_memory(a, b, round_now, params):
    return params.p_link**2 * params.p_bsm**2


class TestWernerSwapCheck:
    def test_closed_form_matches_dense_bsm(self):
        for seed in range(10):
            assert werner_swap_error(np.random.default_rng(seed)) < 1e-12

    @pytest.mark.parametrize(
        "wrong", [_weight_dropping_p_bsm, _weight_as_sum, _weight_without_memory]
    )
    def test_wrong_closed_form_trips_check(self, monkeypatch, wrong):
        monkeypatch.setattr(switch_module, "swapped_weight", wrong)
        assert werner_swap_error(np.random.default_rng(5)) > 1e-3


# the exact functions that the faults below wrap
_EXACT_B = analytics_module.subset_coefficient_b
_EXACT_CLOSED_FORM = analytics_module.fidelity_closed_form
_EXACT_DEPOLARIZE = dm_module._depolarize_strided
_EXACT_F_RAND = analytics_module.f_rand
_EXACT_FUSED_ENTRIES = switch_module.Component.fused_entries
_EXACT_LONGEST = params_module.longest_geometric_round
_EXACT_ORDER_STAT = analytics_module.expected_order_stat
_EXACT_PAULI_CORRECT = dm_module.pauli_correct
_EXACT_RANK_FACTOR = analytics_module._rank_factor
_EXACT_SWITCH_FIDELITY = analytics_module.switch_fidelity_perfect_memory
_EXACT_TALLY = factory_module._tally


def _patch(*patches):
    """A fault that sets each (module, name, value) for one test."""

    def fault(monkeypatch):
        for module, name, value in patches:
            monkeypatch.setattr(module, name, value)

    return fault


def _order_stat_shifted(when):
    """expected_order_stat off by 1e-6 at the (i, n) where ``when`` holds."""
    return lambda i, n, q, mode="exact": _EXACT_ORDER_STAT(i, n, q, mode) + 1e-6 * when(i, n)


def _f_rand_fault(mixed, core):
    """A fault in f_rand, in analytics and as the factory imported it: 1e-6
    added to its maximally mixed part (weight 1 - p_ghz) or GHZ part (p_ghz)."""

    def f_rand(p_ghz, p):
        return _EXACT_F_RAND(p_ghz, p) + 1e-6 * (mixed * (1.0 - p_ghz) + core * p_ghz)

    return _patch((analytics_module, "f_rand", f_rand), (factory_module, "f_rand", f_rand))


def _rank_factor_doubled_rates(n, k, q_link, rate_sum, survive, mode):
    if mode == "leading":
        rate_sum *= 2.0
    return _EXACT_RANK_FACTOR(n, k, q_link, rate_sum, survive, mode)


def _rank_factor_without_miss(n, k, q_link, rate_sum, survive, mode):
    # the lower bound's (1 - q)^(N - k) factor dropped
    value = _EXACT_RANK_FACTOR(n, k, q_link, rate_sum, survive, mode)
    if mode == "lower_bound":
        value /= analytics_module._one_minus_q_pow(q_link, n - k)
    return value


def _rank_factor_lower_bound_low(n, k, q_link, rate_sum, survive, mode):
    # every rank's lower-bound factor 1 % low: a bound still below G, but loose
    value = _EXACT_RANK_FACTOR(n, k, q_link, rate_sum, survive, mode)
    return 0.99 * value if mode == "lower_bound" else value


def _fidelity_with_single_memory_decay(params, delta_n):
    # each waiting qubit ages by p_mem per round instead of p_mem^2
    base = params.p_link * params.p_bsm**2
    return analytics_module.f_rand(params.p_ghz, [base * params.p_mem**d for d in delta_n])


def _depolarizing_via_np_power(params, deltas):
    return params.p_link * params.p_bsm**2 * np.power(params.p_mem, 2 * deltas)


def _closed_form_shifted(params, mode="leading"):
    exact = _EXACT_CLOSED_FORM(params, mode)
    return dataclasses.replace(exact, value=exact.value + 1e-9)


def _control_side_uncomplemented(comp, q):
    # the control's group (its qubit in slot 0) keeps its ledger as it was
    return list(comp.entries) if q.slot == 0 else _EXACT_FUSED_ENTRIES(comp, q)


def _product_of_marginals_readout(comp, now, p_mem):
    """The ledger read out as P(no Z flip) times P(X pattern trivial), as if
    each entry's X and Z parts were independent: (1 + w)^2 / 4, not
    (1 + 3 w) / 4, for a Werner pair."""
    qubits = comp.qubits
    entries = comp.entries + [
        (comp.factor(q, now, p_mem), frozenset((q,))) for q in qubits
    ]
    x_trivial = 0.0
    for t in itertools.product((0, 1), repeat=len(qubits)):
        if sum(t) % 2 == 0:
            term = 1.0
            for d, s in entries:
                if sum(b for b, q in zip(t, qubits) if q in s) % 2:
                    term *= d
            x_trivial += term
    z_trivial = (1.0 + np.prod([d for d, _ in entries])) / 2.0
    return z_trivial * x_trivial / 2.0 ** (len(qubits) - 1)


# check name, optionally followed by "/" and the name of a further fault of
# that check -> (a fault, every check that fault fails).  A fault in code that
# several checks share fails each of them; one in the per-shot factory kernel
# also fails block_vs_scalar_factory, which holds the block engine to it.
FAULTS = {
    "order_stat_exact_vs_enumeration": (
        _patch((analytics_module, "expected_order_stat",
                _order_stat_shifted(lambda i, n: i < n))),
        {"order_stat_exact_vs_enumeration"},
    ),
    # the maximum of more links than the enumeration covers
    "n_all_alternating_sum_vs_recursion": (
        _patch((analytics_module, "expected_order_stat",
                _order_stat_shifted(lambda i, n: i == n > 4))),
        {"n_all_alternating_sum_vs_recursion"},
    ),
    # a single-qubit channel whose parameters do not multiply; the dense
    # sides of the switch's swap and fusion checks depolarize through it
    "depolarize_composition": (
        _patch((dm_module, "_depolarize_strided",
                lambda mat, pos, p: _EXACT_DEPOLARIZE(mat, pos, p + 0.01 * p * (1.0 - p)))),
        {"depolarize_composition", "f_rand_vs_dm_fidelity",
         "dm_replay_vs_fast_kernel", "werner_swap_vs_dense_bsm",
         "switch_ledger_vs_dense_groups"},
    ),
    # X corrected for the Z bit and Z for the X bit
    "noiseless_teleportation_identity": (
        _patch((dm_module, "pauli_correct",
                lambda dm, q, bits: _EXACT_PAULI_CORRECT(dm, q, bits[::-1]))),
        {"noiseless_teleportation_identity", "werner_swap_vs_dense_bsm"},
    ),
    "f_rand_vs_dm_fidelity": (
        _f_rand_fault(mixed=1, core=0),
        {"f_rand_vs_dm_fidelity", "dm_replay_vs_fast_kernel", "block_vs_scalar_factory"},
    ),
    "f_rand_product_vs_subset_sum": (
        _f_rand_fault(mixed=0, core=1),
        {"f_rand_product_vs_subset_sum", "f_rand_vs_dm_fidelity",
         "dm_replay_vs_fast_kernel", "block_vs_scalar_factory"},
    ),
    "coefficient_identity": (
        _patch((analytics_module, "subset_coefficient_b",
                lambda u_size, n: _EXACT_B(u_size, n) + (1e-6 if u_size == 0 else 0.0))),
        {"coefficient_identity"},
    ),
    "g_leading_vs_mc_relative": (
        _patch((analytics_module, "_rank_factor", _rank_factor_doubled_rates)),
        {"g_leading_vs_mc_relative"},
    ),
    "g_lower_bound_below_mc": (
        _patch((analytics_module, "_rank_factor", _rank_factor_without_miss)),
        {"g_lower_bound_below_mc"},
    ),
    # the fast kernel, as the factory and the oracles imported it
    "dm_replay_vs_fast_kernel": (
        _patch((factory_module, "fidelity_from_deltas", _fidelity_with_single_memory_decay),
               (oracles_module, "fidelity_from_deltas", _fidelity_with_single_memory_decay)),
        {"dm_replay_vs_fast_kernel", "block_vs_scalar_factory"},
    ),
    "fidelity_recursion_vs_subset_sum": (
        _patch((analytics_module, "fidelity_closed_form", _closed_form_shifted)),
        {"fidelity_recursion_vs_subset_sum"},
    ),
    "werner_swap_vs_dense_bsm": (
        _patch((switch_module, "swapped_weight", _weight_dropping_p_bsm)),
        {"werner_swap_vs_dense_bsm", "switch_fidelity_vs_tree_closed_form"},
    ),
    # a failed attempt that adds one round too many to the duration
    "factory_kernel_vs_reference": (
        _patch((factory_module, "longest_geometric_round",
                lambda u, log_miss: _EXACT_LONGEST(u, log_miss) + 1)),
        {"factory_kernel_vs_reference", "block_vs_scalar_factory"},
    ),
    # each distinct delta's p_mem power through np.power, not the scalar **
    "block_vs_scalar_factory": (
        _patch((factory_module, "qubit_depolarizing", _depolarizing_via_np_power)),
        {"block_vs_scalar_factory"},
    ),
    # each chunk of draws starts its first shot afresh, forgetting the
    # attempts and rounds failed since the previous chunk's last success
    "block_vs_scalar_factory/dropped_carry": (
        _patch((factory_module, "_tally",
                lambda won, lost, carry: _EXACT_TALLY(won, lost, (0, 0)))),
        {"block_vs_scalar_factory"},
    ),
    "g_lower_bound_gap_relative": (
        _patch((analytics_module, "_rank_factor", _rank_factor_lower_bound_low)),
        {"g_lower_bound_gap_relative"},
    ),
    "switch_fidelity_vs_tree_closed_form": (
        # the closed form 1e-9 relative too high
        _patch((analytics_module, "switch_fidelity_perfect_memory",
                lambda *args: _EXACT_SWITCH_FIDELITY(*args) * (1.0 + 1e-9))),
        {"switch_fidelity_vs_tree_closed_form"},
    ),
    "switch_ledger_vs_dense_groups": (
        _patch((switch_module.Component, "fused_entries", _control_side_uncomplemented)),
        {"switch_ledger_vs_dense_groups"},
    ),
    # every delivery and the swap check read out through it too
    "switch_ledger_vs_dense_groups/product_of_marginals_readout": (
        _patch((switch_module.Component, "ghz_fidelity", _product_of_marginals_readout)),
        {"switch_ledger_vs_dense_groups", "werner_swap_vs_dense_bsm",
         "switch_fidelity_vs_tree_closed_form"},
    ),
}


def _observed() -> dict:
    return {c["name"]: c["observed"] for c in run_verification()["checks"]}


class TestVerificationRunner:
    def test_fresh_build_passes(self):
        rep = run_verification()
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert rep["all_passed"], f"failing checks: {failed}"
        assert rep["runtime_s"] > 0.0
        assert [c["name"] for c in rep["checks"]] == [
            "order_stat_exact_vs_enumeration",
            "n_all_alternating_sum_vs_recursion",
            "depolarize_composition",
            "noiseless_teleportation_identity",
            "f_rand_vs_dm_fidelity",
            "f_rand_product_vs_subset_sum",
            "coefficient_identity",
            "g_leading_vs_mc_relative",
            "g_lower_bound_below_mc",
            "dm_replay_vs_fast_kernel",
            "fidelity_recursion_vs_subset_sum",
            "werner_swap_vs_dense_bsm",
            "factory_kernel_vs_reference",
            "block_vs_scalar_factory",
            "g_lower_bound_gap_relative",
            "switch_fidelity_vs_tree_closed_form",
            "switch_ledger_vs_dense_groups",
        ]

    def test_negative_control_trips_identity_check(self, skewed_b0):
        rng = np.random.default_rng(0)
        assert max(coefficient_identity_check(n, rng) for n in range(2, 7)) > 1e-10

    def test_one_generator_per_check(self, monkeypatch):
        built = []
        original = np.random.default_rng

        def counting_default_rng(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        run_verification()
        assert len(built) == len(CHECKS)

    def test_every_check_has_a_fault(self):
        assert {name.partition("/")[0] for name in FAULTS} == {name for name, *_ in CHECKS}

    @pytest.mark.parametrize("name", list(FAULTS))
    def test_fault_fails_exactly_its_checks(self, monkeypatch, name):
        fault, failed = FAULTS[name]
        assert name.partition("/")[0] in failed
        fault(monkeypatch)
        rep = run_verification()
        assert {c["name"] for c in rep["checks"] if not c["passed"]} == failed

    def test_checks_are_order_independent(self, monkeypatch):
        # each check draws from a stream of its own, so reversing the table or
        # running an entry alone leaves its observed value as it was; the
        # one-entry runs together cost one full report
        observed = _observed()
        monkeypatch.setattr(oracles_module, "CHECKS", CHECKS[::-1])
        assert _observed() == observed
        for entry in CHECKS:
            monkeypatch.setattr(oracles_module, "CHECKS", (entry,))
            assert _observed() == {entry[0]: observed[entry[0]]}
