"""Brute-force references and the verification runner."""

import numpy as np
import pytest

from ghzdist import (
    dm as dm_module,
    factory as factory_module,
    params as params_module,
    switch as switch_module,
)
from ghzdist.analytics import GSpec, expected_order_stat, g_value
from ghzdist.factory import fidelity_from_deltas, run_shot_fast
from ghzdist.oracles import (
    enumerate_waiting_times,
    factory_kernel_mismatches,
    ghz_readout_error,
    mc_g,
    replay_factory_dm,
    run_verification,
    shot_rng_cases,
    shot_rng_mismatches,
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


class TestVerificationRunner:
    def test_fresh_build_passes(self):
        rep = run_verification()
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert rep["all_passed"], f"failing checks: {failed}"
        assert rep["runtime_s"] > 0.0
        assert rep["checks"][-1]["name"] == "factory_kernel_vs_reference"

    def test_negative_control_trips_identity_check(self, skewed_b0):
        rep = run_verification()
        assert not rep["all_passed"]
        bad = {c["name"]: c["passed"] for c in rep["checks"]}
        assert not bad["coefficient_identity"]


class TestFactoryKernelCheck:
    def test_kernel_matches_reference(self):
        assert factory_kernel_mismatches() == 0

    def test_off_by_one_longest_wait_trips_check(self, monkeypatch):
        # a failed attempt that adds one round too many to the duration
        longest = params_module.longest_geometric_round
        monkeypatch.setattr(
            factory_module, "longest_geometric_round", lambda u, log_miss: longest(u, log_miss) + 1
        )
        assert factory_kernel_mismatches() > 0
        rep = run_verification()
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failed == ["factory_kernel_vs_reference"]


class TestShotRngCheck:
    def test_cases_cover_word_count_and_block_edges(self):
        cases = shot_rng_cases(np.random.default_rng(1))
        assert any(seed == 2**64 - 1 for seed, _, _ in cases)
        assert {0, 1023, 1024, 2**32 - 1, 2**32} <= {shot for _, shot, _ in cases}
        assert shot_rng_mismatches(cases) == 0

    @pytest.mark.parametrize(
        "name, index", [("_HASH_A", 5), ("_HASH_B", 3), ("_MIX_L", None)]
    )
    def test_mutated_hash_constant_trips_check(self, monkeypatch, name, index):
        value = getattr(params_module, name)
        if index is None:
            mutated = value ^ 1
        else:
            mutated = value.copy()
            mutated[index] ^= 1
        monkeypatch.setattr(params_module, name, mutated)
        params_module._seed_block.cache_clear()
        try:
            cases = shot_rng_cases(np.random.default_rng(1))
            assert shot_rng_mismatches(cases) == len(cases)
            rep = run_verification()
            failed = [c["name"] for c in rep["checks"] if not c["passed"]]
            assert failed == ["shot_rng_vs_seed_sequence"]
        finally:
            params_module._seed_block.cache_clear()


def _weight_dropping_p_bsm(a, b, round_now, params):
    return a.weight * b.weight * params.p_mem ** (2 * round_now - a.born - b.born)


def _weight_as_sum(a, b, round_now, params):
    w = 1.0
    for link in (a, b):
        w *= params.p_mem ** (round_now - link.born) * params.p_bsm
    return w * (a.weight + b.weight - 1.0)


def _weight_without_memory(a, b, round_now, params):
    return a.weight * b.weight * params.p_bsm**2


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
        rep = run_verification()
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failed == ["werner_swap_vs_dense_bsm"]


def _wrong_readout(swap_signs=False, drop_corner_factor=False, drop_flipped_term=False):
    """fidelity_to_ghz with pending channels read out by a mistaken formula;
    without pending channels it is left exact, so only the read-out check
    can see it."""
    exact = dm_module.fidelity_to_ghz

    def readout(dm, pending=None):
        if pending is None:
            return exact(dm)
        same = flipped = np.ones(1)
        for d in pending:
            same = np.outer(same, ((1.0 + d) / 2.0, (1.0 - d) / 2.0)).ravel()
            flipped = np.outer(flipped, ((1.0 - d) / 2.0, (1.0 + d) / 2.0)).ravel()
        if swap_signs:
            same = flipped
        weight = same if drop_flipped_term else same + flipped
        corner = 1.0 if drop_corner_factor else np.prod(pending)
        diag = dm.mat.diagonal().real
        return float(0.5 * (diag @ weight) + dm.mat[0, -1].real * corner)

    return readout


class TestGhzReadoutCheck:
    def test_diagonal_readout_matches_dense_flush(self, monkeypatch):
        for seed in range(10):
            assert ghz_readout_error(np.random.default_rng(seed)) < 1e-12
        # the mistaken forms below start from an exact copy
        monkeypatch.setattr(dm_module, "fidelity_to_ghz", _wrong_readout())
        assert ghz_readout_error(np.random.default_rng(5)) < 1e-12

    @pytest.mark.parametrize(
        "wrong",
        [dict(swap_signs=True), dict(drop_corner_factor=True),
         dict(drop_flipped_term=True)],
        ids=["signs-swapped", "corner-factor-dropped", "flipped-term-dropped"],
    )
    def test_wrong_readout_trips_check(self, monkeypatch, wrong):
        monkeypatch.setattr(dm_module, "fidelity_to_ghz", _wrong_readout(**wrong))
        assert ghz_readout_error(np.random.default_rng(5)) > 1e-3
        rep = run_verification()
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failed == ["ghz_readout_vs_dense_flush"]
