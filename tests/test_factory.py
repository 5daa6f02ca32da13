"""Factory-protocol engine: fast path and aggregation."""

import itertools
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzdist.analytics import rate_exact
from ghzdist.factory import (
    ATTEMPT_DRAW_BUDGET,
    check_attempt_budget,
    estimate,
    fidelity_from_deltas,
    run_shot_fast,
    summarize,
)
from ghzdist.oracles import reference_run_shot
from ghzdist.params import TAG_FACTORY, ConfigError, SimParams, shot_rng


def make_params(**kwargs):
    base = dict(n_end_nodes=5, q_link=0.01, q_bsm=0.95, seed=123, shots=100)
    base.update(kwargs)
    return SimParams(**base)


class TestRunShotFast:
    def test_instant_success(self):
        params = make_params(q_link=1.0, q_bsm=1.0)
        rec = run_shot_fast(params, shot_rng(0, 0, TAG_FACTORY))
        assert rec.duration_rounds == 1
        assert rec.teleport_attempts == 1
        assert rec.n_all == 1
        assert rec.delta_n == (0,) * 5

    def test_noiseless_fidelity_is_one(self):
        params = make_params(q_link=0.2, q_bsm=0.8)
        for s in range(50):
            rec = run_shot_fast(params, shot_rng(5, s, TAG_FACTORY))
            assert rec.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_no_waiting_means_memory_independent(self):
        for p_mem in (0.2, 0.7, 1.0):
            params = make_params(q_link=1.0, q_bsm=1.0, p_mem=p_mem, p_link=0.9)
            rec = run_shot_fast(params, shot_rng(9, 0, TAG_FACTORY))
            assert rec.delta_n == (0,) * 5
            assert rec.fidelity == pytest.approx(
                fidelity_from_deltas(params, (0,) * 5), abs=1e-14
            )

    def test_record_consistency(self):
        params = make_params(q_link=0.05)
        for s in range(100):
            rec = run_shot_fast(params, shot_rng(7, s, TAG_FACTORY))
            assert rec.n_all == max(rec.rounds)
            assert rec.delta_n == tuple(rec.n_all - r for r in rec.rounds)
            assert all(d >= 0 for d in rec.delta_n)
            assert rec.duration_rounds >= rec.n_all
            assert 2.0**-5 - 1e-12 <= rec.fidelity <= 1.0

    def test_deterministic_given_seed(self):
        params = make_params(p_mem=0.999, p_link=0.98)
        a = [run_shot_fast(params, shot_rng(3, s, TAG_FACTORY)) for s in range(20)]
        b = [run_shot_fast(params, shot_rng(3, s, TAG_FACTORY)) for s in range(20)]
        assert a == b

    def test_timing_invariant_under_noise_parameters(self):
        # noise parameters consume no randomness, so durations are identical
        base = make_params(p_link=1.0, p_mem=1.0, p_bsm=1.0, p_ghz=1.0)
        noisy = make_params(p_link=0.9, p_mem=0.95, p_bsm=0.9, p_ghz=0.8)
        for s in range(50):
            rec_a = run_shot_fast(base, shot_rng(21, s, TAG_FACTORY))
            rec_b = run_shot_fast(noisy, shot_rng(21, s, TAG_FACTORY))
            assert rec_a.duration_rounds == rec_b.duration_rounds
            assert rec_a.rounds == rec_b.rounds

    def test_fidelity_monotone_in_each_noise_parameter(self):
        for name in ("p_link", "p_mem", "p_bsm", "p_ghz"):
            last = None
            for value in (0.5, 0.8, 0.95, 1.0):
                params = replace(
                    make_params(q_link=0.1, p_link=0.9, p_mem=0.99, p_bsm=0.9, p_ghz=0.9),
                    **{name: value},
                )
                rec = run_shot_fast(params, shot_rng(31, 0, TAG_FACTORY))
                if last is not None:
                    assert rec.fidelity >= last - 1e-12
                last = rec.fidelity


class TestEstimate:
    def test_perfect_point(self):
        params = make_params(q_link=1.0, q_bsm=1.0, shots=200)
        est = estimate(params)
        assert est.rate_mean == pytest.approx(1.0, abs=1e-15)
        assert est.rate_stderr == 0.0
        assert est.fidelity_stderr == 0.0

    def test_rate_matches_exact_within_3_sigma(self):
        params = make_params(q_link=0.05, q_bsm=0.95, shots=4000, seed=77)
        est = estimate(params)
        exact = rate_exact(5, 0.05, 0.95)
        assert abs(est.rate_mean - exact) < 3 * est.rate_stderr

    def test_dt_scaling(self):
        slow = estimate(make_params(q_link=0.2, shots=500, dt=2.0))
        fast = estimate(make_params(q_link=0.2, shots=500, dt=1.0))
        assert slow.rate_mean == pytest.approx(fast.rate_mean / 2.0, rel=1e-12)
        assert slow.fidelity_mean == fast.fidelity_mean

    def test_worker_count_does_not_change_results(self):
        params = make_params(q_link=0.1, shots=600, seed=9)
        old = os.environ.get("GHZDIST_WORKERS")
        try:
            os.environ["GHZDIST_WORKERS"] = "1"
            one = estimate(params)
            os.environ["GHZDIST_WORKERS"] = "3"
            three = estimate(params)
        finally:
            if old is None:
                os.environ.pop("GHZDIST_WORKERS", None)
            else:
                os.environ["GHZDIST_WORKERS"] = old
        assert one == three

    def test_summarize_rejects_single_shot(self):
        with pytest.raises(ValueError):
            summarize(np.array([3]), np.array([0.9]), 1.0)


def assert_matches_reference(params, seed, shot):
    fast = run_shot_fast(params, shot_rng(seed, shot, TAG_FACTORY))
    ref = reference_run_shot(params, shot_rng(seed, shot, TAG_FACTORY))
    assert fast._asdict() == ref._asdict()


class TestKernelAgainstReference:
    """The kernel turns only the successful attempt's uniforms into rounds;
    the reference turns every attempt's and draws the coin separately."""

    @pytest.mark.parametrize(
        "n, q_link, q_bsm",
        [
            c
            for c in itertools.product((2, 5, 16, 64), (1e-6, 0.01, 0.5, 1.0), (1.0, 0.95, 0.5))
            # 0.5^64 is below a uniform's resolution, and 0.5^16 costs the
            # reference ~65k attempts per shot (one case below)
            if c[0] <= 5 or c[2] != 0.5
        ],
    )
    def test_records_equal(self, n, q_link, q_bsm):
        params = make_params(
            n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, p_link=0.98, p_mem=0.999
        )
        for seed, shot in ((4, 0), (4, 1), (2**32 + 4, 0), (2**40 + 1, 2**33 + 5)):
            assert_matches_reference(params, seed, shot)

    def test_records_equal_at_half_q_bsm_and_sixteen_nodes(self):
        params = make_params(n_end_nodes=16, q_link=0.5, q_bsm=0.5)
        assert_matches_reference(params, 2**32 + 4, 0)

    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(2, 12),
        q_link=st.floats(1e-15, 1.0),
        q_bsm=st.sampled_from([1.0, 0.99, 0.9, 0.75]),
        seed=st.integers(0, 2**64 - 1),
        shot=st.integers(0, 2**64 - 1),
    )
    def test_records_equal_on_random_points(self, n, q_link, q_bsm, seed, shot):
        params = make_params(n_end_nodes=n, q_link=q_link, q_bsm=q_bsm)
        assert_matches_reference(params, seed, shot)

    def test_one_draw_call_per_attempt(self):
        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.sizes = rng, []

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        for q_bsm, draws in ((1.0, 5), (0.6, 6)):
            rng = CountingGenerator(shot_rng(8, 0, TAG_FACTORY))
            rec = run_shot_fast(make_params(q_bsm=q_bsm), rng)
            assert rng.sizes == [draws] * rec.teleport_attempts


class TestAttemptBudget:
    @pytest.mark.parametrize(
        "point",
        [dict(q_link=q, shots=10_000) for q in (0.001, 0.005, 0.01, 0.05)]
        + [dict(n_end_nodes=16, shots=10_000), dict(q_bsm=0.5, shots=100_000)],
    )
    def test_accepts_feasible_points(self, point):
        check_attempt_budget(make_params(**point))

    def test_rejects_expected_draws_over_budget(self):
        # q_bsm^-5 = 1e15 attempts of 6 uniforms per shot
        params = make_params(q_link=0.5, q_bsm=1e-3, shots=2)
        with pytest.raises(ConfigError, match="q_bsm"):
            check_attempt_budget(params)
        with pytest.raises(ConfigError, match="q_bsm"):
            estimate(params)

    def test_budget_scales_with_shots(self):
        shots = int(ATTEMPT_DRAW_BUDGET / 6)
        check_attempt_budget(make_params(q_bsm=1.0, shots=shots))
        with pytest.raises(ConfigError, match="shots"):
            check_attempt_budget(make_params(q_bsm=1.0, shots=shots + 1))
