"""Factory-protocol engine: fast path and aggregation."""

import os

import numpy as np
import pytest

from ghzdist.analytics import rate_exact
from ghzdist.factory import (
    estimate,
    fidelity_from_deltas,
    run_shot_fast,
    summarize,
)
from ghzdist.params import TAG_FACTORY, SimParams, shot_rng


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
                params = make_params(
                    q_link=0.1, p_link=0.9, p_mem=0.99, p_bsm=0.9, p_ghz=0.9
                ).with_overrides(**{name: value})
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
