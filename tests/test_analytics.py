"""Closed-form expressions: frozen oracle values, identities, bounds."""

import math

import numpy as np
import pytest

from ghzdist.analytics import (
    GSpec,
    expected_n_all_exact,
    expected_n_all_upper_bound,
    expected_order_stat,
    f_rand,
    fidelity_closed_form,
    fidelity_coefficient,
    g_value,
    harmonic,
    rate_exact,
    rate_leading,
)
from ghzdist.cli import main
from ghzdist.dm import fidelity_to_ghz, structured_state
from ghzdist.oracles import (
    coefficient_identity_check,
    fidelity_subset_sum,
    ghz_overlap_subset_sum,
    n_all_alternating_sum,
)
from ghzdist.params import ConfigError, SimParams


class TestHarmonic:
    def test_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(5) == pytest.approx(137 / 60, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic(0)


class TestExpectedNAll:
    def test_single_link_is_plain_geometric(self):
        assert expected_n_all_exact(1, 0.25) == pytest.approx(4.0, abs=1e-12)

    def test_two_links_half(self):
        # frozen by exhaustive enumeration: E[max of two geom(1/2)] = 8/3
        assert expected_n_all_exact(2, 0.5) == pytest.approx(8 / 3, abs=1e-12)

    def test_certain_success(self):
        for n in (1, 3, 6):
            assert expected_n_all_exact(n, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_upper_bound_dominates_exact(self):
        for n in (1, 2, 5, 8):
            for q in (0.005, 0.01, 0.3, 0.9):
                assert expected_n_all_upper_bound(n, q) > expected_n_all_exact(n, q)

    # 1100: C(n, n/2) is beyond the double range there
    @pytest.mark.parametrize("n", [60, 200, 1100])
    def test_large_n_matches_direct_round_sum(self, n):
        # E[max] = sum_{t>=0} P(max > t) = sum_t [1 - (1 - (1-q)^t)^n]
        q = 0.01
        terms, t = [1.0], 1  # P(max > 0) = 1
        while True:
            term = -math.expm1(n * math.log1p(-((1.0 - q) ** t)))
            terms.append(term)
            if term < 1e-18:
                break
            t += 1
        direct = math.fsum(terms)
        assert expected_n_all_exact(n, q) == pytest.approx(direct, rel=1e-12)

    def test_upper_bound_values(self):
        assert expected_n_all_upper_bound(1, 0.5) == pytest.approx(
            1 + 1 / math.log(2), abs=1e-12
        )
        assert expected_n_all_upper_bound(4, 1.0) == 1.0


class TestRates:
    def test_single_link_exact(self):
        assert rate_exact(1, 0.5, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_leading_value(self):
        assert rate_leading(5, 0.01, 0.95) == pytest.approx(
            0.95**5 * 0.01 / harmonic(5), abs=1e-12
        )
        assert rate_leading(5, 0.01, 0.95) == pytest.approx(0.003389, abs=5e-7)

    def test_leading_is_lower_bound_for_n5(self):
        for q in (0.001, 0.01, 0.1, 0.5, 0.9, 1.0):
            assert rate_leading(5, q, 0.95) <= rate_exact(5, q, 0.95) + 1e-15

    def test_rate_scales_inverse_dt(self):
        assert rate_exact(3, 0.1, 1.0, dt=2.0) == pytest.approx(
            rate_exact(3, 0.1, 1.0) / 2.0, abs=1e-15
        )


class TestOrderStatistics:
    def test_first_success_closed_form(self):
        assert expected_order_stat(1, 2, 0.5, "exact") == pytest.approx(
            4 / 3, abs=1e-12
        )
        for n in (1, 3, 6):
            for q in (0.1, 0.7):
                assert expected_order_stat(1, n, q, "exact") == pytest.approx(
                    1.0 / (1.0 - (1.0 - q) ** n), abs=1e-12
                )

    def test_last_matches_alternating_sum(self):
        for n in range(1, 7):
            for q in (0.1, 0.5, 0.9):
                assert expected_order_stat(n, n, q, "exact") == pytest.approx(
                    n_all_alternating_sum(n, q), abs=1e-10
                )

    def test_leading_accurate_at_tiny_q(self):
        for n in range(1, 9):
            for i in range(1, n + 1):
                exact = expected_order_stat(i, n, 0.001, "exact")
                lead = expected_order_stat(i, n, 0.001, "leading")
                assert abs(lead - exact) / exact < 0.01

    def test_upper_bound_dominates(self):
        for n in (2, 4, 8):
            for q in (0.05, 0.3, 0.8):
                for i in range(1, n + 1):
                    assert expected_order_stat(i, n, q, "upper_bound") >= (
                        expected_order_stat(i, n, q, "exact") - 1e-12
                    )

    def test_monotone_in_index_and_q(self):
        vals = [expected_order_stat(i, 5, 0.2, "exact") for i in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        by_q = [expected_order_stat(3, 5, q, "exact") for q in (0.1, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(by_q, by_q[1:]))

    def test_index_domain(self):
        with pytest.raises(ValueError):
            expected_order_stat(0, 3, 0.5)
        with pytest.raises(ValueError):
            expected_order_stat(4, 3, 0.5)


class TestGValue:
    def test_no_loss_is_one(self):
        spec = GSpec(4, (1, 2, 3, 4), (0.0,) * 4)
        assert g_value(spec, 0.3, "leading") == pytest.approx(1.0, abs=1e-14)

    def test_two_tracked_leading(self):
        spec = GSpec(2, (1, 2), (0.01, 0.01))
        assert g_value(spec, 0.01, "leading") == pytest.approx(0.5, abs=1e-12)

    def test_lower_bound_loose_at_large_q(self):
        spec = GSpec(2, (1, 2), (0.0, 0.0))
        assert g_value(spec, 0.5, "lower_bound") == pytest.approx(2 / 3, abs=1e-12)

    def test_bound_below_leading_in_regime(self):
        for q in (0.005, 0.02, 0.05):
            for rate in (0.0, 1e-4, 1e-2):
                for positions in [(1,), (2, 3), (1, 3, 5), (1, 2, 3, 4, 5)]:
                    spec = GSpec(5, positions, (rate,) * len(positions))
                    lead = g_value(spec, q, "leading")
                    bound = g_value(spec, q, "lower_bound")
                    assert bound <= lead + 1e-12
                    assert 0.0 <= bound <= 1.0 and 0.0 <= lead <= 1.0

    def test_last_position_rate_is_irrelevant(self):
        # the last Bell pair waits zero rounds, so its loss rate cannot matter
        a = GSpec(5, (2, 5), (0.01, 0.0))
        b = GSpec(5, (2, 5), (0.01, 0.9))
        assert g_value(a, 0.05, "leading") == pytest.approx(
            g_value(b, 0.05, "leading"), abs=1e-14
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GSpec(3, (2, 2), (0.1, 0.1))
        with pytest.raises(ValueError):
            GSpec(3, (1, 4), (0.1, 0.1))
        with pytest.raises(ValueError):
            GSpec(3, (1,), (1.5,))


class TestFidelityCoefficients:
    def test_empty_subset(self):
        assert fidelity_coefficient(0, 5, 0.9, 0.9) == pytest.approx(2.0**-5)

    def test_odd_partial_subsets_vanish(self):
        for u in (1, 3):
            assert fidelity_coefficient(u, 4, 0.7, 0.8) == 0.0

    def test_full_even_subset(self):
        assert fidelity_coefficient(4, 4, 1.0, 1.0) == pytest.approx(
            1 / 16 + 0.5, abs=1e-14
        )

    def test_coefficients_sum_to_one_noiseless(self):
        for n in (2, 3, 4, 5, 6):
            total = sum(
                math.comb(n, u) * fidelity_coefficient(u, n, 1.0, 1.0)
                for u in range(n + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestFRand:
    def test_perfect(self):
        assert f_rand(1.0, [1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_fully_depolarized(self):
        for p_ghz in (0.0, 0.4, 1.0):
            assert f_rand(p_ghz, [0.0] * 4) == pytest.approx(1 / 16, abs=1e-14)

    def test_frozen_two_qubit_value(self):
        assert f_rand(1.0, [0.8, 0.8]) == pytest.approx(0.73, abs=1e-12)

    def test_matches_subset_sum(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5, 7):
            for _ in range(20):
                p = rng.random(n)
                assert f_rand(1.0, p) == pytest.approx(
                    ghz_overlap_subset_sum(p), abs=1e-12
                )

    def test_matches_structured_state(self):
        rng = np.random.default_rng(14)
        for n in (2, 4, 6):
            for _ in range(20):
                p_ghz = rng.random()
                p = rng.random(n)
                dm_val = fidelity_to_ghz(structured_state(p_ghz, p))
                assert f_rand(p_ghz, p) == pytest.approx(dm_val, abs=1e-12)


class TestCoefficientIdentity:
    def test_identity_holds(self):
        for n in range(2, 7):
            assert coefficient_identity_check(n, samples=100, seed=3) < 1e-10

    def test_edge_vectors(self):
        # all-one vector: perfect state, both sides 1; all-zero: 1/2^n
        assert ghz_overlap_subset_sum([1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)
        assert ghz_overlap_subset_sum([0.0] * 3) == pytest.approx(1 / 8, abs=1e-14)
        assert f_rand(1.0, [0.0] * 3) == pytest.approx(1 / 8, abs=1e-14)

    def test_perturbation_detected(self, skewed_b0):
        assert coefficient_identity_check(4, samples=10, seed=3) > 1e-7


class TestFidelityClosedForm:
    def test_noiseless_is_one(self):
        params = SimParams(n_end_nodes=5, q_link=0.3)
        for mode in ("leading", "lower_bound"):
            val = fidelity_closed_form(params, mode).value
            if mode == "leading":
                assert val == pytest.approx(1.0, abs=1e-12)
            else:
                assert val <= 1.0 + 1e-12

    def test_dead_ghz_source(self):
        params = SimParams(n_end_nodes=4, q_link=0.3, p_ghz=0.0)
        assert fidelity_closed_form(params, "leading").value == pytest.approx(
            1 / 16, abs=1e-12
        )

    def test_perfect_memory_reduces_to_f_rand(self):
        # with p_mem = 1 the waiting times are irrelevant: the value must not
        # depend on q_link and must equal f_rand at p_i = p_link p_bsm^2
        for q_link in (0.001, 0.05, 0.9):
            params = SimParams(
                n_end_nodes=5,
                q_link=q_link,
                p_link=0.93,
                p_bsm=0.97,
                p_ghz=0.9,
            )
            val = fidelity_closed_form(params, "leading").value
            expect = f_rand(0.9, [0.93 * 0.97**2] * 5)
            assert val == pytest.approx(expect, abs=1e-12)

    def test_breakdown_reassembles(self):
        params = SimParams(
            n_end_nodes=4, q_link=0.01, p_link=0.99, p_bsm=0.99, p_mem=1 - 1e-4,
            p_ghz=0.9,
        )
        br = fidelity_closed_form(params, "leading")
        total = (1 - params.p_ghz) / 2**4 + params.p_ghz * sum(
            br.contributions.values()
        )
        assert br.value == pytest.approx(total, abs=1e-14)

    def test_bound_below_leading_small_q(self):
        params = SimParams(
            n_end_nodes=5, q_link=0.005, p_link=0.99, p_bsm=0.99, p_mem=1 - 1e-4,
            p_ghz=0.9,
        )
        lead = fidelity_closed_form(params, "leading").value
        bound = fidelity_closed_form(params, "lower_bound").value
        assert bound <= lead + 1e-12

    def test_leading_value_stays_in_physical_range(self):
        # the bound mode may dip below the maximally mixed fidelity at large
        # q_link; the leading-order value never does
        for q_link in (0.001, 0.05, 0.3, 1.0):
            for p_mem in (0.9, 0.999, 1.0):
                params = SimParams(
                    n_end_nodes=5, q_link=q_link, p_link=0.95, p_bsm=0.95,
                    p_mem=p_mem, p_ghz=0.85,
                )
                val = fidelity_closed_form(params, "leading").value
                assert 2.0**-5 - 1e-12 <= val <= 1.0 + 1e-12

    @pytest.mark.parametrize("mode", ["leading", "lower_bound"])
    def test_matches_subset_sum_oracle(self, mode):
        rng = np.random.default_rng(29)
        for n in range(2, 11):
            for _ in range(3):
                params = SimParams(
                    n_end_nodes=n,
                    q_link=float(rng.choice([0.002, 0.03, 0.4, 1.0])),
                    p_link=float(rng.uniform(0.7, 1.0)),
                    p_mem=float(rng.choice([rng.uniform(0.9, 1.0), 1 - 1e-4])),
                    p_bsm=float(rng.uniform(0.7, 1.0)),
                    p_ghz=float(rng.uniform(0.5, 1.0)),
                )
                br = fidelity_closed_form(params, mode)
                assert sorted(br.contributions) == list(range(n + 1))
                ref = fidelity_subset_sum(params, mode)
                assert abs(br.value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [25, 200])
    def test_no_subset_cap(self, n):
        params = SimParams(
            n_end_nodes=n, q_link=0.01, p_link=0.99, p_bsm=0.99, p_mem=1 - 1e-4,
            p_ghz=0.9,
        )
        lead = fidelity_closed_form(params, "leading").value
        bound = fidelity_closed_form(params, "lower_bound").value
        assert 2.0**-n <= lead <= 1.0
        assert math.isfinite(bound)

    def test_beyond_double_range_rejected(self):
        with pytest.raises(ConfigError, match="n_end_nodes"):
            fidelity_closed_form(SimParams(n_end_nodes=1024, q_link=0.5))

    def test_simulate_factory_fills_analytic_columns_at_n25(self, tmp_path):
        out = tmp_path / "res.csv"
        code = main(
            ["simulate", "--protocol", "factory", "--set", "n_end_nodes=25",
             "--set", "q_link=0.2", "--set", "p_mem=0.999", "--set", "shots=20",
             "--output", str(out), "--no-timestamp"]
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        for col in ("analytic_fid_leading", "analytic_fid_lower_bound"):
            assert 0.0 < float(values[col]) <= 1.0
