"""The lumped switch chain: exact cases, known values, the small-q_link
limit, and agreement with the engine's delivery durations."""

import functools
import itertools

import numpy as np
import pytest

from ghzdist.chain import mean_delivery_rounds
from ghzdist.params import SimParams
from ghzdist.switch import run_executions

# per engine point: seeds, and deliveries per seed after the warm-up
SEEDS = 16
DELIVERIES = 50
GRID = list(itertools.product(range(2, 7), (0.05, 0.3, 1.0), (0.6, 0.95, 1.0)))


@pytest.mark.parametrize("n", range(3, 9))
def test_rate_is_half_with_certain_links_and_measurements(n):
    # N - 1 successes use 2 (N - 1) > N links, more than one round brings,
    # and two rounds always bring enough
    assert 1.0 / mean_delivery_rounds(n, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_two_nodes_deliver_every_round_with_certain_links():
    assert mean_delivery_rounds(2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_two_nodes_wait_for_the_later_link():
    # E[max of two geometric(q)] = 2 / q - 1 / (1 - (1 - q)^2), per attempt
    q, q_bsm = 0.05, 0.8
    attempt = 2 / q - 1 / (1 - (1 - q) ** 2)
    assert mean_delivery_rounds(2, q, q_bsm) == pytest.approx(attempt / q_bsm, rel=1e-12)


@pytest.mark.parametrize(
    "n, q_link, q_bsm, rate",
    # the engine-order values of ROADMAP item 2's table, which 16 seeds x
    # 10^4 engine deliveries matched at z = +1.3 and -0.7
    [(4, 0.1, 0.8, 3.8429e-2), (8, 0.05, 0.9, 1.8250e-2)],
)
def test_engine_order_rates(n, q_link, q_bsm, rate):
    assert 1.0 / mean_delivery_rounds(n, q_link, q_bsm) == pytest.approx(rate, rel=1e-4)


@pytest.mark.parametrize("n, q_bsm", [(3, 0.6), (5, 0.95), (8, 0.9)])
def test_mean_scales_as_one_over_q_link_down_to_1e_12(n, q_bsm):
    # q E[T] converges as q_link -> 0, its correction O(q_link): each decade
    # moves it by less than q_link
    scaled = [q * mean_delivery_rounds(n, q, q_bsm) for q in 10.0 ** -np.arange(6, 13)]
    assert all(np.isfinite(scaled)) and min(scaled) > 0
    for q, a, b in zip(10.0 ** -np.arange(6, 12), scaled, scaled[1:]):
        assert abs(a - b) <= q * a, (q, a, b)


@functools.lru_cache(maxsize=None)
def engine_mean_duration(n: int, q_link: float, q_bsm: float) -> tuple[float, float]:
    """Mean delivery duration over SEEDS runs of DELIVERIES deliveries, and
    its stderr from the spread of the runs' means (consecutive deliveries
    are correlated)."""
    means = [
        np.mean([r.duration_rounds for r in run_executions(
            SimParams(n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, seed=seed), DELIVERIES)])
        for seed in range(SEEDS)
    ]
    return float(np.mean(means)), float(np.std(means, ddof=1) / np.sqrt(SEEDS))


def engine_agrees(n: int, q_link: float, q_bsm: float, mean: float) -> bool:
    """The engine's mean duration lies within 5 sigma of ``mean``; where its
    durations have no spread (q_link = q_bsm = 1) it must equal it."""
    got, stderr = engine_mean_duration(n, q_link, q_bsm)
    return abs(got - mean) <= 5 * stderr + 1e-12 * mean


@pytest.mark.parametrize("n, q_link, q_bsm", GRID)
def test_engine_mean_duration_is_the_chain_mean(n, q_link, q_bsm):
    assert engine_agrees(n, q_link, q_bsm, mean_delivery_rounds(n, q_link, q_bsm))


@pytest.mark.parametrize("n, q_link", [(n, q) for n, q, q_bsm in GRID if q_bsm == 0.6])
def test_chain_without_failed_measurements_fails_the_grid(n, q_link):
    # negative control: the chain at q_bsm = 1 against the engine at 0.6
    assert not engine_agrees(n, q_link, 0.6, mean_delivery_rounds(n, q_link, 1.0))
