"""Fixed-seed golden values of both Monte Carlo engines.

The streams are counter-based (``shot_rng``: one per 1,024-shot span for
the factory, one per run for the switch), so the integer draws, and with
them every rate, standard error of the rate and shot count, are a pure
function of the code's draw order; they must match with ``==``.  Each
factory shot's fidelity is plain Python arithmetic, and ``summarize``
sums in ``ndarray.sum``'s fixed pairwise order, so the factory's reported
fidelity and its stderr, the plain mean corrected by the summed-wait
control, match with ``==`` too.  The plain mean of a point's shot
fidelities is pinned with ``==`` as well, so a change in draw order shows
apart from a change in the estimator.  The switch fidelity is the noise
ledger's character sum
(``Component.ghz_fidelity``, entries (d, S) with S a node bitmask),
evaluated by a plain-Python tree DP whose products follow the ledger's
order and whose p_mem powers go through the platform's ``pow``: a change
that reorders a ledger moves its last bits, and so may another host; it is
compared to 1e-12 relative, far below what a reordered, added or dropped
draw moves it by.  The switch's reported fidelity and its stderr are the
plain mean corrected by each delivery's duration, whose exact mean comes
from the lumped chain (``chain.mean_delivery_rounds``), and are compared the
same way; its rate, rate stderr and shots did not change with that
estimator.  The switch skips phases that cannot act, which draws nothing,
and fuses each successful measurement's pair before the next measurement;
``test_switch_stream.py`` pins its plain record stream over a wider grid of
points.
A change that alters the RNG scheme on purpose updates these values and says
so in CHANGES.md.
"""

import pytest

from ghzdist.factory import Estimates, _run_spans, estimate
from ghzdist.params import SimParams
from ghzdist.switch import estimate_switch

NOISE = dict(q_link=0.1, q_bsm=0.9, p_link=0.98, p_mem=0.99, p_bsm=0.99, p_ghz=0.97)


@pytest.mark.parametrize(
    "n, expected",
    [
        (5, Estimates(
            rate_mean=0.023501762632197415, rate_stderr=0.0013165983614405507,
            fidelity_mean=0.4189786440267864, fidelity_stderr=0.004358479521679249,
            shots=200)),
        (16, Estimates(
            rate_mean=0.0049574895273033735, rate_stderr=0.00032429762259615305,
            fidelity_mean=0.029958365719319112, fidelity_stderr=0.0013565264282794558,
            shots=200)),
    ],
)
def test_factory_estimate_is_bitwise_stable(n, expected):
    assert estimate(SimParams(n_end_nodes=n, shots=200, seed=2024, **NOISE)) == expected


@pytest.mark.parametrize("n, expected", [(5, 0.4106292860099338), (16, 0.03147041268127701)])
def test_factory_plain_fidelity_mean_is_bitwise_stable(n, expected):
    _, fidelities, _ = _run_spans((SimParams(n_end_nodes=n, shots=200, seed=2024, **NOISE), 0, 1))
    assert float(fidelities.mean()) == expected


@pytest.mark.parametrize(
    "n, expected",
    [
        (5, Estimates(
            rate_mean=0.03597122302158273, rate_stderr=0.004410560669379483,
            fidelity_mean=0.3605901533460081, fidelity_stderr=0.02574451002063971,
            shots=20)),
        (8, Estimates(
            rate_mean=0.03636363636363636, rate_stderr=0.0032834390452839324,
            fidelity_mean=0.19727438611717502, fidelity_stderr=0.01569882596045713,
            shots=20)),
    ],
)
def test_switch_estimate_is_bitwise_stable(n, expected):
    got = estimate_switch(SimParams(n_end_nodes=n, shots=20, seed=2024, **NOISE))
    assert (got.rate_mean, got.rate_stderr, got.shots) == (
        expected.rate_mean, expected.rate_stderr, expected.shots)
    assert got.fidelity_mean == pytest.approx(expected.fidelity_mean, rel=1e-12)
    assert got.fidelity_stderr == pytest.approx(expected.fidelity_stderr, rel=1e-12)
