"""Fixed-seed golden values of both Monte Carlo engines.

The streams are counter-based (``shot_rng``: one per 1,024-shot span for
the factory, one per run for the switch), so the integer draws, and with
them every rate, standard error of the rate and shot count, are a pure
function of the code's draw order; they must match with ``==``.  The
factory fidelity is plain Python arithmetic and matches with ``==`` too.
The switch fidelity is the noise ledger's character sum
(``Component.ghz_fidelity``), whose products and sums over the ledger
entries and the even-weight terms run in numpy's vectorised reductions,
whose SIMD width and summation order depend on the CPU, so its last bits
may differ between hosts; it is compared to 1e-12 relative, far below what
a reordered, added or dropped draw moves it by.  The switch skips phases
that cannot act, which draws nothing.
A change that alters the RNG scheme on purpose updates these values and says
so in CHANGES.md.
"""

import pytest

from ghzdist.factory import Estimates, estimate
from ghzdist.params import SimParams
from ghzdist.switch import estimate_switch

NOISE = dict(q_link=0.1, q_bsm=0.9, p_link=0.98, p_mem=0.99, p_bsm=0.99, p_ghz=0.97)


@pytest.mark.parametrize(
    "n, expected",
    [
        (5, Estimates(
            rate_mean=0.025227043390514632, rate_stderr=0.0013580953924396373,
            fidelity_mean=0.4152478902102162, fidelity_stderr=0.010416343466022023,
            shots=200)),
        (16, Estimates(
            rate_mean=0.005760202759137122, rate_stderr=0.0003439589912797228,
            fidelity_mean=0.02942979465206865, fidelity_stderr=0.002245938878079087,
            shots=200)),
    ],
)
def test_factory_estimate_is_bitwise_stable(n, expected):
    assert estimate(SimParams(n_end_nodes=n, shots=200, seed=2024, **NOISE)) == expected


@pytest.mark.parametrize(
    "n, expected",
    [
        (5, Estimates(
            rate_mean=0.04024144869215292, rate_stderr=0.0037525720193579363,
            fidelity_mean=0.38386930032383637, fidelity_stderr=0.024066020859898635,
            shots=20)),
        (8, Estimates(
            rate_mean=0.038461538461538464, rate_stderr=0.003554510630136098,
            fidelity_mean=0.20327712280463867, fidelity_stderr=0.02213773056359702,
            shots=20)),
    ],
)
def test_switch_estimate_is_bitwise_stable(n, expected):
    got = estimate_switch(SimParams(n_end_nodes=n, shots=20, seed=2024, **NOISE))
    assert (got.rate_mean, got.rate_stderr, got.shots) == (
        expected.rate_mean, expected.rate_stderr, expected.shots)
    assert got.fidelity_mean == pytest.approx(expected.fidelity_mean, rel=1e-12)
    assert got.fidelity_stderr == pytest.approx(expected.fidelity_stderr, rel=1e-12)
