"""GHZ-state distribution over symmetric star networks.

Monte Carlo engines for the factory-node and 2-switch protocols under
depolarizing noise, the closed-form rate/fidelity expressions they are
validated against, and brute-force oracles tying the two together.  Dense
density matrices are the oracles' reference only: no engine uses them.
The dense kernels and the oracles' internals are reached as ``ghzdist.dm.*``
and ``ghzdist.oracles.*``.
"""

from .analytics import (
    GSpec,
    FidelityBreakdown,
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
from .dm import DensityMatrix, Qubit, fidelity_to_ghz
from .factory import Estimates, ShotRecord, estimate, run_shot_fast, run_shots_fast
from .oracles import enumerate_waiting_times, mc_g, replay_factory_dm, run_verification
from .params import ConfigError, SimParams, derive_p_ghz, load_params, sample_geometric, shot_rng
from .switch import NetworkState, SwitchRecord, estimate_switch, run_to_ghz

__all__ = [
    "ConfigError",
    "DensityMatrix",
    "Estimates",
    "FidelityBreakdown",
    "GSpec",
    "NetworkState",
    "Qubit",
    "ShotRecord",
    "SimParams",
    "SwitchRecord",
    "derive_p_ghz",
    "enumerate_waiting_times",
    "estimate",
    "estimate_switch",
    "expected_n_all_exact",
    "expected_n_all_upper_bound",
    "expected_order_stat",
    "f_rand",
    "fidelity_closed_form",
    "fidelity_coefficient",
    "fidelity_to_ghz",
    "g_value",
    "harmonic",
    "load_params",
    "mc_g",
    "rate_exact",
    "rate_leading",
    "replay_factory_dm",
    "run_shot_fast",
    "run_shots_fast",
    "run_to_ghz",
    "run_verification",
    "sample_geometric",
    "shot_rng",
]
