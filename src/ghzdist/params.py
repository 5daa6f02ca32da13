"""Protocol parameters, flat config files, and reproducible randomness."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

GEOMETRIC_CAP = 2**31  # statistically unreachable for q >= 1e-6

# stream tags: one per independent consumer of randomness
TAG_FACTORY = 1
TAG_SWITCH = 3


class ConfigError(ValueError):
    """Invalid, missing or unknown simulation parameters."""


@dataclass(frozen=True)
class SimParams:
    """All protocol and noise parameters for one simulation point.

    q_* are success probabilities, p_* are depolarizing parameters (p = 1
    means no noise).  dt is the round duration; t_cl is pinned to 0.
    """

    n_end_nodes: int
    q_link: float
    q_bsm: float = 1.0
    p_link: float = 1.0
    p_mem: float = 1.0
    p_bsm: float = 1.0
    p_ghz: float = 1.0
    dt: float = 1.0
    t_cl: float = 0.0
    shots: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n_end_nodes < 2:
            raise ConfigError(f"n_end_nodes must be >= 2, got {self.n_end_nodes}")
        if not 0.0 < self.q_link <= 1.0:
            raise ConfigError(f"q_link must be in (0, 1], got {self.q_link}")
        if not 0.0 < self.q_bsm <= 1.0:
            raise ConfigError(f"q_bsm must be in (0, 1], got {self.q_bsm}")
        for name in ("p_link", "p_mem", "p_bsm", "p_ghz"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {val}")
        if self.dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_cl != 0.0:
            raise ConfigError("t_cl is fixed to 0 in this model")
        if self.shots < 2:
            raise ConfigError(
                f"shots must be >= 2 for standard errors, got {self.shots}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned int, got {self.seed}")

    def with_overrides(self, **kwargs) -> "SimParams":
        return replace(self, **kwargs)


_FIELD_TYPES = {f.name: f.type for f in fields(SimParams)}
_REQUIRED = ("n_end_nodes", "q_link")
_INT_FIELDS = ("n_end_nodes", "shots", "seed")


def _coerce(key: str, raw: str):
    try:
        if key in _INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; unknown keys are rejected."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_params(
    path: str | Path | None = None, overrides: dict | None = None
) -> SimParams:
    """Build SimParams from an optional config file plus override values."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(path.read_text(), source=str(path)))
    if overrides:
        for key, val in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown key {key!r}")
            values[key] = _coerce(key, str(val))
    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return SimParams(**values)


def shot_rng(seed: int, shot_index: int, tag: int) -> np.random.Generator:
    """Counter-based per-shot stream.

    Identical (seed, shot_index, tag) gives the identical draw sequence no
    matter how shots are scheduled across workers.
    """
    ss = np.random.SeedSequence(entropy=(seed, shot_index, tag))
    return np.random.Generator(np.random.PCG64(ss))


def sample_geometric(rng: np.random.Generator, q: float, size: int) -> list[int]:
    """``size`` numbers of attempts until first success, Pr(n) = q (1-q)^(n-1).

    Inverse CDF on one uniform per sample, capped at GEOMETRIC_CAP.  The
    uniforms come from one ``rng.random(size)`` call, which yields the same
    doubles as ``size`` scalar calls; they are drawn also at q = 1, so the
    draw count does not depend on q.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {q}")
    draws = rng.random(size).tolist()
    if q == 1.0:
        return [1] * size
    log_miss = math.log1p(-q)
    return [min(int(math.log1p(-u) / log_miss) + 1, GEOMETRIC_CAP) for u in draws]


def derive_p_ghz(local_ghz_fidelity: float, n: int) -> float:
    """Depolarizing parameter giving a local GHZ fidelity F on n qubits.

    Inverts F = p + (1 - p) / 2^n.  Fidelities below 1/2^n are unreachable by
    a depolarizing channel.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    floor = 2.0**-n
    if not floor <= local_ghz_fidelity <= 1.0:
        raise ValueError(
            f"fidelity {local_ghz_fidelity} outside [{floor}, 1] for n = {n}"
        )
    return (local_ghz_fidelity - floor) / (1.0 - floor)
