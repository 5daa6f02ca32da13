"""Protocol parameters, read from a flat config file and from ``key = value``
settings by one parser, and reproducible randomness: counter-based numpy
streams (``shot_rng``), a buffered reader of their uniforms (``Uniforms``)
and the geometric inverse CDF on them."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

# stream tags: one per independent consumer of randomness
TAG_FACTORY = 1
TAG_SWITCH = 3


class ConfigError(ValueError):
    """Invalid, missing or unknown simulation parameters."""


@dataclass(frozen=True)
class SimParams:
    """All protocol and noise parameters for one simulation point.

    q_* are success probabilities, p_* are depolarizing parameters (p = 1
    means no noise).  dt is the round duration; classical messages are
    instantaneous.
    """

    n_end_nodes: int
    q_link: float
    q_bsm: float = 1.0
    p_link: float = 1.0
    p_mem: float = 1.0
    p_bsm: float = 1.0
    p_ghz: float = 1.0
    dt: float = 1.0
    shots: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.n_end_nodes < 2:
            raise ConfigError(f"n_end_nodes must be >= 2, got {self.n_end_nodes}")
        # durations are int64 and a geometric draw is at most 1 + 53 ln 2 / q_link
        if not 1e-15 <= self.q_link <= 1.0:
            raise ConfigError(f"q_link must be in [1e-15, 1], got {self.q_link}")
        # a success coin u < q_bsm draws u on a 2^-53 grid, so a smaller
        # q_bsm lands only at u = 0, with the wrong probability; the
        # factory's coin u < q_bsm^N is held to its draw budget instead
        # (``factory.check_attempt_budget``), which a q_bsm^N < 2^-53 exceeds
        if not 2.0**-53 <= self.q_bsm <= 1.0:
            raise ConfigError(f"q_bsm must be in [2**-53, 1], got {self.q_bsm}")
        for name in ("p_link", "p_mem", "p_bsm", "p_ghz"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {val}")
        # keeps every time, its square and the rate finite and nonzero
        if not 1e-100 <= self.dt <= 1e100:
            raise ConfigError(f"dt must be in [1e-100, 1e100], got {self.dt}")
        if self.shots < 2:
            raise ConfigError(
                f"shots must be >= 2 for standard errors, got {self.shots}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned int, got {self.seed}")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat ``key = value`` lines; unknown keys are rejected.  A key
    is read as an int if ``SimParams`` annotates it ``int``, else as a float."""
    types = {f.name: f.type for f in fields(SimParams)}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = int(raw) if types[key] == "int" else float(raw)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse value {raw!r} for key {key!r}"
            ) from None
    return values


def load_params(
    path: str | Path | None = None, settings: Sequence[str] = (), point: str | None = None
) -> SimParams:
    """Build SimParams from an optional config file, then each ``--set``
    setting in order, then a sweep ``point`` read as ``--param``.  Each
    setting holds exactly one ``key = value`` under the config-file rules
    and overrides any earlier value of its key."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(path.read_text(), source=str(path)))
    sources = [("--set", text) for text in settings]
    if point:
        sources.append(("--param", point))
    for source, text in sources:
        setting = parse_config_text(text, source)
        if len(setting) != 1:
            raise ConfigError(f"{source} expects one 'key = value', got {text!r}")
        values.update(setting)
    required = [f.name for f in fields(SimParams) if f.default is MISSING]
    missing = [key for key in required if key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return SimParams(**values)


def shot_rng(seed: int, shot_index: int, tag: int) -> np.random.Generator:
    """Counter-based stream ``Generator(PCG64(SeedSequence(entropy=(seed,
    shot_index, tag))))``.

    Identical (seed, shot_index, tag) gives the identical draw sequence no
    matter how the work is scheduled across workers.  The factory takes one
    stream per span of shots, indexed by the span's number, and the switch
    one stream at index 0.  Each argument must lie in [0, 2**64), which
    ``SeedSequence`` alone would not enforce.
    """
    if not (0 <= seed < 2**64 and 0 <= shot_index < 2**64 and 0 <= tag < 2**64):
        args = {"seed": seed, "shot_index": shot_index, "tag": tag}
        name = next(name for name, value in args.items() if not 0 <= value < 2**64)
        raise ValueError(f"{name} must lie in [0, 2**64), got {args[name]}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(seed, shot_index, tag)))
    )


# uniforms a ``Uniforms`` stream draws from its Generator at a time
BLOCK = 1024


class Uniforms:
    """``rng``'s uniforms, drawn ``BLOCK`` at a time and handed out in draw
    order.

    ``random()`` returns the next one as a float and ``random(size)`` the
    next ``size`` as an ndarray (a view of the block unless they cross its
    end): draw for draw what the same calls on ``rng`` return, as
    ``Generator.random(n)`` yields the doubles of n scalar calls, but without
    a Generator call per draw.  Nothing else may draw from ``rng``.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._refill()

    def _refill(self) -> None:
        self._block = self._rng.random(BLOCK)
        self._floats = self._block.tolist()
        self._next = 0

    def random(self, size: int | None = None):
        i = self._next
        if size is None:
            if i == BLOCK:
                self._refill()
                i = 0
            self._next = i + 1
            return self._floats[i]
        end = i + size
        if end <= BLOCK:
            self._next = end
            return self._block[i:end]
        # the block's rest, then the Generator's next draws, then a new block
        head, rest = self._block[i:], self._rng.random(end - BLOCK)
        self._refill()
        return np.concatenate([head, rest])


def geometric_log_miss(q: float) -> float:
    """log(1 - q), the scale of the geometric inverse CDF; -inf at q = 1,
    where it maps every uniform to 1."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {q}")
    return math.log1p(-q) if q < 1.0 else -math.inf


def geometric_rounds(uniforms: Sequence[float], log_miss: float) -> list[int]:
    """Numbers of attempts until first success, Pr(n) = q (1-q)^(n-1), by the
    inverse CDF ``int(log1p(-u) / log1p(-q)) + 1`` on one uniform each.

    ``log_miss`` is ``geometric_log_miss(q)``.  As u <= 1 - 2^-53, no draw
    exceeds 1 + 53 ln 2 / q.
    """
    return [int(math.log1p(-u) / log_miss) + 1 for u in uniforms]


# relative half-width of the bracket ``geometric_rounds_array`` truncates at
NEAR_INTEGER = 2.0**-49


def geometric_rounds_array(uniforms: np.ndarray, log_miss: float) -> np.ndarray:
    """``geometric_rounds`` on an array of any shape, bit for bit.

    ``np.log1p`` can differ from ``math.log1p`` by an ulp, which changes the
    integer part only of a quotient q within a few ulps of an integer.  Each
    q is truncated at both ends of q (1 -/+ ``NEAR_INTEGER``); where the two
    differ, q lies within 2^-49 q of an integer, and ``geometric_rounds``
    redoes it.  That flags every q within 4 spacing(q) <= 2^-50 q of a
    nonzero integer; a zero quotient (u = 0) is exact either way.  At q = 1
    (``log_miss`` = -inf) every uniform maps to 1.
    """
    if log_miss == -math.inf:
        return np.ones(uniforms.shape, dtype=np.int64)
    quotient = np.negative(uniforms)
    np.log1p(quotient, out=quotient)
    quotient /= log_miss
    rounds = (quotient * (1.0 + NEAR_INTEGER)).astype(np.int64)
    quotient *= 1.0 - NEAR_INTEGER
    near = quotient.astype(np.int64) != rounds
    rounds += 1
    if near.any():
        rounds[near] = geometric_rounds(uniforms[near].tolist(), log_miss)
    return rounds


def sample_geometric(rng: np.random.Generator, q: float, size: int) -> list[int]:
    """``size`` geometric(q) numbers of attempts until first success.

    The uniforms come from one ``rng.random(size)`` call, which yields the
    same doubles as ``size`` scalar calls; they are drawn also at q = 1, so
    the draw count does not depend on q.
    """
    log_miss = geometric_log_miss(q)
    return geometric_rounds(rng.random(size).tolist(), log_miss)


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
