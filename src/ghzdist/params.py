"""Protocol parameters, read from a flat config file and from ``key = value``
settings by one parser, and reproducible randomness."""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
        if not 0.0 < self.q_bsm <= 1.0:
            raise ConfigError(f"q_bsm must be in (0, 1], got {self.q_bsm}")
        # the teleportation coin u < q_bsm^N draws u on a 2^-53 grid, so a
        # smaller q_bsm^N lands only at u = 0, with the wrong probability
        if self.q_bsm**self.n_end_nodes < 2.0**-53:
            raise ConfigError(
                f"q_bsm ** n_end_nodes is below 2**-53 (q_bsm = {self.q_bsm}, "
                f"n_end_nodes = {self.n_end_nodes}): a uniform draw cannot resolve "
                "the teleportation success probability"
            )
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


# numpy's SeedSequence (pool of 4 uint32 words): hashmix multiplies by a
# constant that starts at INIT_A and advances by MULT_A on every call, the
# output hash by one from INIT_B and MULT_B.  Neither chain depends on the
# data, so both are tabled.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# at most 6 entropy words (two per 64-bit value): 4 fills, 12 pool mixes and
# 4 mixes per word beyond the pool
_MAX_HASHMIX = _POOL + _POOL * (_POOL - 1) + _POOL * 2


def _constant_chain(init: int, mult: int, calls: int) -> np.ndarray:
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)


_HASH_A = _constant_chain(0x43B0D7E5, 0x931E8875, _MAX_HASHMIX)
_HASH_B = _constant_chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
# shots per cached block; a power of two, so a block never straddles 2**32
# and all its indices have the same number of entropy words
_SEED_BLOCK = 1024


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian uint32
    words, one word for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=4)
def _seed_block(seed: int, tag: int, block: int) -> np.ndarray:
    """``SeedSequence(entropy=(seed, s, tag)).generate_state(4, np.uint64)``
    for the shots s of one aligned block, one read-only row per shot."""
    first = block * _SEED_BLOCK
    shots = np.arange(first, first + _SEED_BLOCK, dtype=np.uint64)
    shot_words = [(shots & _MASK32).astype(np.uint32)]
    if first >> 32:
        shot_words.append((shots >> 32).astype(np.uint32))

    def const(word: int) -> np.ndarray:
        return np.full(_SEED_BLOCK, word, dtype=np.uint32)

    entropy = [
        *map(const, _uint32_words(seed)),
        *shot_words,
        *map(const, _uint32_words(tag)),
    ]
    calls = iter(range(_MAX_HASHMIX))

    def hashmix(value: np.ndarray) -> np.ndarray:
        k = next(calls)
        value = (value ^ _HASH_A[k]) * _HASH_A[k + 1]
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else const(0)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((_SEED_BLOCK, 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        value = (pool[i % _POOL] ^ _HASH_B[i]) * _HASH_B[i + 1]
        state[:, i] = value ^ (value >> 16)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


class _ShotSeed(ISeedSequence):
    """The four PCG64 seed words of one shot, hashed by ``_seed_block``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a shot seed holds exactly PCG64's 4 uint64 words")
        return self.words


def shot_rng(seed: int, shot_index: int, tag: int) -> np.random.Generator:
    """Counter-based per-shot stream.

    Identical (seed, shot_index, tag) gives the identical draw sequence no
    matter how shots are scheduled across workers.  The stream is
    ``Generator(PCG64(SeedSequence(entropy=(seed, shot_index, tag))))`` draw
    for draw; the SeedSequence hash is computed for a block of shots at a
    time, so ``bit_generator.seed_seq`` is not a SeedSequence and cannot
    ``spawn``.  Each argument must lie in [0, 2**64).
    """
    if not (0 <= seed < 2**64 and 0 <= shot_index < 2**64 and 0 <= tag < 2**64):
        args = {"seed": seed, "shot_index": shot_index, "tag": tag}
        name = next(name for name, value in args.items() if not 0 <= value < 2**64)
        raise ValueError(f"{name} must lie in [0, 2**64), got {args[name]}")
    block, row = divmod(shot_index, _SEED_BLOCK)
    words = _seed_block(seed, tag, block)[row]
    return np.random.Generator(np.random.PCG64(_ShotSeed(words)))


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


def longest_geometric_round(uniforms: Sequence[float], log_miss: float) -> int:
    """``max(geometric_rounds(uniforms, log_miss))`` from a single log: the
    inverse CDF is non-decreasing in u, so the largest uniform waits longest."""
    return int(math.log1p(-max(uniforms)) / log_miss) + 1


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
