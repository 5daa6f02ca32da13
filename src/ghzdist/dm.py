"""Dense density-matrix engine for small labeled qubit registers.

States live on an ordered register of labeled qubits (node, slot).  The only
channel is depolarizing; gates, measurements and Pauli corrections are
noiseless.  Matrices are stored densely, so the register is hard-capped at
MAX_QUBITS qubits.  A real (float64) matrix stays real through ``tensor``,
``permute``, ``partial_trace``, ``depolarize``, ``fuse`` and the X flip.

Conventions:
  * The register order is the label-list order; ``tensor`` appends.
  * Qubit 0 of the register is the most significant bit of the matrix index.
  * Bell basis: ``|phi_ij> = (1 (x) X^i Z^j) |phi_00>``.  A measurement
    outcome (i, j) is undone at the remote qubit by ``Z^j X^i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

MAX_QUBITS = 12

TRACE_TOL = 1e-10  # trace deviation and state-equality comparisons
HERM_TOL = 1e-12  # entrywise Hermiticity
PSD_TOL = 1e-10  # eigenvalue floor allowed in validate()
# tensor writes one scaled copy of a per entry of b once a has this many
# times b's dimension; below it the plain broadcast is faster
TENSOR_LOOP_RATIO = 8

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class Qubit(NamedTuple):
    """Register label.  Node 0 is the central node, 1..N are end nodes."""

    node: int
    slot: int = 0


class RegisterError(ValueError):
    """Label collision, unknown label, or register overflow."""


class BsmOutcome(NamedTuple):
    """Result of a Bell-state measurement; ``bits`` is meaningful only on success."""

    bits: tuple[int, int]
    succeeded: bool


def _make_bell_vector(i: int, j: int) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0b00 | i] = 1.0
    v[0b10 | (1 - i)] = -1.0 if j else 1.0
    return v / np.sqrt(2.0)


_BELL_VECTORS = tuple(
    tuple(_make_bell_vector(i, j) for j in (0, 1)) for i in (0, 1)
)


def bell_vector(i: int, j: int) -> np.ndarray:
    """State vector of |phi_ij> over the computational basis |ab>."""
    return _BELL_VECTORS[i][j]


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix over an ordered register of labeled qubits.

    Plain data: operations return new instances and never mutate.
    """

    labels: tuple[Qubit, ...]
    mat: np.ndarray

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise RegisterError(f"duplicate qubit labels: {self.labels}")
        if len(self.labels) > MAX_QUBITS:
            raise RegisterError(
                f"register of {len(self.labels)} qubits exceeds cap {MAX_QUBITS}"
            )
        dim = 2 ** len(self.labels)
        if self.mat.shape != (dim, dim):
            raise RegisterError(
                f"matrix shape {self.mat.shape} does not match {len(self.labels)} qubits"
            )

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def pos(self, q: Qubit) -> int:
        try:
            return self.labels.index(q)
        except ValueError:
            raise RegisterError(f"qubit {q} not in register {self.labels}") from None

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def validate(self, psd: bool = False, context: str = "") -> None:
        """Assert trace, Hermiticity and (optionally) positive semidefiniteness.

        PSD needs an eigendecomposition, so it is opt-in and meant for tests
        and the verification runner, not for hot loops.
        """
        where = f" ({context})" if context else ""
        tr = np.trace(self.mat)
        if abs(tr - 1.0) > TRACE_TOL:
            raise AssertionError(f"trace {tr} deviates from 1{where}")
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > HERM_TOL:
            raise AssertionError(f"Hermiticity violated by {herm}{where}")
        if psd:
            lo = float(np.linalg.eigvalsh(self.mat).min())
            if lo < -PSD_TOL:
                raise AssertionError(f"negative eigenvalue {lo}{where}")


def _tensor_view(dm: DensityMatrix) -> np.ndarray:
    k = dm.num_qubits
    return dm.mat.reshape((2,) * (2 * k))


def make_bell(a: Qubit = Qubit(0, 0), b: Qubit = Qubit(1, 0)) -> DensityMatrix:
    """Pure |phi_00> = (|00> + |11>)/sqrt(2) on qubits (a, b)."""
    v = bell_vector(0, 0)
    return DensityMatrix((a, b), np.outer(v, v.conj()))


def make_ghz(n: int, labels: Sequence[Qubit] | None = None) -> DensityMatrix:
    """Pure n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2), n >= 2."""
    if n < 2:
        raise ValueError(f"GHZ state needs at least 2 qubits, got {n}")
    if labels is None:
        labels = tuple(Qubit(i + 1, 0) for i in range(n))
    labels = tuple(labels)
    if len(labels) != n:
        raise RegisterError(f"expected {n} labels, got {len(labels)}")
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for r in (0, dim - 1):
        for c in (0, dim - 1):
            mat[r, c] = 0.5
    return DensityMatrix(labels, mat)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; b's register is appended to a's."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise RegisterError(f"label collision in tensor: {sorted(overlap)}")
    da, db = a.mat.shape[0], b.mat.shape[0]
    if da >= TENSOR_LOOP_RATIO * db:
        # the broadcast's inner loop would span only b's columns; one scaled
        # copy of a per entry of b forms the same products in long runs
        out = np.empty((da, db, da, db), dtype=np.result_type(a.mat, b.mat))
        for j in range(db):
            for k in range(db):
                out[:, j, :, k] = a.mat * b.mat[j, k]
    else:
        out = a.mat[:, None, :, None] * b.mat[None, :, None, :]
    return DensityMatrix(a.labels + b.labels, out.reshape(da * db, da * db))


def permute(dm: DensityMatrix, new_labels: Sequence[Qubit]) -> DensityMatrix:
    """Reorder the register to ``new_labels`` (same label set)."""
    new_labels = tuple(new_labels)
    if set(new_labels) != set(dm.labels) or len(new_labels) != dm.num_qubits:
        raise RegisterError(f"cannot permute {dm.labels} to {new_labels}")
    if new_labels == dm.labels:
        return dm
    k = dm.num_qubits
    perm = [dm.pos(q) for q in new_labels]
    t = _tensor_view(dm).transpose(perm + [k + p for p in perm])
    return DensityMatrix(new_labels, t.reshape(2**k, 2**k).copy())


def partial_trace(dm: DensityMatrix, targets: Sequence[Qubit]) -> DensityMatrix:
    """Trace out ``targets``; remaining labels keep their order."""
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise RegisterError(f"duplicate trace targets: {targets}")
    positions = sorted(dm.pos(q) for q in targets)
    k = dm.num_qubits
    t = _tensor_view(dm)
    for n_done, p in enumerate(positions):
        kk = k - n_done
        pp = p - n_done
        t = np.trace(t, axis1=pp, axis2=kk + pp)
    kept = tuple(q for q in dm.labels if q not in targets)
    dim = 2 ** len(kept)
    return DensityMatrix(kept, t.reshape(dim, dim))


def apply_unitary(
    dm: DensityMatrix, targets: Sequence[Qubit], u: np.ndarray
) -> DensityMatrix:
    """Apply a unitary on ``targets`` (in the given order): rho -> U rho U+."""
    targets = tuple(targets)
    k = dm.num_qubits
    m = len(targets)
    positions = [dm.pos(q) for q in targets]
    ut = u.reshape((2,) * (2 * m))
    t = _tensor_view(dm)
    t = np.tensordot(ut, t, axes=(list(range(m, 2 * m)), positions))
    t = np.moveaxis(t, range(m), positions)
    cpos = [k + p for p in positions]
    t = np.tensordot(ut.conj(), t, axes=(list(range(m, 2 * m)), cpos))
    t = np.moveaxis(t, range(m), cpos)
    return DensityMatrix(dm.labels, t.reshape(2**k, 2**k))


def _depolarize_one(dm: DensityMatrix, pos: int, p: float) -> DensityMatrix:
    """Single-qubit depolarizing via direct index arithmetic (hot path)."""
    k = dm.num_qubits
    pre = 2**pos
    post = 2 ** (k - pos - 1)
    shape = (pre, 2, post, pre, 2, post)
    t = dm.mat.reshape(shape)
    half = (0.5 * (1.0 - p)) * (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :])
    out = (p * dm.mat).reshape(shape)
    out[:, 0, :, :, 0, :] += half
    out[:, 1, :, :, 1, :] += half
    return DensityMatrix(dm.labels, out.reshape(2**k, 2**k))


def depolarize(
    dm: DensityMatrix, targets: Sequence[Qubit], p: float
) -> DensityMatrix:
    """Depolarizing channel on a qubit subset.

    D(rho) = p rho + (1 - p) Tr_targets(rho) (x) 1 / 2^m, re-embedded at the
    targets' register positions.  p = 1 is the identity channel.
    """
    targets = tuple(targets)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    if len(set(targets)) != len(targets):
        raise RegisterError(f"duplicate channel targets: {targets}")
    positions = [dm.pos(q) for q in targets]
    if p == 1.0 or not targets:
        return dm
    m = len(targets)
    if m == 1:
        return _depolarize_one(dm, positions[0], p)
    if m == dm.num_qubits:
        dim = 2**m
        mixed = np.eye(dim) * (dm.trace() / dim)
        return DensityMatrix(dm.labels, p * dm.mat + (1.0 - p) * mixed)
    rest = partial_trace(dm, targets)
    mixed = DensityMatrix(targets, np.eye(2**m) / 2**m)
    rebuilt = permute(tensor(rest, mixed), dm.labels)
    return DensityMatrix(dm.labels, p * dm.mat + (1.0 - p) * rebuilt.mat)


def _project_vector(
    dm: DensityMatrix, targets: Sequence[Qubit], v: np.ndarray
) -> tuple[float, np.ndarray]:
    """Partial inner product <v| rho |v> over ``targets``.

    Returns the (unnormalized) reduced matrix on the remaining qubits and its
    trace, which is the outcome probability.
    """
    k = dm.num_qubits
    m = len(targets)
    positions = [dm.pos(q) for q in targets]
    vt = v.reshape((2,) * m)
    t = _tensor_view(dm)
    t = np.tensordot(vt.conj(), t, axes=(list(range(m)), positions))
    cpos = [k - m + p for p in positions]
    t = np.tensordot(vt, t, axes=(list(range(m)), cpos))
    dim = 2 ** (k - m)
    reduced = t.reshape(dim, dim)
    return float(np.trace(reduced).real), reduced


def project_bell(
    dm: DensityMatrix, q_a: Qubit, q_b: Qubit, bits: tuple[int, int]
) -> tuple[float, DensityMatrix]:
    """Project (q_a, q_b) onto |phi_ij>; the pair leaves the register.

    Returns the outcome probability and the normalized post-measurement state.
    """
    if q_a == q_b:
        raise RegisterError("Bell projection needs two distinct qubits")
    prob, reduced = _project_vector(dm, (q_a, q_b), bell_vector(*bits))
    if prob <= 0.0:
        raise ArithmeticError(f"Bell outcome {bits} has probability {prob}")
    kept = tuple(q for q in dm.labels if q not in (q_a, q_b))
    return prob, DensityMatrix(kept, reduced / prob)


def bell_probabilities(dm: DensityMatrix, q_a: Qubit, q_b: Qubit) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on (q_a, q_b)."""
    red = partial_trace(dm, tuple(q for q in dm.labels if q not in (q_a, q_b)))
    red = permute(red, (q_a, q_b))
    probs = np.empty(4)
    for i in (0, 1):
        for j in (0, 1):
            v = bell_vector(i, j)
            probs[2 * i + j] = float((v.conj() @ red.mat @ v).real)
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0.0:
        raise ArithmeticError("all Bell outcomes have probability 0")
    return probs / total


def bsm(
    dm: DensityMatrix,
    q_a: Qubit,
    q_b: Qubit,
    q_bsm: float,
    rng: np.random.Generator,
) -> tuple[BsmOutcome, DensityMatrix]:
    """Probabilistic Bell-state measurement of (q_a, q_b).

    With probability 1 - q_bsm a fail flag is raised and the state is returned
    unchanged (resets are the caller's business).  Otherwise one of the four
    Bell outcomes is sampled by the Born rule and the measured pair leaves the
    register.  The measurement itself is noiseless; depolarizing the inputs is
    up to the caller.
    """
    if q_bsm < 1.0 and rng.random() >= q_bsm:
        return BsmOutcome((0, 0), False), dm
    probs = bell_probabilities(dm, q_a, q_b)
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    idx = min(idx, 3)
    bits = (idx >> 1, idx & 1)
    _, post = project_bell(dm, q_a, q_b, bits)
    return BsmOutcome(bits, True), post


def apply_pauli_x(dm: DensityMatrix, *qubits: Qubit) -> DensityMatrix:
    """X on each of ``qubits``: one gather of rows and columns at the indices
    XORed with the qubits' bit mask."""
    k = dm.num_qubits
    mask = 0
    for q in qubits:
        mask |= 1 << (k - 1 - dm.pos(q))
    idx = np.arange(2**k) ^ mask
    return DensityMatrix(dm.labels, dm.mat.take(idx, axis=0).take(idx, axis=1))


def apply_pauli_z(dm: DensityMatrix, q: Qubit) -> DensityMatrix:
    """Z on one qubit: sign flip of the off-diagonal blocks."""
    k = dm.num_qubits
    pos = dm.pos(q)
    pre = 2**pos
    post = 2 ** (k - pos - 1)
    out = dm.mat.copy().reshape(pre, 2, post, pre, 2, post)
    out[:, 0, :, :, 1, :] *= -1.0
    out[:, 1, :, :, 0, :] *= -1.0
    return DensityMatrix(dm.labels, out.reshape(2**k, 2**k))


def pauli_correct(
    dm: DensityMatrix, q: Qubit, outcome: BsmOutcome
) -> DensityMatrix:
    """Undo the teleportation byproduct of ``outcome`` by Z^j X^i on q."""
    if not outcome.succeeded:
        raise ValueError("cannot correct a failed BSM outcome")
    i, j = outcome.bits
    if i:
        dm = apply_pauli_x(dm, q)
    if j:
        dm = apply_pauli_z(dm, q)
    return dm


def project_z(
    dm: DensityMatrix, q: Qubit, bit: int
) -> tuple[float, DensityMatrix]:
    """Project qubit q onto |bit>; q leaves the register."""
    v = np.zeros(2, dtype=complex)
    v[bit] = 1.0
    prob, reduced = _project_vector(dm, (q,), v)
    if prob <= 0.0:
        raise ArithmeticError(f"Z outcome {bit} has probability {prob}")
    kept = tuple(lbl for lbl in dm.labels if lbl != q)
    return prob, DensityMatrix(kept, reduced / prob)


@lru_cache(maxsize=None)
def _fusion_indices(k: int, c: int, t: int, bit: int) -> np.ndarray:
    """Full-register indices that CNOT(c -> t) followed by the Z readout
    ``bit`` of t keeps, listed in the order of the reduced basis (t removed).

    Each keeps its other bits and carries t = (bit of c) XOR ``bit``.
    Cached per register shape; the returned array is read-only.
    """
    reduced = np.arange(2 ** (k - 1))
    low = k - 1 - t  # bits below the target in the full index
    c_shift = k - 2 - (c if c < t else c - 1)  # control's bit in the reduced index
    t_bit = ((reduced >> c_shift) & 1) ^ bit
    high = reduced >> low
    idx = (high << (low + 1)) | (t_bit << low) | (reduced & ((1 << low) - 1))
    idx.flags.writeable = False
    return idx


def fuse(
    dm: DensityMatrix, control: Qubit, target: Qubit, rng: np.random.Generator
) -> tuple[int, DensityMatrix]:
    """CNOT(control -> target) followed by a Z measurement of the target.

    The target leaves the register and the state is renormalized.  The
    outcome-dependent Pauli corrections of the fusion protocol are up to the
    caller.  Gate and measurement are noiseless.  The CNOT only permutes basis
    states, so each outcome's state is a gather of the entries it keeps.
    """
    if control == target:
        raise RegisterError("fusion needs two distinct qubits")
    k, c, t = dm.num_qubits, dm.pos(control), dm.pos(target)
    diag = dm.mat.diagonal().real
    p0 = min(max(float(diag[_fusion_indices(k, c, t, 0)].sum()), 0.0), 1.0)
    bit = 0 if rng.random() < p0 else 1
    idx = _fusion_indices(k, c, t, bit)
    post = dm.mat.take(idx, axis=0).take(idx, axis=1)
    prob = float(np.trace(post).real)
    if prob <= 0.0:
        raise ArithmeticError(f"Z outcome {bit} has probability {prob}")
    post /= prob
    kept = tuple(q for q in dm.labels if q != target)
    return bit, DensityMatrix(kept, post)


@lru_cache(maxsize=None)
def _basis_bits(k: int) -> np.ndarray:
    """Bit q of every basis index of a k-qubit register, qubit 0 most
    significant: a read-only (2^k, k) boolean table."""
    bits = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(bool)
    bits.flags.writeable = False
    return bits


def fidelity_to_ghz(
    dm: DensityMatrix, pending: Sequence[float] | None = None
) -> float:
    """<GHZ| D(rho) |GHZ> for the register's own qubit count (>= 2), where D
    depolarizes each register qubit q by ``pending[q]`` (default: no channel).

    A local depolarizing channel maps the diagonal to the diagonal and scales
    the corner rho_{0..0,1..1} by d_q, so this is one pass over the diagonal:
    (1/2) sum_x rho_xx [prod_q (1 +- d_q)/2 + prod_q (1 -+ d_q)/2]
    + Re rho_{0..0,1..1} prod_q d_q, the upper sign where x_q = 0.  The
    second product at x is the first at the complement of x, which is the
    reversed diagonal's entry.
    """
    k = dm.num_qubits
    if k < 2:
        raise RegisterError("GHZ fidelity needs at least 2 qubits")
    d = np.ones(k) if pending is None else np.asarray(pending, dtype=float)
    if d.shape != (k,):
        raise RegisterError(f"{len(d)} depolarizing parameters for {dm.labels}")
    weight = np.where(_basis_bits(k), (1.0 - d) / 2.0, (1.0 + d) / 2.0).prod(axis=1)
    diag = dm.mat.diagonal().real
    return float(0.5 * ((diag + diag[::-1]) @ weight) + dm.mat[0, -1].real * d.prod())


def structured_state(
    p_ghz: float,
    p: Sequence[float],
    labels: Sequence[Qubit] | None = None,
) -> DensityMatrix:
    """GHZ state after global depolarizing p_ghz and per-qubit depolarizing p_i.

    Built as the explicit subset sum: a maximally mixed part, the surviving
    GHZ part, and for every proper nonempty subset U of depolarized qubits a
    classically correlated term (1/2) 1_U (x) P on the rest, where
    P = |0...0><0...0| + |1...1><1...1|.
    """
    n = len(p)
    if n < 2:
        raise ValueError("structured_state needs at least 2 qubits")
    if not 0.0 <= p_ghz <= 1.0 or any(not 0.0 <= pi <= 1.0 for pi in p):
        raise ValueError("depolarizing parameters must lie in [0, 1]")
    if labels is None:
        labels = tuple(Qubit(i + 1, 0) for i in range(n))
    dim = 2**n
    p = np.asarray(p, dtype=float)

    diag = np.full(dim, (1.0 - p_ghz) / dim)
    prod_lost = float(np.prod((1.0 - p) / 2.0))
    diag += p_ghz * prod_lost

    basis = np.arange(dim)
    bits = ((basis[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1).astype(bool)
    for mask in range(1, dim - 1):
        in_u = np.array([bool((mask >> (n - 1 - i)) & 1) for i in range(n)])
        coeff = 0.5 * p_ghz * float(np.prod(np.where(in_u, (1.0 - p) / 2.0, p)))
        rest = bits[:, ~in_u]
        aligned = np.all(rest, axis=1) | np.all(~rest, axis=1)
        diag[aligned] += coeff

    mat = np.diag(diag.astype(complex))
    ghz_coeff = p_ghz * float(np.prod(p))
    for r in (0, dim - 1):
        for c in (0, dim - 1):
            mat[r, c] += ghz_coeff * 0.5
    return DensityMatrix(tuple(labels), mat)


def max_abs_diff(a: DensityMatrix, b: DensityMatrix) -> float:
    """Entrywise distance after aligning b's register order to a's."""
    b = permute(b, a.labels)
    return float(np.max(np.abs(a.mat - b.mat)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) tr |a - b| for Hermitian a, b on the same register."""
    b = permute(b, a.labels)
    eig = np.linalg.eigvalsh(a.mat - b.mat)
    return float(0.5 * np.abs(eig).sum())
