"""Dense density matrices on small labeled qubit registers: the plain
reference that the oracles hold the engines to.  No engine calls them.

States live on an ordered register of labeled qubits (node, slot).  The only
channel is depolarizing; gates, measurements and Pauli corrections are
noiseless.  Matrices are stored densely, so the register is hard-capped at
MAX_QUBITS qubits.  Each operation has one implementation, and every result
is built by ``DensityMatrix``, which checks its labels and shape.  A real
(float64) matrix stays real through ``tensor``, ``permute``,
``partial_trace``, ``depolarize``, ``project_z``, ``fusion`` and ``fuse``,
and through ``apply_unitary`` with a real gate, which ``CNOT`` and every
Pauli correction are.

Conventions:
  * The register order is the label-list order; ``tensor`` appends.
  * Qubit 0 of the register is the most significant bit of the matrix index.
  * Bell basis: ``|phi_ij> = (1 (x) X^i Z^j) |phi_00>``.  A measurement
    outcome (i, j) is undone at the remote qubit by ``Z^j X^i``.
  * Every projection (``project_bell``, ``project_z``, ``bsm``'s post-state)
    goes through ``_project``; every gate through ``apply_unitary``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

MAX_QUBITS = 12

TRACE_TOL = 1e-10  # trace deviation and state-equality comparisons
HERM_TOL = 1e-12  # entrywise Hermiticity
PSD_TOL = 1e-10  # eigenvalue floor allowed in validate()

CNOT = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]
)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# row 2i + j: |phi_ij> over the computational basis |ab>
_BELL = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
) / np.sqrt(2.0)
# index 2i + j: Z^j X^i, which undoes Bell outcome (i, j)
_CORRECTIONS = (
    np.eye(2), np.diag([1.0, -1.0]), PAULI_X, np.array([[0.0, 1.0], [-1.0, 0.0]])
)


class RegisterError(ValueError):
    """Label collision, unknown label, or register overflow."""


class Qubit(NamedTuple):
    """Register label (node, slot).  Node 0 is the central node, 1..N are
    end nodes."""

    node: int
    slot: int = 0


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
    return DensityMatrix((a, b), np.outer(_BELL[0], _BELL[0].conj()))


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
    labels = a.labels + b.labels
    # checked before the product is formed, whose size grows as 4^k
    if len(labels) > MAX_QUBITS:
        raise RegisterError(f"register of {len(labels)} qubits exceeds cap {MAX_QUBITS}")
    dim = a.mat.shape[0] * b.mat.shape[0]
    out = a.mat[:, None, :, None] * b.mat[None, :, None, :]
    return DensityMatrix(labels, out.reshape(dim, dim))


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


def _depolarize_strided(mat: np.ndarray, pos: int, p: float) -> np.ndarray:
    """Single-qubit depolarizing of qubit ``pos`` on 6-D strided views."""
    dim = mat.shape[0]
    pre = 2**pos
    post = dim // (2 * pre)
    shape = (pre, 2, post, pre, 2, post)
    t = mat.reshape(shape)
    half = (0.5 * (1.0 - p)) * (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :])
    out = (p * mat).reshape(shape)
    out[:, 0, :, :, 0, :] += half
    out[:, 1, :, :, 1, :] += half
    return out.reshape(dim, dim)


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
        return DensityMatrix(dm.labels, _depolarize_strided(dm.mat, positions[0], p))
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
    if len(set(targets)) != len(targets):
        raise RegisterError(f"projection needs distinct qubits: {targets}")
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


def _project(
    dm: DensityMatrix, targets: tuple[Qubit, ...], v: np.ndarray
) -> tuple[float, DensityMatrix]:
    """Project ``targets`` onto |v>; they leave the register.  Returns the
    outcome probability and the normalized post-measurement state."""
    prob, reduced = _project_vector(dm, targets, v)
    if prob <= 0.0:
        raise ArithmeticError(f"projecting {targets} has outcome probability {prob}")
    kept = tuple(q for q in dm.labels if q not in targets)
    return prob, DensityMatrix(kept, reduced / prob)


def project_bell(
    dm: DensityMatrix, q_a: Qubit, q_b: Qubit, bits: tuple[int, int]
) -> tuple[float, DensityMatrix]:
    """Project (q_a, q_b) onto |phi_ij>, ``bits`` = (i, j); the pair leaves
    the register.  Returns the outcome probability and the normalized
    post-measurement state."""
    i, j = bits
    return _project(dm, (q_a, q_b), _BELL[2 * i + j])


def bsm(
    dm: DensityMatrix, q_a: Qubit, q_b: Qubit, u: float
) -> tuple[tuple[int, int], DensityMatrix]:
    """Bell-state measurement of (q_a, q_b), Born-sampled from the uniform
    ``u``: the first outcome (i, j) in the order 00, 01, 10, 11 whose
    cumulative probability exceeds u.  The pair leaves the register.  It never
    fails and is noiseless; success rules and input noise are the caller's."""
    probs = np.array([_project_vector(dm, (q_a, q_b), v)[0] for v in _BELL]).clip(0.0, None)
    if probs.sum() <= 0.0:
        raise ArithmeticError("all Bell outcomes have probability 0")
    idx = min(int(np.searchsorted(np.cumsum(probs / probs.sum()), u, side="right")), 3)
    return (idx >> 1, idx & 1), _project(dm, (q_a, q_b), _BELL[idx])[1]


def pauli_correct(dm: DensityMatrix, q: Qubit, bits: tuple[int, int]) -> DensityMatrix:
    """Undo the teleportation byproduct of Bell outcome ``bits`` = (i, j) by
    Z^j X^i on q."""
    i, j = bits
    return apply_unitary(dm, (q,), _CORRECTIONS[2 * i + j])


def project_z(dm: DensityMatrix, q: Qubit, bit: int) -> tuple[float, DensityMatrix]:
    """Project qubit q onto |bit>; q leaves the register."""
    return _project(dm, (q,), np.eye(2)[bit])


def fusion(
    dm: DensityMatrix, control: Qubit, target: Qubit,
    outcome: Callable[[float], int], flip: Sequence[Qubit] = (),
) -> tuple[float, int, DensityMatrix]:
    """CNOT(control -> target), then a Z measurement of the target that reads
    ``outcome(p0)``, p0 being its probability of reading 0, and on outcome 1
    X on each qubit of ``flip``.  Returns p0, the outcome and the normalized
    post-measurement state; the target leaves the register.

    ``flip`` must name distinct register qubits other than the target; it is
    checked whatever the outcome.
    """
    flip = tuple(flip)
    if control == target:
        raise RegisterError("fusion needs two distinct qubits")
    if target in flip:
        raise RegisterError(f"the measured qubit {target} cannot be flipped")
    if len(set(flip)) != len(flip) or not set(flip) <= set(dm.labels):
        raise RegisterError(f"flip set {flip} must name distinct qubits of {dm.labels}")
    rotated = apply_unitary(dm, (control, target), CNOT)
    red = partial_trace(rotated, tuple(q for q in rotated.labels if q != target))
    p0 = float(red.mat[0, 0].real)
    bit = outcome(p0)
    _, post = project_z(rotated, target, bit)
    if bit:
        for q in flip:
            post = apply_unitary(post, (q,), PAULI_X)
    return p0, bit, post


def fuse(
    dm: DensityMatrix, control: Qubit, target: Qubit, u: float,
    flip: Sequence[Qubit] = (),
) -> tuple[int, DensityMatrix]:
    """``fusion`` whose Z measurement reads 0 iff the uniform ``u`` is below
    p0: the outcome and the post-measurement state."""
    _, bit, post = fusion(dm, control, target, lambda p0: 0 if u < p0 else 1, flip)
    return bit, post


def fidelity_to_ghz(dm: DensityMatrix) -> float:
    """<GHZ| rho |GHZ> for the register's own qubit count (>= 2), read from
    the GHZ corner of rho: (rho[0, 0] + rho[-1, -1]) / 2 + Re rho[0, -1]."""
    if dm.num_qubits < 2:
        raise RegisterError("GHZ fidelity needs at least 2 qubits")
    m = dm.mat
    return float(0.5 * (m[0, 0].real + m[-1, -1].real) + m[0, -1].real)


def max_abs_diff(a: DensityMatrix, b: DensityMatrix) -> float:
    """Entrywise distance after aligning b's register order to a's."""
    b = permute(b, a.labels)
    return float(np.max(np.abs(a.mat - b.mat)))

