"""Dense density-matrix engine for small labeled qubit registers.

States live on an ordered register of labeled qubits (node, slot).  The only
channel is depolarizing; gates, measurements and Pauli corrections are
noiseless.  Matrices are stored densely, so the register is hard-capped at
MAX_QUBITS qubits.  A real (float64) matrix stays real through ``tensor``,
``permute``, ``partial_trace``, ``depolarize``, ``fuse`` and the X flip.

Single-qubit depolarizing, the switch's hot channel, has two kernels with
the same arithmetic in the same order, so the same bits.  Up to
DEPOLARIZE_GATHER_MAX_QUBITS qubits it is one gather and two scatters
through cached flat-index tables, which costs about half the per-call
overhead of strided views on the small groups the switch keeps.  Above
it the 6-D strided views are faster, and the tables, which grow as 4^k,
are never built.

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
# single-qubit depolarize gathers through flat-index tables up to this many
# qubits; above it the strided views are faster and no table is built
DEPOLARIZE_GATHER_MAX_QUBITS = 6

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


class Qubit(NamedTuple):
    """Register label.  Node 0 is the central node, 1..N are end nodes."""

    node: int
    slot: int = 0


class RegisterError(ValueError):
    """Label collision, unknown label, or register overflow."""


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


def _trusted(labels: tuple[Qubit, ...], mat: np.ndarray) -> DensityMatrix:
    """A kernel's result, not re-checked by ``__post_init__``: its labels are
    the input's, the input's minus one, or a checked concatenation."""
    dm = object.__new__(DensityMatrix)
    object.__setattr__(dm, "labels", labels)
    object.__setattr__(dm, "mat", mat)
    return dm


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
    labels = a.labels + b.labels
    if len(labels) > MAX_QUBITS:
        raise RegisterError(f"register of {len(labels)} qubits exceeds cap {MAX_QUBITS}")
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
    return _trusted(labels, out.reshape(da * db, da * db))


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


@lru_cache(maxsize=None)
def _pair_entries(k: int, pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row-major) indices of the k-qubit entries whose row and column
    both have qubit ``pos`` at 0, and of their partners with it at 1 in both.

    Cached per register shape; the returned arrays are read-only.
    """
    dim = 2**k
    bit = 1 << (k - 1 - pos)
    free = np.arange(dim)
    free = free[free & bit == 0]
    zero = (free[:, None] * dim + free[None, :]).ravel()
    one = zero + bit * (dim + 1)
    zero.flags.writeable = False
    one.flags.writeable = False
    return zero, one


def _depolarize_gather(mat: np.ndarray, pos: int, p: float) -> np.ndarray:
    """Single-qubit depolarizing as one gather and two scatters through the
    cached flat-index tables: low per-call overhead on small registers."""
    zero, one = _pair_entries(mat.shape[0].bit_length() - 1, pos)
    flat = mat.ravel()
    half = (0.5 * (1.0 - p)) * (flat[zero] + flat[one])
    out = np.multiply(p, mat, order="C")
    flat_out = out.reshape(-1)
    flat_out[zero] += half
    flat_out[one] += half
    return out


def _depolarize_strided(mat: np.ndarray, pos: int, p: float) -> np.ndarray:
    """Single-qubit depolarizing on 6-D strided views: no index tables, and
    faster than the gather on large registers."""
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


def _depolarize_one(dm: DensityMatrix, pos: int, p: float) -> DensityMatrix:
    """Single-qubit depolarizing by the kernel that is faster at the
    register's size (hot path)."""
    if dm.num_qubits <= DEPOLARIZE_GATHER_MAX_QUBITS:
        return _trusted(dm.labels, _depolarize_gather(dm.mat, pos, p))
    return _trusted(dm.labels, _depolarize_strided(dm.mat, pos, p))


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
    rest = partial_trace(dm, targets)
    mixed = DensityMatrix(targets, np.eye(2**m) / 2**m)
    rebuilt = permute(tensor(rest, mixed), dm.labels)
    return _trusted(dm.labels, p * dm.mat + (1.0 - p) * rebuilt.mat)


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


def project_bell(
    dm: DensityMatrix, q_a: Qubit, q_b: Qubit, bits: tuple[int, int]
) -> tuple[float, DensityMatrix]:
    """Project (q_a, q_b) onto |phi_ij>; the pair leaves the register.

    Returns the outcome probability and the normalized post-measurement state.
    """
    prob, reduced = _project_vector(dm, (q_a, q_b), bell_vector(*bits))
    if prob <= 0.0:
        raise ArithmeticError(f"Bell outcome {bits} has probability {prob}")
    kept = tuple(q for q in dm.labels if q not in (q_a, q_b))
    return prob, DensityMatrix(kept, reduced / prob)


def bsm(
    dm: DensityMatrix, q_a: Qubit, q_b: Qubit, u: float
) -> tuple[tuple[int, int], DensityMatrix]:
    """Bell-state measurement of (q_a, q_b), Born-sampled from the uniform
    ``u``: the first outcome (i, j) in the order 00, 01, 10, 11 whose
    cumulative probability exceeds u.  The pair leaves the register.  It never
    fails and is noiseless; success rules and input noise are the caller's."""
    probs = np.array([_project_vector(dm, (q_a, q_b), bell_vector(i, j))[0]
                      for i in (0, 1) for j in (0, 1)]).clip(0.0, None)
    if probs.sum() <= 0.0:
        raise ArithmeticError("all Bell outcomes have probability 0")
    idx = min(int(np.searchsorted(np.cumsum(probs / probs.sum()), u, side="right")), 3)
    bits = (idx >> 1, idx & 1)
    return bits, project_bell(dm, q_a, q_b, bits)[1]


def apply_pauli_x(dm: DensityMatrix, *qubits: Qubit) -> DensityMatrix:
    """X on each of ``qubits``: one gather of rows and columns at the indices
    XORed with the qubits' bit mask."""
    k = dm.num_qubits
    mask = 0
    for q in qubits:
        mask |= 1 << (k - 1 - dm.pos(q))
    idx = np.arange(2**k) ^ mask
    return _trusted(dm.labels, dm.mat.take(idx, axis=0).take(idx, axis=1))


def apply_pauli_z(dm: DensityMatrix, q: Qubit) -> DensityMatrix:
    """Z on one qubit: sign flip of the off-diagonal blocks."""
    k = dm.num_qubits
    pos = dm.pos(q)
    pre = 2**pos
    post = 2 ** (k - pos - 1)
    out = dm.mat.copy().reshape(pre, 2, post, pre, 2, post)
    out[:, 0, :, :, 1, :] *= -1.0
    out[:, 1, :, :, 0, :] *= -1.0
    return _trusted(dm.labels, out.reshape(2**k, 2**k))


def pauli_correct(dm: DensityMatrix, q: Qubit, bits: tuple[int, int]) -> DensityMatrix:
    """Undo the teleportation byproduct of Bell outcome ``bits`` = (i, j) by
    Z^j X^i on q."""
    i, j = bits
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
    return prob, _trusted(kept, reduced / prob)


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
    dm: DensityMatrix, control: Qubit, target: Qubit, u: float,
    flip: Sequence[Qubit] = (),
) -> tuple[int, DensityMatrix]:
    """CNOT(control -> target) followed by a Z measurement of the target,
    which reads 0 iff the uniform ``u`` is below its probability p0, and on
    outcome 1 the protocol's correction, X on each qubit of ``flip``.

    The target leaves the register and the state is renormalized.  All three
    are noiseless and only permute basis states, so the state is one gather
    of the entries it keeps, with the X folded in by XOR-ing the gather
    indices; the outcome probability is summed from the diagonal before it.
    """
    if control == target:
        raise RegisterError("fusion needs two distinct qubits")
    k, c, t = dm.num_qubits, dm.pos(control), dm.pos(target)
    diag = dm.mat.diagonal().real
    p0 = min(max(float(diag[_fusion_indices(k, c, t, 0)].sum()), 0.0), 1.0)
    bit = 0 if u < p0 else 1
    idx = _fusion_indices(k, c, t, bit)
    prob = float(diag[idx].sum())
    if prob <= 0.0:
        raise ArithmeticError(f"Z outcome {bit} has probability {prob}")
    if bit and flip:
        if target in flip:
            raise RegisterError(f"the measured qubit {target} cannot be flipped")
        # X on the control also flips the target bit the CNOT wrote
        flipped = {*flip, target} if control in flip else set(flip)
        idx = idx ^ sum(1 << (k - 1 - dm.pos(q)) for q in flipped)
    post = dm.mat.take(idx, axis=0).take(idx, axis=1)
    post /= prob
    return bit, _trusted(tuple(q for q in dm.labels if q != target), post)


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


def max_abs_diff(a: DensityMatrix, b: DensityMatrix) -> float:
    """Entrywise distance after aligning b's register order to a's."""
    b = permute(b, a.labels)
    return float(np.max(np.abs(a.mat - b.mat)))

