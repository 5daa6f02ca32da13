"""Density-matrix engine: constructors, channels, measurements, identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzdist import dm as dmod
from ghzdist.dm import (
    DensityMatrix,
    Qubit,
    RegisterError,
    apply_unitary,
    bsm,
    depolarize,
    fidelity_to_ghz,
    fuse,
    fusion,
    make_bell,
    make_ghz,
    partial_trace,
    pauli_correct,
    permute,
    project_bell,
    project_z,
    tensor,
)


def random_state(rng, k, labels=None):
    dim = 2**k
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    if labels is None:
        labels = tuple(Qubit(70 + i, 0) for i in range(k))
    return DensityMatrix(tuple(labels), mat)


class TestConstructors:
    def test_bell_is_ghz2(self):
        np.testing.assert_allclose(make_bell().mat, make_ghz(2).mat)

    def test_bell_self_fidelity(self):
        assert fidelity_to_ghz(make_bell()) == pytest.approx(1.0, abs=1e-12)

    def test_traces(self):
        assert np.trace(make_bell().mat) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(make_ghz(5).mat) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_overlap(self):
        assert fidelity_to_ghz(make_ghz(3)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_needs_two_qubits(self):
        with pytest.raises(ValueError):
            make_ghz(1)

    def test_register_cap(self):
        # the cap is checked before the matrix, so a zero-cost view of the
        # 13-qubit shape stands in for a 1 GiB one
        with pytest.raises(RegisterError):
            DensityMatrix(
                tuple(Qubit(i, 0) for i in range(13)),
                np.broadcast_to(np.zeros((), dtype=complex), (2**13, 2**13)),
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(RegisterError):
            DensityMatrix((Qubit(1, 0), Qubit(1, 0)), np.eye(4, dtype=complex) / 4)

    def test_wrong_shape_rejected(self):
        with pytest.raises(RegisterError):
            DensityMatrix((Qubit(1, 0), Qubit(2, 0)), np.eye(8) / 8)

    def test_tensor_over_the_cap_rejected(self, monkeypatch):
        # tensor checks the cap before it forms the product (the cap is
        # lowered here, so the rejected register costs nothing)
        monkeypatch.setattr(dmod, "MAX_QUBITS", 3)
        with pytest.raises(RegisterError, match="exceeds cap 3"):
            tensor(make_bell(Qubit(1, 0), Qubit(2, 0)), make_bell(Qubit(3, 0), Qubit(4, 0)))


class TestUncheckedResults:
    """Every kernel builds its result through the constructor, so each result
    has passed the label, cap and shape checks and equals the validated
    construction of its labels and matrix. The case ids keep the names of the
    kernel paths these inputs once took (a gather and a strided one-qubit
    depolarize, a copy-loop and a broadcast tensor); one path serves each now."""

    @pytest.mark.parametrize(
        "k, kernel",
        [
            (4, lambda s: depolarize(s, (s.labels[1],), 0.3)),
            (7, lambda s: depolarize(s, (s.labels[1],), 0.3)),
            (4, lambda s: depolarize(s, s.labels[1:3], 0.3)),
            (4, lambda s: fuse(s, s.labels[0], s.labels[2], 0.7, (s.labels[1],))[1]),
            (4, lambda s: project_z(s, s.labels[1], 1)[1]),
            (4, lambda s: project_bell(s, s.labels[3], s.labels[1], (1, 0))[1]),
            (4, lambda s: tensor(s, make_bell(*PAIR))),
            (2, lambda s: tensor(make_bell(*PAIR), s)),
        ],
        ids=["depolarize-gather", "depolarize-strided", "depolarize-two", "fuse",
             "project-z", "project-bell", "tensor-loop", "tensor-broadcast"],
    )
    def test_result_equals_validated_construction(self, monkeypatch, k, kernel):
        state = real_state(np.random.default_rng(50 + k), k)
        checked = []
        check = DensityMatrix.__post_init__

        def recording_check(dm):
            check(dm)
            checked.append(dm)

        monkeypatch.setattr(DensityMatrix, "__post_init__", recording_check)
        out = kernel(state)
        assert any(dm is out for dm in checked)
        monkeypatch.undo()
        validated = DensityMatrix(out.labels, out.mat)
        assert type(out) is DensityMatrix and out.labels == validated.labels
        assert out.mat is validated.mat and out.mat.shape == (2**len(out.labels),) * 2


class TestDepolarize:
    def test_p_one_is_identity(self):
        ghz = make_ghz(3)
        out = depolarize(ghz, ghz.labels, 1.0)
        np.testing.assert_array_equal(out.mat, ghz.mat)

    def test_p_zero_maximally_mixes(self):
        bell = make_bell()
        out = depolarize(bell, bell.labels, 0.0)
        np.testing.assert_allclose(out.mat, np.eye(4) / 4, atol=1e-15)
        assert fidelity_to_ghz(out) == pytest.approx(0.25, abs=1e-12)

    def test_unknown_target(self):
        with pytest.raises(RegisterError):
            depolarize(make_bell(), (Qubit(9, 9),), 0.5)

    def test_composition_law(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            state = random_state(rng, k)
            q = state.labels[int(rng.integers(k))]
            p1, p2 = rng.random(), rng.random()
            twice = depolarize(depolarize(state, (q,), p1), (q,), p2)
            once = depolarize(state, (q,), p1 * p2)
            worst = max(worst, dmod.max_abs_diff(twice, once))
        assert worst < 1e-12

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            state = random_state(rng, 3)
            out = depolarize(state, state.labels[:2], rng.random())
            out.validate(psd=True)

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_single_qubit_matches_definition(self, k, dtype):
        # p rho + (1 - p) Tr_q(rho) (x) 1/2, re-embedded at q's position
        rng = np.random.default_rng(40 + k)
        state = random_state(rng, k)
        if dtype is float:
            state = DensityMatrix(state.labels, state.mat.real.copy())
        p = 0.37
        for q in state.labels:
            out = depolarize(state, (q,), p)
            assert out.mat.dtype == dtype
            mixed = DensityMatrix((q,), np.eye(2) / 2)
            rebuilt = permute(tensor(partial_trace(state, (q,)), mixed), state.labels)
            expected = p * state.mat + (1.0 - p) * rebuilt.mat
            np.testing.assert_allclose(out.mat, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 6, 7])
    @pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
    def test_single_qubit_ignores_memory_layout(self, k, layout):
        # the result equals the one for a row-major copy, whatever the input
        rng = np.random.default_rng(60 + k)
        dim = 2**k
        odd = {
            "fortran": lambda: np.asfortranarray(rng.normal(size=(dim, dim))),
            "transposed": lambda: rng.normal(size=(dim, dim)).T,
            "strided": lambda: rng.normal(size=(2 * dim, 2 * dim))[::2, 1::2],
        }[layout]()
        assert not odd.flags.c_contiguous
        labels = tuple(Qubit(80 + i, 0) for i in range(k))
        for q in labels:
            out = depolarize(DensityMatrix(labels, odd), (q,), 0.61)
            ref = depolarize(DensityMatrix(labels, np.ascontiguousarray(odd)), (q,), 0.61)
            assert (out.mat == ref.mat).all()

    def test_duplicate_targets_rejected(self):
        ghz = make_ghz(3)
        with pytest.raises(RegisterError):
            depolarize(ghz, (ghz.labels[0], ghz.labels[0]), 0.5)
        with pytest.raises(RegisterError):
            partial_trace(ghz, (ghz.labels[1], ghz.labels[1]))

    def test_every_operation_preserves_state_health(self):
        # trace within 1e-10 and Hermiticity within 1e-12 after channels,
        # gates, corrections and renormalized measurements
        rng = np.random.default_rng(44)
        for _ in range(25):
            state = random_state(rng, 4)
            qs = state.labels
            state = depolarize(state, (qs[0],), rng.random())
            state.validate()
            state = apply_unitary(state, (qs[1], qs[2]), dmod.CNOT)
            state.validate()
            state = pauli_correct(state, qs[3], (1, 1))
            state.validate()
            _, state = project_bell(state, qs[0], qs[1], (0, 1))
            state.validate()
            bit, state = fuse(tensor(state, make_bell(Qubit(90, 0), Qubit(91, 0))), qs[2], Qubit(90, 0), rng.random())
            state.validate()


class TestMeasurements:
    def test_teleport_all_four_outcomes(self):
        rng = np.random.default_rng(2)
        src, dst, mid = Qubit(5, 0), Qubit(1, 0), Qubit(0, 0)
        for _ in range(20):
            payload = random_state(rng, 1, labels=(src,))
            joint = tensor(payload, make_bell(mid, dst))
            for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                prob, post = project_bell(joint, src, mid, bits)
                fixed = pauli_correct(post, dst, bits)
                assert prob == pytest.approx(0.25, abs=1e-12)
                assert np.max(np.abs(fixed.mat - payload.mat)) < 1e-12

    def test_teleport_zero_state(self):
        src, dst, mid = Qubit(5, 0), Qubit(1, 0), Qubit(0, 0)
        zero = DensityMatrix((src,), np.diag([1.0, 0.0]).astype(complex))
        joint = tensor(zero, make_bell(mid, dst))
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            _, post = project_bell(joint, src, mid, bits)
            fixed = pauli_correct(post, dst, bits)
            assert fixed.mat[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_bsm_uniform_outcomes_on_depolarized_pair(self):
        # product of one depolarized Bell pair: every outcome probability 1/4
        pair = depolarize(make_bell(Qubit(0, 1), Qubit(1, 0)), (Qubit(0, 1),), 0.7)
        payload = depolarize(make_bell(Qubit(0, 0), Qubit(2, 0)), (Qubit(2, 0),), 0.9)
        joint = tensor(payload, pair)
        outcomes = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for k, bits in enumerate(outcomes):
            prob, ref = project_bell(joint, Qubit(0, 0), Qubit(0, 1), bits)
            assert prob == pytest.approx(0.25, abs=1e-12)
            # a uniform inside the k-th quarter samples the k-th outcome
            got, post = bsm(joint, Qubit(0, 0), Qubit(0, 1), 0.25 * k + 0.125)
            assert got == bits
            assert post.labels == ref.labels
            assert np.array_equal(post.mat, ref.mat)

    def test_bsm_of_no_outcome_rejected(self):
        zero = DensityMatrix((Qubit(0, 0), Qubit(0, 1)), np.zeros((4, 4)))
        with pytest.raises(ArithmeticError):
            bsm(zero, Qubit(0, 0), Qubit(0, 1), 0.5)
        with pytest.raises(RegisterError):
            bsm(make_bell(), Qubit(0, 0), Qubit(0, 0), 0.5)

    def test_identity_outcome_is_noop(self):
        bell = make_bell()
        out = pauli_correct(bell, Qubit(0, 0), (0, 0))
        np.testing.assert_array_equal(out.mat, bell.mat)

    def test_x_correction_flips_zero(self):
        state = DensityMatrix((Qubit(1, 0),), np.diag([1.0, 0.0]).astype(complex))
        out = pauli_correct(state, Qubit(1, 0), (1, 0))
        np.testing.assert_allclose(out.mat, np.diag([0.0, 1.0]), atol=1e-15)


class TestFusion:
    def test_fuse_two_bells_outcome_zero(self):
        a1, a2, b, c = Qubit(1, 0), Qubit(1, 1), Qubit(2, 0), Qubit(3, 0)
        joint = tensor(make_bell(a1, b), make_bell(a2, c))
        joint = apply_unitary(joint, (a1, a2), dmod.CNOT)
        prob, post = project_z(joint, a2, 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert fidelity_to_ghz(post) == pytest.approx(1.0, abs=1e-12)

    def test_fuse_two_bells_outcome_one_with_correction(self):
        a1, a2, b, c = Qubit(1, 0), Qubit(1, 1), Qubit(2, 0), Qubit(3, 0)
        joint = tensor(make_bell(a1, b), make_bell(a2, c))
        joint = apply_unitary(joint, (a1, a2), dmod.CNOT)
        prob, post = project_z(joint, a2, 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        fixed = apply_unitary(post, (c,), dmod.PAULI_X)
        assert fidelity_to_ghz(fixed) == pytest.approx(1.0, abs=1e-12)

    def test_fuse_samples_valid_outcome(self):
        rng = np.random.default_rng(4)
        a1, a2, b, c = Qubit(1, 0), Qubit(1, 1), Qubit(2, 0), Qubit(3, 0)
        joint = tensor(make_bell(a1, b), make_bell(a2, c))
        bit, post = fuse(joint, a1, a2, rng.random())
        if bit == 1:
            post = apply_unitary(post, (c,), dmod.PAULI_X)
        assert fidelity_to_ghz(post) == pytest.approx(1.0, abs=1e-12)

    def test_fuse_ghz3_with_bell_gives_ghz4(self):
        nodes = [Qubit(i, 0) for i in (1, 2, 3)]
        ghz = make_ghz(3, nodes)
        extra = make_bell(Qubit(3, 1), Qubit(4, 0))
        joint = tensor(ghz, extra)
        bit, post = fuse(joint, Qubit(3, 0), Qubit(3, 1), np.random.default_rng(5).random())
        if bit == 1:
            post = apply_unitary(post, (Qubit(4, 0),), dmod.PAULI_X)
        assert post.num_qubits == 4
        assert fidelity_to_ghz(post) == pytest.approx(1.0, abs=1e-12)

    # p0 is 1/2 here, so 0.01 reads 0 and 0.99 reads 1: the flip set is
    # checked whatever the outcome
    def test_flip_of_the_target_rejected(self):
        joint = tensor(make_bell(Qubit(1, 0), Qubit(2, 0)), make_bell(Qubit(1, 1), Qubit(3, 0)))
        for u in (0.01, 0.99):
            with pytest.raises(RegisterError, match="cannot be flipped"):
                fuse(joint, Qubit(1, 0), Qubit(1, 1), u, (Qubit(1, 1),))

    @pytest.mark.parametrize("flip", [(Qubit(9, 9),), (Qubit(2, 0), Qubit(2, 0))],
                             ids=["absent", "repeated"])
    def test_flip_of_an_absent_or_repeated_qubit_rejected(self, flip):
        joint = tensor(make_bell(Qubit(1, 0), Qubit(2, 0)), make_bell(Qubit(1, 1), Qubit(3, 0)))
        for u in (0.01, 0.99):
            with pytest.raises(RegisterError):
                fuse(joint, Qubit(1, 0), Qubit(1, 1), u, flip)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.integers(2, 6), u=st.floats(0.0, 1.0, exclude_max=True),
           seed=st.integers(0, 2**32 - 1))
    def test_flip_is_the_x_correction_of_the_unflipped_result(self, data, k, u, seed):
        # outcome 1: X on the flip set of the unflipped result, bit for bit;
        # outcome 0: the unflipped result.  A mask one qubit short differs.
        state = real_state(np.random.default_rng(seed), k)
        c, t = data.draw(st.permutations(range(k)))[:2]
        control, target = state.labels[c], state.labels[t]
        others = [q for q in state.labels if q != target]
        flip = tuple(data.draw(st.sets(st.sampled_from(others))))
        bit, post = fuse(state, control, target, u, flip)
        ref_bit, ref = fuse(state, control, target, u)
        want = ref
        if bit:
            for q in flip:
                want = apply_unitary(want, (q,), dmod.PAULI_X)
        assert bit == ref_bit and post.labels == want.labels
        assert np.array_equal(post.mat, want.mat)
        if bit and flip:
            short = fuse(state, control, target, u, flip[:-1])[1]
            assert not np.array_equal(short.mat, want.mat)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_fuse_reads_zero_iff_u_below_p0(self, k):
        # every ordered (control, target) pair, so the control sits both
        # before and after the target; p0 itself reads 1, the next double
        # below it reads 0, and either way fuse leaves fusion's state
        state = random_state(np.random.default_rng(100 + k), k)
        for control in state.labels:
            for target in state.labels:
                if control == target:
                    continue
                p0, _, _ = fusion(state, control, target, lambda _: 0)
                for bit, u in ((0, np.nextafter(p0, 0.0)), (1, p0)):
                    _, _, ref = fusion(state, control, target, lambda _: bit)
                    got, post = fuse(state, control, target, u)
                    assert got == bit and post.labels == ref.labels
                    assert np.array_equal(post.mat, ref.mat)


class TestFidelityAndPlumbing:
    def test_ghz4_fidelity(self):
        assert fidelity_to_ghz(make_ghz(4)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_five_qubits(self):
        labels = tuple(Qubit(i + 1, 0) for i in range(5))
        mixed = DensityMatrix(labels, np.eye(32, dtype=complex) / 32)
        assert fidelity_to_ghz(mixed) == pytest.approx(1 / 32, abs=1e-14)

    def test_two_qubit_depolarized_fidelity(self):
        # 0.64 + 0.08 + 0.01 hand expansion
        state = make_ghz(2)
        for q in state.labels:
            state = depolarize(state, (q,), 0.8)
        assert fidelity_to_ghz(state) == pytest.approx(0.73, abs=1e-12)

    def test_tensor_then_trace_roundtrip(self):
        rng = np.random.default_rng(6)
        a = random_state(rng, 2, labels=(Qubit(1, 0), Qubit(2, 0)))
        b = random_state(rng, 1, labels=(Qubit(3, 0),))
        joint = tensor(a, b)
        back = partial_trace(joint, b.labels)
        assert dmod.max_abs_diff(a, back) < 1e-12

    def test_tensor_trace_multiplicative(self):
        a = make_bell(Qubit(1, 0), Qubit(2, 0))
        b = make_bell(Qubit(3, 0), Qubit(4, 0))
        assert np.trace(tensor(a, b).mat) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_label_collision(self):
        with pytest.raises(RegisterError):
            tensor(make_bell(), make_bell())

    # a wider first factor, equal widths and a wider second one
    @pytest.mark.parametrize("ka, kb", [(7, 2), (6, 2), (5, 1), (3, 1), (2, 2), (1, 5)])
    @pytest.mark.parametrize("kinds", ["rr", "rc", "cr", "cc"])
    def test_tensor_equals_broadcast(self, ka, kb, kinds):
        rng = np.random.default_rng(ka * 10 + kb)
        make = {"r": real_state, "c": random_state}
        a = make[kinds[0]](rng, ka)
        b = make[kinds[1]](rng, kb, labels=tuple(Qubit(90 + i, 0) for i in range(kb)))
        dim = a.mat.shape[0] * b.mat.shape[0]
        ref = (a.mat[:, None, :, None] * b.mat[None, :, None, :]).reshape(dim, dim)
        got = tensor(a, b).mat
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_ghz_partial_trace_is_classical_correlation(self):
        ghz = make_ghz(3)
        reduced = partial_trace(ghz, (ghz.labels[0],))
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 0.5
        np.testing.assert_allclose(reduced.mat, expect, atol=1e-15)

    def test_permute_is_involutive(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 3)
        shuffled = permute(state, state.labels[::-1])
        back = permute(shuffled, state.labels)
        np.testing.assert_allclose(back.mat, state.mat, atol=1e-15)


def real_state(rng, k, labels=None):
    """Random full-rank real density matrix (real Wishart construction)."""
    a = rng.normal(size=(2**k, 2**k))
    mat = a @ a.T
    mat /= np.trace(mat)
    if labels is None:
        labels = tuple(Qubit(70 + i, 0) for i in range(k))
    return DensityMatrix(tuple(labels), mat)


def as_complex(state):
    return DensityMatrix(state.labels, state.mat.astype(complex))


class TestRealRegisters:
    """A real matrix stays float64 through the dense kernels, and agrees with
    the same matrix computed as complex."""

    @staticmethod
    def assert_real_and_equal(real, cplx):
        assert real.mat.dtype == np.float64 and real.labels == cplx.labels
        assert np.max(np.abs(real.mat - cplx.mat)) <= 1e-15

    def test_tensor(self):
        rng = np.random.default_rng(30)
        a = real_state(rng, 3)
        b = real_state(rng, 2, labels=(Qubit(1, 0), Qubit(2, 0)))
        self.assert_real_and_equal(tensor(a, b), tensor(as_complex(a), as_complex(b)))

    @pytest.mark.parametrize("u", [0.1, 0.5, 0.9])
    def test_fuse(self, u):
        rng = np.random.default_rng(31)
        state = real_state(rng, 5)
        c, t = state.labels[1], state.labels[3]
        bit, real = fuse(state, c, t, u)
        cbit, cplx = fuse(as_complex(state), c, t, u)
        assert bit == cbit
        self.assert_real_and_equal(real, cplx)

    @pytest.mark.parametrize("targets", [(0,), (1, 3), (0, 1, 2, 3)])
    def test_depolarize(self, targets):
        rng = np.random.default_rng(32)
        state = real_state(rng, 4)
        qubits = tuple(state.labels[i] for i in targets)
        self.assert_real_and_equal(
            depolarize(state, qubits, 0.37), depolarize(as_complex(state), qubits, 0.37)
        )

    @pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_pauli_correct(self, bits):
        state = real_state(np.random.default_rng(33), 5)
        q = state.labels[2]
        self.assert_real_and_equal(
            pauli_correct(state, q, bits), pauli_correct(as_complex(state), q, bits)
        )


def read_only(state):
    mat = state.mat.copy()
    mat.flags.writeable = False
    return DensityMatrix(state.labels, mat)


PAIR = (Qubit(1, 0), Qubit(2, 0))


class TestReadOnlyInputs:
    """Every kernel takes a read-only input and leaves it as it was, so one
    matrix can feed several kernels."""

    @pytest.mark.parametrize(
        "k, kernel",
        [
            (7, lambda s: depolarize(s, (s.labels[2],), 0.3)),
            (2, lambda s: tensor(read_only(make_bell(*PAIR)), s)),
            (5, lambda s: fuse(s, s.labels[1], s.labels[3], 0.5)),
            (5, lambda s: fidelity_to_ghz(s)),
        ],
        ids=["depolarize-strided", "tensor-broadcast", "fuse", "fidelity-to-ghz"],
    )
    def test_input_left_unchanged(self, k, kernel):
        state = read_only(real_state(np.random.default_rng(40 + k), k))
        before = state.mat.copy()
        kernel(state)
        assert np.array_equal(state.mat, before) and not state.mat.flags.writeable


class TestOutcomeIndependence:
    @pytest.mark.parametrize("n", [2, 3])
    def test_all_branches_equal_for_depolarized_bell_resources(self, n):
        # teleporting a noisy GHZ through depolarized Bell pairs: post-BSM
        # corrected states must not depend on the measured outcomes
        rng = np.random.default_rng(9)
        from ghzdist.oracles import factory_outcome_branches
        from ghzdist.params import SimParams

        params = SimParams(
            n_end_nodes=n,
            q_link=0.5,
            p_link=0.9,
            p_mem=0.98,
            p_bsm=0.93,
            p_ghz=0.85,
        )
        rounds = [int(r) for r in rng.integers(1, 5, size=n)]
        for step in factory_outcome_branches(params, rounds):
            ref_prob, ref_state = step[0]
            for prob, state in step[1:]:
                assert prob == pytest.approx(ref_prob, abs=1e-12)
                assert dmod.max_abs_diff(ref_state, state) < 1e-10
