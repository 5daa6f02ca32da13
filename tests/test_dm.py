"""Density-matrix engine: constructors, channels, measurements, identities."""

import numpy as np
import pytest

from ghzdist import dm as dmod
from ghzdist.dm import (
    BsmOutcome,
    DensityMatrix,
    Qubit,
    RegisterError,
    apply_unitary,
    bell_probabilities,
    bsm,
    depolarize,
    fidelity_to_ghz,
    fuse,
    make_bell,
    make_ghz,
    partial_trace,
    pauli_correct,
    permute,
    project_bell,
    project_z,
    structured_state,
    tensor,
)
from ghzdist.oracles import FixedDraw, fuse_by_cnot


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
        assert make_bell().trace() == pytest.approx(1.0, abs=1e-12)
        assert make_ghz(5).trace() == pytest.approx(1.0, abs=1e-12)

    def test_ghz_overlap(self):
        assert fidelity_to_ghz(make_ghz(3)) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_needs_two_qubits(self):
        with pytest.raises(ValueError):
            make_ghz(1)

    def test_register_cap(self):
        with pytest.raises(RegisterError):
            DensityMatrix(
                tuple(Qubit(i, 0) for i in range(13)),
                np.eye(2**13, dtype=complex) / 2**13,
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(RegisterError):
            DensityMatrix((Qubit(1, 0), Qubit(1, 0)), np.eye(4, dtype=complex) / 4)


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
            state = pauli_correct(state, qs[3], BsmOutcome((1, 1), True))
            state.validate()
            _, state = project_bell(state, qs[0], qs[1], (0, 1))
            state.validate()
            bit, state = fuse(tensor(state, make_bell(Qubit(90, 0), Qubit(91, 0))), qs[2], Qubit(90, 0), rng)
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
                fixed = pauli_correct(post, dst, BsmOutcome(bits, True))
                assert prob == pytest.approx(0.25, abs=1e-12)
                assert np.max(np.abs(fixed.mat - payload.mat)) < 1e-12

    def test_teleport_zero_state(self):
        src, dst, mid = Qubit(5, 0), Qubit(1, 0), Qubit(0, 0)
        zero = DensityMatrix((src,), np.diag([1.0, 0.0]).astype(complex))
        joint = tensor(zero, make_bell(mid, dst))
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            _, post = project_bell(joint, src, mid, bits)
            fixed = pauli_correct(post, dst, BsmOutcome(bits, True))
            assert fixed.mat[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_bsm_uniform_outcomes_on_depolarized_pair(self):
        # product of one depolarized Bell pair: every outcome probability 1/4
        pair = depolarize(make_bell(Qubit(0, 1), Qubit(1, 0)), (Qubit(0, 1),), 0.7)
        payload = depolarize(make_bell(Qubit(0, 0), Qubit(2, 0)), (Qubit(2, 0),), 0.9)
        joint = tensor(payload, pair)
        probs = bell_probabilities(joint, Qubit(0, 0), Qubit(0, 1))
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_bsm_never_succeeds_at_zero(self):
        rng = np.random.default_rng(3)
        joint = tensor(make_bell(Qubit(0, 0), Qubit(1, 0)), make_bell(Qubit(0, 1), Qubit(2, 0)))
        for _ in range(10_000):
            outcome, post = bsm(joint, Qubit(0, 0), Qubit(0, 1), 0.0, rng)
            assert not outcome.succeeded
            assert post is joint

    def test_correct_failed_outcome_rejected(self):
        with pytest.raises(ValueError):
            pauli_correct(make_bell(), Qubit(0, 0), BsmOutcome((0, 0), False))

    def test_identity_outcome_is_noop(self):
        bell = make_bell()
        out = pauli_correct(bell, Qubit(0, 0), BsmOutcome((0, 0), True))
        np.testing.assert_array_equal(out.mat, bell.mat)

    def test_x_correction_flips_zero(self):
        state = DensityMatrix((Qubit(1, 0),), np.diag([1.0, 0.0]).astype(complex))
        out = pauli_correct(state, Qubit(1, 0), BsmOutcome((1, 0), True))
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
        fixed = dmod.apply_pauli_x(post, c)
        assert fidelity_to_ghz(fixed) == pytest.approx(1.0, abs=1e-12)

    def test_fuse_samples_valid_outcome(self):
        rng = np.random.default_rng(4)
        a1, a2, b, c = Qubit(1, 0), Qubit(1, 1), Qubit(2, 0), Qubit(3, 0)
        joint = tensor(make_bell(a1, b), make_bell(a2, c))
        bit, post = fuse(joint, a1, a2, rng)
        if bit == 1:
            post = dmod.apply_pauli_x(post, c)
        assert fidelity_to_ghz(post) == pytest.approx(1.0, abs=1e-12)

    def test_fuse_ghz3_with_bell_gives_ghz4(self):
        nodes = [Qubit(i, 0) for i in (1, 2, 3)]
        ghz = make_ghz(3, nodes)
        extra = make_bell(Qubit(3, 1), Qubit(4, 0))
        joint = tensor(ghz, extra)
        bit, post = fuse(joint, Qubit(3, 0), Qubit(3, 1), np.random.default_rng(5))
        if bit == 1:
            post = dmod.apply_pauli_x(post, Qubit(4, 0))
        assert post.num_qubits == 4
        assert fidelity_to_ghz(post) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_gather_matches_cnot_projection(self, k):
        # every ordered (control, target) pair, so the control sits both
        # before and after the target; a draw 1e-12 below (above) the
        # reference p0 must read 0 (1), which pins p0 to that tolerance
        state = random_state(np.random.default_rng(100 + k), k)
        for control in state.labels:
            for target in state.labels:
                if control == target:
                    continue
                for bit, shift in ((0, -1e-12), (1, 1e-12)):
                    p0, ref = fuse_by_cnot(state, control, target, bit)
                    got, post = fuse(state, control, target, FixedDraw(p0 + shift))
                    assert got == bit
                    assert post.labels == ref.labels
                    assert np.max(np.abs(post.mat - ref.mat)) <= 1e-12


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

    def test_pending_channels_fold_into_readout(self):
        # the same two channels, left pending instead of applied
        assert fidelity_to_ghz(make_ghz(2), (0.8, 0.8)) == pytest.approx(0.73, abs=1e-12)
        with pytest.raises(RegisterError):
            fidelity_to_ghz(make_ghz(3), (0.8, 0.8))

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
        assert tensor(a, b).trace() == pytest.approx(1.0, abs=1e-12)

    def test_tensor_label_collision(self):
        with pytest.raises(RegisterError):
            tensor(make_bell(), make_bell())

    # the first three shapes take the copy-per-entry branch, the rest the broadcast
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
    """A real matrix stays float64 through the kernels the switch runs, and
    agrees with the same matrix computed as complex."""

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
        bit, real = fuse(state, c, t, FixedDraw(u))
        cbit, cplx = fuse(as_complex(state), c, t, FixedDraw(u))
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

    def test_x_flip_on_several_qubits(self):
        rng = np.random.default_rng(33)
        state = real_state(rng, 5)
        flipped = (state.labels[0], state.labels[2], state.labels[4])
        cplx = as_complex(state)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        for q in flipped:
            cplx = apply_unitary(cplx, (q,), x)
        self.assert_real_and_equal(dmod.apply_pauli_x(state, *flipped), cplx)


class TestStructuredState:
    def test_no_noise_is_ghz(self):
        out = structured_state(1.0, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(out.mat, make_ghz(3).mat, atol=1e-15)

    def test_p_ghz_zero_is_maximally_mixed(self):
        out = structured_state(0.0, [0.3, 0.9])
        np.testing.assert_allclose(out.mat, np.eye(4) / 4, atol=1e-15)

    def test_matches_channel_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            p_ghz = rng.random()
            p = rng.random(n)
            built = structured_state(p_ghz, p)
            state = depolarize(make_ghz(n, built.labels), built.labels, p_ghz)
            for q, pi in zip(built.labels, p):
                state = depolarize(state, (q,), pi)
            assert dmod.trace_distance(built, state) < 1e-10
            built.validate(psd=True)


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
