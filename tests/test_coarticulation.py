import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from visemekit import coarticulation
from visemekit import (
    BoundaryPolicy,
    CoarticulationWeights,
    ConstraintError,
    LossKind,
    MeshSequence,
    WindowSpec,
    coarticulation_weights,
    finite_difference_gradient,
    grad_loss_pc,
    grad_loss_rec,
    grad_loss_vel,
    loss_pc,
    loss_rec,
    loss_vel,
    motion_energy,
    relative_gradient_error,
    strict_frame_range,
)

# 1-based frames (0,0,0), (1,0,0), (1,0,0): step norms 1 then 0, so with
# sigma=1 the truncated windows give energies 1, 0.5, 0.5
MICRO_FRAMES = np.array([[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])


def seq(frames, fps=30.0):
    return MeshSequence(np.asarray(frames, dtype=np.float64), fps)


def rand_seq(rng, num_frames, num_vertices):
    return seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))


class TestWindowSpec:
    def test_defaults(self):
        w = WindowSpec()
        assert w.sigma == 2 and w.policy is BoundaryPolicy.CLAMP

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConstraintError):
            WindowSpec(-1)


class TestMotionEnergy:
    def test_static_is_zero(self):
        assert motion_energy(seq(np.ones((5, 2, 3))), 2) == 0.0

    def test_micro_example_clamp(self):
        s = seq(MICRO_FRAMES)
        w = WindowSpec(1)
        assert motion_energy(s, 0, w) == 1.0
        assert motion_energy(s, 1, w) == 0.5
        assert motion_energy(s, 2, w) == 0.5

    def test_constant_velocity_both_policies(self):
        t = np.arange(6, dtype=np.float64)
        frames = np.zeros((6, 2, 3))
        frames[:, :, 0] = t[:, None] * 0.5  # step norm^2 = 2 * 0.25 = 0.5
        s = seq(frames)
        for frame in range(6):
            assert motion_energy(s, frame, WindowSpec(2)) == pytest.approx(0.5)
        for frame in range(2, 4):
            strict = WindowSpec(2, BoundaryPolicy.STRICT)
            assert motion_energy(s, frame, strict) == pytest.approx(0.5)

    def test_matches_clamp_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            num_frames = int(rng.integers(2, 41))
            sigma = int(rng.integers(0, 9))
            frames = rng.normal(0.0, 1.0, (num_frames, 2, 3))
            s = seq(frames)
            for frame in range(num_frames):
                expected = oracles.window_energy_clamp(frames.tolist(), frame + 1, sigma)
                got = motion_energy(s, frame, WindowSpec(sigma))
                assert got == pytest.approx(expected, rel=1e-12)

    def test_strict_matches_oracle_on_interior(self):
        rng = np.random.default_rng(12)
        frames = rng.normal(0.0, 1.0, (9, 2, 3))
        s = seq(frames)
        for sigma in (1, 2, 3):
            window = WindowSpec(sigma, BoundaryPolicy.STRICT)
            for frame in range(sigma, 9 - sigma):
                expected = oracles.window_energy_strict(frames.tolist(), frame + 1, sigma)
                assert motion_energy(s, frame, window) == pytest.approx(expected, rel=1e-12)

    def test_strict_outside_domain(self):
        s = seq(np.zeros((6, 1, 3)))
        with pytest.raises(ConstraintError):
            motion_energy(s, 0, WindowSpec(2, BoundaryPolicy.STRICT))
        with pytest.raises(ConstraintError):
            motion_energy(s, 5, WindowSpec(2, BoundaryPolicy.STRICT))

    def test_strict_empty_window(self):
        # sigma=0 at the first frame: the only candidate step predates the sequence
        s = seq(np.zeros((4, 1, 3)))
        with pytest.raises(ConstraintError):
            motion_energy(s, 0, WindowSpec(0, BoundaryPolicy.STRICT))

    def test_needs_two_frames(self):
        with pytest.raises(ConstraintError):
            motion_energy(seq(np.zeros((1, 1, 3))), 0)

    def test_frame_out_of_range(self):
        s = seq(np.zeros((4, 1, 3)))
        with pytest.raises(ConstraintError):
            motion_energy(s, 4)
        with pytest.raises(ConstraintError):
            motion_energy(s, -1)


class TestCoarticulationWeights:
    def test_static_uniform(self):
        w = coarticulation_weights(seq(np.ones((4, 2, 3))))
        assert w.weights == pytest.approx([0.25] * 4, abs=1e-15)

    def test_micro_example(self):
        w = coarticulation_weights(seq(MICRO_FRAMES), WindowSpec(1))
        assert w.raw_energy == pytest.approx([1.0, 0.5, 0.5], abs=1e-15)
        expected = oracles.softmax([1.0, 0.5, 0.5])
        assert w.weights == pytest.approx(expected, abs=1e-12)
        assert w.weights == pytest.approx([0.45186, 0.27407, 0.27407], abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_frames=st.integers(2, 24),
        num_vertices=st.integers(1, 5),
        sigma=st.integers(0, 5),
    )
    def test_normalization_property(self, seed, num_frames, num_vertices, sigma):
        rng = np.random.default_rng(seed)
        w = coarticulation_weights(rand_seq(rng, num_frames, num_vertices), WindowSpec(sigma))
        assert len(w) == num_frames
        assert w.frame_start == 0
        assert abs(w.weights.sum() - 1.0) <= 1e-9
        assert np.all(w.weights > 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.integers(0, 3))
    def test_matches_oracle(self, seed, sigma):
        rng = np.random.default_rng(seed)
        frames = rng.normal(0.0, 1.0, (int(rng.integers(2, 10)), 2, 3))
        w = coarticulation_weights(seq(frames), WindowSpec(sigma))
        expected = oracles.weights_clamp(frames.tolist(), sigma)
        assert w.weights == pytest.approx(expected, abs=1e-12)

    def test_order_preservation(self):
        rng = np.random.default_rng(5)
        w = coarticulation_weights(rand_seq(rng, 12, 3), WindowSpec(1))
        order_raw = np.argsort(w.raw_energy, kind="stable")
        order_weight = np.argsort(w.weights, kind="stable")
        assert np.array_equal(order_raw, order_weight)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        s = rand_seq(rng, 10, 3)
        shifted = MeshSequence(s.frames + [1e3, -4.0, 7.5], s.fps)
        a = coarticulation_weights(s).weights
        b = coarticulation_weights(shifted).weights
        assert a == pytest.approx(b, abs=1e-9)

    def test_strict_covers_interior_with_offset(self):
        rng = np.random.default_rng(7)
        s = rand_seq(rng, 9, 2)
        w = coarticulation_weights(s, WindowSpec(2, BoundaryPolicy.STRICT))
        assert w.frame_start == 2
        assert len(w) == 5  # frames 2..6 of 0..8
        assert abs(w.weights.sum() - 1.0) <= 1e-9

    def test_raw_energy_matches_oracles_both_policies(self):
        # T up to 40 and sigma up to 8 reach partial boundary windows of width
        # >= 9, where numpy's summation order differs from a plain loop
        rng = np.random.default_rng(13)
        for num_frames in range(2, 41):
            frames = rng.normal(0.0, 1.0, (num_frames, 2, 3))
            listed = frames.tolist()
            for sigma in range(9):
                clamp = coarticulation_weights(seq(frames), WindowSpec(sigma)).raw_energy
                expected = [
                    oracles.window_energy_clamp(listed, t1, sigma)
                    for t1 in range(1, num_frames + 1)
                ]
                assert clamp == pytest.approx(expected, rel=1e-12)
                if 2 * sigma + 1 > num_frames:
                    continue
                strict = coarticulation_weights(
                    seq(frames), WindowSpec(sigma, BoundaryPolicy.STRICT)
                )
                stop = strict.frame_start + len(strict)
                assert np.array_equal(strict.raw_energy, clamp[strict.frame_start : stop])
                expected = [
                    oracles.window_energy_strict(listed, frame + 1, sigma)
                    for frame in range(strict.frame_start, stop)
                ]
                assert strict.raw_energy == pytest.approx(expected, rel=1e-12)

    def test_gather_in_blocks_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(14)
        frames = rng.normal(0.0, 1.0, (23, 2, 3))
        whole = [coarticulation_weights(seq(frames), WindowSpec(s)).raw_energy for s in range(9)]
        # a tiny block budget forces several blocks, some holding one row
        monkeypatch.setattr(coarticulation, "_GATHER_ELEMENTS", 20)
        for sigma in range(9):
            blocked = coarticulation_weights(seq(frames), WindowSpec(sigma)).raw_energy
            assert np.array_equal(blocked, whole[sigma])

    def test_strict_infeasible(self):
        with pytest.raises(ConstraintError, match="strict"):
            coarticulation_weights(seq(np.zeros((4, 1, 3))), WindowSpec(2, BoundaryPolicy.STRICT))

    def test_strict_frame_range(self):
        assert strict_frame_range(2, 9) == (2, 7)
        assert strict_frame_range(0, 4) == (1, 4)
        with pytest.raises(ConstraintError):
            strict_frame_range(3, 6)

    def test_temperature(self):
        rng = np.random.default_rng(8)
        s = rand_seq(rng, 8, 2)
        w = coarticulation_weights(s, temperature=2.0)
        expected = oracles.softmax([e / 2.0 for e in w.raw_energy])
        assert w.weights == pytest.approx(expected, abs=1e-12)
        with pytest.raises(ConstraintError):
            coarticulation_weights(s, temperature=0.0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_temperature(self, temperature):
        rng = np.random.default_rng(9)
        with pytest.raises(ConstraintError, match="temperature"):
            coarticulation_weights(rand_seq(rng, 6, 2), temperature=temperature)

    def test_large_energies_do_not_overflow(self):
        frames = np.zeros((3, 1, 3))
        frames[1, 0, 0] = 40.0  # step norm^2 = 1600, exp(1600) overflows naively
        w = coarticulation_weights(seq(frames), WindowSpec(0))
        assert np.all(np.isfinite(w.weights))
        assert abs(w.weights.sum() - 1.0) <= 1e-9


class TestLosses:
    def test_rec_identity(self):
        rng = np.random.default_rng(0)
        s = rand_seq(rng, 4, 2)
        report = loss_rec(s, s)
        assert report.total == 0.0
        assert report.kind is LossKind.REC
        assert len(report.per_frame) == 4

    def test_rec_single_frame(self):
        gt = seq([[[0.0, 0.0, 0.0]]])
        pred = seq([[[1.0, 1.0, 0.0]]])
        assert loss_rec(gt, pred).total == 2.0

    def test_rec_matches_oracle(self):
        rng = np.random.default_rng(1)
        gt, pred = rand_seq(rng, 8, 6), rand_seq(rng, 8, 6)
        expected, per_frame = oracles.loss_rec(gt.frames.tolist(), pred.frames.tolist())
        report = loss_rec(gt, pred)
        assert report.total == pytest.approx(expected, rel=1e-12)
        assert report.per_frame == pytest.approx(per_frame, rel=1e-12)

    def test_vel_identity_and_offset_invariance(self):
        rng = np.random.default_rng(2)
        gt = rand_seq(rng, 6, 3)
        assert loss_vel(gt, gt).total == 0.0
        # a constant offset has zero velocity difference
        assert loss_vel(gt, MeshSequence(gt.frames + [0.7, 0, 0], gt.fps)).total == pytest.approx(0.0, abs=1e-18)

    def test_vel_matches_oracle(self):
        rng = np.random.default_rng(3)
        gt, pred = rand_seq(rng, 7, 4), rand_seq(rng, 7, 4)
        expected, per_frame = oracles.loss_vel(gt.frames.tolist(), pred.frames.tolist())
        report = loss_vel(gt, pred)
        assert report.kind is LossKind.VEL
        assert len(report.per_frame) == 6
        assert report.total == pytest.approx(expected, rel=1e-12)
        assert report.per_frame == pytest.approx(per_frame, rel=1e-12)

    def test_vel_needs_two_frames(self):
        s = seq(np.zeros((1, 1, 3)))
        with pytest.raises(ConstraintError):
            loss_vel(s, s)

    def test_pc_micro_example_unit_offset(self):
        gt = seq(MICRO_FRAMES)
        pred = MeshSequence(gt.frames + [1.0, 0.0, 0.0], gt.fps)
        w = coarticulation_weights(gt, WindowSpec(1))
        assert loss_pc(gt, pred, w).total == pytest.approx(1.0, abs=1e-12)

    def test_pc_static_equals_rec_over_t(self):
        rng = np.random.default_rng(4)
        gt = seq(np.tile(rng.normal(0, 1, (1, 3, 3)), (5, 1, 1)))
        pred = rand_seq(rng, 5, 3)
        assert loss_pc(gt, pred).total == pytest.approx(loss_rec(gt, pred).total / 5, abs=1e-9)

    def test_pc_default_weights_are_sigma2_clamp(self):
        rng = np.random.default_rng(5)
        gt, pred = rand_seq(rng, 9, 2), rand_seq(rng, 9, 2)
        explicit = loss_pc(gt, pred, coarticulation_weights(gt, WindowSpec(2)))
        assert loss_pc(gt, pred).total == explicit.total

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pc_convex_combination_bound(self, seed):
        rng = np.random.default_rng(seed)
        num_frames = int(rng.integers(2, 12))
        gt, pred = rand_seq(rng, num_frames, 2), rand_seq(rng, num_frames, 2)
        per_frame = loss_rec(gt, pred).per_frame
        total = loss_pc(gt, pred).total
        assert per_frame.min() - 1e-12 <= total <= per_frame.max() + 1e-12

    def test_pc_matches_oracle(self):
        rng = np.random.default_rng(6)
        gt, pred = rand_seq(rng, 8, 3), rand_seq(rng, 8, 3)
        w = coarticulation_weights(gt, WindowSpec(2))
        expected = oracles.loss_pc(gt.frames.tolist(), pred.frames.tolist(), w.weights)
        assert loss_pc(gt, pred, w).total == pytest.approx(expected, rel=1e-12)

    def test_pc_rejects_partial_weights(self):
        rng = np.random.default_rng(7)
        gt, pred = rand_seq(rng, 9, 2), rand_seq(rng, 9, 2)
        strict = coarticulation_weights(gt, WindowSpec(2, BoundaryPolicy.STRICT))
        with pytest.raises(ConstraintError):
            loss_pc(gt, pred, strict)

    def test_pc_rejects_wrong_length_weights(self):
        rng = np.random.default_rng(8)
        gt, pred = rand_seq(rng, 6, 2), rand_seq(rng, 6, 2)
        other = coarticulation_weights(rand_seq(rng, 7, 2))
        with pytest.raises(ConstraintError):
            loss_pc(gt, pred, other)

    def test_shape_mismatch(self):
        with pytest.raises(ConstraintError):
            loss_rec(seq(np.zeros((2, 1, 3))), seq(np.zeros((2, 2, 3))))


class TestGradients:
    def test_zero_at_minimum(self):
        rng = np.random.default_rng(0)
        gt = rand_seq(rng, 5, 2)
        w = coarticulation_weights(gt)
        assert np.all(grad_loss_rec(gt, gt) == 0)
        assert np.all(grad_loss_vel(gt, gt) == 0)
        assert np.all(grad_loss_pc(gt, gt, w) == 0)

    def test_pc_single_frame_hand_value(self):
        gt = seq([[[0.0, 0.0, 0.0]]])
        pred = seq([[[1.0, 0.0, 0.0]]])
        w = CoarticulationWeights(np.array([1.0]), np.array([0.0]), sigma=0)
        grad = grad_loss_pc(gt, pred, w)
        assert np.array_equal(grad[0, 0], [2.0, 0.0, 0.0])

    def test_vel_two_frame_hand_value(self):
        gt = seq([[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])
        pred = seq([[[0.0, 0.0, 0.0]], [[0.5, 0.0, 0.0]]])
        grad = grad_loss_vel(gt, pred)
        # d = (pred step) - (gt step) = -0.5; grad[1] = 2d, grad[0] = -2d
        assert grad[1, 0] == pytest.approx([-1.0, 0.0, 0.0])
        assert grad[0, 0] == pytest.approx([1.0, 0.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_finite_difference_agreement(self, seed):
        rng = np.random.default_rng(seed)
        num_frames = int(rng.integers(2, 8))
        num_vertices = int(rng.integers(1, 4))
        gt = rand_seq(rng, num_frames, num_vertices)
        pred = rand_seq(rng, num_frames, num_vertices)
        w = coarticulation_weights(gt, WindowSpec(int(rng.integers(0, 4))))
        cases = [
            (grad_loss_rec(gt, pred), lambda g, p: loss_rec(g, p)),
            (grad_loss_vel(gt, pred), lambda g, p: loss_vel(g, p)),
            (grad_loss_pc(gt, pred, w), lambda g, p: loss_pc(g, p, w)),
        ]
        for analytic, fn in cases:
            numeric = finite_difference_gradient(fn, gt, pred, step=1e-4)
            assert relative_gradient_error(analytic, numeric) <= 1e-4

    def test_fd_oracle_absolute_agreement(self):
        rng = np.random.default_rng(9)
        gt, pred = rand_seq(rng, 5, 2), rand_seq(rng, 5, 2)
        numeric = finite_difference_gradient(loss_rec, gt, pred, step=1e-4)
        assert np.max(np.abs(numeric - grad_loss_rec(gt, pred))) <= 1e-6

    def test_fd_zero_pair(self):
        z = seq(np.zeros((3, 2, 3)))
        numeric = finite_difference_gradient(loss_rec, z, z, step=1e-4)
        assert numeric == pytest.approx(np.zeros((3, 2, 3)), abs=1e-12)
