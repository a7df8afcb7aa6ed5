import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from visemekit import mesh
from visemekit.errors import require_integer
from visemekit import (
    CoarticulationWeights,
    ConstraintError,
    LossKind,
    MeshSequence,
    central_difference,
    coarticulation_weights,
    grad_loss_pc,
    grad_loss_rec,
    loss_pc,
    loss_rec,
    relative_gradient_error,
)

# 1-based frames (0,0,0), (1,0,0), (1,0,0): step norms 1 then 0, so with
# sigma=1 the truncated windows give energies 1, 0.5, 0.5
MICRO_FRAMES = np.array([[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])


def seq(frames, fps=30.0):
    return MeshSequence(np.asarray(frames, dtype=np.float64), fps)


def rand_seq(rng, num_frames, num_vertices):
    return seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))


class TestWindowRadius:
    def test_defaults(self):
        s = rand_seq(np.random.default_rng(5), 12, 2)
        np.testing.assert_array_equal(energies(s), energies(s, 2))

    def test_rejects_negative_sigma(self):
        message = "window radius must be a nonnegative integer, got -1$"
        with pytest.raises(ConstraintError, match=message):
            coarticulation_weights(seq(MICRO_FRAMES), -1)

    def test_huge_integer_radius(self):
        assert require_integer(10**400, "x") == 10**400
        s = rand_seq(np.random.default_rng(6), 7, 2)
        # any radius >= T-1 spans all T-1 differences
        np.testing.assert_array_equal(energies(s, 10**400), energies(s, 6))


def energies(s, sigma=2):
    """Windowed motion energy by 0-based frame, as coarticulation_weights
    reports it."""
    return coarticulation_weights(s, sigma).raw_energy


class TestMotionEnergy:
    def test_static_is_zero(self):
        assert energies(seq(np.ones((5, 2, 3))))[2] == 0.0

    def test_micro_example_clamp(self):
        e = energies(seq(MICRO_FRAMES), 1)
        assert e[0] == 1.0
        assert e[1] == 0.5
        assert e[2] == 0.5

    def test_constant_velocity_both_policies(self):
        t = np.arange(6, dtype=np.float64)
        frames = np.zeros((6, 2, 3))
        frames[:, :, 0] = t[:, None] * 0.5  # step norm^2 = 2 * 0.25 = 0.5
        s = seq(frames)
        # clamped windows at the ends and whole ones inside alike
        assert energies(s, 2) == pytest.approx([0.5] * 6)

    def test_matches_clamp_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            num_frames = int(rng.integers(2, 41))
            sigma = int(rng.integers(0, 9))
            frames = rng.normal(0.0, 1.0, (num_frames, 2, 3))
            got = energies(seq(frames), sigma)
            for frame in range(num_frames):
                expected = oracles.window_energy_clamp(frames.tolist(), frame + 1, sigma)
                assert got[frame] == pytest.approx(expected, rel=1e-12)

    def test_strict_matches_oracle_on_interior(self):
        # an interior frame's window is never clamped, so it matches the
        # untruncated definition
        rng = np.random.default_rng(12)
        frames = rng.normal(0.0, 1.0, (9, 2, 3))
        s = seq(frames)
        for sigma in (1, 2, 3):
            got = energies(s, sigma)
            for frame in range(sigma, 9 - sigma):
                expected = oracles.window_energy_strict(frames.tolist(), frame + 1, sigma)
                assert got[frame] == pytest.approx(expected, rel=1e-12)

    def test_needs_two_frames(self):
        with pytest.raises(ConstraintError):
            coarticulation_weights(seq(np.zeros((1, 1, 3))))


class TestCoarticulationWeights:
    def test_static_uniform(self):
        w = coarticulation_weights(seq(np.ones((4, 2, 3))))
        assert w.weights == pytest.approx([0.25] * 4, abs=1e-15)

    def test_micro_example(self):
        w = coarticulation_weights(seq(MICRO_FRAMES), 1)
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
        w = coarticulation_weights(rand_seq(rng, num_frames, num_vertices), sigma)
        assert len(w.weights) == len(w.raw_energy) == num_frames
        assert abs(w.weights.sum() - 1.0) <= 1e-9
        assert np.all(w.weights > 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.integers(0, 3))
    def test_matches_oracle(self, seed, sigma):
        rng = np.random.default_rng(seed)
        frames = rng.normal(0.0, 1.0, (int(rng.integers(2, 10)), 2, 3))
        w = coarticulation_weights(seq(frames), sigma)
        expected = oracles.weights_clamp(frames.tolist(), sigma)
        assert w.weights == pytest.approx(expected, abs=1e-12)

    def test_order_preservation(self):
        rng = np.random.default_rng(5)
        w = coarticulation_weights(rand_seq(rng, 12, 3), 1)
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

    def test_raw_energy_matches_oracles_both_policies(self):
        # T up to 40 and sigma up to 8 reach partial boundary windows of width
        # >= 9, where numpy's summation order differs from a plain loop
        rng = np.random.default_rng(13)
        for num_frames in range(2, 41):
            frames = rng.normal(0.0, 1.0, (num_frames, 2, 3))
            listed = frames.tolist()
            for sigma in range(9):
                clamp = coarticulation_weights(seq(frames), sigma).raw_energy
                expected = [
                    oracles.window_energy_clamp(listed, t1, sigma)
                    for t1 in range(1, num_frames + 1)
                ]
                assert clamp == pytest.approx(expected, rel=1e-12)
                # the untruncated definition, on the frames where it exists
                interior = slice(max(sigma, 1), num_frames - sigma)
                expected = [
                    oracles.window_energy_strict(listed, frame + 1, sigma)
                    for frame in range(num_frames)[interior]
                ]
                assert clamp[interior] == pytest.approx(expected, rel=1e-12)

    def test_gather_in_blocks_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(14)
        frames = rng.normal(0.0, 1.0, (23, 2, 3))
        whole = [coarticulation_weights(seq(frames), s).raw_energy for s in range(9)]
        # a tiny block budget forces several blocks, some holding one row
        monkeypatch.setattr(mesh, "_BLOCK_ELEMENTS", 20)
        for sigma in range(9):
            blocked = coarticulation_weights(seq(frames), sigma).raw_energy
            assert np.array_equal(blocked, whole[sigma])

    def test_coordinate_scale_sharpens(self):
        # scaling the coordinates by c scales each energy by c^2: the softmax
        # of the scaled track is that of the energies times c^2
        rng = np.random.default_rng(8)
        s = rand_seq(rng, 8, 2)
        w = coarticulation_weights(s)
        for c in (0.5, 2.0):
            scaled = coarticulation_weights(MeshSequence(s.frames * c, s.fps))
            expected = oracles.softmax([e * c * c for e in w.raw_energy])
            assert scaled.weights == pytest.approx(expected, abs=1e-12)
            assert (scaled.weights.max() > w.weights.max()) == (c > 1)

    def test_large_energies_do_not_overflow(self):
        frames = np.zeros((3, 1, 3))
        frames[1, 0, 0] = 40.0  # step norm^2 = 1600, exp(1600) overflows naively
        w = coarticulation_weights(seq(frames), 0)
        assert np.all(np.isfinite(w.weights))
        assert abs(w.weights.sum() - 1.0) <= 1e-9


class TestLosses:
    def test_rec_identity(self):
        rng = np.random.default_rng(0)
        s = rand_seq(rng, 4, 2)
        report = loss_rec(s, s)
        assert report.total == 0.0
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

    def test_loss_kinds_are_the_trainers_choice(self):
        assert set(LossKind) == {LossKind.REC, LossKind.PC}

    def test_pc_micro_example_unit_offset(self):
        gt = seq(MICRO_FRAMES)
        pred = MeshSequence(gt.frames + [1.0, 0.0, 0.0], gt.fps)
        w = coarticulation_weights(gt, 1)
        assert loss_pc(gt, pred, w).total == pytest.approx(1.0, abs=1e-12)

    def test_pc_static_equals_rec_over_t(self):
        rng = np.random.default_rng(4)
        gt = seq(np.tile(rng.normal(0, 1, (1, 3, 3)), (5, 1, 1)))
        pred = rand_seq(rng, 5, 3)
        total = loss_pc(gt, pred, coarticulation_weights(gt)).total
        assert total == pytest.approx(loss_rec(gt, pred).total / 5, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pc_convex_combination_bound(self, seed):
        rng = np.random.default_rng(seed)
        num_frames = int(rng.integers(2, 12))
        gt, pred = rand_seq(rng, num_frames, 2), rand_seq(rng, num_frames, 2)
        per_frame = loss_rec(gt, pred).per_frame
        total = loss_pc(gt, pred, coarticulation_weights(gt)).total
        assert per_frame.min() - 1e-12 <= total <= per_frame.max() + 1e-12

    def test_pc_matches_oracle(self):
        rng = np.random.default_rng(6)
        gt, pred = rand_seq(rng, 8, 3), rand_seq(rng, 8, 3)
        w = coarticulation_weights(gt, 2)
        expected = oracles.loss_pc(gt.frames.tolist(), pred.frames.tolist(), w.weights)
        assert loss_pc(gt, pred, w).total == pytest.approx(expected, rel=1e-12)

    def test_pc_rejects_partial_weights(self):
        rng = np.random.default_rng(7)
        gt, pred = rand_seq(rng, 9, 2), rand_seq(rng, 9, 2)
        w = coarticulation_weights(gt, 2)
        interior = CoarticulationWeights(w.weights[2:7], w.raw_energy[2:7])
        with pytest.raises(ConstraintError):
            loss_pc(gt, pred, interior)
        with pytest.raises(ConstraintError):
            grad_loss_pc(gt, pred, interior)

    def test_pc_rejects_wrong_length_weights(self):
        rng = np.random.default_rng(8)
        gt, pred = rand_seq(rng, 6, 2), rand_seq(rng, 6, 2)
        other = coarticulation_weights(rand_seq(rng, 7, 2))
        with pytest.raises(ConstraintError):
            loss_pc(gt, pred, other)

    def test_shape_mismatch(self):
        with pytest.raises(ConstraintError):
            loss_rec(seq(np.zeros((2, 1, 3))), seq(np.zeros((2, 2, 3))))

    @pytest.mark.parametrize("num_frames", [1, 46, 47, 3000])
    def test_rec_rows_reduce_as_in_one_pass(self, num_frames):
        rng = np.random.default_rng(num_frames)
        gt, pred = rand_seq(rng, num_frames, 60), rand_seq(rng, num_frames, 60)
        delta = gt.frames - pred.frames
        whole = np.sum(delta * delta, axis=(1, 2))
        assert np.array_equal(loss_rec(gt, pred).per_frame, whole)

    @pytest.mark.parametrize("kind", ["rec", "pc"])
    def test_peak_memory_is_a_block(self, kind):
        # the errors are formed in row blocks, as frame_difference_norms' are
        rng = np.random.default_rng(11)
        gt, pred = rand_seq(rng, 3000, 60), rand_seq(rng, 3000, 60)
        weights = coarticulation_weights(gt)
        tracemalloc.start()
        try:
            if kind == "pc":
                loss_pc(gt, pred, weights)
            else:
                loss_rec(gt, pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20


class TestGradients:
    def test_zero_at_minimum(self):
        rng = np.random.default_rng(0)
        gt = rand_seq(rng, 5, 2)
        w = coarticulation_weights(gt)
        assert np.all(grad_loss_rec(gt, gt) == 0)
        assert np.all(grad_loss_pc(gt, gt, w) == 0)

    def test_pc_single_frame_hand_value(self):
        gt = seq([[[0.0, 0.0, 0.0]]])
        pred = seq([[[1.0, 0.0, 0.0]]])
        w = CoarticulationWeights(np.array([1.0]), np.array([0.0]))
        grad = grad_loss_pc(gt, pred, w)
        assert np.array_equal(grad[0, 0], [2.0, 0.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_finite_difference_agreement(self, seed):
        rng = np.random.default_rng(seed)
        num_frames = int(rng.integers(2, 8))
        num_vertices = int(rng.integers(1, 4))
        gt = rand_seq(rng, num_frames, num_vertices)
        pred = rand_seq(rng, num_frames, num_vertices)
        w = coarticulation_weights(gt, int(rng.integers(0, 4)))
        cases = [
            (grad_loss_rec(gt, pred), lambda frames: loss_rec(gt, seq(frames)).total),
            (grad_loss_pc(gt, pred, w), lambda frames: loss_pc(gt, seq(frames), w).total),
        ]
        for analytic, f in cases:
            numeric = central_difference(f, pred.frames, 1e-4)
            assert relative_gradient_error(analytic, numeric) <= 1e-4

    def test_fd_oracle_absolute_agreement(self):
        rng = np.random.default_rng(9)
        gt, pred = rand_seq(rng, 5, 2), rand_seq(rng, 5, 2)
        numeric = central_difference(lambda frames: loss_rec(gt, seq(frames)).total,
                                     pred.frames, 1e-4)
        assert np.max(np.abs(numeric - grad_loss_rec(gt, pred))) <= 1e-6

    def test_fd_zero_pair(self):
        z = seq(np.zeros((3, 2, 3)))
        numeric = central_difference(lambda frames: loss_rec(z, seq(frames)).total,
                                     z.frames, 1e-4)
        assert numeric == pytest.approx(np.zeros((3, 2, 3)), abs=1e-12)
