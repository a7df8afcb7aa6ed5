import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from visemekit import (
    ConstraintError,
    MeshSequence,
    VertexRegionMask,
    frame_difference_norms,
)
from visemekit.mesh import _BLOCK_ELEMENTS, require_same_shape


def seq(frames, fps=30.0):
    return MeshSequence(np.asarray(frames, dtype=np.float64), fps)


class TestAsFrames:
    """The MeshSequence constructor coerces frames to a (T, V, 3) float64 array."""

    def test_coerces_lists(self):
        s = MeshSequence([[[0, 0, 0]], [[1, 2, 3]]], 30)
        assert s.frames.shape == (2, 1, 3)
        assert s.frames.dtype == np.float64
        assert s.num_frames == 2 and s.num_vertices == 1
        assert type(s.fps) is float and s.fps == 30.0

    def test_rejects_wrong_shape(self):
        for shape in [(2, 3), (2, 2, 2), (2, 2, 4), (1, 2, 3, 1)]:
            with pytest.raises(ConstraintError, match="shape"):
                MeshSequence(np.zeros(shape), 30.0)

    def test_rejects_ragged(self):
        with pytest.raises(ConstraintError, match="regular"):
            MeshSequence([np.zeros((2, 3)), np.zeros((3, 3))], 30.0)


class TestMeshSequence:
    @pytest.mark.parametrize("shape", [(0, 1, 3), (2, 0, 3), (0, 0, 3)])
    def test_rejects_empty(self, shape):
        with pytest.raises(ConstraintError, match="at least one"):
            MeshSequence(np.zeros(shape), 30.0)

    @pytest.mark.parametrize("fps", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_bad_fps(self, fps):
        with pytest.raises(ConstraintError, match="fps"):
            MeshSequence(np.zeros((2, 1, 3)), fps)


def test_require_same_shape_names_both_shapes():
    with pytest.raises(ConstraintError, match=r"\(2, 1, 3\).*\(3, 1, 3\)"):
        require_same_shape(seq(np.zeros((2, 1, 3))), seq(np.zeros((3, 1, 3))))


class TestVertexRegionMask:
    def test_basic(self):
        mask = VertexRegionMask(np.array([0, 2, 5]), "lips")
        assert mask.indices.tolist() == [0, 2, 5]
        mask.validate_for(6)

    def test_out_of_range(self):
        mask = VertexRegionMask(np.array([0, 5]))
        with pytest.raises(ConstraintError):
            mask.validate_for(5)

    def test_rejects_empty(self):
        with pytest.raises(ConstraintError):
            VertexRegionMask(np.array([], dtype=np.int64))
        # [] is float64 to numpy; its emptiness is reported, not its dtype
        with pytest.raises(ConstraintError, match="nonempty 1-d"):
            VertexRegionMask([])

    def test_rejects_negative(self):
        with pytest.raises(ConstraintError):
            VertexRegionMask(np.array([-1, 2]))

    def test_rejects_duplicates_and_unsorted(self):
        with pytest.raises(ConstraintError):
            VertexRegionMask(np.array([3, 3]))
        with pytest.raises(ConstraintError):
            VertexRegionMask(np.array([5, 2]))

    def test_full(self):
        mask = VertexRegionMask.full(4)
        assert mask.indices.tolist() == [0, 1, 2, 3]

    def test_integer_inputs_become_int64(self):
        for indices in ([0, 2], np.arange(2, dtype=np.int8), np.array([0, 2], dtype=np.uint64)):
            mask = VertexRegionMask(indices)
            assert mask.indices.dtype == np.int64
            assert mask.indices.tolist() == list(indices)

    def test_rejects_fractional_indices(self):
        # a cast would silently truncate 2.5 to 2
        with pytest.raises(ConstraintError, match="must be integers, got dtype float64"):
            VertexRegionMask(np.array([0.0, 2.5]))

    def test_rejects_uint64_index_above_int64(self):
        # a cast would wrap 2**63 to a negative and blame its sign
        assert VertexRegionMask(np.array([2**63 - 1], dtype=np.uint64)).indices[0] == 2**63 - 1
        with pytest.raises(ConstraintError, match="9223372036854775808 is not below 2\\*\\*63"):
            VertexRegionMask(np.array([0, 2**63], dtype=np.uint64))

    def test_rejects_float_index_without_a_warning(self):
        # numpy stores [0, 2**63] as float64, whose cast warns and wraps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstraintError, match="must be integers"):
                VertexRegionMask(np.array([0, 2**63]))


class TestFrameDifferenceNorms:
    def test_hand_example(self):
        s = seq([[[0, 0, 0]], [[1, 0, 0]], [[1, 0, 0]]])
        assert frame_difference_norms(s).tolist() == [1.0, 0.0]

    def test_sums_over_vertices_and_coords(self):
        frames = np.zeros((2, 2, 3))
        frames[1] = 1.0  # every coordinate moves by 1: 2 vertices * 3 coords
        assert frame_difference_norms(seq(frames)).tolist() == [6.0]

    def test_needs_two_frames(self):
        with pytest.raises(ConstraintError):
            frame_difference_norms(seq(np.zeros((1, 1, 3))))


class TestBlockedFrameDifferences:
    """frame_difference_norms works in row blocks of _BLOCK_ELEMENTS values;
    the block edges must not show in the result."""

    @staticmethod
    def integer_track(num_frames, num_vertices, seed=0):
        # small integer coordinates make every sum exact, so the result can
        # equal the sequential loop oracle bit for bit
        rng = np.random.default_rng(seed)
        return rng.integers(-8, 9, (num_frames, num_vertices, 3)).astype(np.float64)

    def rows(self, num_vertices):
        return max(_BLOCK_ELEMENTS // (num_vertices * 3), 1)

    @pytest.mark.parametrize("offset", ["two", "rows-1", "rows", "rows+1", "3rows+1"])
    def test_equals_loop_oracle_at_block_edges(self, offset):
        num_vertices = 60
        rows = self.rows(num_vertices)
        steps = {"two": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
                 "3rows+1": 3 * rows + 1}[offset]
        frames = self.integer_track(steps + 1, num_vertices)
        got = frame_difference_norms(seq(frames))
        assert got.tolist() == oracles.step_sq_norms(frames.tolist())

    def test_frame_larger_than_a_block(self):
        num_vertices = _BLOCK_ELEMENTS // 3 + 5  # one row per block
        assert self.rows(num_vertices) == 1
        frames = self.integer_track(4, num_vertices, seed=1)
        got = frame_difference_norms(seq(frames))
        assert got.tolist() == oracles.step_sq_norms(frames.tolist())

    @pytest.mark.parametrize("num_frames", [2, 46, 47, 3000])
    def test_rows_reduce_as_in_one_pass(self, num_frames):
        frames = np.random.default_rng(num_frames).normal(0.0, 1.0, (num_frames, 60, 3))
        deltas = frames[1:] - frames[:-1]
        whole = np.sum(deltas * deltas, axis=(1, 2))
        assert np.array_equal(frame_difference_norms(seq(frames)), whole)

    def test_peak_memory_is_a_block(self):
        num_frames, num_vertices = 3000, 60
        track = seq(np.random.default_rng(2).normal(0.0, 1.0, (num_frames, num_vertices, 3)))
        one_array = (num_frames - 1) * num_vertices * 3 * 8
        tracemalloc.start()
        try:
            frame_difference_norms(track)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * one_array
