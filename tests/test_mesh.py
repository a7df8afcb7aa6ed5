import numpy as np
import pytest

from visemekit import (
    ConstraintError,
    MeshSequence,
    VertexRegionMask,
    frame_difference_norms,
)
from visemekit.mesh import require_same_shape


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
