"""Core mesh-sequence data types and geometric utilities.

A mesh sequence is a (T, V, 3) float64 array of vertex positions plus a frame
rate. Everything downstream (weights, losses, metrics) consumes this layout.
All functions here are pure: inputs are never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConstraintError

__all__ = [
    "MeshSequence",
    "VertexRegionMask",
    "frame_difference_norms",
]


@dataclass(frozen=True)
class MeshSequence:
    """Time-ordered stack of per-frame vertex positions.

    frames: array of shape (T, V, 3) with T >= 1 and V >= 1, stored as
    float64; lists and other array-likes are converted.
    fps: frames per second, finite and > 0, stored as a float.

    Shape and fps are checked here, once. Coordinate finiteness is not: a
    diverging fit must still be able to hold its non-finite prediction, so
    finiteness is checked at the file boundary (read_msq, write_msq).
    """

    frames: np.ndarray
    fps: float

    def __post_init__(self):
        try:
            frames = np.asarray(self.frames, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConstraintError(f"frames are not a regular (T, V, 3) array: {exc}") from exc
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise ConstraintError(f"frames must have shape (T, V, 3), got {frames.shape}")
        if frames.shape[0] < 1 or frames.shape[1] < 1:
            raise ConstraintError(
                f"need at least one frame and one vertex, got shape {frames.shape}"
            )
        fps = float(self.fps)
        if not math.isfinite(fps) or fps <= 0:
            raise ConstraintError(f"fps must be positive and finite, got {self.fps}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "fps", fps)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_vertices(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class VertexRegionMask:
    """Strictly increasing vertex indices naming a region (e.g. the lips)."""

    indices: np.ndarray
    region_name: str = ""

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ConstraintError("region mask must be a nonempty 1-d index list")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ConstraintError(f"region mask indices must be integers, got dtype {idx.dtype}")
        if idx.dtype == np.uint64 and idx.max() > np.uint64(np.iinfo(np.int64).max):
            raise ConstraintError(f"region mask index {idx.max()} is not below 2**63")
        idx = idx.astype(np.int64, copy=False)
        if np.any(idx < 0):
            raise ConstraintError("region mask indices must be nonnegative")
        if np.any(np.diff(idx) <= 0):
            raise ConstraintError("region mask indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, num_vertices: int) -> None:
        """Raise if any index falls outside [0, num_vertices)."""
        top = int(self.indices[-1])
        if top >= num_vertices:
            raise ConstraintError(
                f"region mask '{self.region_name}' index {top} out of range "
                f"for {num_vertices} vertices"
            )

    @classmethod
    def full(cls, num_vertices: int, region_name: str = "all") -> "VertexRegionMask":
        return cls(np.arange(num_vertices), region_name)


def require_same_shape(gt: MeshSequence, pred: MeshSequence) -> tuple[np.ndarray, np.ndarray]:
    """Return both frame arrays, raising if their (T, V, 3) shapes differ."""
    a, b = gt.frames, pred.frames
    if a.shape != b.shape:
        raise ConstraintError(f"shape mismatch: gt {a.shape} vs pred {b.shape}")
    return a, b


# Every row-blocked loop (frame differences, windowed energy, the DTW
# local-cost table, the closed-form loss curve) sizes its blocks from this one
# budget. Each row's result is independent of the block size.
_BLOCK_ELEMENTS = 1 << 15  # 256 KB of float64 per block


def _row_blocks(start: int, stop: int, row_elements: int) -> Iterator[slice]:
    """Consecutive slices covering rows start..stop-1 of a loop whose rows
    hold `row_elements` values each: _BLOCK_ELEMENTS // row_elements rows per
    slice, and at least one row when a single row exceeds the budget."""
    rows = max(_BLOCK_ELEMENTS // max(row_elements, 1), 1)
    for first in range(start, stop, rows):
        yield slice(first, min(first + rows, stop))


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry t is sum_i sum_c (a[t, i, c] - b[t, i, c])**2 for two (T, V, 3)
    arrays of one shape, T >= 1. _row_blocks slices are subtracted, squared
    and summed in one scratch block, and on C-contiguous inputs each row is
    reduced exactly as by one whole-track `np.sum(d * d, axis=(1, 2))`."""
    out = np.empty(len(a))
    blocks = list(_row_blocks(0, len(a), a[0].size))
    scratch = np.empty((blocks[0].stop,) + a.shape[1:])
    for rows in blocks:
        block = scratch[: rows.stop - rows.start]
        np.subtract(a[rows], b[rows], out=block)
        np.multiply(block, block, out=block)
        block.sum(axis=(1, 2), out=out[rows])
    return out


def frame_difference_norms(seq: MeshSequence) -> np.ndarray:
    """Squared frame-to-frame displacement, summed over all vertices and coords.

    Entry j is sum_i sum_c (frames[j+1, i, c] - frames[j, i, c])**2, so the
    output has length T - 1. Requires T >= 2. One blocked kernel,
    _squared_distances, serves this, both losses and the CLI's `final_vel`.
    """
    frames = seq.frames
    if len(frames) < 2:
        raise ConstraintError(f"need at least 2 frames to form differences, got {len(frames)}")
    return _squared_distances(frames[1:], frames[:-1])
