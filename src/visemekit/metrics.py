"""Evaluation metrics for mesh sequences: FVE, LVE, LDTW, and Lip-max.

FVE/LVE are per-vertex Euclidean errors averaged over vertices then frames
(LVE restricted to a lip region mask). Lip-max averages each frame's worst
lip vertex. LDTW aligns the two lip trajectories with dynamic time warping
and reports the alignment cost per path step, so it stays comparable across
sequence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConstraintError
from .mesh import MeshSequence, VertexRegionMask, require_same_shape

__all__ = [
    "MetricReport",
    "DtwResult",
    "fve",
    "lve",
    "lip_max",
    "dtw",
    "ldtw",
    "evaluate",
    "per_frame_vertex_errors",
]


@dataclass(frozen=True)
class MetricReport:
    """All four metrics plus per-frame breakdowns and diagnostics."""

    fve: float
    lve: float
    ldtw: float
    lip_max: float
    per_frame_fve: np.ndarray
    per_frame_lve: np.ndarray
    # largest lip vertex error anywhere in the sequence, for diagnosis
    lip_max_global: float = 0.0


@dataclass(frozen=True)
class DtwResult:
    """Optimal alignment cost and the warping path that achieves it.

    The path is a list of 0-based (i, j) pairs from (0, 0) to (T1-1, T2-1);
    each step increments one or both indices by 1.
    """

    distance: float
    path: tuple[tuple[int, int], ...]

    @property
    def path_length(self) -> int:
        return len(self.path)


def per_frame_vertex_errors(gt: MeshSequence, pred: MeshSequence) -> np.ndarray:
    """Euclidean distance per frame and vertex, shape (T, V)."""
    a, b = require_same_shape(gt, pred)
    return np.linalg.norm(a - b, axis=2)


def _masked(errors: np.ndarray, lips: VertexRegionMask) -> np.ndarray:
    lips.validate_for(errors.shape[1])
    return errors[:, lips.indices]


def fve(gt: MeshSequence, pred: MeshSequence) -> float:
    """Face vertex error: mean over vertices per frame, then mean over frames."""
    return float(per_frame_vertex_errors(gt, pred).mean(axis=1).mean())


def lve(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> float:
    """Lip vertex error: as fve, averaged over the lip region only."""
    return float(_masked(per_frame_vertex_errors(gt, pred), lips).mean(axis=1).mean())


def lip_max(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> float:
    """Mean over frames of the largest lip vertex error in each frame."""
    return float(_masked(per_frame_vertex_errors(gt, pred), lips).max(axis=1).mean())


# -- dynamic time warping -----------------------------------------------------


def _euclidean_cost(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(np.ravel(x) - np.ravel(y)))


def dtw(
    a: Sequence[np.ndarray],
    b: Sequence[np.ndarray],
    cost: Callable[[np.ndarray, np.ndarray], float] = _euclidean_cost,
) -> DtwResult:
    """Dynamic time warping between two sequences of frame features.

    Fills the classic accumulated-cost table
        D[i, j] = cost(a[i], b[j]) + min(D[i-1, j], D[i, j-1], D[i-1, j-1])
    and backtracks the optimal path with a fixed tie-break: diagonal first,
    then vertical (advance a), then horizontal (advance b). No band
    constraint; the full table is always filled.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ConstraintError("dtw inputs must be nonempty")
    if np.shape(a[0]) != np.shape(b[0]):
        raise ConstraintError(
            f"feature shape mismatch: {np.shape(a[0])} vs {np.shape(b[0])}"
        )

    local = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            local[i, j] = cost(a[i], b[j])

    acc = np.empty((n, m))
    acc[0, 0] = local[0, 0]
    for i in range(1, n):
        acc[i, 0] = local[i, 0] + acc[i - 1, 0]
    for j in range(1, m):
        acc[0, j] = local[0, j] + acc[0, j - 1]
    for i in range(1, n):
        for j in range(1, m):
            acc[i, j] = local[i, j] + min(
                acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            )

    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            if acc[i - 1, j - 1] == best:
                i, j = i - 1, j - 1
            elif acc[i - 1, j] == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()

    return DtwResult(float(acc[n - 1, m - 1]), tuple(path))


def _lip_frames(seq: MeshSequence, lips: VertexRegionMask) -> np.ndarray:
    lips.validate_for(seq.num_vertices)
    return seq.frames[:, lips.indices, :]


def ldtw(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> float:
    """DTW distance between lip trajectories, normalized by path length.

    The local cost between two frames is the mean per-lip-vertex Euclidean
    distance. Sequences of different lengths are allowed.
    """
    a = _lip_frames(gt, lips)
    b = _lip_frames(pred, lips)
    if a.shape[1] != b.shape[1]:
        raise ConstraintError(
            f"lip vertex count mismatch: {a.shape[1]} vs {b.shape[1]}"
        )

    def frame_cost(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.linalg.norm(x - y, axis=1).mean())

    result = dtw(a, b, frame_cost)
    return result.distance / result.path_length


def evaluate(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> MetricReport:
    """Compute all four metrics in one pass."""
    errors = per_frame_vertex_errors(gt, pred)
    lip_errors = _masked(errors, lips)
    per_frame_fve = errors.mean(axis=1)
    per_frame_lve = lip_errors.mean(axis=1)
    return MetricReport(
        fve=float(per_frame_fve.mean()),
        lve=float(per_frame_lve.mean()),
        ldtw=ldtw(gt, pred, lips),
        lip_max=float(lip_errors.max(axis=1).mean()),
        per_frame_fve=per_frame_fve,
        per_frame_lve=per_frame_lve,
        lip_max_global=float(lip_errors.max()),
    )
