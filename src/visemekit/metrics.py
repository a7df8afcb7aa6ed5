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
    "dtw",
    "ldtw",
    "evaluate",
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


# -- dynamic time warping -----------------------------------------------------

_COST_BLOCK_ELEMENTS = 1 << 17  # 1 MB of float64 per broadcast block of differences


def _euclidean_cost(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between every raveled frame of `rows` and of `b`.

    Each squared length is the dot product of a difference with itself, the
    same reduction np.linalg.norm applies to one raveled difference.
    """
    delta = rows.reshape(len(rows), 1, 1, -1) - b.reshape(1, len(b), 1, -1)
    return np.sqrt(np.matmul(delta, delta.swapaxes(2, 3)))[:, :, 0, 0]


def _mean_vertex_distance(rows: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean per-vertex Euclidean distance between (L, 3) frames, pairwise.

    The squared components are summed as (x + y) + z, the order numpy's norm
    over an axis of length 3 uses, so each entry equals
    np.linalg.norm(x - y, axis=1).mean() bit for bit.
    """
    delta = np.moveaxis(rows, 2, 0)[:, :, None] - np.moveaxis(b, 2, 0)[:, None]
    delta *= delta
    sq = np.add(delta[0], delta[1], out=delta[0])
    sq += delta[2]
    return np.sqrt(sq, out=sq).mean(axis=2)


def dtw(
    a: Sequence[np.ndarray],
    b: Sequence[np.ndarray],
    cost: Callable[[np.ndarray, np.ndarray], np.ndarray] = _euclidean_cost,
) -> DtwResult:
    """Dynamic time warping between two sequences of frame features.

    Fills the classic accumulated-cost table
        D[i, j] = cost[i, j] + min(D[i-1, j-1], D[i-1, j], D[i, j-1])
    and backtracks the optimal path with a fixed tie-break: diagonal first,
    then vertical (advance a), then horizontal (advance b). No band
    constraint; the full table is always filled.

    `cost(rows, b)` maps a block of consecutive frames of `a` and all of `b`
    to their (len(rows), len(b)) local-cost matrix; the default is the
    Euclidean distance of the raveled frames. The local matrix is built in
    row blocks so the broadcast differences stay small on long sequences.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ConstraintError("dtw inputs must be nonempty")
    if a.shape[1:] != b.shape[1:]:
        raise ConstraintError(f"feature shape mismatch: {a.shape[1:]} vs {b.shape[1:]}")

    # Both tables carry a padding row and column, so cell (i, j) sits at
    # padded (i+1, j+1). Row-major with stride m+1, each anti-diagonal
    # i + j = d is then a flat slice with step m, and its diagonal, upper and
    # left neighbours are the same slice shifted by m+2, m+1 and 1. Every
    # cell gets local + min(diagonal, up, left), the arithmetic of a
    # row-by-row fill, so the table and the path do not depend on the order.
    width = m + 1
    local = np.zeros((n + 1, width))
    rows = max(_COST_BLOCK_ELEMENTS // (m * max(b[0].size, 1)), 1)
    for first in range(0, n, rows):
        local[first + 1 : first + rows + 1, 1:] = cost(a[first : first + rows], b)
    local = local.reshape(-1)
    table = np.full((n + 1) * width, np.inf)
    table[0] = 0.0  # the virtual predecessor of (0, 0)
    for d in range(n + m - 1):
        i0, i1 = max(0, d - m + 1), min(n - 1, d)
        start = (i0 + 1) * width + d - i0 + 1
        stop = start + (i1 - i0) * m + 1
        prior = np.minimum(table[start - width - 1 : stop - width - 1 : m],
                           table[start - width : stop - width : m])
        np.minimum(prior, table[start - 1 : stop - 1 : m], out=prior)
        table[start:stop:m] = local[start:stop:m] + prior
    acc = table.reshape(n + 1, width)[1:, 1:]

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
    result = dtw(a, b, _mean_vertex_distance)
    return result.distance / result.path_length


def evaluate(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> MetricReport:
    """Compute all four metrics in one pass."""
    a, b = require_same_shape(gt, pred)
    lips.validate_for(a.shape[1])
    errors = np.linalg.norm(a - b, axis=2)
    lip_errors = errors[:, lips.indices]
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
