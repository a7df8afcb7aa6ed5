"""Evaluation metrics for mesh sequences: FVE, LVE, LDTW, and Lip-max.

FVE/LVE are per-vertex Euclidean errors averaged over vertices then frames
(LVE restricted to a lip region mask). Lip-max averages each frame's worst
lip vertex. LDTW aligns the two lip trajectories with dynamic time warping
and reports the alignment cost per path step, so it stays comparable across
sequence lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError
from .mesh import MeshSequence, VertexRegionMask, _row_blocks, require_same_shape

__all__ = [
    "MetricReport",
    "DtwResult",
    "dtw",
    "ldtw",
    "evaluate",
    "transition_split",
]


@dataclass(frozen=True)
class MetricReport:
    """All four metrics, plus the per-frame LVE that a transition split reads."""

    fve: float
    lve: float
    ldtw: float
    lip_max: float
    per_frame_lve: np.ndarray


@dataclass(frozen=True)
class DtwResult:
    """Optimal alignment cost and the warping path that achieves it.

    The path is a tuple of 0-based (i, j) pairs from (0, 0) to (T1-1, T2-1);
    each step increments one or both indices by 1.
    """

    distance: float
    path: tuple[tuple[int, int], ...]

    @property
    def path_length(self) -> int:
        return len(self.path)


# -- per-vertex distances and dynamic time warping -----------------------------

def _distances(a_planes: np.ndarray, b_planes: np.ndarray) -> np.ndarray:
    """Per-vertex Euclidean distances of broadcastable (3, V, ...) coordinate
    planes, shape (V, ...). The differences fill one block of the broadcast
    shape, and the squares are added as (x + y) + z and rooted in place in it."""
    delta = a_planes - b_planes
    delta *= delta
    dist = np.add(delta[0], delta[1], out=delta[0])
    dist += delta[2]
    return np.sqrt(dist, out=dist)


def _vertex_mean(dist: np.ndarray) -> np.ndarray:
    """Mean of (V, ...) distances over V: the planes are added in place into
    the first one, in vertex order, and divided by V."""
    mean = dist[0]
    for plane in dist[1:]:
        mean += plane
    mean /= len(dist)
    return mean


def _frame_mean(values: np.ndarray) -> float:
    """Mean of per-frame values, added in frame order as DTW adds its diagonal."""
    return float(np.add.accumulate(values)[-1] / len(values))


def dtw(a: np.ndarray, b: np.ndarray) -> DtwResult:
    """Dynamic time warping between two lip trajectories, as LDTW scores them.

    `a` and `b` are (T, L, 3) frame arrays with the same L, converted to
    C-contiguous float64 whatever the caller's layout. The local cost of two
    frames is the `_vertex_mean` of their `_distances`, the kernel that gives
    `evaluate` its per-frame errors. Fills the classic accumulated-cost table
        D[i, j] = cost[i, j] + min(D[i-1, j-1], D[i-1, j], D[i, j-1])
    and backtracks the optimal path with a fixed tie-break: diagonal first,
    then vertical (advance a), then horizontal (advance b). No band
    constraint; the full table is always filled.

    The costs are computed from b's coordinate planes, laid out once, and
    those of row blocks of `a` of the shared budget, into one padded
    (n+1, m+1) table that is accumulated in place and backtracked.
    """
    try:
        a = np.ascontiguousarray(a, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConstraintError(f"dtw inputs are not regular (T, L, 3) arrays: {exc}") from exc
    if a.ndim != 3 or a.shape[2] != 3 or a.shape[1:] != b.shape[1:]:
        raise ConstraintError(
            f"dtw takes (T, L, 3) lip frames with the same L, got {a.shape} and {b.shape}"
        )
    n, m = len(a), len(b)
    if n == 0 or m == 0 or a.shape[1] == 0:
        raise ConstraintError("dtw inputs must be nonempty")

    # The table carries an inf padding row and column, with 0 at [0, 0] as
    # the virtual predecessor of (0, 0), so cell (i, j) sits at padded
    # (i+1, j+1). Row-major with stride m+1, each anti-diagonal i + j = d is
    # then a flat slice with step m, and its diagonal, upper and left
    # neighbours are the same slice shifted by m+2, m+1 and 1. Every cell
    # holding its local cost gets += min(diagonal, up, left), the arithmetic
    # of a row-by-row fill, so the table and the path do not depend on the
    # order.
    width = m + 1
    table = np.full((n + 1, width), np.inf)
    table[0, 0] = 0.0
    b_planes = np.ascontiguousarray(b.transpose(2, 1, 0))[:, :, None, :]
    for rows in _row_blocks(0, n, m * b[0].size):
        a_planes = np.ascontiguousarray(a[rows].transpose(2, 1, 0))[..., None]
        table[rows.start + 1 : rows.stop + 1, 1:] = _vertex_mean(_distances(a_planes, b_planes))
    flat = table.reshape(-1)
    buffer = np.empty(min(n, m))  # one anti-diagonal's predecessor minima
    for d in range(n + m - 1):
        i0, i1 = max(0, d - m + 1), min(n - 1, d)
        start = (i0 + 1) * width + d - i0 + 1
        stop = start + (i1 - i0) * m + 1
        prior = np.minimum(flat[start - width - 1 : stop - width - 1 : m],
                           flat[start - width : stop - width : m], out=buffer[: i1 - i0 + 1])
        np.minimum(prior, flat[start - 1 : stop - 1 : m], out=prior)
        flat[start:stop:m] += prior
    acc = table[1:, 1:]

    # the walk reads Python floats: numpy scalar indexing costs more per step
    get = acc.item
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diagonal, up, left = get(i - 1, j - 1), get(i - 1, j), get(i, j - 1)
            if diagonal <= up and diagonal <= left:
                i, j = i - 1, j - 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()

    return DtwResult(float(acc[n - 1, m - 1]), tuple(path))


def _lip_frames(seq: MeshSequence, lips: VertexRegionMask) -> np.ndarray:
    lips.validate_for(seq.num_vertices)
    # C-contiguous, unlike seq.frames[:, lips.indices], so dtw takes it as is
    return np.take(seq.frames, lips.indices, axis=1)


def ldtw(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> float:
    """DTW distance between lip trajectories, normalized by path length.

    The local cost between two frames is the mean per-lip-vertex Euclidean
    distance. Sequences of different lengths are allowed.
    """
    result = dtw(_lip_frames(gt, lips), _lip_frames(pred, lips))
    return result.distance / result.path_length


def _vertex_errors(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> np.ndarray:
    """The (3, T) per-frame FVE, LVE and Lip-max of `pred`, from DTW's kernel
    on row blocks of matched frames: each LVE is the cell on DTW's diagonal."""
    a, b = require_same_shape(gt, pred)
    lips.validate_for(a.shape[1])
    out = np.empty((3, len(a)))
    for rows in _row_blocks(0, len(a), a[0].size):
        dist = _distances(a[rows].transpose(2, 1, 0), b[rows].transpose(2, 1, 0))
        lip = dist[lips.indices]
        lip.max(axis=0, out=out[2, rows])
        out[1, rows] = _vertex_mean(lip)
        out[0, rows] = _vertex_mean(dist)
        del dist, lip  # free this block before the next one is made
    return out


def evaluate(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> MetricReport:
    """Compute all four metrics in one pass. FVE, LVE and Lip-max are frame
    means of `_vertex_errors`, added in frame order as DTW adds its diagonal,
    so LDTW <= LVE holds in floats on clips of equal length: D is at most the
    diagonal path's cost, LVE's sum, and the path has at least T steps."""
    fve, per_frame_lve, lip_max = _vertex_errors(gt, pred, lips)
    return MetricReport(
        fve=_frame_mean(fve),
        lve=_frame_mean(per_frame_lve),
        ldtw=ldtw(gt, pred, lips),
        lip_max=_frame_mean(lip_max),
        per_frame_lve=per_frame_lve,
    )


def _require_coverage(annotated: int, num_frames: int) -> None:
    """An annotation must label every frame of the sequence it splits."""
    if annotated != num_frames:
        raise ConstraintError(f"annotation covers {annotated} frames, sequence has {num_frames}")


def transition_split(
    per_frame_lve: np.ndarray, transition: np.ndarray
) -> tuple[float | None, float | None]:
    """Mean LVE over the transition frames and over the hold frames.

    `transition` is an annotation's per-frame transition mask; a side with
    no frames is None. Frames add in frame order, as in `evaluate`.
    """
    _require_coverage(len(transition), len(per_frame_lve))
    return tuple(
        _frame_mean(per_frame_lve[side]) if side.any() else None
        for side in (transition, ~transition)
    )
