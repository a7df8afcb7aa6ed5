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


# -- dynamic time warping -----------------------------------------------------

def _mean_vertex_distance(rows: np.ndarray, b_planes: np.ndarray) -> np.ndarray:
    """Mean per-vertex Euclidean distance of k (L, 3) frames of `a` to all of b's.

    `rows` is the (k, L, 3) block of `a`, and `b_planes` is b laid out as
    contiguous coordinate planes (3, L, m). The block is laid out the same
    way, so the differences broadcast along all of b's frames. (Laying out
    all of `a` once is no faster and holds another copy of it.) The squared
    components are summed as (x + y) + z, the order numpy's norm over an axis
    of length 3 uses, and the L distances are added in place in lip order.
    """
    a_planes = np.ascontiguousarray(rows.transpose(2, 1, 0))
    delta = a_planes[:, :, :, None] - b_planes[:, :, None, :]
    delta *= delta
    sq = np.add(delta[0], delta[1], out=delta[0])
    sq += delta[2]
    np.sqrt(sq, out=sq)
    mean = sq[0]
    for plane in sq[1:]:
        mean += plane
    mean /= rows.shape[1]
    return mean


def dtw(a: np.ndarray, b: np.ndarray) -> DtwResult:
    """Dynamic time warping between two lip trajectories, as LDTW scores them.

    `a` and `b` are (T, L, 3) frame arrays with the same L, converted to
    C-contiguous float64 whatever the caller's layout. The local cost of two
    frames is their mean per-vertex Euclidean distance, summed in lip order.
    Fills the classic accumulated-cost table
        D[i, j] = cost[i, j] + min(D[i-1, j-1], D[i-1, j], D[i, j-1])
    and backtracks the optimal path with a fixed tie-break: diagonal first,
    then vertical (advance a), then horizontal (advance b). No band
    constraint; the full table is always filled.

    b's coordinate planes are laid out once, and the costs are computed on
    row blocks of `a` of the shared budget, so the broadcast differences stay
    small on long sequences. The blocks are written into one padded
    (n+1, m+1) table, which is accumulated in place and backtracked: DTW
    holds no second table.
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
    b_planes = np.ascontiguousarray(b.transpose(2, 1, 0))
    for rows in _row_blocks(0, n, m * b[0].size):
        table[rows.start + 1 : rows.stop + 1, 1:] = _mean_vertex_distance(a[rows], b_planes)
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


def _vertex_errors(
    gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask
) -> tuple[float, np.ndarray, np.ndarray]:
    """FVE, the per-frame LVE and the (T, L) lip-vertex errors of `pred`."""
    a, b = require_same_shape(gt, pred)
    lips.validate_for(a.shape[1])
    errors = np.linalg.norm(a - b, axis=2)
    lip_errors = errors[:, lips.indices]
    return float(errors.mean(axis=1).mean()), lip_errors.mean(axis=1), lip_errors


def evaluate(gt: MeshSequence, pred: MeshSequence, lips: VertexRegionMask) -> MetricReport:
    """Compute all four metrics in one pass."""
    fve, per_frame_lve, lip_errors = _vertex_errors(gt, pred, lips)
    return MetricReport(
        fve=fve,
        lve=float(per_frame_lve.mean()),
        ldtw=ldtw(gt, pred, lips),
        lip_max=float(lip_errors.max(axis=1).mean()),
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
    no frames is None.
    """
    _require_coverage(len(transition), len(per_frame_lve))
    return tuple(
        float(per_frame_lve[side].mean()) if side.any() else None
        for side in (transition, ~transition)
    )
