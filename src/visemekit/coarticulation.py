"""Motion-adaptive frame weighting and the losses built on it.

The viseme coarticulation weight of a frame is a softmax-normalized measure
of how much the ground-truth vertices move inside a temporal window around
that frame. Frames in fast articulatory transitions receive more weight, so
the weighted reconstruction loss concentrates training effort where lip
shapes are changing instead of treating every frame equally.

Conventions: frame indices are 0-based throughout the API; weights are always
computed from the ground-truth sequence, never from a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConstraintError, require_integer
from .mesh import (
    MeshSequence,
    _row_blocks,
    _squared_distances,
    frame_difference_norms,
    require_same_shape,
)

__all__ = [
    "CoarticulationWeights",
    "LossKind",
    "LossReport",
    "coarticulation_weights",
    "loss_rec",
    "loss_pc",
    "grad_loss_rec",
    "grad_loss_pc",
    "central_difference",
    "relative_gradient_error",
]


@dataclass(frozen=True)
class CoarticulationWeights:
    """Per-frame weights (softmax of windowed motion energy) plus diagnostics.

    weights[t] and raw_energy[t] describe frame t of the sequence, every
    frame 0..T-1. Weights are positive and sum to 1.
    """

    weights: np.ndarray
    raw_energy: np.ndarray


class LossKind(Enum):
    REC = "rec"
    PC = "pc"


@dataclass(frozen=True)
class LossReport:
    """Scalar loss plus its per-frame breakdown: entry t is frame t's term."""

    total: float
    per_frame: np.ndarray


# -- windowed motion energy --------------------------------------------------

def _window_energies(diffs: np.ndarray, sigma: int) -> np.ndarray:
    """Windowed energy of every frame 0..T-1, from the T-1 step norms.

    Difference j covers the step from frame j to j+1. Frame f's window spans
    differences f-sigma-1 .. f+sigma-1 with both ends clamped into the
    feasible range [0, T-2], so it is never empty; an interior frame's window
    is never clamped. Each energy is the exact sum of its slice divided by
    the slice length; running-sum differences would lose precision to
    cancellation on long tracks.
    """
    sigma = min(sigma, len(diffs))  # any radius >= T-1 spans all T-1 differences
    last = len(diffs) - 1
    frames = np.arange(last + 2)
    lo = np.clip(frames - sigma - 1, 0, last)
    count = np.clip(frames + sigma - 1, 0, last) - lo + 1
    width = min(2 * sigma + 1, len(diffs))  # no clamped window is longer
    view = sliding_window_view(np.concatenate([diffs, np.zeros(width - 1)]), width)
    sums = np.empty(len(frames))
    # Gather in row blocks so a radius near T cannot allocate a (T, T) array;
    # at the usual radii and lengths the whole track is one block.
    for rows in _row_blocks(0, len(frames), width):
        block = view[lo[rows]]
        block[np.arange(width) >= count[rows, None]] = 0.0
        sums[rows] = block.sum(axis=1)
    return sums / count


def _softmax(values: np.ndarray) -> np.ndarray:
    # Max-subtracted form; identical to exp(v_t) / sum_i exp(v_i).
    shifted = values - values.max()
    ex = np.exp(shifted)
    return ex / ex.sum()


def coarticulation_weights(gt: MeshSequence, sigma: int = 2) -> CoarticulationWeights:
    """Softmax-normalized windowed motion energies of every frame of a
    ground-truth sequence, over windows of radius sigma (2*sigma + 1 frames).
    The radius must be a nonnegative integer; energy that is not finite is a
    ConstraintError.

    The softmax takes the energies unscaled: scaling the coordinates by c
    scales every energy by c^2, so a larger scale sharpens the weights.
    """
    sigma = require_integer(sigma, "window radius")
    with np.errstate(over="ignore"):  # a squared step that overflows is the error raised below
        diffs = frame_difference_norms(gt)
    raw = _window_energies(diffs, sigma)
    if not np.isfinite(raw).all():
        raise ConstraintError("motion energy is not finite")
    return CoarticulationWeights(_softmax(raw), raw)


# -- losses ------------------------------------------------------------------


def loss_rec(gt: MeshSequence, pred: MeshSequence) -> LossReport:
    """Plain reconstruction loss: per-frame squared vertex error, summed, from
    mesh._squared_distances in row blocks (no (T, V, 3) temporary)."""
    per_frame = _squared_distances(*require_same_shape(gt, pred))
    return LossReport(float(per_frame.sum()), per_frame)


def _check_weights(weights: CoarticulationWeights, num_frames: int) -> None:
    if len(weights.weights) != num_frames:
        raise ConstraintError(
            f"weights cover {len(weights.weights)} frames but the sequence has "
            f"{num_frames}; the weighted loss needs one weight per frame"
        )


def loss_pc(gt: MeshSequence, pred: MeshSequence, weights: CoarticulationWeights) -> LossReport:
    """Coarticulation-weighted reconstruction loss.

    Each frame's squared vertex error (loss_rec's blocked kernel) is scaled
    by its viseme coarticulation weight, one per frame: the weights of `gt`.
    """
    errors = _squared_distances(*require_same_shape(gt, pred))
    _check_weights(weights, len(errors))
    per_frame = weights.weights * errors
    return LossReport(float(per_frame.sum()), per_frame)


# -- analytic gradients w.r.t. the predicted vertices ------------------------


def grad_loss_rec(gt: MeshSequence, pred: MeshSequence) -> np.ndarray:
    """d loss_rec / d pred, shape (T, V, 3)."""
    a, b = require_same_shape(gt, pred)
    return 2.0 * (b - a)


def grad_loss_pc(
    gt: MeshSequence, pred: MeshSequence, weights: CoarticulationWeights
) -> np.ndarray:
    """d loss_pc / d pred; exact because the weights do not depend on pred."""
    a, b = require_same_shape(gt, pred)
    _check_weights(weights, len(a))
    return 2.0 * weights.weights[:, None, None] * (b - a)


# -- finite-difference oracle -------------------------------------------------


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of a scalar function, per array element:
    the one gradient oracle. A loss is checked as f(frames) = loss(gt,
    MeshSequence(frames, fps)).total; for these quadratic losses the O(step^2)
    truncation term vanishes and only rounding remains."""
    if not (math.isfinite(step) and step > 0):
        raise ConstraintError(f"step must be finite and positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        probe = x.copy().reshape(-1)
        probe[i] += step
        hi = f(probe.reshape(x.shape))
        probe[i] -= 2.0 * step
        lo = f(probe.reshape(x.shape))
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise deviation, relative to the larger gradient's scale."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)
