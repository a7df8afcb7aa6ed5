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
from .mesh import MeshSequence, _row_blocks, frame_difference_norms, require_same_shape

__all__ = [
    "BoundaryPolicy",
    "WindowSpec",
    "CoarticulationWeights",
    "LossKind",
    "LossReport",
    "strict_frame_range",
    "coarticulation_weights",
    "loss_rec",
    "loss_vel",
    "loss_pc",
    "grad_loss_rec",
    "grad_loss_vel",
    "grad_loss_pc",
    "central_difference",
    "relative_gradient_error",
]


class BoundaryPolicy(Enum):
    """How windows behave near the ends of the sequence.

    CLAMP truncates the window into the range where frame differences exist,
    so every frame 0..T-1 gets an energy. STRICT only accepts frames whose
    window lies entirely inside the sequence and errors elsewhere; it exists
    to check the untruncated definition on interior frames.
    """

    CLAMP = "clamp"
    STRICT = "strict"


@dataclass(frozen=True)
class WindowSpec:
    """Temporal window: radius sigma (window size 2*sigma + 1, default 5)."""

    sigma: int = 2
    policy: BoundaryPolicy = BoundaryPolicy.CLAMP

    def __post_init__(self):
        object.__setattr__(self, "sigma", require_integer(self.sigma, "window radius"))


@dataclass(frozen=True)
class CoarticulationWeights:
    """Per-frame weights (softmax of windowed motion energy) plus diagnostics.

    weights[i] and raw_energy[i] describe frame frame_start + i; frame_start
    is 0 under CLAMP and the first feasible frame under STRICT. Weights are
    positive and sum to 1 over the covered frames.
    """

    weights: np.ndarray
    raw_energy: np.ndarray
    sigma: int
    policy: BoundaryPolicy = BoundaryPolicy.CLAMP
    frame_start: int = 0

    def __len__(self) -> int:
        return len(self.weights)


class LossKind(Enum):
    REC = "rec"
    VEL = "vel"
    PC = "pc"


@dataclass(frozen=True)
class LossReport:
    """Scalar loss plus its per-frame breakdown.

    For VEL the breakdown has T-1 entries; entry j is the term for the step
    into frame j+1. For REC/PC entry t is frame t's contribution.
    """

    total: float
    per_frame: np.ndarray
    kind: LossKind


# -- windowed motion energy --------------------------------------------------

def _window_energies(diffs: np.ndarray, sigma: int) -> np.ndarray:
    """CLAMP-policy energy of every frame 0..T-1, from the T-1 step norms.

    Difference j covers the step from frame j to j+1. Frame f's window spans
    differences f-sigma-1 .. f+sigma-1 with both ends clamped into the
    feasible range [0, T-2], so it is never empty. Each energy is the exact
    sum of its slice divided by the slice length; running-sum differences
    would lose precision to cancellation on long tracks.
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


def strict_frame_range(sigma: int, num_frames: int) -> tuple[int, int]:
    """First and one-past-last frame coverable under the STRICT policy."""
    start = max(sigma, 1)  # frame 0 with sigma=0 has no prior frame
    stop = num_frames - sigma
    if start >= stop:
        raise ConstraintError(
            f"strict policy infeasible: sigma={sigma} needs T >= {2 * sigma + 1} "
            f"frames, got T={num_frames}"
        )
    return start, stop


def coarticulation_weights(
    gt: MeshSequence,
    window: WindowSpec = WindowSpec(),
    temperature: float = 1.0,
) -> CoarticulationWeights:
    """Softmax-normalized windowed motion energies of a ground-truth sequence.

    Under CLAMP every frame 0..T-1 is covered. Under STRICT only the feasible
    interior frames are, and `frame_start` records the offset. `temperature`
    divides the raw energies before the softmax; the default 1.0 is the
    canonical behavior. A quotient that is not finite is a ConstraintError.
    """
    with np.errstate(over="ignore"):  # a squared step that overflows is the error raised below
        diffs = frame_difference_norms(gt)
    num_frames = len(diffs) + 1
    if not (math.isfinite(temperature) and temperature > 0):
        raise ConstraintError(f"temperature must be finite and positive, got {temperature}")

    # A STRICT window never reaches a clamped end, so it equals the CLAMP one.
    start, stop = 0, num_frames
    if window.policy is BoundaryPolicy.STRICT:
        start, stop = strict_frame_range(window.sigma, num_frames)
    raw = _window_energies(diffs, window.sigma)[start:stop]

    with np.errstate(over="ignore"):  # an overflow is the error raised below
        scaled = raw / temperature
    if not np.isfinite(scaled).all():
        raise ConstraintError("motion energy over the temperature is not finite")
    weights = _softmax(scaled)
    return CoarticulationWeights(weights, raw, window.sigma, window.policy, start)


# -- losses ------------------------------------------------------------------


def _per_frame_sq_error(gt: MeshSequence, pred: MeshSequence) -> np.ndarray:
    a, b = require_same_shape(gt, pred)
    delta = a - b
    return np.sum(delta * delta, axis=(1, 2))


def loss_rec(gt: MeshSequence, pred: MeshSequence) -> LossReport:
    """Plain reconstruction loss: per-frame squared vertex error, summed."""
    per_frame = _per_frame_sq_error(gt, pred)
    return LossReport(float(per_frame.sum()), per_frame, LossKind.REC)


def loss_vel(gt: MeshSequence, pred: MeshSequence) -> LossReport:
    """Velocity loss: squared mismatch of frame-to-frame displacements."""
    a, b = require_same_shape(gt, pred)
    if len(a) < 2:
        raise ConstraintError("velocity loss needs at least 2 frames")
    dv = (a[1:] - a[:-1]) - (b[1:] - b[:-1])
    per_frame = np.sum(dv * dv, axis=(1, 2))
    return LossReport(float(per_frame.sum()), per_frame, LossKind.VEL)


def _check_weights(weights: CoarticulationWeights, num_frames: int) -> None:
    if weights.frame_start != 0 or len(weights.weights) != num_frames:
        raise ConstraintError(
            f"weights cover frames [{weights.frame_start}, "
            f"{weights.frame_start + len(weights.weights)}) but the sequence has "
            f"{num_frames} frames; the weighted loss needs full coverage"
        )


def loss_pc(gt: MeshSequence, pred: MeshSequence, weights: CoarticulationWeights) -> LossReport:
    """Coarticulation-weighted reconstruction loss.

    Each frame's squared vertex error is scaled by its viseme coarticulation
    weight, which must cover every frame of `gt` (CLAMP weights of `gt`).
    """
    errors = _per_frame_sq_error(gt, pred)
    _check_weights(weights, len(errors))
    per_frame = weights.weights * errors
    return LossReport(float(per_frame.sum()), per_frame, LossKind.PC)


# -- analytic gradients w.r.t. the predicted vertices ------------------------


def grad_loss_rec(gt: MeshSequence, pred: MeshSequence) -> np.ndarray:
    """d loss_rec / d pred, shape (T, V, 3)."""
    a, b = require_same_shape(gt, pred)
    return 2.0 * (b - a)


def grad_loss_vel(gt: MeshSequence, pred: MeshSequence) -> np.ndarray:
    """d loss_vel / d pred; frame t collects both difference terms touching t."""
    a, b = require_same_shape(gt, pred)
    if len(a) < 2:
        raise ConstraintError("velocity loss needs at least 2 frames")
    # d[j] is the step-(j -> j+1) velocity mismatch, gt minus pred.
    d = (a[1:] - a[:-1]) - (b[1:] - b[:-1])
    grad = np.zeros_like(b)
    grad[1:] -= 2.0 * d
    grad[:-1] += 2.0 * d
    return grad


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
