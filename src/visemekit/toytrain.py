"""An under-capacity linear model for demonstrating loss-weighting effects.

The model predicts each frame as a fixed expansion over K smooth temporal
basis functions (uniform cubic B-spline bumps) with K < T, so it cannot fit
every frame and the training loss decides where the residual error lands.
Training the same model with the plain reconstruction loss versus the
coarticulation-weighted loss makes the weighting's effect measurable:
the weighted run should allocate less error to transition frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .coarticulation import CoarticulationWeights, LossKind, coarticulation_weights
from .errors import ConstraintError, DivergenceError, require_integer
from .mesh import MeshSequence, VertexRegionMask, _row_blocks
from .synth import SegmentAnnotation

__all__ = [
    "TrainConfig",
    "TrainReport",
    "AblationRow",
    "AblationResult",
    "temporal_basis",
    "fit",
    "objective_and_gradient",
    "ablate_window",
]


def _cubic_bspline(x: np.ndarray) -> np.ndarray:
    """The standard cubic B-spline bump: support [-2, 2], C2 smooth, peak 2/3."""
    ax = np.abs(x)
    out = np.zeros_like(ax)
    near = ax < 1.0
    mid = (ax >= 1.0) & (ax < 2.0)
    out[near] = 2.0 / 3.0 - ax[near] ** 2 + 0.5 * ax[near] ** 3
    out[mid] = (2.0 - ax[mid]) ** 3 / 6.0
    return out


def temporal_basis(num_frames: int, num_basis: int) -> np.ndarray:
    """Basis matrix (T, K): K bump functions evenly spread over the frames.

    Bump k is the cubic B-spline kernel centered at c_k = linspace over the
    frame range, scaled by the center spacing. With num_basis == num_frames
    the matrix is banded and diagonally dominant (an identity-like basis).
    """
    if num_basis < 1:
        raise ConstraintError("need at least one basis function")
    if num_frames < 1:
        raise ConstraintError("need at least one frame")
    t = np.arange(num_frames, dtype=np.float64)
    if num_basis == 1:
        centers = np.array([0.5 * (num_frames - 1)])
        spacing = max((num_frames - 1) / 4.0, 1.0)
    else:
        centers = np.linspace(0.0, num_frames - 1.0, num_basis)
        spacing = max((num_frames - 1.0) / (num_basis - 1.0), 1e-9)
    return _cubic_bspline((t[:, None] - centers[None, :]) / spacing)


@dataclass(frozen=True)
class TrainConfig:
    loss_choice: LossKind = LossKind.PC
    sigma: int = 2
    learning_rate: float = 1e-2
    steps: int = 2000
    seed: int = 0
    num_basis: int | None = None  # K; defaults to max(T // 4, 1)

    def __post_init__(self):
        if not isinstance(self.loss_choice, LossKind):
            raise ConstraintError("loss_choice must be REC or PC")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConstraintError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        object.__setattr__(self, "steps", require_integer(self.steps, "steps"))
        if 8 * self.steps > np.iinfo(np.intp).max:  # fit's float64 loss curve
            raise ConstraintError(f"steps {self.steps} is too many: no array can hold its loss curve")
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        if self.num_basis is not None:
            object.__setattr__(self, "num_basis", require_integer(self.num_basis, "num_basis", 1))
        object.__setattr__(self, "sigma", require_integer(self.sigma, "window radius"))


@dataclass(frozen=True)
class TrainReport:
    """What one training run produced; scoring it is the caller's choice."""

    loss_curve: np.ndarray  # objective at the start of each step, length = steps
    coef: np.ndarray  # fitted coefficients (K, V, 3) over the temporal basis
    prediction: MeshSequence  # their basis expansion
    weights: CoarticulationWeights  # the cfg.sigma weights the run was built on


def _least_squares(
    gt: MeshSequence,
    cfg: TrainConfig,
    basis: np.ndarray,
    weights: CoarticulationWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """The training objective as a least-squares problem in the coefficients.

    With per-frame weights w (the PC weights, or all ones for REC), the basis
    B and the flattened targets Y (T, 3V), the objective at flattened
    coefficients C (K, 3V) is f(C) = ||A C - b||^2 with A = sqrt(w) B (T, K)
    and b = sqrt(w) Y. The weights are the coarticulation weights of `gt`, so
    (A, b) is fixed for a whole fit.
    """
    targets = gt.frames.reshape(gt.num_frames, -1)
    w = weights.weights if cfg.loss_choice is LossKind.PC else np.ones(gt.num_frames)
    root = np.sqrt(w)[:, None]
    return root * basis, root * targets


def objective_and_gradient(
    gt: MeshSequence, coef: np.ndarray, cfg: TrainConfig
) -> tuple[float, np.ndarray]:
    """Training objective at `coef` and its gradient w.r.t. `coef`.

    The objective is the chosen frame loss (rec or pc) of the basis
    prediction, evaluated as the squared norm of the least-squares residual
    r = A C - b; the gradient is 2 A^T r. The weights are built from
    cfg.sigma as `fit` builds them.
    """
    coef = np.asarray(coef, dtype=np.float64)
    weights = coarticulation_weights(gt, cfg.sigma)
    design, observed = _least_squares(gt, cfg, temporal_basis(gt.num_frames, len(coef)), weights)
    residual = design @ coef.reshape(len(coef), -1) - observed
    return float(np.sum(residual * residual)), (2.0 * (design.T @ residual)).reshape(coef.shape)


def fit(gt: MeshSequence, cfg: TrainConfig) -> TrainReport:
    """Fit the toy model to `gt` by plain gradient descent; score nothing.

    Deterministic given cfg.seed, which only drives the small uniform noise
    used to initialize the coefficients. Coarticulation weights are computed
    once from `gt` with the window radius cfg.sigma, for both losses; the PC
    objective trains on them, and the report carries them so that a caller
    can score the prediction under the same weights. The objective's
    least-squares form (A, b) is built once from them, and the cfg.steps
    gradient-descent iterates are evaluated in closed form from one thin SVD
    of A, without stepping. Every entry of the loss curve is a sum of
    non-negative terms; entry 0 is the objective evaluated at the start.
    Raises DivergenceError at the first step whose objective is non-finite.
    The report carries the loss curve, the fitted coefficients and their
    prediction, expanded from the basis the fit built.
    """
    num_frames, num_vertices = gt.num_frames, gt.num_vertices
    if num_frames < 2:
        raise ConstraintError("fitting needs at least 2 frames")
    num_basis = cfg.num_basis if cfg.num_basis is not None else max(num_frames // 4, 1)
    if not 1 <= num_basis < num_frames:
        raise ConstraintError(
            f"capacity bottleneck requires 1 <= K < T, got K={num_basis}, T={num_frames}"
        )

    basis = temporal_basis(num_frames, num_basis)
    weights = coarticulation_weights(gt, cfg.sigma)
    design, observed = _least_squares(gt, cfg, basis, weights)

    rng = np.random.default_rng(cfg.seed)
    coef = rng.uniform(-0.01, 0.01, size=(num_basis, num_vertices, 3))
    flat = coef.reshape(num_basis, -1)  # a view: updating it updates coef

    # With A = U diag(s) V^T and the gap e = b - A C0, the part of e outside
    # A's range never moves, and mode k of r = U^T e shrinks by
    # rho = 1 - 2 lr s^2 per step: f(t) = |e_perp|^2 + sum |r_k|^2 rho^2t, and
    # n steps move the coefficients to C0 + V ((1 - rho^n) r / s).
    gap = observed - design @ flat
    left, singular, right = np.linalg.svd(design, full_matrices=False)
    reach = left.T @ gap
    outside = gap - left @ reach
    # a singular value of exactly 0 (PC weights that underflowed) gets no shift
    shift = np.divide(reach, singular[:, None], out=np.zeros_like(reach),
                      where=singular[:, None] != 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # np.sum, not the BLAS dot, so the curve's bits do not depend on the
        # BLAS thread count
        curve = np.full(cfg.steps, float(np.sum(outside * outside)))
        curve[:1] = np.sum(gap * gap)  # f(0) is evaluated, as objective_and_gradient does
        rate = cfg.learning_rate * singular * singular  # a mode is stable iff 0 < rate < 1
        log_rho2 = np.log1p(-4.0 * rate * (1.0 - rate))  # keeps its digits as s -> 0
        log_reach2 = np.log(np.sum(reach * reach, axis=1))  # log |r_k|^2
        for rows in _row_blocks(1, cfg.steps, num_basis):
            x = np.arange(rows.start, rows.stop)[:, None] * log_rho2 + log_reach2
            # numpy's exp is ~10x slower on results that underflow; such a
            # term (below 1e-307) is flushed to 0 instead
            curve[rows] += np.exp(x, out=np.zeros_like(x), where=x > -708.0).sum(axis=1)
        rho = 1.0 - 2.0 * rate
        moved = np.where(rho > 0, -np.expm1(cfg.steps * np.log1p(-2.0 * rate)), 1.0 - rho**cfg.steps)
    diverged = np.flatnonzero(~np.isfinite(curve))
    if diverged.size:
        raise DivergenceError(int(diverged[0]), f"loss became non-finite at step {diverged[0]} "
                              f"(learning_rate*lambda_max = {rate[0]:.3g}; stable below 1)")
    flat += right.T @ (moved[:, None] * shift)

    pred = MeshSequence(np.tensordot(basis, coef, axes=(1, 0)), gt.fps)
    return TrainReport(loss_curve=curve, coef=coef, prediction=pred, weights=weights)


# -- window-size ablation -------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    sigma: int | None  # None marks the unweighted (REC) baseline row
    fve: float
    lve: float
    lve_transition: float | None = None
    lve_hold: float | None = None


@dataclass(frozen=True)
class AblationResult:
    """Weighted rows in the order the sigmas were given, baseline row last."""

    rows: tuple[AblationRow, ...]
    best_sigma: int | None

    @property
    def baseline(self) -> AblationRow:
        return self.rows[-1]

    @property
    def weighted_rows(self) -> tuple[AblationRow, ...]:
        return self.rows[:-1]


def ablate_window(
    gt: MeshSequence,
    cfg: TrainConfig,
    sigmas: list[int],
    annotation: SegmentAnnotation | None = None,
    lips: VertexRegionMask | None = None,
) -> AblationResult:
    """Fit once per window radius (weighted loss) plus one unweighted baseline.

    Every run reuses the same seed and hyperparameters so the rows differ
    only in the loss. Each row scores only what the table shows: FVE and
    LVE over `lips` (default: every vertex) and, when `annotation` is given,
    the LVE split by transition vs hold frames, with the arithmetic of
    metrics.evaluate and metrics.transition_split. best_sigma is the radius
    of the lowest-LVE weighted row (None when `sigmas` is empty).
    """
    lips = lips if lips is not None else VertexRegionMask.full(gt.num_vertices)
    if annotation is not None:
        metrics._require_coverage(len(annotation.labels), gt.num_frames)

    def run(run_cfg: TrainConfig, sigma: int | None) -> AblationRow:
        fve, per_frame_lve, _ = metrics._vertex_errors(gt, fit(gt, run_cfg).prediction, lips)
        split = (None, None)
        if annotation is not None:
            split = metrics.transition_split(per_frame_lve, annotation.transition_mask())
        return AblationRow(sigma, metrics._frame_mean(fve), metrics._frame_mean(per_frame_lve), *split)

    rows = [
        run(replace(cfg, loss_choice=LossKind.PC, sigma=int(s)), int(s)) for s in sigmas
    ]
    rows.append(run(replace(cfg, loss_choice=LossKind.REC), None))

    best_sigma = None
    if sigmas:
        best_sigma = min(rows[:-1], key=lambda r: r.lve).sigma
    return AblationResult(tuple(rows), best_sigma)
