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
from .coarticulation import (
    CoarticulationWeights,
    LossKind,
    WindowSpec,
    _check_weights,
    coarticulation_weights,
    loss_pc,
    loss_rec,
    loss_vel,
)
from .errors import ConstraintError, DivergenceError, require_integer
from .mesh import MeshSequence, VertexRegionMask
from .synth import SegmentAnnotation

__all__ = [
    "ToyModel",
    "TrainConfig",
    "TrainReport",
    "AblationRow",
    "AblationResult",
    "temporal_basis",
    "predict",
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


@dataclass
class ToyModel:
    """Trainable coefficients (K, V, 3) over the fixed temporal basis."""

    coef: np.ndarray
    fps: float = 30.0

    @property
    def num_basis(self) -> int:
        return len(self.coef)


@dataclass(frozen=True)
class TrainConfig:
    loss_choice: LossKind = LossKind.PC
    vel_coefficient: float = 0.0
    sigma: int = 2
    learning_rate: float = 1e-2
    steps: int = 2000
    seed: int = 0
    num_basis: int | None = None  # K; defaults to max(T // 4, 1)

    def __post_init__(self):
        if self.loss_choice not in (LossKind.REC, LossKind.PC):
            raise ConstraintError("loss_choice must be REC or PC")
        if not (math.isfinite(self.vel_coefficient) and self.vel_coefficient >= 0):
            raise ConstraintError(
                f"vel_coefficient must be finite and >= 0, got {self.vel_coefficient}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConstraintError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        object.__setattr__(self, "steps", require_integer(self.steps, "steps"))
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        if self.num_basis is not None:
            object.__setattr__(self, "num_basis", require_integer(self.num_basis, "num_basis", 1))
        object.__setattr__(self, "sigma", WindowSpec(self.sigma).sigma)


@dataclass(frozen=True)
class TrainReport:
    """Everything observable about one training run."""

    loss_curve: np.ndarray  # objective at the start of each step, length = steps
    final_rec: float
    final_vel: float
    final_pc: float
    metrics: metrics.MetricReport
    lve_transition: float | None = None
    lve_hold: float | None = None


def predict(model: ToyModel, num_frames: int) -> MeshSequence:
    """Evaluate the basis expansion at frames 0..num_frames-1."""
    basis = temporal_basis(num_frames, model.num_basis)
    return MeshSequence(np.tensordot(basis, model.coef, axes=(1, 0)), model.fps)


def _quadratic_form(
    gt: MeshSequence,
    cfg: TrainConfig,
    basis: np.ndarray,
    weights: CoarticulationWeights | None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The training objective as an exact quadratic in the coefficients.

    With per-frame weights w (the PC weights, or all ones for REC), the
    first-difference operator D and M = diag(w) + vel_coefficient * D^T D,
    the objective at flattened coefficients C (K, 3V) is
        f(C) = <C, G C> - 2 <C, R> + c0,
    with G = B^T M B, R = B^T M Y and c0 = <Y, M Y> for the basis B and the
    flattened targets Y (T, 3V). The weights depend on the ground truth only,
    so the form is fixed for a whole fit.
    """
    targets = gt.frames.reshape(gt.num_frames, -1)
    if cfg.loss_choice is LossKind.PC:
        if weights is None:
            weights = coarticulation_weights(gt, WindowSpec(cfg.sigma))
        _check_weights(weights, gt.num_frames)
        w = weights.weights
    else:
        w = np.ones(gt.num_frames)
    mu = cfg.vel_coefficient
    basis_steps = np.diff(basis, axis=0)
    target_steps = np.diff(targets, axis=0)
    gram = basis.T @ (w[:, None] * basis) + mu * (basis_steps.T @ basis_steps)
    rhs = basis.T @ (w[:, None] * targets) + mu * (basis_steps.T @ target_steps)
    offset = float(w @ np.sum(targets * targets, axis=1) + mu * np.sum(target_steps**2))
    return gram, rhs, offset


def _evaluate_form(
    gram: np.ndarray, rhs: np.ndarray, offset: float, flat: np.ndarray
) -> tuple[float, np.ndarray]:
    """f(C) and the residual G C - R (half the gradient) at flattened C."""
    residual = gram @ flat - rhs
    return float(np.vdot(flat, residual - rhs)) + offset, residual


def objective_and_gradient(
    gt: MeshSequence,
    coef: np.ndarray,
    cfg: TrainConfig,
    basis: np.ndarray | None = None,
    weights: CoarticulationWeights | None = None,
) -> tuple[float, np.ndarray]:
    """Training objective at `coef` and its gradient w.r.t. `coef`.

    The objective is the chosen frame loss plus vel_coefficient times the
    velocity loss of the basis prediction, evaluated through its exact
    quadratic form; the gradient is 2 (G C - R).
    """
    coef = np.asarray(coef, dtype=np.float64)
    if basis is None:
        basis = temporal_basis(gt.num_frames, len(coef))
    form = _quadratic_form(gt, cfg, basis, weights)
    total, residual = _evaluate_form(*form, coef.reshape(len(coef), -1))
    return total, (2.0 * residual).reshape(coef.shape)


def fit(
    gt: MeshSequence,
    cfg: TrainConfig,
    annotation: SegmentAnnotation | None = None,
    lips: VertexRegionMask | None = None,
) -> tuple[ToyModel, TrainReport]:
    """Fit the toy model to `gt` by plain gradient descent.

    Deterministic given cfg.seed, which only drives the small uniform noise
    used to initialize the coefficients. Coarticulation weights for the PC
    loss are computed once from `gt`, and the objective's quadratic form
    once from them, before the loop. Raises DivergenceError if the objective
    goes non-finite. When `annotation` is given the report also carries lip
    error split by transition vs hold frames.
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
    weights = None
    if cfg.loss_choice is LossKind.PC:
        weights = coarticulation_weights(gt, WindowSpec(cfg.sigma))
    form = _quadratic_form(gt, cfg, basis, weights)

    rng = np.random.default_rng(cfg.seed)
    coef = rng.uniform(-0.01, 0.01, size=(num_basis, num_vertices, 3))
    flat = coef.reshape(num_basis, -1)  # a view: updating it updates coef

    curve = np.empty(cfg.steps)
    step_size = 2.0 * cfg.learning_rate
    for step in range(cfg.steps):
        total, residual = _evaluate_form(*form, flat)
        if not math.isfinite(total):
            raise DivergenceError(step)
        curve[step] = total
        flat -= step_size * residual

    model = ToyModel(coef, gt.fps)
    pred = predict(model, num_frames)

    lips_mask = lips if lips is not None else VertexRegionMask.full(num_vertices)
    report_metrics = metrics.evaluate(gt, pred, lips_mask)

    lve_transition = lve_hold = None
    if annotation is not None:
        tmask = annotation.transition_mask()
        if len(tmask) != num_frames:
            raise ConstraintError(
                f"annotation covers {len(tmask)} frames, sequence has {num_frames}"
            )
        per_frame = report_metrics.per_frame_lve
        if tmask.any():
            lve_transition = float(per_frame[tmask].mean())
        if (~tmask).any():
            lve_hold = float(per_frame[~tmask].mean())

    report = TrainReport(
        loss_curve=curve,
        final_rec=loss_rec(gt, pred).total,
        final_vel=loss_vel(gt, pred).total,
        final_pc=loss_pc(gt, pred, weights).total,
        metrics=report_metrics,
        lve_transition=lve_transition,
        lve_hold=lve_hold,
    )
    return model, report


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
    only in the loss. best_sigma is the radius of the lowest-LVE weighted
    row (None when `sigmas` is empty).
    """

    def run(run_cfg: TrainConfig, sigma: int | None) -> AblationRow:
        _, report = fit(gt, run_cfg, annotation, lips)
        return AblationRow(
            sigma=sigma,
            fve=report.metrics.fve,
            lve=report.metrics.lve,
            lve_transition=report.lve_transition,
            lve_hold=report.lve_hold,
        )

    rows = [
        run(replace(cfg, loss_choice=LossKind.PC, sigma=int(s)), int(s)) for s in sigmas
    ]
    rows.append(run(replace(cfg, loss_choice=LossKind.REC), None))

    best_sigma = None
    if sigmas:
        best_sigma = min(rows[:-1], key=lambda r: r.lve).sigma
    return AblationResult(tuple(rows), best_sigma)
