import numpy as np
import pytest

from visemekit import toytrain
from visemekit import (
    ConstraintError,
    DivergenceError,
    LossKind,
    MeshSequence,
    SegmentAnnotation,
    ToyModel,
    TrainConfig,
    VertexRegionMask,
    WindowSpec,
    ablate_window,
    coarticulation_weights,
    fit,
    grad_loss_pc,
    grad_loss_rec,
    grad_loss_vel,
    loss_pc,
    loss_rec,
    loss_vel,
    objective_and_gradient,
    predict,
    temporal_basis,
)
from visemekit.coarticulation import central_difference, relative_gradient_error


def seq(frames, fps=30.0):
    return MeshSequence(np.asarray(frames, dtype=np.float64), fps)


class TestTemporalBasis:
    def test_shape(self):
        assert temporal_basis(12, 4).shape == (12, 4)

    def test_identity_like_at_full_capacity(self):
        basis = temporal_basis(8, 8)
        # bump peak on the diagonal, strictly dominant over off-diagonals
        for t in range(8):
            row = basis[t]
            assert row[t] == pytest.approx(2.0 / 3.0)
            assert row[t] > row.sum() - row[t]

    def test_full_capacity_spans_arbitrary_targets(self):
        rng = np.random.default_rng(0)
        target = rng.normal(0.0, 1.0, (8, 2, 3))
        basis = temporal_basis(8, 8)
        coef, *_ = np.linalg.lstsq(basis, target.reshape(8, -1), rcond=None)
        model = ToyModel(coef.reshape(8, 2, 3))
        assert np.asarray(predict(model, 8).frames) == pytest.approx(target, abs=1e-9)

    def test_single_bump_prediction_is_the_bump(self):
        basis = temporal_basis(9, 1)
        coef = np.zeros((1, 1, 3))
        coef[0, 0, 0] = 1.0
        frames = np.asarray(predict(ToyModel(coef), 9).frames)
        assert frames[:, 0, 0] == pytest.approx(basis[:, 0])
        assert np.all(frames[:, 0, 1:] == 0.0)

    def test_degenerate_sizes(self):
        assert temporal_basis(1, 1).shape == (1, 1)
        assert temporal_basis(2, 2).shape == (2, 2)

    def test_invalid(self):
        with pytest.raises(ConstraintError):
            temporal_basis(5, 0)
        with pytest.raises(ConstraintError):
            temporal_basis(0, 1)


def test_predict_zero_coefficients():
    frames = np.asarray(predict(ToyModel(np.zeros((3, 2, 3))), 10).frames)
    assert np.all(frames == 0.0)


class TestObjectiveGradient:
    def test_matches_finite_differences_on_small_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            num_frames = int(rng.integers(3, 13))
            num_vertices = int(rng.integers(1, 5))
            num_basis = int(rng.integers(1, min(5, num_frames)))
            gt = seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))
            coef = rng.normal(0.0, 1.0, (num_basis, num_vertices, 3))
            cfg = TrainConfig(
                loss_choice=LossKind.PC,
                vel_coefficient=0.5,
                sigma=2,
                steps=1,
            )
            _, analytic = objective_and_gradient(gt, coef, cfg)
            numeric = central_difference(
                lambda c: objective_and_gradient(gt, c, cfg)[0], coef, 1e-4
            )
            assert relative_gradient_error(analytic, numeric) <= 1e-4


def direct_objective(gt, coef, cfg, basis):
    """The objective composed the slow way: losses on the basis prediction."""
    pred = seq(np.tensordot(basis, coef, axes=(1, 0)))
    if cfg.loss_choice is LossKind.PC:
        weights = coarticulation_weights(gt, WindowSpec(cfg.sigma))
        total = loss_pc(gt, pred, weights).total
        grad = grad_loss_pc(gt, pred, weights)
    else:
        total = loss_rec(gt, pred).total
        grad = grad_loss_rec(gt, pred)
    total += cfg.vel_coefficient * loss_vel(gt, pred).total
    grad = grad + cfg.vel_coefficient * grad_loss_vel(gt, pred)
    return total, np.tensordot(basis, grad, axes=(0, 0))


QUADRATIC_CASES = [
    (kind, mu) for kind in (LossKind.REC, LossKind.PC) for mu in (0.0, 0.3)
]


class TestQuadraticForm:
    @pytest.mark.parametrize("kind,mu", QUADRATIC_CASES)
    def test_matches_direct_composition(self, kind, mu):
        rng = np.random.default_rng(30)
        for _ in range(20):
            num_frames = int(rng.integers(2, 40))
            num_basis = int(rng.integers(1, num_frames))
            num_vertices = int(rng.integers(1, 6))
            gt = seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))
            coef = rng.normal(0.0, 1.0, (num_basis, num_vertices, 3))
            cfg = TrainConfig(loss_choice=kind, vel_coefficient=mu, sigma=int(rng.integers(0, 4)))
            basis = temporal_basis(num_frames, num_basis)
            want_total, want_grad = direct_objective(gt, coef, cfg, basis)
            total, grad = objective_and_gradient(gt, coef, cfg)
            assert total == pytest.approx(want_total, rel=1e-12)
            assert grad.shape == coef.shape
            assert relative_gradient_error(grad, want_grad) <= 1e-12

    @pytest.mark.parametrize("kind,mu", QUADRATIC_CASES)
    def test_first_loss_is_direct_objective_at_initialization(self, kind, mu):
        rng = np.random.default_rng(31)
        for seed in range(5):
            num_frames = int(rng.integers(3, 40))
            num_basis = int(rng.integers(1, num_frames))
            num_vertices = int(rng.integers(1, 6))
            gt = seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))
            cfg = TrainConfig(
                loss_choice=kind, vel_coefficient=mu, steps=1, seed=seed, num_basis=num_basis
            )
            _, report = fit(gt, cfg)
            init = np.random.default_rng(seed).uniform(-0.01, 0.01, (num_basis, num_vertices, 3))
            want, _ = direct_objective(gt, init, cfg, temporal_basis(num_frames, num_basis))
            assert report.loss_curve[0] == pytest.approx(want, rel=1e-12)

    def test_long_fit_approaches_minimum_from_above(self):
        rng = np.random.default_rng(32)
        gt = seq(rng.normal(0.0, 1.0, (16, 2, 3)))
        cfg = TrainConfig(loss_choice=LossKind.PC, vel_coefficient=0.3, sigma=1,
                          learning_rate=0.1, steps=3000, num_basis=4)
        basis = temporal_basis(16, 4)
        weights = coarticulation_weights(gt, WindowSpec(1))
        gram, rhs, _ = toytrain._quadratic_form(gt, cfg, basis, weights)
        best = np.linalg.solve(gram, rhs).reshape(4, 2, 3)
        minimum, _ = direct_objective(gt, best, cfg, basis)
        _, report = fit(gt, cfg)
        curve = report.loss_curve
        assert np.all(curve >= minimum * (1.0 - 1e-12))
        assert np.all(np.diff(curve) <= 1e-12)
        assert curve[-1] == pytest.approx(minimum, rel=1e-9)


class TestFit:
    def test_recovers_target_in_model_span(self):
        rng = np.random.default_rng(2)
        basis = temporal_basis(16, 4)
        true_coef = rng.normal(0.0, 1.0, (4, 2, 3))
        gt = seq(np.tensordot(basis, true_coef, axes=(1, 0)))
        cfg = TrainConfig(
            loss_choice=LossKind.REC, learning_rate=0.05, steps=4000, num_basis=4
        )
        _, report = fit(gt, cfg)
        assert report.final_rec <= 1e-6
        # closed-form check: the optimum really is (near) zero residual
        lsq = np.linalg.lstsq(basis, np.asarray(gt.frames).reshape(16, -1), rcond=None)
        assert lsq[1].sum() if lsq[1].size else 0.0 <= 1e-12

    def test_zero_steps_returns_initialization(self):
        rng = np.random.default_rng(3)
        gt = seq(rng.normal(0.0, 1.0, (8, 2, 3)))
        cfg = TrainConfig(steps=0, num_basis=3, seed=17)
        model, report = fit(gt, cfg)
        assert len(report.loss_curve) == 0
        init = np.random.default_rng(17).uniform(-0.01, 0.01, size=(3, 2, 3))
        assert np.array_equal(model.coef, init)

    def test_loss_curve_non_increasing_for_small_lr(self):
        rng = np.random.default_rng(4)
        gt = seq(rng.normal(0.0, 1.0, (12, 2, 3)))
        cfg = TrainConfig(loss_choice=LossKind.REC, learning_rate=1e-3, steps=300, num_basis=4)
        _, report = fit(gt, cfg)
        diffs = np.diff(report.loss_curve)
        assert np.all(diffs <= 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        gt = seq(rng.normal(0.0, 1.0, (10, 3, 3)))
        cfg = TrainConfig(steps=50, num_basis=3, seed=9)
        model_a, report_a = fit(gt, cfg)
        model_b, report_b = fit(gt, cfg)
        assert np.array_equal(model_a.coef, model_b.coef)
        assert np.array_equal(report_a.loss_curve, report_b.loss_curve)
        assert report_a.metrics.lve == report_b.metrics.lve

    def test_divergence_detected_with_step_index(self):
        rng = np.random.default_rng(6)
        gt = seq(rng.normal(0.0, 1.0, (10, 2, 3)))
        cfg = TrainConfig(loss_choice=LossKind.REC, learning_rate=50.0, steps=500, num_basis=3)
        # blow-up to inf is the expected failure mode, not a numerical accident
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
            fit(gt, cfg)
        assert excinfo.value.step > 0

    def test_capacity_bottleneck_enforced(self):
        gt = seq(np.zeros((5, 1, 3)))
        with pytest.raises(ConstraintError):
            fit(gt, TrainConfig(num_basis=5))
        with pytest.raises(ConstraintError):
            fit(gt, TrainConfig(num_basis=9))

    def test_default_capacity_is_quarter(self):
        rng = np.random.default_rng(7)
        gt = seq(rng.normal(0.0, 1.0, (16, 1, 3)))
        model, _ = fit(gt, TrainConfig(steps=1))
        assert model.num_basis == 4

    def test_annotation_split(self):
        rng = np.random.default_rng(8)
        gt = seq(rng.normal(0.0, 1.0, (8, 2, 3)))
        labels = ("a", "a", "transition", "transition", "b", "b", "b", "b")
        annotation = SegmentAnnotation(labels, np.zeros(8, dtype=bool))
        cfg = TrainConfig(steps=5, num_basis=2)
        _, report = fit(gt, cfg, annotation=annotation, lips=VertexRegionMask(np.array([0])))
        assert report.lve_transition is not None and report.lve_hold is not None
        per_frame = report.metrics.per_frame_lve
        assert report.lve_transition == pytest.approx(per_frame[2:4].mean())
        assert report.lve_hold == pytest.approx(np.concatenate([per_frame[:2], per_frame[4:]]).mean())

    def test_annotation_length_mismatch(self):
        gt = seq(np.zeros((5, 1, 3)))
        annotation = SegmentAnnotation(("a", "b"), np.zeros(2, dtype=bool))
        with pytest.raises(ConstraintError):
            fit(gt, TrainConfig(steps=1, num_basis=2), annotation=annotation)

    def test_needs_two_frames(self):
        with pytest.raises(ConstraintError):
            fit(seq(np.zeros((1, 1, 3))), TrainConfig(steps=1, num_basis=1))


class TestTrainConfig:
    def test_rejects_vel_as_frame_loss(self):
        with pytest.raises(ConstraintError):
            TrainConfig(loss_choice=LossKind.VEL)

    def test_rejects_bad_values(self):
        with pytest.raises(ConstraintError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConstraintError):
            TrainConfig(steps=-1)
        with pytest.raises(ConstraintError):
            TrainConfig(vel_coefficient=-0.1)
        with pytest.raises(ConstraintError):
            TrainConfig(sigma=-1)

    @pytest.mark.parametrize("field", ["vel_coefficient", "learning_rate", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConstraintError):
            TrainConfig(**{field: value})

    def test_sigma_follows_window_rule(self):
        with pytest.raises(ConstraintError, match="window radius"):
            TrainConfig(sigma=1.5)
        cfg = TrainConfig(sigma=3.0)
        assert cfg.sigma == 3 and type(cfg.sigma) is int

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", float("nan")), ("steps", 2.5), ("steps", -1),
            ("seed", -1), ("seed", 0.5), ("seed", float("inf")),
            ("num_basis", 2.5), ("num_basis", 0), ("num_basis", float("nan")),
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConstraintError, match=field):
            TrainConfig(**{field: value})

    def test_integral_counts_stored_as_int(self):
        cfg = TrainConfig(steps=3.0, seed=7.0, num_basis=2.0)
        assert (cfg.steps, cfg.seed, cfg.num_basis) == (3, 7, 2)
        assert all(type(v) is int for v in (cfg.steps, cfg.seed, cfg.num_basis))
        assert TrainConfig(steps=0, seed=0).num_basis is None


class TestAblateWindow:
    def test_row_counts_and_order(self):
        rng = np.random.default_rng(9)
        gt = seq(rng.normal(0.0, 1.0, (12, 2, 3)))
        cfg = TrainConfig(steps=5, num_basis=3)
        result = ablate_window(gt, cfg, [2])
        assert len(result.rows) == 2
        assert result.rows[0].sigma == 2
        assert result.baseline.sigma is None
        assert result.best_sigma == 2

    def test_empty_sigmas_baseline_only(self):
        rng = np.random.default_rng(10)
        gt = seq(rng.normal(0.0, 1.0, (12, 2, 3)))
        result = ablate_window(gt, TrainConfig(steps=5, num_basis=3), [])
        assert len(result.rows) == 1
        assert result.best_sigma is None

    def test_best_sigma_is_lowest_lve(self):
        rng = np.random.default_rng(11)
        gt = seq(rng.normal(0.0, 1.0, (16, 2, 3)))
        cfg = TrainConfig(steps=30, num_basis=4, learning_rate=0.05)
        result = ablate_window(gt, cfg, [0, 1, 2])
        weighted = result.weighted_rows
        best = min(weighted, key=lambda r: r.lve)
        assert result.best_sigma == best.sigma
        assert [r.sigma for r in weighted] == [0, 1, 2]
