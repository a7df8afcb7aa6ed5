import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from visemekit import mesh, metrics
from visemekit import (
    ConstraintError,
    DivergenceError,
    LossKind,
    MeshSequence,
    SegmentAnnotation,
    TrainConfig,
    VertexRegionMask,
    ablate_window,
    coarticulation_weights,
    evaluate,
    fit,
    grad_loss_pc,
    grad_loss_rec,
    loss_pc,
    loss_rec,
    objective_and_gradient,
    temporal_basis,
    transition_split,
)
from visemekit.coarticulation import central_difference, relative_gradient_error
from visemekit.synth import demo_spec, gen_viseme_track

SRC = Path(__file__).resolve().parent.parent / "src"


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
        frames = np.tensordot(basis, coef.reshape(8, 2, 3), axes=(1, 0))
        assert frames == pytest.approx(target, abs=1e-9)

    def test_single_bump_prediction_is_the_bump(self):
        basis = temporal_basis(9, 1)
        coef = np.zeros((1, 1, 3))
        coef[0, 0, 0] = 1.0
        frames = np.tensordot(basis, coef, axes=(1, 0))
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


class TestObjectiveGradient:
    def test_matches_finite_differences_on_small_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            num_frames = int(rng.integers(3, 13))
            num_vertices = int(rng.integers(1, 5))
            num_basis = int(rng.integers(1, min(5, num_frames)))
            gt = seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))
            coef = rng.normal(0.0, 1.0, (num_basis, num_vertices, 3))
            cfg = TrainConfig(loss_choice=LossKind.PC, sigma=2, steps=1)
            _, analytic = objective_and_gradient(gt, coef, cfg)
            numeric = central_difference(
                lambda c: objective_and_gradient(gt, c, cfg)[0], coef, 1e-4
            )
            assert relative_gradient_error(analytic, numeric) <= 1e-4


def direct_objective(gt, coef, cfg, basis):
    """The objective composed the slow way: losses on the basis prediction."""
    pred = seq(np.tensordot(basis, coef, axes=(1, 0)))
    if cfg.loss_choice is LossKind.PC:
        weights = coarticulation_weights(gt, cfg.sigma)
        total = loss_pc(gt, pred, weights).total
        grad = grad_loss_pc(gt, pred, weights)
    else:
        total = loss_rec(gt, pred).total
        grad = grad_loss_rec(gt, pred)
    return total, np.tensordot(basis, grad, axes=(0, 0))


QUADRATIC_CASES = [LossKind.REC, LossKind.PC]


class TestQuadraticForm:
    @pytest.mark.parametrize("kind", QUADRATIC_CASES)
    def test_matches_direct_composition(self, kind):
        rng = np.random.default_rng(30)
        for _ in range(20):
            num_frames = int(rng.integers(2, 40))
            num_basis = int(rng.integers(1, num_frames))
            num_vertices = int(rng.integers(1, 6))
            gt = seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))
            coef = rng.normal(0.0, 1.0, (num_basis, num_vertices, 3))
            cfg = TrainConfig(loss_choice=kind, sigma=int(rng.integers(0, 4)))
            basis = temporal_basis(num_frames, num_basis)
            want_total, want_grad = direct_objective(gt, coef, cfg, basis)
            total, grad = objective_and_gradient(gt, coef, cfg)
            assert total == pytest.approx(want_total, rel=1e-12)
            assert grad.shape == coef.shape
            assert relative_gradient_error(grad, want_grad) <= 1e-12

    @pytest.mark.parametrize("kind", QUADRATIC_CASES)
    def test_first_loss_is_direct_objective_at_initialization(self, kind):
        rng = np.random.default_rng(31)
        for seed in range(5):
            num_frames = int(rng.integers(3, 40))
            num_basis = int(rng.integers(1, num_frames))
            num_vertices = int(rng.integers(1, 6))
            gt = seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))
            cfg = TrainConfig(loss_choice=kind, steps=1, seed=seed, num_basis=num_basis)
            report = fit(gt, cfg)
            init = np.random.default_rng(seed).uniform(-0.01, 0.01, (num_basis, num_vertices, 3))
            want, _ = direct_objective(gt, init, cfg, temporal_basis(num_frames, num_basis))
            assert report.loss_curve[0] == pytest.approx(want, rel=1e-12)

    def test_long_fit_approaches_minimum_from_above(self):
        rng = np.random.default_rng(32)
        gt = seq(rng.normal(0.0, 1.0, (16, 2, 3)))
        # the PC weights of a noise track leave G ill-conditioned (lambda_min is
        # 5e-4 lambda_max at sigma 3), so the fit takes large steps for long
        cfg = TrainConfig(loss_choice=LossKind.PC, sigma=3, learning_rate=1.0, steps=30000,
                          num_basis=4)
        gram, rhs, _ = quadratic_form(gt, cfg)
        best = np.linalg.solve(gram, rhs).reshape(4, 2, 3)
        minimum, _ = direct_objective(gt, best, cfg, temporal_basis(16, 4))
        report = fit(gt, cfg)
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
        report = fit(gt, cfg)
        assert loss_rec(gt, report.prediction).total <= 1e-6
        # closed-form check: the optimum really is (near) zero residual
        lsq = np.linalg.lstsq(basis, np.asarray(gt.frames).reshape(16, -1), rcond=None)
        assert lsq[1].sum() if lsq[1].size else 0.0 <= 1e-12

    @pytest.mark.parametrize("loss", [LossKind.REC, LossKind.PC])
    def test_non_finite_coordinate_is_a_constraint_error(self, loss):
        """The weights reject the nan energy before any training, for both
        losses, rather than a divergence at step 0 or a failed SVD."""
        frames = np.random.default_rng(5).normal(0.0, 1.0, (12, 2, 3))
        frames[6, 1, 2] = np.nan
        with pytest.raises(ConstraintError, match="not finite") as caught:
            fit(seq(frames), TrainConfig(loss_choice=loss, steps=10, num_basis=3))
        assert not isinstance(caught.value, DivergenceError)

    def test_zero_steps_returns_initialization(self):
        rng = np.random.default_rng(3)
        gt = seq(rng.normal(0.0, 1.0, (8, 2, 3)))
        cfg = TrainConfig(steps=0, num_basis=3, seed=17)
        report = fit(gt, cfg)
        assert len(report.loss_curve) == 0
        init = np.random.default_rng(17).uniform(-0.01, 0.01, size=(3, 2, 3))
        assert np.array_equal(report.coef, init)

    def test_loss_curve_non_increasing_for_small_lr(self):
        rng = np.random.default_rng(4)
        gt = seq(rng.normal(0.0, 1.0, (12, 2, 3)))
        cfg = TrainConfig(loss_choice=LossKind.REC, learning_rate=1e-3, steps=300, num_basis=4)
        report = fit(gt, cfg)
        diffs = np.diff(report.loss_curve)
        assert np.all(diffs <= 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        gt = seq(rng.normal(0.0, 1.0, (10, 3, 3)))
        cfg = TrainConfig(steps=50, num_basis=3, seed=9)
        report_a = fit(gt, cfg)
        report_b = fit(gt, cfg)
        assert np.array_equal(report_a.coef, report_b.coef)
        assert np.array_equal(report_a.loss_curve, report_b.loss_curve)
        assert report_a.prediction.frames.tobytes() == report_b.prediction.frames.tobytes()

    def test_divergence_detected_with_step_index(self):
        rng = np.random.default_rng(6)
        gt = seq(rng.normal(0.0, 1.0, (10, 2, 3)))
        cfg = TrainConfig(loss_choice=LossKind.REC, learning_rate=50.0, steps=500, num_basis=3)
        # blow-up to inf is the expected failure mode, not a numerical accident
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as excinfo:
            fit(gt, cfg)
        assert excinfo.value.step > 0
        assert "(learning_rate*lambda_max = 162; stable below 1)" in str(excinfo.value)

    @pytest.mark.parametrize("learning_rate", [1e200, 1e305, 1e308])
    @pytest.mark.parametrize("loss", [LossKind.REC, LossKind.PC])
    def test_overflowing_step_size_diverges_at_step_one(self, learning_rate, loss):
        # no errstate here: the step-size arithmetic overflows, and that is
        # the divergence fit reports, not a numpy warning
        rng = np.random.default_rng(6)
        gt = seq(rng.normal(0.0, 1.0, (10, 2, 3)))
        cfg = TrainConfig(loss_choice=loss, learning_rate=learning_rate, steps=3, num_basis=3)
        with pytest.raises(DivergenceError) as excinfo:
            fit(gt, cfg)
        assert excinfo.value.step == 1

    def test_capacity_bottleneck_enforced(self):
        gt = seq(np.zeros((5, 1, 3)))
        with pytest.raises(ConstraintError):
            fit(gt, TrainConfig(num_basis=5))
        with pytest.raises(ConstraintError):
            fit(gt, TrainConfig(num_basis=9))

    def test_default_capacity_is_quarter(self):
        rng = np.random.default_rng(7)
        gt = seq(rng.normal(0.0, 1.0, (16, 1, 3)))
        report = fit(gt, TrainConfig(steps=1))
        assert len(report.coef) == 4

    def test_annotation_split(self):
        # fit scores nothing; ablate's row for the same run carries the split
        rng = np.random.default_rng(8)
        gt = seq(rng.normal(0.0, 1.0, (8, 2, 3)))
        labels = ("a", "a", "transition", "transition", "b", "b", "b", "b")
        annotation = SegmentAnnotation(labels, np.zeros(8, dtype=bool))
        cfg = TrainConfig(steps=5, num_basis=2)
        lips = VertexRegionMask(np.array([0]))
        row = ablate_window(gt, cfg, [cfg.sigma], annotation=annotation, lips=lips).rows[0]
        assert row.lve_transition is not None and row.lve_hold is not None
        per_frame = evaluate(gt, fit(gt, cfg).prediction, lips).per_frame_lve
        assert row.lve_transition == pytest.approx(per_frame[2:4].mean())
        assert row.lve_hold == pytest.approx(np.concatenate([per_frame[:2], per_frame[4:]]).mean())

    def test_annotation_length_mismatch(self):
        gt = seq(np.zeros((5, 1, 3)))
        annotation = SegmentAnnotation(("a", "b"), np.zeros(2, dtype=bool))
        with pytest.raises(ConstraintError, match="annotation covers 2 frames, sequence has 5"):
            ablate_window(gt, TrainConfig(steps=1, num_basis=2), [], annotation=annotation)

    def test_needs_two_frames(self):
        with pytest.raises(ConstraintError):
            fit(seq(np.zeros((1, 1, 3))), TrainConfig(steps=1, num_basis=1))

    @pytest.mark.parametrize("kind", [LossKind.REC, LossKind.PC])
    def test_prediction_is_the_model_prediction(self, kind):
        spec = demo_spec(seed=4, num_vertices=8, num_frames=40, num_lip_vertices=4)
        gt, _ = gen_viseme_track(spec)
        cfg = TrainConfig(loss_choice=kind, learning_rate=0.2, steps=300, seed=2, num_basis=10)
        report = fit(gt, cfg)
        want = seq(np.tensordot(temporal_basis(gt.num_frames, 10), report.coef, axes=(1, 0)))
        assert report.prediction.frames.tobytes() == want.frames.tobytes()
        assert report.prediction.fps == want.fps == gt.fps

    @pytest.mark.parametrize("sigma", [0, 4])
    def test_rec_final_pc_is_scored_under_config_sigma(self, sigma):
        # a REC run carries its config's weights, which `train` scores final_pc on
        spec = demo_spec(seed=4, num_vertices=8, num_frames=40, num_lip_vertices=4)
        gt, _ = gen_viseme_track(spec)
        cfg = TrainConfig(loss_choice=LossKind.REC, sigma=sigma, learning_rate=0.2, steps=300,
                          seed=2, num_basis=10)
        report = fit(gt, cfg)
        weights = coarticulation_weights(gt, sigma)
        assert report.weights.weights.tobytes() == weights.weights.tobytes()
        final_pc = loss_pc(gt, report.prediction, report.weights).total
        assert final_pc == loss_pc(gt, report.prediction, weights).total
        default = loss_pc(gt, report.prediction, coarticulation_weights(gt)).total
        assert final_pc != default

    @pytest.mark.parametrize("kind", [LossKind.REC, LossKind.PC])
    def test_curve_blocks_match_one_block(self, kind, monkeypatch):
        spec = demo_spec(seed=4, num_vertices=8, num_frames=40, num_lip_vertices=4)
        gt, _ = gen_viseme_track(spec)
        cfg = TrainConfig(loss_choice=kind, learning_rate=0.2, steps=300, seed=2, num_basis=10)
        lips = VertexRegionMask.full(gt.num_vertices)
        whole = fit(gt, cfg)
        whole_ldtw = metrics.ldtw(gt, whole.prediction, lips)
        # a tiny budget splits the 299 curve rows into blocks, down to one row
        for budget in (1, 25, 70):
            monkeypatch.setattr(mesh, "_BLOCK_ELEMENTS", budget)
            report = fit(gt, cfg)
            assert report.loss_curve.tobytes() == whole.loss_curve.tobytes()
            assert report.coef.tobytes() == whole.coef.tobytes()
            assert metrics.ldtw(gt, report.prediction, lips) == whole_ldtw

    def test_bits_do_not_depend_on_blas_threads(self):
        # at the benchmark's size; OpenBLAS splits a dot product by thread
        # count, so a curve summed by np.vdot changed in its last bits
        code = (
            "import hashlib\n"
            "from visemekit import LossKind, TrainConfig, fit\n"
            "from visemekit.synth import demo_spec, gen_viseme_track\n"
            "track, _ = gen_viseme_track(demo_spec(seed=0))\n"
            "for kind in (LossKind.PC, LossKind.REC):\n"
            "    cfg = TrainConfig(kind, learning_rate=0.2, steps=1200, num_basis=30)\n"
            "    report = fit(track, cfg)\n"
            "    for array in (report.loss_curve, report.prediction.frames):\n"
            "        print(hashlib.sha256(array.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  timeout=120, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert len(digests[0].split()) == 4
        assert digests[0] == digests[1]


def objective_inputs(gt, cfg):
    """The oracles' inputs for cfg's objective on gt: the basis, the frame
    weights (ones for REC) and the flattened targets."""
    num_frames = gt.num_frames
    weights = coarticulation_weights(gt, cfg.sigma).weights
    w = weights if cfg.loss_choice is LossKind.PC else np.ones(num_frames)
    return temporal_basis(num_frames, cfg.num_basis), w, gt.frames.reshape(num_frames, -1)


def quadratic_form(gt, cfg):
    return oracles.quadratic_form(*objective_inputs(gt, cfg))


def initial_coef(gt, cfg):
    return np.random.default_rng(cfg.seed).uniform(
        -0.01, 0.01, (cfg.num_basis, gt.num_vertices, 3)
    )


def lambda_max(gt, cfg):
    return np.linalg.eigvalsh(quadratic_form(gt, cfg)[0])[-1]


def loop(gt, cfg):
    coef0 = initial_coef(gt, cfg).reshape(cfg.num_basis, -1)
    return oracles.fit_loop(*quadratic_form(gt, cfg), coef0, cfg.learning_rate, cfg.steps)


def fit_and_loop(gt, cfg):
    """fit's loss curve and flattened coefficients, then those of the
    step-by-step oracle run on the same quadratic form and initialization."""
    want_curve, want_coef = loop(gt, cfg)
    report = fit(gt, cfg)
    return report.loss_curve, want_curve, report.coef.reshape(cfg.num_basis, -1), want_coef


def assert_matches_loop(gt, cfg):
    curve, want_curve, coef, want_coef = fit_and_loop(gt, cfg)
    start, _ = objective_and_gradient(gt, initial_coef(gt, cfg), cfg)
    assert curve[:1].tolist() == [start][:len(curve)]  # f(0) is evaluated, not derived
    assert np.all(np.abs(curve - want_curve) <= 1e-10 * np.abs(want_curve))
    assert np.max(np.abs(coef - want_coef)) <= 1e-12 * np.max(np.abs(want_coef))


def random_walk(rng, num_frames, num_vertices):
    step = rng.uniform(0.02, 0.3)
    return seq(np.cumsum(rng.normal(0.0, step, (num_frames, num_vertices, 3)), axis=0))


class TestFitMatchesLoop:
    """fit evaluates the gradient-descent iterates in closed form; the loop
    oracle takes every step. Curves agree element-wise to 1e-10 relative and
    coefficients to 1e-12 of their largest magnitude."""

    @pytest.mark.parametrize("kind", QUADRATIC_CASES)
    def test_random_tracks_over_the_stable_range(self, kind):
        # lr * lambda_max is spread over (0, 1); above 1/2 the slowest-decaying
        # mode flips sign every step (rho < 0)
        rng = np.random.default_rng(40)
        cases = 16
        for i in range(cases):
            num_frames = int(rng.integers(3, 40))
            gt = random_walk(rng, num_frames, int(rng.integers(1, 5)))
            cfg = TrainConfig(
                loss_choice=kind, sigma=int(rng.integers(0, 4)),
                steps=int(rng.integers(0, 400)), seed=i,
                num_basis=int(rng.integers(1, num_frames)),
            )
            ratio = (i + rng.uniform(0.01, 0.99)) / cases
            assert_matches_loop(gt, replace(cfg, learning_rate=ratio / lambda_max(gt, cfg)))

    @pytest.mark.parametrize("kind", [LossKind.PC, LossKind.REC])
    def test_zero_steps_is_the_loop_bit_for_bit(self, kind):
        rng = np.random.default_rng(44)
        for i in range(8):
            num_frames = int(rng.integers(3, 40))
            gt = random_walk(rng, num_frames, int(rng.integers(1, 5)))
            cfg = TrainConfig(loss_choice=kind, steps=0, seed=i,
                              num_basis=int(rng.integers(1, num_frames)))
            cfg = replace(cfg, learning_rate=(i + 0.5) / 8 / lambda_max(gt, cfg))
            curve, _, coef, want_coef = fit_and_loop(gt, cfg)
            assert len(curve) == 0
            assert coef.tobytes() == want_coef.tobytes()

    @pytest.mark.parametrize("kind", [LossKind.PC, LossKind.REC])
    def test_demo_tracks_at_criterion_7_settings(self, kind):
        for seed in range(10):
            track, _ = gen_viseme_track(demo_spec(seed=seed))
            cfg = TrainConfig(loss_choice=kind, sigma=2, learning_rate=0.2, steps=1200,
                              seed=seed, num_basis=30)
            assert_matches_loop(track, cfg)

    @pytest.mark.parametrize("amplitude", [5.0, 10.0, 40.0])
    @pytest.mark.parametrize("sigma", [5, 8])
    def test_near_singular_gram(self, amplitude, sigma):
        # a near-static track with one jump: the PC weights vanish away from
        # the jump, so G is near-singular; at amplitude 40 they underflow to 0,
        # which leaves eigenvalues of G at exactly 0
        rng = np.random.default_rng(41)
        frames = np.repeat(rng.normal(0.0, 1.0, (1, 4, 3)), 60, axis=0)
        frames += rng.normal(0.0, 1e-3, frames.shape)
        frames[30:] += amplitude * rng.normal(0.0, 1.0, (4, 3))
        gt = seq(frames)
        cfg = TrainConfig(loss_choice=LossKind.PC, sigma=sigma, steps=1200, seed=3, num_basis=15)
        lam = np.linalg.eigvalsh(quadratic_form(gt, cfg)[0])
        assert lam[0] <= 1e-6 * lam[-1]
        assert_matches_loop(gt, replace(cfg, learning_rate=0.9 / lam[-1]))

    def test_white_noise_tracks(self):
        # Every frame of white noise is a jump, so the PC weights collapse onto
        # a few frames and f can fall by ten orders of magnitude. The loop's
        # own rounding error is then about eps * f(0), so the curves are
        # compared on that scale; the coefficients keep the usual bound.
        rng = np.random.default_rng(42)
        for i in range(24):
            num_frames = int(rng.integers(3, 40))
            gt = seq(rng.normal(0.0, 10.0 ** rng.uniform(-1, 1),
                                (num_frames, int(rng.integers(1, 5)), 3)))
            cfg = TrainConfig(
                loss_choice=LossKind.PC, sigma=int(rng.integers(0, 4)),
                steps=int(rng.integers(1, 400)), seed=i,
                num_basis=int(rng.integers(1, num_frames)),
            )
            cfg = replace(cfg, learning_rate=rng.uniform(0.01, 0.99) / lambda_max(gt, cfg))
            curve, want_curve, coef, want_coef = fit_and_loop(gt, cfg)
            assert np.all(np.abs(curve - want_curve) <= 1e-12 * want_curve[0])
            assert np.max(np.abs(coef - want_coef)) <= 1e-12 * np.max(np.abs(want_coef))

    def test_white_noise_curves_stay_non_negative(self):
        # f is a sum of squares: no entry of the curve may be negative, also
        # where the collapsed PC weights let it fall by 16 orders of magnitude
        for scale in (4.0, 8.0):
            for seed in range(12):
                gt = seq(np.random.default_rng(seed).normal(0.0, scale, (36, 4, 3)))
                cfg = TrainConfig(loss_choice=LossKind.PC, sigma=2, learning_rate=0.4,
                                  steps=3000, seed=seed, num_basis=9)
                assert fit(gt, cfg).loss_curve.min() >= 0.0, (scale, seed)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="no 80-bit long double")
    def test_white_noise_curve_matches_long_double_loop(self):
        # f falls from 260 to 2.5e-14, far below eps * f(0), and keeps its digits
        gt = seq(np.random.default_rng(1).normal(0.0, 4.0, (36, 4, 3)))
        cfg = TrainConfig(loss_choice=LossKind.PC, sigma=2, learning_rate=0.4, steps=3000,
                          seed=1, num_basis=9)
        want, _ = oracles.fit_loop_longdouble(
            *objective_inputs(gt, cfg), initial_coef(gt, cfg).reshape(9, -1),
            cfg.learning_rate, cfg.steps,
        )
        assert want[-1] < 1e-15 * want[0]
        curve = fit(gt, cfg).loss_curve
        assert np.max(np.abs(curve - want) / want) <= 1e-10

    def test_growing_curve_matches_loop(self):
        # lr * lambda_max is 2.0: the loss grows to ~1e57 in 60 steps and stays finite
        gt, _ = gen_viseme_track(demo_spec(seed=5, num_vertices=8, num_frames=40,
                                           num_lip_vertices=4))
        cfg = TrainConfig(learning_rate=18.0, steps=60, seed=3, num_basis=10)
        assert fit(gt, cfg).loss_curve[-1] > 1e50
        assert_matches_loop(gt, cfg)

    def test_divergence_step_matches_loop(self):
        def steps_until_divergence(gt, cfg):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(oracles.LoopDiverged) as loop:
                    fit_and_loop(gt, cfg)
            with pytest.raises(DivergenceError) as closed:
                fit(gt, cfg)
            return loop.value.step, closed.value.step

        rng = np.random.default_rng(6)
        gt = seq(rng.normal(0.0, 1.0, (10, 2, 3)))
        cfg = TrainConfig(loss_choice=LossKind.REC, learning_rate=50.0, steps=500, num_basis=3)
        assert steps_until_divergence(gt, cfg) == (62, 62)

        # random scales put the growing mode's share of f(0) on both sides of 1
        rng = np.random.default_rng(43)
        for i in range(24):
            num_frames = int(rng.integers(3, 40))
            gt = seq(rng.normal(0.0, 10.0 ** rng.uniform(-3, 2),
                                (num_frames, int(rng.integers(1, 5)), 3)))
            cfg = TrainConfig(
                loss_choice=(LossKind.REC, LossKind.PC)[i % 2], sigma=int(rng.integers(0, 4)),
                steps=3000, seed=i, num_basis=int(rng.integers(1, num_frames)),
            )
            ratio = 10.0 ** rng.uniform(np.log10(1.5), 2.5)
            cfg = replace(cfg, learning_rate=ratio / lambda_max(gt, cfg))
            loop_step, fit_step = steps_until_divergence(gt, cfg)
            assert fit_step == loop_step


def fit_exact(gt, cfg):
    """The exact descent's loss curve and flattened coefficients, rounded to
    float64 once."""
    curve, coef = oracles.fit_exact(
        *objective_inputs(gt, cfg), initial_coef(gt, cfg).reshape(cfg.num_basis, -1),
        cfg.learning_rate, cfg.steps,
    )
    return np.array(curve, dtype=np.float64), np.array(coef, dtype=np.float64)


class TestFitMatchesExact:
    """fit against gradient descent in exact rational arithmetic on T=8, K=3,
    V=1 and 30 steps, with the loop's bounds: curves element-wise to 1e-10
    relative, coefficients to 1e-12 of their largest magnitude."""

    @pytest.mark.parametrize("kind,ratio", [(LossKind.REC, 0.3), (LossKind.PC, 0.6)])
    def test_random_walk(self, kind, ratio):
        # ratio is lr * lambda_max; fit and the loop both meet the bounds here
        gt = random_walk(np.random.default_rng(45), 8, 1)
        cfg = TrainConfig(loss_choice=kind, sigma=1, steps=30, seed=4, num_basis=3)
        cfg = replace(cfg, learning_rate=ratio / lambda_max(gt, cfg))
        want_curve, want_coef = fit_exact(gt, cfg)
        report = fit(gt, cfg)
        for curve, coef in ((report.loss_curve, report.coef.reshape(3, -1)), loop(gt, cfg)):
            assert np.all(np.abs(curve - want_curve) <= 1e-10 * want_curve)
            assert np.max(np.abs(coef - want_coef)) <= 1e-12 * np.max(np.abs(want_coef))

    def test_white_noise_track(self):
        # The PC weights collapse and f falls from 18 to 9e-18. fit keeps the
        # curve's digits; the loop, which cancels against c0, keeps only
        # eps * f(0) and is held to the white-noise bound of TestFitMatchesLoop.
        gt = seq(np.random.default_rng(0).normal(0.0, 3.0, (8, 1, 3)))
        cfg = TrainConfig(loss_choice=LossKind.PC, sigma=0, steps=30, seed=0, num_basis=3)
        cfg = replace(cfg, learning_rate=0.45 / lambda_max(gt, cfg))
        want_curve, want_coef = fit_exact(gt, cfg)
        assert want_curve[-1] < 1e-15 * want_curve[0]
        report = fit(gt, cfg)
        assert np.all(np.abs(report.loss_curve - want_curve) <= 1e-10 * want_curve)
        assert np.max(np.abs(report.coef.reshape(3, -1) - want_coef)) <= (
            1e-12 * np.max(np.abs(want_coef)))
        loop_curve, loop_coef = loop(gt, cfg)
        assert np.all(np.abs(loop_curve - want_curve) <= 1e-12 * want_curve[0])
        assert np.max(np.abs(loop_coef - want_coef)) <= 1e-12 * np.max(np.abs(want_coef))


class TestTrainConfig:
    def test_rejects_a_loss_that_is_not_a_loss_kind(self):
        with pytest.raises(ConstraintError, match="loss_choice must be REC or PC"):
            TrainConfig(loss_choice="pc")

    def test_rejects_bad_values(self):
        with pytest.raises(ConstraintError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConstraintError):
            TrainConfig(steps=-1)
        with pytest.raises(ConstraintError):
            TrainConfig(sigma=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "sigma"])
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

    def test_steps_bounded_by_the_largest_loss_curve(self):
        # 2**60 float64 values are 2**63 bytes, one more than intp can count
        assert TrainConfig(steps=2**60 - 1).steps == 2**60 - 1
        with pytest.raises(ConstraintError, match="steps 1152921504606846976 is too many"):
            TrainConfig(steps=2**60)

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

    def test_scores_only_what_it_prints(self, monkeypatch):
        # no LDTW, which no column shows; every printed score is bit-equal to
        # evaluate and transition_split applied to the same fit's prediction
        gt, annotation = gen_viseme_track(demo_spec(seed=3))
        lips = VertexRegionMask(np.arange(20))
        cfg = TrainConfig(learning_rate=0.2, steps=1200, seed=3, num_basis=30)
        calls = []

        def counted(*args, _real=metrics.ldtw):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(metrics, "ldtw", counted)
        result = ablate_window(gt, cfg, list(range(6)), annotation=annotation, lips=lips)
        assert calls == []
        monkeypatch.undo()
        for row in result.rows:
            if row.sigma is None:
                run_cfg = replace(cfg, loss_choice=LossKind.REC)
            else:
                run_cfg = replace(cfg, loss_choice=LossKind.PC, sigma=row.sigma)
            scores = evaluate(gt, fit(gt, run_cfg).prediction, lips)
            split = transition_split(scores.per_frame_lve, annotation.transition_mask())
            assert (row.fve, row.lve, row.lve_transition, row.lve_hold) == (scores.fve, scores.lve, *split)
