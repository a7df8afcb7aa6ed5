"""Nine go/no-go checks for the whole package.

Each test prints one `[acceptance] criterion N (...): PASS/FAIL` line, pushed
past pytest's output capture so it is always visible. The checks are
property-based (normalization, gradient and DTW oracles, determinism) plus a
directional demonstration that transition-weighted training lowers lip error
where it is supposed to.
"""

import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from visemekit import (
    LossKind,
    MeshSequence,
    TrainConfig,
    VertexRegionMask,
    WindowSpec,
    coarticulation_weights,
    demo_spec,
    dtw,
    evaluate,
    fit,
    format_train_config,
    gen_viseme_track,
    loss_pc,
    loss_rec,
    make_corpus,
    read_msq,
    temporal_basis,
    transition_split,
    write_annotation,
    write_msq,
)
import oracles
from visemekit.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] criterion {number} ({name}): FAIL")
            raise
        with capsys.disabled():
            print(f"[acceptance] criterion {number} ({name}): PASS")

    return _announce


def seq(frames, fps=30.0):
    return MeshSequence(np.asarray(frames, dtype=np.float64), fps)


def test_criterion_1_weight_normalization(announce):
    with announce(1, "weight normalization"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            num_frames = int(rng.integers(3, 65))
            num_vertices = int(rng.integers(1, 33))
            sigma = int(rng.integers(0, 6))
            track = seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))
            weights = coarticulation_weights(track, WindowSpec(sigma)).weights
            assert abs(weights.sum() - 1.0) <= 1e-9
            assert np.all(weights > 0.0)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_uniform_motion_reduction(announce):
    with announce(2, "uniform-motion reduction"):
        rng = np.random.default_rng(102)
        for trial in range(40):
            num_frames = int(rng.integers(3, 33))
            num_vertices = int(rng.integers(1, 9))
            sigma = int(rng.integers(0, 6))
            base = rng.normal(0.0, 1.0, (1, num_vertices, 3))
            if trial % 2:
                # constant velocity: every step has the same displacement
                delta = rng.normal(0.0, 0.1, (1, num_vertices, 3))
                frames = base + delta * np.arange(num_frames).reshape(-1, 1, 1)
            else:
                frames = np.broadcast_to(base, (num_frames, num_vertices, 3))
            gt = seq(np.array(frames))
            pred = seq(np.asarray(gt.frames) + rng.normal(0.0, 0.1, gt.frames.shape))
            weights = coarticulation_weights(gt, WindowSpec(sigma))
            pc_total = loss_pc(gt, pred, weights).total
            rec_total = loss_rec(gt, pred).total
            assert abs(pc_total - rec_total / num_frames) <= 1e-9


def test_criterion_3_worked_micro_example(announce):
    with announce(3, "worked micro-example vs brute-force script"):
        script = REPO_ROOT / "tools" / "bruteforce_weights.py"
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, check=True
        )
        parsed = {}
        for line in result.stdout.splitlines():
            name, *values = line.split()
            parsed[name] = [float(v) for v in values]
        assert parsed["raw"] == pytest.approx([1.0, 0.5, 0.5], abs=1e-5)
        assert parsed["weight"] == pytest.approx([0.45186, 0.27407, 0.27407], abs=1e-5)

        track = seq([[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])
        ours = coarticulation_weights(track, WindowSpec(1))
        assert ours.raw_energy.tolist() == pytest.approx(parsed["raw"], abs=1e-12)
        assert ours.weights.tolist() == pytest.approx(parsed["weight"], abs=1e-12)


def test_criterion_4_gradient_oracle(announce):
    with announce(4, "gradient oracle, 100 trials"):
        start = time.perf_counter()
        assert cli_main(["gradcheck", "--trials", "100"]) == 0
        assert time.perf_counter() - start < 60.0


def test_criterion_5_dtw_optimality(announce):
    with announce(5, "DTW equals exhaustive enumeration"):
        rng = np.random.default_rng(105)
        start = time.perf_counter()
        for _ in range(500):
            len_a = int(rng.integers(1, 7))
            len_b = int(rng.integers(1, 7))
            num_vertices = int(rng.integers(1, 4))
            a = rng.normal(0.0, 1.0, (len_a, num_vertices, 3))
            b = rng.normal(0.0, 1.0, (len_b, num_vertices, 3))
            cost_table = [
                [float(np.linalg.norm(a[i] - b[j], axis=1).mean()) for j in range(len_b)]
                for i in range(len_a)
            ]
            assert abs(dtw(a, b).distance - oracles.dtw_exhaustive(cost_table)) <= 1e-12
        assert time.perf_counter() - start < 30.0


def test_criterion_6_metric_identities(announce):
    with announce(6, "metric zero and offset identities"):
        rng = np.random.default_rng(106)
        frames = rng.normal(0.0, 1.0, (9, 6, 3))
        gt = seq(frames)
        lips = VertexRegionMask(np.array([0, 2, 5]))

        report = evaluate(gt, seq(frames.copy()), lips)
        assert report.fve == 0.0
        assert report.lve == 0.0
        assert report.ldtw == 0.0
        assert report.lip_max == 0.0

        shifted = frames.copy()
        shifted[:, :, 0] += 0.3
        report = evaluate(gt, seq(shifted), lips)
        assert abs(report.fve - 0.3) <= 1e-12
        assert abs(report.lve - 0.3) <= 1e-12
        assert abs(report.lip_max - 0.3) <= 1e-12


def paired_fit(track, annotation, lips, kind, seed):
    cfg = TrainConfig(
        loss_choice=kind,
        sigma=2,
        learning_rate=0.2,
        steps=1200,
        seed=seed,
        num_basis=30,
    )
    scores = evaluate(track, fit(track, cfg).prediction, lips)
    return transition_split(scores.per_frame_lve, annotation.transition_mask())[0]


def test_criterion_7_weighted_training_helps_transitions(announce):
    with announce(7, "weighted training lowers transition lip error"):
        start = time.perf_counter()
        lips = VertexRegionMask(np.arange(20), region_name="lips")
        wins = 0
        improvements = []
        for seed in range(10):
            track, annotation = gen_viseme_track(demo_spec(seed=seed))
            pc = paired_fit(track, annotation, lips, LossKind.PC, seed)
            rec = paired_fit(track, annotation, lips, LossKind.REC, seed)
            wins += pc < rec
            improvements.append((rec - pc) / rec)
        assert wins >= 7, f"weighted loss won only {wins}/10 seeds"
        assert statistics.median(improvements) >= 0.02
        assert time.perf_counter() - start < 300.0


def test_converged_weighted_solution_helps_transitions():
    # Beside criterion 7, which stops gradient descent after 1200 steps: at the
    # exact minimum C* = G^-1 R of each objective, PC's transition lip error is
    # below REC's on every seed, whatever step size either run would need.
    lips = VertexRegionMask(np.arange(20), region_name="lips")
    for seed in range(10):
        track, annotation = gen_viseme_track(demo_spec(seed=seed))
        transition = annotation.transition_mask()
        basis = temporal_basis(track.num_frames, 30)
        targets = track.frames.reshape(track.num_frames, -1)
        lve = {}
        for kind, w in ((LossKind.PC, coarticulation_weights(track, WindowSpec(2)).weights),
                        (LossKind.REC, np.ones(track.num_frames))):
            gram, rhs, _ = oracles.quadratic_form(basis, w, targets)
            coef = np.linalg.solve(gram, rhs).reshape(30, track.num_vertices, 3)
            pred = MeshSequence(np.tensordot(basis, coef, axes=(1, 0)), track.fps)
            lve[kind] = evaluate(track, pred, lips).per_frame_lve[transition].mean()
        assert lve[LossKind.PC] < lve[LossKind.REC], f"seed {seed}: {lve}"


def test_criterion_8_window_ablation_harness(announce, tmp_path, capsys):
    with announce(8, "window ablation table"):
        track, annotation = gen_viseme_track(demo_spec(seed=0))
        gt_path = tmp_path / "gt.msq"
        write_msq(track, gt_path)
        annot_path = tmp_path / "gt.ann.csv"
        write_annotation(annotation, annot_path)
        lips_path = tmp_path / "lips.txt"
        lips_path.write_text("".join(f"{i}\n" for i in range(20)))
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("learning_rate = 0.2\nsteps = 1200\nnum_basis = 30\n")

        code = cli_main([
            "ablate",
            "--gt", str(gt_path),
            "--sigmas", "0,1,2,3,4,5",
            "--config", str(cfg_path),
            "--annot", str(annot_path),
            "--lips", str(lips_path),
        ])
        out = capsys.readouterr().out
        assert code == 0

        lines = out.splitlines()
        assert lines[0] == "sigma,fve,lve,lve_transition,lve_hold"
        rows = [line.split(",") for line in lines[1:8]]
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5", "rec"]
        baseline_transition = float(rows[-1][3])
        weighted_transitions = [float(r[3]) for r in rows[:-1]]
        assert any(v < baseline_transition for v in weighted_transitions)
        assert any("gave the lowest lip error" in line for line in lines[8:])


def test_criterion_9_determinism_and_round_trips(announce, tmp_path):
    with announce(9, "determinism and round trips"):
        rng = np.random.default_rng(109)

        # MSQ write/read is bit-exact and byte-stable
        track = seq(rng.normal(0.0, 1.0, (11, 5, 3)), fps=24.0)
        path_a = tmp_path / "a.msq"
        path_b = tmp_path / "b.msq"
        write_msq(track, path_a)
        write_msq(track, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        loaded = read_msq(path_a)
        assert np.array_equal(np.asarray(loaded.frames), np.asarray(track.frames))
        assert loaded.fps == track.fps

        # regeneration from the same specs is byte-identical
        specs = [demo_spec(seed=0), demo_spec(seed=1)]
        dir_a = tmp_path / "corpus_a"
        dir_b = tmp_path / "corpus_b"
        make_corpus(specs, dir_a)
        make_corpus(specs, dir_b)
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

        # the same seed trains to the same report, down to the CSV bytes
        gt = seq(rng.normal(0.0, 1.0, (20, 4, 3)))
        cfg = TrainConfig(steps=100, num_basis=5, learning_rate=0.05, seed=7)
        report_a = fit(gt, cfg)
        report_b = fit(gt, cfg)
        assert np.array_equal(report_a.coef, report_b.coef)
        assert np.array_equal(report_a.loss_curve, report_b.loss_curve)
        pred_a, pred_b = report_a.prediction, report_b.prediction
        assert np.array_equal(np.asarray(pred_a.frames), np.asarray(pred_b.frames))
        write_msq(gt, tmp_path / "gt.msq")
        (tmp_path / "train.cfg").write_text(format_train_config(cfg))
        for run in ("run_a", "run_b"):
            assert cli_main(["train", "--gt", str(tmp_path / "gt.msq"), "--out", str(tmp_path / run),
                             "--config", str(tmp_path / "train.cfg")]) == 0
        for name in ("report.csv", "loss_curve.csv", "pred.msq"):
            assert (tmp_path / "run_a" / name).read_bytes() == (tmp_path / "run_b" / name).read_bytes()
