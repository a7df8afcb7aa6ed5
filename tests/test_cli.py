import struct
from dataclasses import replace

import numpy as np
import pytest

from visemekit import (
    MeshSequence,
    SegmentAnnotation,
    VertexRegionMask,
    evaluate,
    format_csv_report,
    read_msq,
    write_annotation,
    write_msq,
)
from visemekit import toytrain
from visemekit.cli import main

MICRO_FRAMES = [[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]]


def msq(tmp_path, name, frames, fps=30.0):
    path = tmp_path / name
    write_msq(MeshSequence(np.asarray(frames, dtype=np.float64), fps), path)
    return str(path)


def table(text):
    return [line.split(",") for line in text.splitlines()]


class TestWeights:
    def test_static_track_is_uniform(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((4, 1, 3)))
        assert main(["weights", "--gt", gt]) == 0
        rows = table(capsys.readouterr().out)
        assert rows[0] == ["t", "raw_energy", "weight"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
        assert all(r[2] == "0.25" for r in rows[1:])

    def test_worked_example(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", MICRO_FRAMES)
        assert main(["weights", "--gt", gt, "--sigma", "1"]) == 0
        rows = table(capsys.readouterr().out)
        got = [float(r[2]) for r in rows[1:]]
        assert got == pytest.approx([0.45186, 0.27407, 0.27407], abs=1e-5)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", MICRO_FRAMES)
        out = tmp_path / "w.csv"
        assert main(["weights", "--gt", gt, "--sigma", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["weights", "--gt", gt, "--sigma", "1"]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_strict_infeasible(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", MICRO_FRAMES)
        assert main(["weights", "--gt", gt, "--sigma", "2", "--policy", "strict"]) == 1
        assert "strict policy infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_non_finite_temperature(self, tmp_path, capsys, temperature):
        gt = msq(tmp_path, "gt.msq", MICRO_FRAMES)
        out = tmp_path / "w.csv"
        code = main(["weights", "--gt", gt, "--temperature", temperature, "--out", str(out)])
        assert code == 1
        assert "temperature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fps", [float("nan"), float("inf")])
    def test_non_finite_fps_header(self, tmp_path, capsys, fps):
        path = tmp_path / "gt.msq"
        header = struct.pack("<4sIIf", b"MSQ1", 2, 1, fps)
        path.write_bytes(header + np.zeros(6).astype("<f8").tobytes())
        assert main(["weights", "--gt", str(path)]) == 2
        assert "fps" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["weights", "--gt", str(tmp_path / "nope.msq")]) == 2
        assert "error:" in capsys.readouterr().err


class TestLoss:
    @pytest.mark.parametrize("kind", ["rec", "vel", "pc"])
    def test_identical_sequences_zero_total(self, tmp_path, capsys, kind):
        rng = np.random.default_rng(0)
        frames = rng.normal(0.0, 1.0, (6, 2, 3))
        gt = msq(tmp_path, "gt.msq", frames)
        pred = msq(tmp_path, "pred.msq", frames)
        assert main(["loss", "--gt", gt, "--pred", pred, "--kind", kind]) == 0
        rows = table(capsys.readouterr().out)
        assert rows[-1] == ["total", "0"]

    def test_rec_hand_value(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", [[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])
        pred = msq(tmp_path, "pred.msq", np.zeros((2, 1, 3)))
        assert main(["loss", "--gt", gt, "--pred", pred, "--kind", "rec"]) == 0
        rows = table(capsys.readouterr().out)
        assert rows[1:] == [["1", "0"], ["2", "1"], ["total", "1"]]

    def test_shape_mismatch(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((2, 1, 3)))
        pred = msq(tmp_path, "pred.msq", np.zeros((3, 1, 3)))
        assert main(["loss", "--gt", gt, "--pred", pred, "--kind", "rec"]) == 1
        err = capsys.readouterr().err
        assert "(2, 1, 3)" in err and "(3, 1, 3)" in err


class TestMetrics:
    def test_identity_is_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        frames = rng.normal(0.0, 1.0, (5, 3, 3))
        gt = msq(tmp_path, "gt.msq", frames)
        pred = msq(tmp_path, "pred.msq", frames)
        lips = tmp_path / "lips.txt"
        lips.write_text("0\n1\n")
        assert main(["metrics", "--gt", gt, "--pred", pred, "--lips", str(lips)]) == 0
        rows = table(capsys.readouterr().out)
        assert rows[1] == ["0", "0", "0", "0"]

    def test_uniform_offset(self, tmp_path, capsys):
        frames = np.zeros((4, 3, 3))
        shifted = frames.copy()
        shifted[:, :, 1] = 0.3
        gt = msq(tmp_path, "gt.msq", frames)
        pred = msq(tmp_path, "pred.msq", shifted)
        lips = tmp_path / "lips.txt"
        lips.write_text("2\n")
        assert main(["metrics", "--gt", gt, "--pred", pred, "--lips", str(lips)]) == 0
        assert [float(v) for v in table(capsys.readouterr().out)[1]] == pytest.approx([0.3] * 4)

    def test_matches_library_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        gt_frames = rng.normal(0.0, 1.0, (6, 4, 3))
        pred_frames = gt_frames + rng.normal(0.0, 0.1, gt_frames.shape)
        gt = msq(tmp_path, "gt.msq", gt_frames)
        pred = msq(tmp_path, "pred.msq", pred_frames)
        lips = tmp_path / "lips.txt"
        lips.write_text("0\n3\n")
        assert main(["metrics", "--gt", gt, "--pred", pred, "--lips", str(lips)]) == 0
        expected = format_csv_report(
            evaluate(read_msq(gt), read_msq(pred), VertexRegionMask(np.array([0, 3])))
        )
        assert capsys.readouterr().out == expected

    def test_mask_out_of_range(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((2, 2, 3)))
        lips = tmp_path / "lips.txt"
        lips.write_text("7\n")
        assert main(["metrics", "--gt", gt, "--pred", gt, "--lips", str(lips)]) == 1


SPEC_TEXT = """\
num_vertices = 2
fps = 10.0
blend_halfwidth = 0.2
seed = 3
shape.a = 0 0 0 0 0 0
shape.b = 1 0 0 0.5 0 0
target = 0.0 a
target = 1.0 b
"""


class TestGen:
    def test_single_shape_track_is_constant(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("num_vertices = 1\nfps = 10\nshape.a = 1 2 3\ntarget = 0.5 a\n")
        out = tmp_path / "corpus"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 0
        track = read_msq(out / "track000.msq")
        frames = np.asarray(track.frames)
        assert np.all(frames == frames[0])
        assert frames[0].tolist() == [[1.0, 2.0, 3.0]]

    def test_count_and_manifest(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "corpus"
        assert main(["gen", "--spec", str(spec), "--out", str(out), "--count", "3"]) == 0
        assert sorted(p.name for p in out.glob("*.msq")) == [
            "track000.msq", "track001.msq", "track002.msq",
        ]
        assert len(list(out.glob("*.ann.csv"))) == 3
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0].startswith("#")
        assert len(manifest) == 4
        # count varies the seed, nothing else
        seeds = [line.split("\t")[2] for line in manifest[1:]]
        assert seeds == ["3", "4", "5"]
        stdout = capsys.readouterr().out
        assert stdout.count("wrote ") == 3

    def test_regeneration_identical(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--spec", str(spec), "--out", str(a)]) == 0
        assert main(["gen", "--spec", str(spec), "--out", str(b)]) == 0
        assert (a / "track000.msq").read_bytes() == (b / "track000.msq").read_bytes()
        assert (a / "manifest.txt").read_text() == (b / "manifest.txt").read_text()

    def test_bad_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("num_vertices = 1\n")
        assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("fps", ["nan", "inf"])
    def test_non_finite_fps(self, tmp_path, capsys, fps):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT.replace("fps = 10.0", f"fps = {fps}"))
        assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert "fps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("blend_halfwidth", "nan"), ("jitter_amplitude", "nan"), ("jitter_amplitude", "inf")],
    )
    def test_non_finite_blend_or_jitter(self, tmp_path, capsys, field, value):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT.replace("blend_halfwidth = 0.2", f"{field} = {value}"))
        out = tmp_path / "o"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not list(out.glob("*.msq"))

    def test_negative_seed(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT.replace("seed = 3", "seed = -1\njitter_amplitude = 0.01"))
        assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one(self, tmp_path, capsys, count):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "o"
        assert main(["gen", "--spec", str(spec), "--out", str(out), "--count", count]) == 1
        assert "--count" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_all_outputs(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (12, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("loss = rec\nsteps = 5\nnum_basis = 3\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "key,value"
        assert report[1] == "steps,5"
        curve = (out / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,loss"
        assert len(curve) == 6
        pred = read_msq(out / "pred.msq")
        assert pred.num_frames == 12 and pred.num_vertices == 2
        stdout = capsys.readouterr().out
        assert "trained 5 steps (rec loss)" in stdout

    def test_annotation_and_mask_add_segment_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (8, 3, 3)))
        labels = ("a", "transition", "b", "b", "b", "b", "b", "b")
        annot = tmp_path / "gt.ann.csv"
        write_annotation(SegmentAnnotation(labels, np.zeros(8, dtype=bool)), annot)
        lips = tmp_path / "lips.txt"
        lips.write_text("0\n2\n")
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 5\nnum_basis = 2\n")
        out = tmp_path / "run"
        code = main([
            "train", "--gt", gt, "--out", str(out), "--config", str(cfg),
            "--annot", str(annot), "--lips", str(lips),
        ])
        assert code == 0
        keys = [row.split(",")[0] for row in (out / "report.csv").read_text().splitlines()]
        assert "lve_transition" in keys and "lve_hold" in keys

    def test_default_config(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (12, 1, 3)))
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out)]) == 0
        assert (out / "report.csv").exists()


    def test_non_finite_learning_rate(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((8, 1, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("learning_rate = nan\nsteps = 5\nnum_basis = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((8, 1, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed = -1\nsteps = 5\nnum_basis = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestAblate:
    def test_table_and_best_sigma(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (12, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 10\nnum_basis = 3\nlearning_rate = 0.05\n")
        assert main([
            "ablate", "--gt", gt, "--sigmas", "0,1", "--config", str(cfg),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sigma,fve,lve"
        assert [line.split(",")[0] for line in lines[1:4]] == ["0", "1", "rec"]
        assert lines[4].startswith("best sigma = ")
        assert "gave the lowest lip error" in lines[5]

    def test_out_file(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (12, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 3\nnum_basis = 3\n")
        out = tmp_path / "table.csv"
        assert main([
            "ablate", "--gt", gt, "--sigmas", "1", "--config", str(cfg),
            "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith(out.read_text())

    def test_bad_sigma_list(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((6, 1, 3)))
        assert main(["ablate", "--gt", gt, "--sigmas", "a,b"]) == 1
        assert "bad sigma list" in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((8, 1, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed = -1\nsteps = 5\nnum_basis = 2\n")
        assert main(["ablate", "--gt", gt, "--sigmas", "1", "--config", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_quickly(self, capsys):
        assert main(["gradcheck", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "worst overall" in out and out.strip().endswith("OK")

    def test_checks_trainer_against_direct_losses(self, capsys, monkeypatch):
        # a quadratic form that drops the velocity term is self-consistent,
        # so only finite differences of the direct losses can catch it
        form = toytrain._quadratic_form

        def without_velocity(gt, cfg, basis, weights):
            return form(gt, replace(cfg, vel_coefficient=0.0), basis, weights)

        monkeypatch.setattr(toytrain, "_quadratic_form", without_velocity)
        assert main(["gradcheck", "--trials", "3"]) == 1
        assert capsys.readouterr().out.strip().endswith("FAIL")

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--trials", "2", "--tolerance", "1e-30"]) == 1
        assert capsys.readouterr().out.strip().endswith("FAIL")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one(self, capsys, trials):
        assert main(["gradcheck", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert "OK" not in captured.out

    def test_negative_seed(self, capsys):
        assert main(["gradcheck", "--trials", "1", "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err


class TestParser:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
