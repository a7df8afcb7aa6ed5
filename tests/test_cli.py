import hashlib
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import oracles
import pytest

from visemekit import (
    LossKind,
    MeshSequence,
    SegmentAnnotation,
    VertexRegionMask,
    coarticulation_weights,
    demo_spec,
    evaluate,
    format_csv_report,
    gen_viseme_track,
    loss_pc,
    parse_train_config,
    read_mask,
    read_msq,
    write_annotation,
    write_msq,
)
from visemekit import cli, toytrain
from visemekit.cli import main

MICRO_FRAMES = [[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]]


def msq(tmp_path, name, frames, fps=30.0):
    path = tmp_path / name
    write_msq(MeshSequence(np.asarray(frames, dtype=np.float64), fps), path)
    return str(path)


def table(text):
    return [line.split(",") for line in text.splitlines()]


def huge_track(tmp_path):
    """Finite coordinates near 1e200, whose squared errors against zeros overflow."""
    frames = np.random.default_rng(12).normal(0.0, 1.0, (10, 4, 3)) * 1e200
    return msq(tmp_path, "huge.msq", frames)


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

    @pytest.mark.parametrize("sigma", [2**63, 2**70, 10**400])
    def test_huge_radius_is_the_whole_track(self, tmp_path, capsys, sigma):
        # every window of radius T-1 or more spans all T-1 differences
        gt = msq(tmp_path, "gt.msq", np.random.default_rng(5).normal(0.0, 1.0, (7, 2, 3)))
        assert main(["weights", "--gt", gt, "--sigma", "6"]) == 0
        whole = capsys.readouterr().out
        assert main(["weights", "--gt", gt, "--sigma", str(sigma)]) == 0
        assert capsys.readouterr().out == whole

    @pytest.mark.parametrize(
        "option", [["--policy", "strict"], ["--temperature", "2"]], ids=["policy", "temperature"]
    )
    def test_removed_options(self, tmp_path, capsys, option):
        gt = msq(tmp_path, "gt.msq", MICRO_FRAMES)
        out = tmp_path / "w.csv"
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--gt", gt, *option, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: visemekit")
        assert f"error: unrecognized arguments: {' '.join(option)}" in err
        assert not out.exists()

    def test_non_finite_energy(self, tmp_path, capsys):
        """Steps whose squared norms overflow would softmax into nan weights;
        they are an error instead."""
        frames = np.random.default_rng(12).normal(0.0, 1e200, (12, 2, 3))
        gt = msq(tmp_path, "gt.msq", frames)
        out = tmp_path / "w.csv"
        code = main(["weights", "--gt", gt, "--out", str(out)])
        assert code == 1
        # the error line only: no numpy overflow warning from squaring the steps
        assert capsys.readouterr().err == "error: motion energy is not finite\n"
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
    @pytest.mark.parametrize("kind", ["rec", "pc"])
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

    @pytest.mark.parametrize("sigma", [2**63, 2**70, 10**400])
    def test_pc_huge_radius_is_the_whole_track(self, tmp_path, capsys, sigma):
        rng = np.random.default_rng(6)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (7, 2, 3)))
        pred = msq(tmp_path, "pred.msq", rng.normal(0.0, 1.0, (7, 2, 3)))
        args = ["loss", "--gt", gt, "--pred", pred, "--kind", "pc", "--sigma"]
        assert main(args + ["6"]) == 0
        whole = capsys.readouterr().out
        assert main(args + [str(sigma)]) == 0
        assert capsys.readouterr().out == whole

    @pytest.mark.parametrize("kind", ["rec"])
    def test_overflowing_loss(self, tmp_path, capsys, kind):
        pred = msq(tmp_path, "pred.msq", np.zeros((10, 4, 3)))
        out = tmp_path / "loss.csv"
        args = ["loss", "--gt", huge_track(tmp_path), "--pred", pred, "--kind", kind]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: loss is not finite\n")
        assert not out.exists()

    def test_vel_is_a_usage_error(self, tmp_path, capsys):
        # the trainer fits rec or pc; the velocity term is no loss
        gt = msq(tmp_path, "gt.msq", np.zeros((2, 1, 3)))
        with pytest.raises(SystemExit) as excinfo:
            main(["loss", "--gt", gt, "--pred", gt, "--kind", "vel"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'vel'" in capsys.readouterr().err

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

    def test_overflowing_errors(self, tmp_path, capsys):
        pred = msq(tmp_path, "pred.msq", np.zeros((10, 4, 3)))
        lips = tmp_path / "lips.txt"
        lips.write_text("0\n2\n")
        out = tmp_path / "metrics.csv"
        args = ["metrics", "--gt", huge_track(tmp_path), "--pred", pred, "--lips", str(lips)]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: a metric is not finite\n")
        assert not out.exists()

    def test_mask_out_of_range(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((2, 2, 3)))
        lips = tmp_path / "lips.txt"
        lips.write_text("7\n")
        assert main(["metrics", "--gt", gt, "--pred", gt, "--lips", str(lips)]) == 1

    @pytest.mark.parametrize("command", ["metrics", "train", "ablate"])
    @pytest.mark.parametrize("index", [2**63, 2**64 - 1, 10**22])
    def test_mask_index_beyond_int64(self, tmp_path, capsys, command, index):
        # an int64 array would wrap 2**63 negative and refuse 10**22 with an
        # OverflowError traceback
        gt = msq(tmp_path, "gt.msq", np.zeros((4, 2, 3)))
        lips = tmp_path / "lips.txt"
        lips.write_text(f"0\n{index}\n")
        out = tmp_path / "run"
        argv = {
            "metrics": ["metrics", "--gt", gt, "--pred", gt, "--lips", str(lips)],
            "train": ["train", "--gt", gt, "--out", str(out), "--lips", str(lips)],
            "ablate": ["ablate", "--gt", gt, "--lips", str(lips), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {lips}:2: index {index} out of range\n")
        assert not out.exists()


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

    def test_shape_named_transition_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "num_vertices = 1\nfps = 10\nblend_halfwidth = 0.05\n"
            "shape.transition = 0 0 0\nshape.b = 1 0 0\n"
            "target = 0 transition\ntarget = 1 b\ntarget = 2 transition\n"
        )
        out = tmp_path / "corpus"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: shape id 'transition' is reserved: the annotation labels "
            "blend frames with it\n"
        )
        assert not (out / "track000.ann.csv").exists()

    def test_rejected_spec_leaves_no_directory(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("num_vertices = 1\nfps = 10\nshape.transition = 0 0 0\n"
                        "target = 0 transition\n")
        out = tmp_path / "corpus"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        assert "reserved" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("fps", ["1e39", "1e-50"])
    def test_fps_beyond_float32(self, tmp_path, capsys, fps):
        # the MSQ header stores fps as float32, where these are inf and 0.0
        spec = tmp_path / "spec.txt"
        spec.write_text(f"num_vertices = 1\nfps = {fps}\nshape.a = 1 2 3\ntarget = 0 a\n")
        out = tmp_path / "o"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fps ") and err.count("\n") == 1 and "float32" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_target_time(self, tmp_path, capsys, time):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT.replace("target = 1.0 b", f"target = {time} b"))
        out = tmp_path / "o"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "target times must be finite" in err
        assert not list(out.glob("*.msq"))

    @pytest.mark.parametrize("time", ["1e12", "1e300"])
    def test_target_time_beyond_msq_frame_count(self, tmp_path, capsys, time):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT.replace("target = 1.0 b", f"target = {time} b"))
        out = tmp_path / "o"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MSQ" in err
        assert not list(out.glob("*.msq"))

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 218 TiB")

        monkeypatch.setattr("visemekit.io.gen_viseme_track", exhausted)
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        out = tmp_path / "o"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 218 TiB\n"
        assert not list(out.glob("*.msq"))

    def test_negative_seed(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT.replace("seed = 3", "seed = -1\njitter_amplitude = 0.01"))
        assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_count_streams_its_specs(self, tmp_path, capsys, monkeypatch):
        # track i renders before track i + 1's spec is built, so a large
        # --count cannot exhaust memory before the first track is written
        built, seen = [], []

        def counted(spec, **changes):
            built.append(changes)
            return replace(spec, **changes)

        def render(spec, _real=gen_viseme_track):
            seen.append(len(built))
            return _real(spec)

        monkeypatch.setattr(cli, "replace", counted)
        monkeypatch.setattr("visemekit.io.gen_viseme_track", render)
        spec = tmp_path / "spec.txt"
        spec.write_text(SPEC_TEXT)
        assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "o"), "--count", "3"]) == 0
        assert seen == [1, 2, 3]

    @pytest.mark.parametrize(
        "shape, target, code, message",
        [
            ("shape. = 1 2 3", "0.5", 2, "error: line 3: bad shape name ''\n"),
            ("shape.a = 1 x 3", "0.5", 2,
             "error: line 3: shape 'a' has a non-numeric coordinate\n"),
            ("shape.a = nan 2 3", "0.5", 1, "error: shape 'a' contains non-finite coordinates\n"),
            ("shape.a = 1 2 3", "-0.5", 1, "error: target times must be nonnegative\n"),
        ],
    )
    def test_bad_shape_or_target_line(self, tmp_path, capsys, shape, target, code, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"num_vertices = 1\nfps = 10\n{shape}\ntarget = {target} a\n")
        out = tmp_path / "o"
        assert main(["gen", "--spec", str(spec), "--out", str(out)]) == code
        assert capsys.readouterr().err == message
        assert not out.exists()

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

    @pytest.mark.parametrize("loss", ["pc", "rec"])
    def test_pred_msq_is_the_fitted_prediction(self, tmp_path, capsys, monkeypatch, loss):
        # one run builds its basis once and writes the prediction fit scored
        gt = tmp_path / "gt.msq"
        spec = demo_spec(seed=8, num_vertices=8, num_frames=48, num_lip_vertices=4)
        write_msq(gen_viseme_track(spec)[0], gt)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"loss = {loss}\nlearning_rate = 0.2\nsteps = 200\nnum_basis = 12\n")
        calls = {"temporal_basis": 0}
        for name in calls:
            def counted(*args, _real=getattr(toytrain, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(toytrain, name, counted)
        out = tmp_path / "run"
        assert main(["train", "--gt", str(gt), "--out", str(out), "--config", str(cfg)]) == 0
        assert calls == {"temporal_basis": 1}
        monkeypatch.undo()

        seq = read_msq(gt)
        report = toytrain.fit(seq, parse_train_config(cfg.read_text()))
        basis = toytrain.temporal_basis(seq.num_frames, 12)
        want = MeshSequence(np.tensordot(basis, report.coef, axes=(1, 0)), seq.fps)
        write_msq(want, tmp_path / "want.msq")
        assert (out / "pred.msq").read_bytes() == (tmp_path / "want.msq").read_bytes()

    def test_report_layout(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (10, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 4\nnum_basis = 3\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        keys = [row.split(",")[0] for row in lines[1:]]
        assert keys == [
            "steps", "final_rec", "final_vel", "final_pc",
            "fve", "lve", "ldtw", "lip_max",
        ]
        assert lines[1] == "steps,4"

    def test_final_vel_matches_oracle(self, tmp_path, capsys):
        # final_vel is the velocity mismatch of the prediction train wrote;
        # at 6 frames of 2 vertices numpy sums in the loop's order
        frames = np.random.default_rng(16).normal(0.0, 1.0, (6, 2, 3))
        gt = msq(tmp_path, "gt.msq", frames)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 4\nnum_basis = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 0
        rows = dict(table((out / "report.csv").read_text())[1:])
        pred = read_msq(out / "pred.msq").frames
        want, _ = oracles.loss_vel(frames.tolist(), pred.tolist())
        assert rows["final_vel"] == format(want, ".9g")

    def test_report_with_segments(self, tmp_path, capsys):
        rng = np.random.default_rng(15)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (8, 2, 3)))
        labels = ("a", "transition", "b", "b", "b", "b", "b", "b")
        annot = tmp_path / "gt.ann.csv"
        write_annotation(SegmentAnnotation(labels, np.zeros(8, dtype=bool)), annot)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 4\nnum_basis = 2\n")
        out = tmp_path / "run"
        argv = ["train", "--gt", gt, "--out", str(out), "--config", str(cfg), "--annot", str(annot)]
        assert main(argv) == 0
        keys = [row.split(",")[0] for row in (out / "report.csv").read_text().splitlines()[1:]]
        assert keys[-2:] == ["lve_transition", "lve_hold"]

    def test_annotation_row_with_two_columns(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((3, 1, 3)))
        annot = tmp_path / "gt.ann.csv"
        annot.write_text("frame,label,high_motion\n1,a,0\n2,a,0\n3,a\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--annot", str(annot)]) == 2
        assert capsys.readouterr().err == f"error: {annot}:4: expected 3 columns, got 2\n"
        assert not out.exists()

    def test_annotation_length_mismatch_writes_nothing(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((5, 1, 3)))
        annot = tmp_path / "gt.ann.csv"
        write_annotation(SegmentAnnotation(("a", "b"), np.zeros(2, dtype=bool)), annot)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 1\nnum_basis = 2\n")
        out = tmp_path / "run"
        argv = ["train", "--gt", gt, "--out", str(out), "--config", str(cfg), "--annot", str(annot)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: annotation covers 2 frames, sequence has 5\n"
        assert not out.exists()

    def test_default_config(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (12, 1, 3)))
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out)]) == 0
        assert (out / "report.csv").exists()

    def test_rec_final_pc_uses_config_sigma(self, tmp_path, capsys):
        # a REC run scores final_pc under its own window, not the default sigma=2
        gt = tmp_path / "gt.msq"
        spec = demo_spec(seed=8, num_vertices=8, num_frames=48, num_lip_vertices=4)
        write_msq(gen_viseme_track(spec)[0], gt)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("loss = rec\nsigma = 4\nlearning_rate = 0.2\nsteps = 200\nnum_basis = 12\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", str(gt), "--out", str(out), "--config", str(cfg)]) == 0
        seq = read_msq(gt)
        pred = read_msq(out / "pred.msq")
        want = loss_pc(seq, pred, coarticulation_weights(seq, 4)).total
        assert f", pc {want:.6g}," in capsys.readouterr().out
        assert f"final_pc,{want:.9g}\n" in (out / "report.csv").read_text()


    def test_non_finite_learning_rate(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((8, 1, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("learning_rate = nan\nsteps = 5\nnum_basis = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 1
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("steps", [2**62, 2**63, 2**70])
    def test_steps_beyond_any_loss_curve(self, tmp_path, capsys, command, steps):
        # numpy cannot size a float64 curve of 8*steps bytes above intp's max
        gt = msq(tmp_path, "gt.msq", np.zeros((8, 1, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"steps = {steps}\nnum_basis = 2\n")
        out = tmp_path / "run"
        argv = [command, "--gt", gt, "--out", str(out), "--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: steps {steps} is too many: no array can hold its loss curve\n"
        )
        assert not out.exists()

    def test_divergence_names_the_stability_ratio(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (10, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("loss = rec\nlearning_rate = 50\nsteps = 500\nnum_basis = 3\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: loss became non-finite at step 62 "
            "(learning_rate*lambda_max = 162; stable below 1)\n"
        )
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((8, 1, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed = -1\nsteps = 5\nnum_basis = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_overflowing_learning_rate(self, tmp_path, capsys, command):
        # learning_rate * s^2 overflows in fit's step-size arithmetic: the
        # divergence error line is all the run writes, with no numpy warning
        rng = np.random.default_rng(6)
        gt = msq(tmp_path, "gt.msq", rng.normal(0.0, 1.0, (10, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("loss = rec\nlearning_rate = 1e200\nsteps = 3\nnum_basis = 3\n")
        out = tmp_path / "run"
        assert main([command, "--gt", gt, "--out", str(out), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: loss became non-finite at step 1 (")
        assert captured.err.count("\n") == 1
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

    def test_empty_sigma_list(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.zeros((6, 1, 3)))
        assert main(["ablate", "--gt", gt, "--sigmas", ","]) == 1
        assert capsys.readouterr().err == "error: sigma list is empty\n"

    def test_best_window_of_five(self, tmp_path, capsys):
        gt = msq(tmp_path, "gt.msq", np.random.default_rng(9).normal(0.0, 1.0, (12, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 3\nnum_basis = 3\n")
        assert main(["ablate", "--gt", gt, "--sigmas", "2", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "best sigma = 2 (lowest lip error among weighted runs)",
            "window size 5 gave the lowest lip error",
        ]


class TestAnnotationCoverage:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_mismatch_fails_before_training(self, tmp_path, capsys, monkeypatch, command):
        gt = msq(tmp_path, "gt.msq", np.random.default_rng(8).normal(0.0, 1.0, (120, 2, 3)))
        annot = tmp_path / "gt.ann.csv"
        write_annotation(SegmentAnnotation(("a", "b"), np.zeros(2, dtype=bool)), annot)
        calls = []

        def counted(*args, _real=toytrain.fit):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(toytrain, "fit", counted)
        argv = {"train": ["train", "--out", str(tmp_path / "run")],
                "ablate": ["ablate", "--sigmas", "1"]}[command]
        assert main(argv + ["--gt", gt, "--annot", str(annot)]) == 1
        assert capsys.readouterr().err == "error: annotation covers 2 frames, sequence has 120\n"
        assert calls == []


class TestConfigKeys:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_velocity_coefficient_is_an_unknown_key(self, tmp_path, capsys, command):
        # the trainer fits the chosen frame loss alone; the velocity term's
        # coefficient is no config key
        gt = msq(tmp_path, "gt.msq", np.random.default_rng(9).normal(0.0, 1.0, (12, 2, 3)))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 5\nnum_basis = 3\nvel_coefficient = 0.3\n")
        out = tmp_path / "run"
        argv = {"train": ["train", "--out", str(out)], "ablate": ["ablate", "--sigmas", "1"]}[command]
        assert main(argv + ["--gt", gt, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 3: unknown key 'vel_coefficient'\n"
        assert captured.out == ""
        assert not out.exists()


class TestGradcheck:
    def test_passes_quickly(self, capsys):
        assert main(["gradcheck", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "worst overall" in out and out.strip().endswith("OK")

    def test_checks_trainer_against_direct_losses(self, capsys, monkeypatch):
        # a least-squares form that drops the PC weights is self-consistent,
        # so only finite differences of the direct losses can catch it
        form = toytrain._least_squares

        def without_weights(gt, cfg, basis, weights):
            return form(gt, replace(cfg, loss_choice=LossKind.REC), basis, weights)

        monkeypatch.setattr(toytrain, "_least_squares", without_weights)
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

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step(self, capsys, step):
        assert main(["gradcheck", "--trials", "1", "--step", step]) == 1
        captured = capsys.readouterr()
        assert "step must be finite and positive" in captured.err
        assert "OK" not in captured.out

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_tolerance_checked_before_any_trial(self, capsys, tolerance):
        # nan and -1 would fail every run after all its trials, inf pass any
        assert main(["gradcheck", "--tolerance", tolerance]) == 1
        assert capsys.readouterr() == (
            "", f"error: --tolerance must be finite and >= 0, got {float(tolerance)}\n"
        )

    def test_nan_error_fails(self, capsys, monkeypatch):
        # a NaN first error must survive the later finite ones: max() kept 0.0
        real, calls = cli.relative_gradient_error, []

        def first_is_nan(analytic, numeric):
            calls.append(None)
            return float("nan") if len(calls) == 1 else real(analytic, numeric)

        monkeypatch.setattr(cli, "relative_gradient_error", first_is_nan)
        assert main(["gradcheck", "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert "rec: worst relative error nan" in out
        assert out.strip().endswith("FAIL")

    def test_overflowing_step_fails(self, capsys):
        # finite, but 2 * step overflows, so every difference quotient is
        # NaN; the overflow is the FAIL, not a numpy warning
        assert main(["gradcheck", "--trials", "1", "--step", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip().endswith("FAIL")
        assert captured.err == ""


class TestParser:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


SRC = Path(__file__).resolve().parent.parent / "src"


def run_in_c_locale(args, cwd):
    """The CLI in a fresh process whose locale encoding is ASCII."""
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(SRC))
    env.pop("PYTHONUTF8", None)
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "visemekit.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )


class TestTextEncoding:
    """Text inputs and outputs are UTF-8 whatever the locale, and bytes that
    are not UTF-8 are a format error (exit 2), not a traceback."""

    @pytest.mark.parametrize("command", ["gen", "train", "metrics"])
    def test_non_utf8_text_input(self, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# \xff\n")
        gt = msq(tmp_path, "gt.msq", MICRO_FRAMES)
        out = str(tmp_path / "out")
        args = {
            "gen": ["gen", "--spec", str(bad), "--out", out],
            "train": ["train", "--gt", gt, "--out", out, "--config", str(bad)],
            "metrics": ["metrics", "--gt", gt, "--pred", gt, "--lips", str(bad)],
        }[command]
        proc = run_in_c_locale(args, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.decode("ascii") == (
            f"error: {bad}: not UTF-8 text: invalid start byte at byte 2\n"
        )

    def test_gen_in_c_locale_matches_library(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_bytes(SPEC_TEXT.replace("shape.b", "shape.\u0283")
                         .replace("1.0 b", "1.0 \u0283").encode("utf-8"))
        proc = run_in_c_locale(["gen", "--spec", str(spec), "--out", "c"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "lib")]) == 0
        for name in ("track000.msq", "track000.ann.csv", "manifest.txt"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
        annotation = (tmp_path / "c" / "track000.ann.csv").read_bytes()
        assert ",\u0283,".encode("utf-8") in annotation


def run_fresh(args, cwd):
    """The CLI in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "visemekit.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )


class TestOneProcessManyCommands:
    """main builds its parser once per process. Each call must still act as
    a fresh process would: no option value or default carries over."""

    COMMANDS = [
        ["weights", "--gt", "gt.msq", "--out", "f.csv"],
        ["weights", "--gt", "gt.msq"],
        ["weights", "--sigma", "1"],
        ["gen", "--spec", "spec.txt", "--out", "corpus"],
        ["weights", "--gt", "gt.msq", "--sigma", "0"],
        ["weights", "--gt", "gt.msq"],
    ]

    def test_sequence_matches_fresh_processes(self, tmp_path, capsys, monkeypatch):
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        for directory in (here, fresh):
            directory.mkdir()
            msq(directory, "gt.msq", np.random.default_rng(4).normal(0.0, 1.0, (12, 3, 3)))
            (directory / "spec.txt").write_text(SPEC_TEXT)
        monkeypatch.chdir(here)
        results = []
        for args in self.COMMANDS:
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            proc = run_fresh(args, fresh)
            assert (code, out, err) == (
                proc.returncode, proc.stdout.decode(), proc.stderr.decode()
            ), args
            results.append((code, out))
        assert results[1] == (0, (here / "f.csv").read_text())
        assert results[2][0] == 2
        assert results[4][1] != results[5][1] == results[1][1]
        files = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
        assert len(files) == 6
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


class TestPinnedOutputs:
    """The text `train` and `ablate` write for demo track 3, pinned as SHA-256
    digests, so that moving the scoring between modules cannot move an output
    byte. The texts print floats with %.9g. pred.msq holds raw float64, whose
    last bits may follow the host's BLAS and LAPACK, so it is not hashed: it is
    scored again and must give the pinned report's numbers."""

    CONFIG = "learning_rate = 0.2\nsteps = 1200\nnum_basis = 30\nseed = 3\n"
    PINNED = {
        "pc3/report.csv": "a230a6edc7797ea0d561d34ed04f5d3cbcf30961f46f2482498256c19a6fd8f6",
        "pc3/loss_curve.csv": "87c1cf5ce97ece6305d3087f704b20558fc5351e9e4e0f676775a05f3a712881",
        "rec/report.csv": "586cd8deac6b62951e4cc3bf515127acfecfda593a78fe4e88b02990f7b37bf0",
        "rec/loss_curve.csv": "cb4a19adaf9dad4df9f68a41f502efa2a16dede303342a30e291a82af5a39817",
        "ablate.stdout": "f9714a655287d329dcd1bd9925c7553443f74f18fbe7642614b757c59d275012",
    }

    def test_demo_track_outputs_are_pinned(self, tmp_path, capsys):
        track, annotation = gen_viseme_track(demo_spec(seed=3))
        gt, annot, lips = tmp_path / "gt.msq", tmp_path / "gt.ann.csv", tmp_path / "lips.txt"
        write_msq(track, gt)
        write_annotation(annotation, annot)
        lips.write_text("".join(f"{i}\n" for i in range(20)))
        extra = ["--annot", str(annot), "--lips", str(lips)]
        for name, head, more in (("pc3", "loss = pc\nsigma = 3\n", extra), ("rec", "loss = rec\n", [])):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(head + self.CONFIG)
            argv = ["train", "--gt", str(gt), "--out", str(tmp_path / name), "--config", str(cfg)]
            assert main(argv + more) == 0
        capsys.readouterr()
        assert main(["ablate", "--gt", str(gt), "--config", str(cfg)] + extra) == 0
        (tmp_path / "ablate.stdout").write_text(capsys.readouterr().out)
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.PINNED}
        assert got == self.PINNED
        for name, mask in (("pc3", read_mask(lips)), ("rec", VertexRegionMask.full(track.num_vertices))):
            scores = evaluate(track, read_msq(tmp_path / name / "pred.msq"), mask)
            report = dict(line.split(",") for line in (tmp_path / name / "report.csv").read_text().splitlines())
            for key in ("fve", "lve", "ldtw", "lip_max"):
                assert report[key] == "%.9g" % getattr(scores, key), (name, key)
