import struct

import numpy as np
import pytest

from visemekit import (
    BoundaryPolicy,
    ConstraintError,
    FormatError,
    LossKind,
    MeshSequence,
    SegmentAnnotation,
    SynthSpec,
    TrainConfig,
    VertexRegionMask,
    WindowSpec,
    ablate_window,
    coarticulation_weights,
    evaluate,
    fit,
    format_csv_report,
    format_synth_spec,
    format_train_config,
    loss_pc,
    loss_rec,
    loss_vel,
    parse_synth_spec,
    parse_train_config,
    read_annotation,
    read_mask,
    read_msq,
    write_annotation,
    write_csv_report,
    write_loss_curve,
    write_msq,
)

HEADER = struct.Struct("<4sIIf")


def seq(frames, fps=30.0):
    return MeshSequence(np.asarray(frames, dtype=np.float64), fps)


def msq_bytes(magic=b"MSQ1", num_frames=1, num_vertices=1, fps=30.0, payload=None):
    if payload is None:
        payload = np.zeros(num_frames * num_vertices * 3).astype("<f8").tobytes()
    return HEADER.pack(magic, num_frames, num_vertices, fps) + payload


class TestMsq:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        original = seq(rng.normal(0.0, 1.0, (7, 4, 3)), fps=25.0)
        path = tmp_path / "a.msq"
        write_msq(original, path)
        loaded = read_msq(path)
        assert np.array_equal(np.asarray(loaded.frames), np.asarray(original.frames))
        assert loaded.fps == original.fps

    def test_fps_stored_single_precision(self, tmp_path):
        original = seq(np.zeros((2, 1, 3)), fps=29.97)
        path = tmp_path / "a.msq"
        write_msq(original, path)
        assert read_msq(path).fps == float(np.float32(29.97))

    def test_file_size(self, tmp_path):
        path = tmp_path / "a.msq"
        write_msq(seq(np.zeros((5, 3, 3))), path)
        assert path.stat().st_size == HEADER.size + 5 * 3 * 3 * 8

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "a.msq"
        path.write_bytes(b"MSQ")
        with pytest.raises(FormatError, match="truncated header: 3 bytes, need 16"):
            read_msq(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.msq"
        path.write_bytes(msq_bytes(magic=b"XXXX"))
        with pytest.raises(FormatError, match="bad magic b'XXXX'"):
            read_msq(path)

    def test_zero_counts(self, tmp_path):
        path = tmp_path / "a.msq"
        path.write_bytes(msq_bytes(num_frames=0, payload=b""))
        with pytest.raises(FormatError, match="declares 0 frames"):
            read_msq(path)
        path.write_bytes(msq_bytes(num_vertices=0, payload=b""))
        with pytest.raises(FormatError, match="0 vertices"):
            read_msq(path)

    def test_bad_fps_in_header(self, tmp_path):
        path = tmp_path / "a.msq"
        for fps in (-1.0, 0.0, np.nan, np.inf):
            path.write_bytes(msq_bytes(fps=fps))
            with pytest.raises(FormatError, match="fps"):
                read_msq(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.msq"
        path.write_bytes(msq_bytes(num_frames=2)[:-8])
        with pytest.raises(
            FormatError, match=r"truncated payload: expected 48 bytes \(2x1x3 float64\), got 40"
        ):
            read_msq(path)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "a.msq"
        path.write_bytes(msq_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing data: 4 extra bytes"):
            read_msq(path)

    def test_non_finite_payload_located(self, tmp_path):
        frames = np.zeros((3, 2, 3))
        frames[1, 1, 2] = np.nan
        path = tmp_path / "a.msq"
        path.write_bytes(msq_bytes(num_frames=3, num_vertices=2, payload=frames.astype("<f8").tobytes()))
        with pytest.raises(FormatError, match="non-finite value at frame 1, vertex 1, component 2"):
            read_msq(path)

    def test_write_rejects_bad_input(self, tmp_path):
        path = tmp_path / "a.msq"
        with pytest.raises(ConstraintError):
            write_msq(MeshSequence(np.zeros((0, 1, 3)), 30.0), path)
        with pytest.raises(ConstraintError):
            write_msq(MeshSequence(np.zeros((2, 1, 3)), 0.0), path)
        bad = np.zeros((2, 1, 3))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ConstraintError):
            write_msq(MeshSequence(bad, 30.0), path)


class TestMask:
    def test_basic(self, tmp_path):
        path = tmp_path / "lips.txt"
        path.write_text("# lip region\n0\n5\n2\n")
        mask = read_mask(path)
        assert mask.indices.tolist() == [0, 2, 5]
        assert mask.region_name == "lips"

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n3\n")
        assert read_mask(path).indices.tolist() == [3]

    def test_errors(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0\nxyz\n")
        with pytest.raises(FormatError, match="2: not an index"):
            read_mask(path)
        path.write_text("-4\n")
        with pytest.raises(FormatError, match="negative index -4"):
            read_mask(path)
        path.write_text("# only comments\n")
        with pytest.raises(FormatError, match="no indices"):
            read_mask(path)


class TestAnnotation:
    def test_round_trip(self, tmp_path):
        annotation = SegmentAnnotation(
            ("rest", "transition", "vis0"), np.array([False, True, False])
        )
        path = tmp_path / "a.csv"
        write_annotation(annotation, path)
        loaded = read_annotation(path)
        assert loaded.labels == annotation.labels
        assert np.array_equal(loaded.high_motion, annotation.high_motion)

    def test_layout(self, tmp_path):
        annotation = SegmentAnnotation(("a", "b"), np.array([True, False]))
        path = tmp_path / "a.csv"
        write_annotation(annotation, path)
        assert path.read_text() == "frame,label,high_motion\n1,a,1\n2,b,0\n"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("frame,tag,high_motion\n1,a,0\n")
        with pytest.raises(FormatError, match="bad header"):
            read_annotation(path)

    def test_frames_must_be_consecutive(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("frame,label,high_motion\n1,a,0\n3,b,0\n")
        with pytest.raises(FormatError, match="frame column is '3', expected 2"):
            read_annotation(path)

    def test_bad_flag(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("frame,label,high_motion\n1,a,yes\n")
        with pytest.raises(FormatError, match="high_motion must be 0 or 1"):
            read_annotation(path)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("frame,label,high_motion\n")
        with pytest.raises(FormatError, match="no frames"):
            read_annotation(path)


class TestCsvReports:
    def test_metric_layout(self):
        gt = seq(np.zeros((2, 2, 3)))
        shifted = np.zeros((2, 2, 3))
        shifted[:, :, 0] = 0.3
        text = format_csv_report(evaluate(gt, seq(shifted), VertexRegionMask(np.array([0]))))
        lines = text.splitlines()
        assert lines[0] == "fve,lve,ldtw,lip_max"
        assert lines[1].split(",") == ["0.3", "0.3", "0.3", "0.3"]

    def test_nine_significant_digits_survive(self):
        gt = seq(np.zeros((2, 1, 3)))
        value = 1.0 / 3.0
        pred = seq(np.full((2, 1, 3), value * 3**0.5 / 3**0.5))
        report = evaluate(gt, pred, VertexRegionMask.full(1))
        text = format_csv_report(report)
        parsed = float(text.splitlines()[1].split(",")[0])
        assert parsed == pytest.approx(report.fve, rel=1e-8)

    def test_loss_rows_start_at_one(self):
        gt = seq([[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]])
        pred = seq([[[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]])
        lines = format_csv_report(loss_rec(gt, pred)).splitlines()
        assert lines[0] == "t,loss"
        assert lines[1] == "1,0"
        assert lines[2] == "2,1"
        assert lines[3] == "total,1"

    def test_velocity_rows_start_at_two(self):
        gt = seq(np.zeros((3, 1, 3)))
        pred = seq(np.zeros((3, 1, 3)))
        lines = format_csv_report(loss_vel(gt, pred)).splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "total"]

    def test_weight_rows_one_based(self):
        track = seq(np.zeros((4, 1, 3)))
        lines = format_csv_report(coarticulation_weights(track, WindowSpec(2))).splitlines()
        assert lines[0] == "t,raw_energy,weight"
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4"]
        assert all(row.split(",")[2] == "0.25" for row in lines[1:])

    def test_strict_weight_rows_offset(self):
        track = seq(np.zeros((6, 1, 3)))
        weights = coarticulation_weights(track, WindowSpec(1, BoundaryPolicy.STRICT))
        lines = format_csv_report(weights).splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4", "5"]

    def test_ablation_layout_plain(self):
        rng = np.random.default_rng(12)
        gt = seq(rng.normal(0.0, 1.0, (12, 2, 3)))
        result = ablate_window(gt, TrainConfig(steps=3, num_basis=3), [0, 1])
        lines = format_csv_report(result).splitlines()
        assert lines[0] == "sigma,fve,lve"
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "rec"]

    def test_ablation_layout_segmented(self):
        rng = np.random.default_rng(13)
        gt = seq(rng.normal(0.0, 1.0, (8, 2, 3)))
        labels = ("a", "transition", "b", "b", "b", "b", "b", "b")
        annotation = SegmentAnnotation(labels, np.zeros(8, dtype=bool))
        result = ablate_window(
            gt, TrainConfig(steps=3, num_basis=2), [1], annotation=annotation
        )
        lines = format_csv_report(result).splitlines()
        assert lines[0] == "sigma,fve,lve,lve_transition,lve_hold"
        for row in lines[1:]:
            assert len(row.split(",")) == 5
            assert all(cell for cell in row.split(","))

    def test_train_report_layout(self):
        rng = np.random.default_rng(14)
        gt = seq(rng.normal(0.0, 1.0, (10, 2, 3)))
        _, report = fit(gt, TrainConfig(steps=4, num_basis=3))
        lines = format_csv_report(report).splitlines()
        assert lines[0] == "key,value"
        keys = [row.split(",")[0] for row in lines[1:]]
        assert keys == [
            "steps", "final_rec", "final_vel", "final_pc",
            "fve", "lve", "ldtw", "lip_max",
        ]
        assert lines[1] == "steps,4"

    def test_train_report_with_segments(self):
        rng = np.random.default_rng(15)
        gt = seq(rng.normal(0.0, 1.0, (8, 2, 3)))
        labels = ("a", "transition", "b", "b", "b", "b", "b", "b")
        annotation = SegmentAnnotation(labels, np.zeros(8, dtype=bool))
        _, report = fit(gt, TrainConfig(steps=4, num_basis=2), annotation=annotation)
        keys = [row.split(",")[0] for row in format_csv_report(report).splitlines()[1:]]
        assert keys[-2:] == ["lve_transition", "lve_hold"]

    def test_unknown_type(self):
        with pytest.raises(TypeError, match="no CSV layout for dict"):
            format_csv_report({})

    def test_write_matches_format(self, tmp_path):
        gt = seq(np.zeros((2, 1, 3)))
        report = loss_pc(gt, gt)
        path = tmp_path / "r.csv"
        write_csv_report(report, path)
        assert path.read_text() == format_csv_report(report)

    def test_loss_curve_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_loss_curve(np.array([2.0, 1.0, 0.5]), path)
        assert path.read_text() == "step,loss\n0,2\n1,1\n2,0.5\n"

    def test_loss_curve_bytes(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_loss_curve([1.0 / 3.0, -2.5e-12, 1e20, 0.0, 123456789.5], path)
        assert path.read_bytes() == (
            b"step,loss\n0,0.333333333\n1,-2.5e-12\n2,1e+20\n3,0\n4,123456790\n"
        )


def two_shape_spec(**overrides):
    fields = dict(
        num_vertices=2,
        fps=10.0,
        viseme_targets=((0.0, "a"), (1.0, "b")),
        shape_bank={
            "a": np.zeros((2, 3)),
            "b": np.array([[1.0, 0.0, 0.0], [0.5, 0.25, 0.0]]),
        },
        blend_halfwidth=0.3,
        jitter_amplitude=0.0,
        seed=7,
    )
    fields.update(overrides)
    return SynthSpec(**fields)


class TestSynthSpecText:
    def test_round_trip(self):
        spec = two_shape_spec(label="round-trip", jitter_amplitude=0.02)
        text = format_synth_spec(spec)
        parsed = parse_synth_spec(text)
        assert format_synth_spec(parsed) == text
        assert parsed.num_vertices == 2
        assert parsed.fps == 10.0
        assert parsed.viseme_targets == spec.viseme_targets
        assert np.array_equal(parsed.shape_bank["b"], spec.shape_bank["b"])

    def test_defaults_fill_in(self):
        text = "num_vertices = 1\nfps = 30\nshape.rest = 0 0 0\ntarget = 0 rest\n"
        parsed = parse_synth_spec(text)
        assert parsed.blend_halfwidth == 0.1
        assert parsed.jitter_amplitude == 0.0
        assert parsed.seed == 0
        assert parsed.label is None

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a synthetic track\n\nnum_vertices = 1\nfps = 30\n"
            "shape.rest = 0 0 0\n\n# targets\ntarget = 0 rest\n"
        )
        assert parse_synth_spec(text).num_vertices == 1

    def test_error_line_numbers(self):
        base = "num_vertices = 1\nfps = 30\nshape.rest = 0 0 0\ntarget = 0 rest\n"
        with pytest.raises(FormatError, match="line 5: unknown key 'bogus'"):
            parse_synth_spec(base + "bogus = 1\n")
        with pytest.raises(FormatError, match="line 5: duplicate key 'fps'"):
            parse_synth_spec(base + "fps = 60\n")
        with pytest.raises(FormatError, match="line 5: duplicate shape 'rest'"):
            parse_synth_spec(base + "shape.rest = 1 1 1\n")
        with pytest.raises(FormatError, match="line 1: expected 'key = value'"):
            parse_synth_spec("num_vertices 1\n")
        with pytest.raises(FormatError, match="line 4: target needs 'time shape_id'"):
            parse_synth_spec("num_vertices = 1\nfps = 30\nshape.rest = 0 0 0\ntarget = 0\n")
        with pytest.raises(FormatError, match="line 4: bad target time 'soon'"):
            parse_synth_spec(
                "num_vertices = 1\nfps = 30\nshape.rest = 0 0 0\ntarget = soon rest\n"
            )

    def test_missing_pieces(self):
        with pytest.raises(FormatError, match="missing key 'num_vertices'"):
            parse_synth_spec("fps = 30\nshape.rest = 0 0 0\ntarget = 0 rest\n")
        with pytest.raises(FormatError, match="no shapes"):
            parse_synth_spec("num_vertices = 1\nfps = 30\ntarget = 0 rest\n")
        with pytest.raises(FormatError, match="no targets"):
            parse_synth_spec("num_vertices = 1\nfps = 30\nshape.rest = 0 0 0\n")

    def test_shape_length_checked(self):
        with pytest.raises(FormatError, match="shape 'rest' has 2 coordinates, expected 3"):
            parse_synth_spec("num_vertices = 1\nfps = 30\nshape.rest = 0 0\ntarget = 0 rest\n")


class TestTrainConfigText:
    def test_round_trip(self):
        cfg = TrainConfig(
            loss_choice=LossKind.REC,
            vel_coefficient=0.25,
            sigma=3,
            learning_rate=0.05,
            steps=123,
            seed=4,
            num_basis=8,
        )
        text = format_train_config(cfg)
        assert parse_train_config(text) == cfg
        assert "num_basis = 8" in text

    def test_defaults(self):
        cfg = parse_train_config("")
        assert cfg == TrainConfig()
        assert "num_basis" not in format_train_config(TrainConfig())

    def test_loss_values(self):
        assert parse_train_config("loss = rec\n").loss_choice is LossKind.REC
        assert parse_train_config("loss = pc\n").loss_choice is LossKind.PC
        with pytest.raises(FormatError, match="loss must be 'rec' or 'pc'"):
            parse_train_config("loss = vel\n")

    def test_unknown_and_duplicate_keys(self):
        with pytest.raises(FormatError, match="line 1: unknown key 'momentum'"):
            parse_train_config("momentum = 0.9\n")
        with pytest.raises(FormatError, match="line 2: duplicate key 'steps'"):
            parse_train_config("steps = 5\nsteps = 6\n")

    def test_bad_value(self):
        with pytest.raises(FormatError, match="bad config value"):
            parse_train_config("steps = many\n")
