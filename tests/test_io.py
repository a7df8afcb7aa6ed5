import os
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import oracles
from visemekit import io as vio
from visemekit import (
    CoarticulationWeights,
    ConstraintError,
    FormatError,
    LossKind,
    LossReport,
    MeshSequence,
    SegmentAnnotation,
    SynthSpec,
    TrainConfig,
    VertexRegionMask,
    ablate_window,
    coarticulation_weights,
    demo_spec,
    evaluate,
    format_csv_report,
    format_synth_spec,
    format_train_config,
    gen_viseme_track,
    loss_pc,
    loss_rec,
    parse_synth_spec,
    parse_train_config,
    read_annotation,
    read_text,
    read_mask,
    read_msq,
    spec_hash,
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

    @pytest.mark.parametrize("fps", [1e39, 3.4028235677973366e38, 1e-50, 2.0**-150])
    def test_write_rejects_fps_beyond_float32(self, tmp_path, fps):
        # float32 rounds these to inf or 0.0, which no header may declare
        path = tmp_path / "a.msq"
        with pytest.raises(ConstraintError, match="float32"):
            write_msq(seq(np.zeros((2, 1, 3)), fps=fps), path)
        assert not path.exists()

    @pytest.mark.parametrize("fps", [3.4028234663852886e38, 2.0**-149])
    def test_extreme_float32_fps_round_trip(self, tmp_path, fps):
        path = tmp_path / "a.msq"
        write_msq(seq(np.zeros((2, 1, 3)), fps=fps), path)
        assert read_msq(path).fps == fps


def traced_peak(fn):
    """Peak traced allocation, in bytes, while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMsqInPlace:
    """read_msq reads the payload into the frame array it returns, and
    write_msq writes from the frames; the error messages are unchanged."""

    ERRORS = {
        "bad magic": (
            msq_bytes(magic=b"XXXX"),
            "bad magic b'XXXX', expected b'MSQ1'",
        ),
        "truncated header": (b"MSQ1\x02\x00", "truncated header: 6 bytes, need 16"),
        "truncated payload": (
            msq_bytes(num_frames=2, num_vertices=3)[:-9],
            "truncated payload: expected 144 bytes (2x3x3 float64), got 135",
        ),
        "trailing bytes": (msq_bytes() + b"\x00" * 5, "trailing data: 5 extra bytes"),
        "zero frames": (
            msq_bytes(num_frames=0, num_vertices=4, payload=b""),
            "header declares 0 frames, 4 vertices",
        ),
        "nan fps": (msq_bytes(fps=np.nan), "header declares fps nan"),
    }

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_error_messages(self, tmp_path, case):
        data, message = self.ERRORS[case]
        path = tmp_path / "a.msq"
        path.write_bytes(data)
        with pytest.raises(FormatError) as excinfo:
            read_msq(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_first_non_finite_value_is_located(self, tmp_path):
        frames = np.zeros((4, 3, 3))
        frames[2, 0, 1] = np.inf
        frames[1, 2, 1] = -np.inf
        frames[3, 1, 0] = np.nan
        path = tmp_path / "a.msq"
        path.write_bytes(msq_bytes(num_frames=4, num_vertices=3, payload=frames.tobytes()))
        with pytest.raises(FormatError) as excinfo:
            read_msq(path)
        assert str(excinfo.value) == (
            f"{path}: non-finite value at frame 1, vertex 2, component 1"
        )

    def test_short_read_is_truncation(self, tmp_path, monkeypatch):
        # a file that shrinks between the size check and the read
        path = tmp_path / "a.msq"
        path.write_bytes(msq_bytes(num_frames=2)[:-8])
        real_fstat = os.fstat

        class Stat:
            def __init__(self, fd):
                self.st_size = real_fstat(fd).st_size + 8

        monkeypatch.setattr(vio.os, "fstat", Stat)
        with pytest.raises(FormatError) as excinfo:
            read_msq(path)
        assert str(excinfo.value) == (
            f"{path}: truncated payload: expected 48 bytes (2x1x3 float64), got 40"
        )

    def test_huge_header_on_a_small_file_allocates_nothing(self, tmp_path):
        path = tmp_path / "a.msq"
        path.write_bytes(HEADER.pack(b"MSQ1", 2**32 - 1, 2**20, 30.0) + bytes(48))
        assert path.stat().st_size == 64

        def read():
            with pytest.raises(FormatError, match="truncated payload"):
                read_msq(path)

        assert traced_peak(read) < 64 * 1024

    def test_frames_are_writable_and_c_contiguous(self, tmp_path):
        path = tmp_path / "a.msq"
        original = np.random.default_rng(3).normal(0.0, 1.0, (5, 4, 3))
        write_msq(seq(np.asfortranarray(original)), path)
        frames = read_msq(path).frames
        assert frames.dtype == np.float64
        assert frames.flags.writeable and frames.flags.c_contiguous
        assert np.array_equal(frames, original)
        frames[0, 0, 0] = 1.0  # the caller owns the array

    def test_write_from_strided_frames(self, tmp_path):
        original = np.random.default_rng(4).normal(0.0, 1.0, (6, 8, 3))
        path = tmp_path / "a.msq"
        write_msq(seq(original[::2, ::3]), path)
        expected = msq_bytes(num_frames=3, num_vertices=3, fps=30.0,
                             payload=np.ascontiguousarray(original[::2, ::3]).tobytes())
        assert path.read_bytes() == expected

    def track(self):
        frames = np.random.default_rng(5).normal(0.0, 1.0, (3000, 60, 3))
        return seq(frames), frames.nbytes

    def test_read_peak_memory(self, tmp_path):
        track, payload = self.track()
        path = tmp_path / "a.msq"
        write_msq(track, path)
        assert traced_peak(lambda: read_msq(path)) < 1.25 * payload

    def test_write_peak_memory(self, tmp_path):
        track, payload = self.track()
        path = tmp_path / "a.msq"
        assert traced_peak(lambda: write_msq(track, path)) < 0.25 * payload
        assert path.stat().st_size == HEADER.size + payload


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

    def test_index_bound(self, tmp_path):
        # the largest int64 is kept; one more would wrap in the mask's array
        path = tmp_path / "m.txt"
        path.write_text(f"0\n{2**63 - 1}\n")
        assert read_mask(path).indices.tolist() == [0, 2**63 - 1]
        path.write_text(f"0\n{2**63}\n")
        with pytest.raises(ConstraintError, match=f"m.txt:2: index {2**63} out of range"):
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

    def test_weight_rows_one_based(self):
        track = seq(np.zeros((4, 1, 3)))
        lines = format_csv_report(coarticulation_weights(track, 2)).splitlines()
        assert lines[0] == "t,raw_energy,weight"
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4"]
        assert all(row.split(",")[2] == "0.25" for row in lines[1:])

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

    def test_key_value_layout(self):
        # a dict is the key,value table of `train`'s report.csv, in its order
        text = format_csv_report({"steps": 1200, "final_rec": 0.1 + 0.2, "big": 1e12, "lve": 2.0})
        assert text == "key,value\nsteps,1200\nfinal_rec,0.3\nbig,1e+12\nlve,2\n"

    def test_unknown_type(self):
        with pytest.raises(TypeError, match="no CSV layout for list"):
            format_csv_report([])

    def test_write_matches_format(self, tmp_path):
        gt = seq(np.zeros((2, 1, 3)))
        report = loss_pc(gt, gt, coarticulation_weights(gt))
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


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                  np.inf, -np.inf, np.nan, 1.0, 123456789.5, 0.1, 1e16, 1e-5, 9.9999999995e22]


def random_floats(count, seed):
    """Doubles from random bit patterns: every exponent, subnormals, inf, nan."""
    bits = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)
    return bits.view(np.float64)


class TestCsvColumns:
    """A per-frame table is formatted by one `%` over all its rows; the text
    must equal the per-row renderer kept in tests/oracles.py byte for byte."""

    # nan, +-inf, a negative zero, a subnormal and a value near the largest double
    EDGE_COLUMN = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.25])

    @staticmethod
    def track(num_frames, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 1, (num_frames, 1, 1))
        return seq(np.cumsum(rng.normal(0.0, 1.0, (num_frames, 3, 3)) * scale, axis=0))

    @pytest.mark.parametrize("sigma", [0, 2, 5])
    def test_weights_match_row_loop(self, sigma):
        track = self.track(80, seed=sigma)
        weights = coarticulation_weights(track, sigma)
        expected = oracles.csv_rows_loop(
            ["t", "raw_energy", "weight"], 1, [weights.raw_energy, weights.weights]
        )
        assert format_csv_report(weights) == expected

    @pytest.mark.parametrize("kind", ["rec", "pc"])
    def test_losses_match_row_loop(self, kind):
        gt = self.track(60, seed=11)
        pred = self.track(60, seed=12)
        if kind == "rec":
            report = loss_rec(gt, pred)
        else:
            report = loss_pc(gt, pred, coarticulation_weights(gt, 2))
        expected = oracles.csv_rows_loop(
            ["t", "loss"],
            1,
            [report.per_frame],
            tail=[["total", format(report.total, ".9g")]],
        )
        assert format_csv_report(report) == expected

    def test_loss_curve_matches_row_loop(self, tmp_path):
        curve = np.concatenate([random_floats(500, seed=21), SPECIAL_FLOATS])
        path = tmp_path / "curve.csv"
        write_loss_curve(curve, path)
        expected = oracles.csv_rows_loop(["step", "loss"], 0, [curve])
        assert path.read_bytes() == expected.encode("ascii")

    def test_loss_curve_without_steps(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_loss_curve(np.array([]), path)
        expected = oracles.csv_rows_loop(["step", "loss"], 0, [[]])
        assert path.read_bytes() == expected.encode("ascii") == b"step,loss\n"

    def test_weights_with_edge_values(self):
        column = self.EDGE_COLUMN
        weights = CoarticulationWeights(column[::-1].copy(), column)
        expected = oracles.csv_rows_loop(["t", "raw_energy", "weight"], 1, [column, column[::-1]])
        assert format_csv_report(weights) == expected

    @pytest.mark.parametrize("total", [np.nan, -0.0, 1e308])
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_losses_with_edge_values(self, kind, total):
        # a report renders the same whichever loss made it: rows from frame 1
        report = LossReport(total, self.EDGE_COLUMN)
        expected = oracles.csv_rows_loop(
            ["t", "loss"],
            1,
            [self.EDGE_COLUMN],
            tail=[["total", format(total, ".9g")]],
        )
        assert format_csv_report(report) == expected

    def test_loss_curve_with_edge_values(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_loss_curve(self.EDGE_COLUMN, path)
        expected = oracles.csv_rows_loop(["step", "loss"], 0, [self.EDGE_COLUMN])
        assert path.read_bytes() == expected.encode("ascii")

    def test_empty_column(self):
        assert vio._table_text(["t", "v"], 1, [np.array([])]) == "t,v\n"
        assert vio._table_text(["t", "v", "w"], 1, [[], []]) == "t,v,w\n"

    def test_table_equals_format(self):
        values = np.concatenate([SPECIAL_FLOATS, random_floats(20000, seed=22)])
        expected = "i,v\n" + "".join(
            f"{i},{format(float(v), '.9g')}\n" for i, v in enumerate(values, start=7)
        )
        assert vio._table_text(["i", "v"], 7, [values]) == expected
        assert [vio._fmt(v) for v in SPECIAL_FLOATS] == [
            format(float(v), ".9g") for v in SPECIAL_FLOATS
        ]


class TestAnnotationMatchesRowLoop:
    """write_annotation writes every row with one writerows call; the bytes
    must equal the per-row writer kept in tests/oracles.py, and read back."""

    @staticmethod
    def check(annotation, path):
        write_annotation(annotation, path)
        expected = oracles.annotation_rows_loop(annotation.labels, annotation.high_motion)
        assert path.read_bytes() == expected.encode("utf-8")
        loaded = read_annotation(path)
        assert loaded.labels == annotation.labels
        assert np.array_equal(loaded.high_motion, annotation.high_motion)

    def test_one_frame(self, tmp_path):
        self.check(SegmentAnnotation(("rest",), np.array([True])), tmp_path / "a.csv")

    def test_demo_track(self, tmp_path):
        _, annotation = gen_viseme_track(demo_spec(5, num_frames=3000))
        assert len(annotation.labels) == 3000
        assert annotation.high_motion.any() and not annotation.high_motion.all()
        self.check(annotation, tmp_path / "a.csv")

    def test_labels_that_need_quoting(self, tmp_path):
        labels = ('a,"x', "transition", '"', "b c")
        self.check(
            SegmentAnnotation(labels, np.array([False, True, True, False])),
            tmp_path / "a.csv",
        )
        text = (tmp_path / "a.csv").read_text(encoding="utf-8")
        assert text.splitlines()[1] == '1,"a,""x",0'

    def test_flag_count_must_match_labels(self, tmp_path):
        with pytest.raises(ValueError):
            write_annotation(SegmentAnnotation(("a", "b"), np.array([True])), tmp_path / "a.csv")


class TestUtf8Text:
    @pytest.mark.parametrize("reader", [read_text, read_mask, read_annotation])
    def test_undecodable_bytes_are_a_format_error(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"frame,label,high_motion\n1,\xff,0\n")
        with pytest.raises(FormatError) as excinfo:
            reader(path)
        assert str(excinfo.value) == (
            f"{path}: not UTF-8 text: invalid start byte at byte 26"
        )

    def test_annotation_is_utf8(self, tmp_path):
        annotation = SegmentAnnotation(("\u0283", "transition", "a\u0308"),
                                       np.array([True, False, True]))
        path = tmp_path / "a.ann.csv"
        write_annotation(annotation, path)
        assert path.read_bytes() == (
            "frame,label,high_motion\n1,\u0283,1\n2,transition,0\n3,a\u0308,1\n"
        ).encode("utf-8")
        loaded = read_annotation(path)
        assert loaded.labels == annotation.labels

    def test_annotation_keeps_line_separators_inside_labels(self, tmp_path):
        # the file is split into rows at newlines only, as csv reads a file
        path = tmp_path / "a.ann.csv"
        path.write_bytes("frame,label,high_motion\n1,a\u2028b,0\n".encode("utf-8"))
        assert read_annotation(path).labels == ("a\u2028b",)


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


def counts(lo, hi):
    """Integers in [lo, hi], some given as integral floats (3.0 is a count)."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


@st.composite
def synth_specs(draw):
    """Specs with shape names and labels drawn from any text, kept only when
    SynthSpec accepts them."""
    num_vertices = draw(counts(1, 3))
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3, unique=True))
    coords = st.floats(allow_nan=False, allow_infinity=False)
    size = 3 * int(num_vertices)
    bank = {
        name: np.array(draw(st.lists(coords, min_size=size, max_size=size))).reshape(-1, 3)
        for name in names
    }
    times = sorted(draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4, unique=True)))
    fields = dict(
        num_vertices=num_vertices,
        fps=draw(st.floats(0.5, 240.0)),
        viseme_targets=tuple((t, draw(st.sampled_from(names))) for t in times),
        shape_bank=bank,
        blend_halfwidth=draw(st.floats(0.0, 10.0) | st.just(float("inf"))),
        jitter_amplitude=draw(st.floats(0.0, 1.0)),
        seed=draw(counts(0, 2**40)),
        label=draw(st.none() | st.text(max_size=8)),
    )
    try:
        return SynthSpec(**fields)
    except ConstraintError:
        reject()


train_configs = st.builds(
    TrainConfig,
    loss_choice=st.sampled_from([LossKind.REC, LossKind.PC]),
    sigma=counts(0, 50),
    learning_rate=st.floats(1e-12, 10.0),
    steps=counts(0, 10**6),
    seed=counts(0, 2**40),
    num_basis=st.none() | counts(1, 500),
)


def scalar_keys(text):
    """The keys of a text's scalar lines, in text order."""
    keys = [line.split(" = ", 1)[0] for line in text.splitlines()]
    return [key for key in keys if key != "target" and not key.startswith("shape.")]


def set_keys(obj, table):
    """The keys of `table` whose field of `obj` is not None, in table order."""
    return [key for key, (field, _) in table.items() if getattr(obj, field) is not None]


# every scalar differs from two_shape_spec()'s
OTHER_SPEC = SynthSpec(num_vertices=1, fps=25.0, viseme_targets=((0.0, "z"),),
                       shape_bank={"z": np.ones((1, 3))}, blend_halfwidth=0.5,
                       jitter_amplitude=0.1, seed=8, label="other")


class TestTextRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(spec=synth_specs())
    @example(spec=two_shape_spec())
    @example(spec=two_shape_spec(label="x"))
    def test_synth_spec(self, spec):
        text = format_synth_spec(spec)
        parsed = parse_synth_spec(text)
        assert format_synth_spec(parsed) == text
        assert spec_hash(parsed) == spec_hash(spec)
        for field in fields(SynthSpec):
            if field.name != "shape_bank":
                assert getattr(parsed, field.name) == getattr(spec, field.name), field.name
        assert sorted(parsed.shape_bank) == sorted(spec.shape_bank)
        for name, shape in spec.shape_bank.items():
            assert np.array_equal(parsed.shape_bank[name], shape)
        assert scalar_keys(text) == set_keys(spec, vio._SPEC_SCALARS)

    @settings(max_examples=60, deadline=None)
    @given(spec=synth_specs(), other=synth_specs())
    @example(spec=two_shape_spec(), other=OTHER_SPEC)
    @example(spec=OTHER_SPEC, other=two_shape_spec())
    def test_every_spec_scalar_is_hashed(self, spec, other):
        for key, (field, _) in vio._SPEC_SCALARS.items():
            value = getattr(other, field)
            if value == getattr(spec, field):
                continue
            changed = {field: value}
            if field == "num_vertices":  # the bank's shapes have one row per vertex
                changed["shape_bank"] = {name: np.zeros((value, 3)) for name in spec.shape_bank}
            assert spec_hash(replace(spec, **changed)) != spec_hash(spec), key

    @settings(max_examples=80, deadline=None)
    @given(cfg=train_configs)
    @example(cfg=TrainConfig())
    @example(cfg=TrainConfig(num_basis=5))
    def test_train_config(self, cfg):
        text = format_train_config(cfg)
        assert parse_train_config(text) == cfg
        assert format_train_config(parse_train_config(text)) == text
        assert scalar_keys(text) == set_keys(cfg, vio._CONFIG_SCALARS)

    def test_label_cannot_carry_a_shape_line(self):
        # the label's second line read back as a shape, so this spec formatted
        # and hashed as the one whose bank holds that shape
        fields = dict(num_vertices=1, fps=10.0, viseme_targets=((0.0, "b"),))
        zeros = np.zeros((1, 3))
        honest = SynthSpec(shape_bank={"a": zeros, "b": zeros}, label="x", **fields)
        with pytest.raises(ConstraintError, match="label"):
            SynthSpec(shape_bank={"b": zeros}, label="x\nshape.a = 0.0 0.0 0.0", **fields)
        parsed = parse_synth_spec(format_synth_spec(honest))
        assert (parsed.label, sorted(parsed.shape_bank)) == ("x", ["a", "b"])

    @pytest.mark.parametrize(
        "name", ["", "a ", " a", "a b", "a\tb", "a\u2028b", "a=b", "\ud800", 7]
    )
    def test_shape_ids_the_text_cannot_carry(self, name):
        with pytest.raises(ConstraintError, match="shape id"):
            SynthSpec(num_vertices=1, fps=10.0, viseme_targets=((0.0, "b"),),
                      shape_bank={"b": np.zeros((1, 3)), name: np.zeros((1, 3))})

    @pytest.mark.parametrize(
        "label", ["x\n", " x", "x ", "a\nb", "a\rb", "a\u2028b", "\ud800", 5]
    )
    def test_labels_the_text_cannot_carry(self, label):
        with pytest.raises(ConstraintError, match="label"):
            SynthSpec(num_vertices=1, fps=10.0, viseme_targets=((0.0, "b"),),
                      shape_bank={"b": np.zeros((1, 3))}, label=label)

    def test_shape_name_with_a_tab_is_rejected(self):
        # no target line could name it, so the parser rejects it as a format error
        text = "num_vertices = 1\nfps = 10\nshape.a\tb = 0 0 0\nshape.c = 0 0 0\ntarget = 0 c\n"
        with pytest.raises(FormatError, match=r"^line 3: bad shape name 'a\\tb'$"):
            parse_synth_spec(text)

    def test_integral_float_counts(self):
        # a spec built with 2.0 and 3.0 is the spec built with 2 and 3
        spec = two_shape_spec(num_vertices=2.0, seed=3.0)
        text = format_synth_spec(spec)
        assert "num_vertices = 2\n" in text and "seed = 3\n" in text
        assert format_synth_spec(parse_synth_spec(text)) == text
        assert spec_hash(spec) == spec_hash(two_shape_spec(num_vertices=2, seed=3))
        assert type(spec.num_vertices) is int and type(spec.seed) is int
