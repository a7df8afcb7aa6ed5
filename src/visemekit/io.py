"""The file layer: MSQ sequences, masks, annotations, CSV reports, the
key = value texts of specs and configs, and corpus directories with their
manifest. The modules below it only compute; none of them touches a file.

Every text file (spec, config, mask, annotation, CSV report, loss curve,
manifest) is read and written as UTF-8 whatever the locale; `read_text` is
the one text reader, and the CLI reads its spec and config files through it.
`read_msq` reads the payload in place into the frame array it returns, and
`write_msq` writes from that array, so neither copies a sequence.

Anything that fails structurally (bad magic, truncation, unparseable line,
bytes that are not UTF-8) raises FormatError with enough context to find the
offending byte or line. Values that parse but violate a contract raise
ConstraintError downstream.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from . import metrics
from .coarticulation import CoarticulationWeights, LossKind, LossReport
from .errors import ConstraintError, FormatError, require_float32
from .mesh import MeshSequence, VertexRegionMask
from .synth import SegmentAnnotation, SynthSpec, _is_shape_id, gen_viseme_track
from .toytrain import AblationResult, TrainConfig

__all__ = [
    "read_text",
    "write_msq",
    "read_msq",
    "read_mask",
    "write_annotation",
    "read_annotation",
    "format_csv_report",
    "write_csv_report",
    "write_loss_curve",
    "format_synth_spec",
    "parse_synth_spec",
    "format_train_config",
    "parse_train_config",
    "CorpusRecord",
    "spec_hash",
    "make_corpus",
]

# Binary sequence container: magic, frame count u32, vertex count u32,
# fps f32, then T*V*3 float64 coordinates frame-major. All little-endian.
# fps is stored single precision: integral rates survive the round trip, and a
# rate that rounds to 0 or inf there is refused before the file is opened.
_MSQ_MAGIC = b"MSQ1"
_MSQ_HEADER = struct.Struct("<4sIIf")


def read_text(path, newline=None) -> str:
    """The whole of a UTF-8 text file; bytes that do not decode are a
    FormatError naming the path. `newline` is as for `open`."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def write_msq(seq: MeshSequence, path) -> None:
    frames = seq.frames
    if not np.isfinite(frames).all():
        raise ConstraintError("refusing to write non-finite coordinates")
    require_float32(seq.fps, "fps")
    header = _MSQ_HEADER.pack(_MSQ_MAGIC, seq.num_frames, seq.num_vertices, seq.fps)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(np.ascontiguousarray(frames, dtype="<f8").data)


def read_msq(path) -> MeshSequence:
    with open(path, "rb") as handle:
        head = handle.read(_MSQ_HEADER.size)
        if len(head) < _MSQ_HEADER.size:
            raise FormatError(
                f"{path}: truncated header: {len(head)} bytes, need {_MSQ_HEADER.size}"
            )
        magic, num_frames, num_vertices, fps = _MSQ_HEADER.unpack(head)
        if magic != _MSQ_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {_MSQ_MAGIC!r}")
        if num_frames < 1 or num_vertices < 1:
            raise FormatError(
                f"{path}: header declares {num_frames} frames, {num_vertices} vertices"
            )
        if not math.isfinite(fps) or fps <= 0:
            raise FormatError(f"{path}: header declares fps {fps}")
        # The payload length is checked against the file before the frames
        # are allocated, so a header cannot ask for more memory than the
        # file holds.
        expected = num_frames * num_vertices * 3 * 8
        actual = os.fstat(handle.fileno()).st_size - _MSQ_HEADER.size
        if actual > expected:
            raise FormatError(f"{path}: trailing data: {actual - expected} extra bytes")
        if actual == expected:  # a file that shrinks while it is read is truncated too
            frames = np.empty((num_frames, num_vertices, 3), dtype="<f8")
            actual = handle.readinto(frames)
        if actual < expected:
            raise FormatError(
                f"{path}: truncated payload: expected {expected} bytes "
                f"({num_frames}x{num_vertices}x3 float64), got {actual}"
            )
    if not np.isfinite(frames).all():
        i = int(np.flatnonzero(~np.isfinite(frames))[0])
        frame, rest = divmod(i, num_vertices * 3)
        vertex, component = divmod(rest, 3)
        raise FormatError(
            f"{path}: non-finite value at frame {frame}, vertex {vertex}, "
            f"component {component}"
        )
    return MeshSequence(frames, fps)


def read_mask(path) -> VertexRegionMask:
    """One vertex index per line; `#` starts a comment; duplicates collapse."""
    indices = set()
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            index = int(body)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: not an index: {body!r}") from None
        if index < 0:
            raise FormatError(f"{path}:{lineno}: negative index {index}")
        if index > np.iinfo(np.int64).max:  # the mask's int64 array would wrap it
            raise ConstraintError(f"{path}:{lineno}: index {index} out of range")
        indices.add(index)
    if not indices:
        raise FormatError(f"{path}: mask has no indices")
    return VertexRegionMask(np.array(sorted(indices)), region_name=Path(path).stem)


# -- annotations ---------------------------------------------------------------

_ANNOTATION_HEADER = ["frame", "label", "high_motion"]


def write_annotation(annotation: SegmentAnnotation, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_ANNOTATION_HEADER)
        labels = annotation.labels
        flags = np.asarray(annotation.high_motion).astype(int).tolist()
        writer.writerows(zip(range(1, len(labels) + 1), labels, flags, strict=True))


def read_annotation(path) -> SegmentAnnotation:
    rows = list(csv.reader(StringIO(read_text(path, newline=""), newline="")))
    if not rows or rows[0] != _ANNOTATION_HEADER:
        found = ",".join(rows[0]) if rows else "<empty file>"
        raise FormatError(f"{path}: bad header {found!r}")
    labels = []
    flags = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        frame_str, label, flag_str = row
        if frame_str != str(lineno - 1):
            raise FormatError(
                f"{path}:{lineno}: frame column is {frame_str!r}, expected "
                f"{lineno - 1} (1-based, consecutive)"
            )
        if flag_str not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: high_motion must be 0 or 1, got {flag_str!r}")
        labels.append(label)
        flags.append(flag_str == "1")
    if not labels:
        raise FormatError(f"{path}: annotation has no frames")
    return SegmentAnnotation(tuple(labels), np.array(flags, dtype=bool))


# -- CSV reports ----------------------------------------------------------------


_FLOAT = "%.9g"  # the one float rule of every CSV report; equals format(v, ".9g")


def _fmt(value: float) -> str:
    return _FLOAT % float(value)


def _table_text(header: list[str], first: int, columns) -> str:
    """A per-frame table: the header line, then row i holds first + i and
    _fmt of each 1-d column's i-th value. Every row is rendered by one `%`
    over one tuple that interleaves the index with the columns."""
    cells = [np.asarray(column, dtype=float).tolist() for column in columns]
    width = len(cells) + 1
    count = len(cells[0])
    flat = [None] * (count * width)
    flat[0::width] = range(first, first + count)
    for j, column in enumerate(cells, start=1):
        flat[j::width] = column
    row = "%d" + ("," + _FLOAT) * len(cells) + "\n"
    return ",".join(header) + "\n" + row * count % tuple(flat)


def _metric_rows(report: metrics.MetricReport) -> list[list[str]]:
    return [
        ["fve", "lve", "ldtw", "lip_max"],
        [_fmt(report.fve), _fmt(report.lve), _fmt(report.ldtw), _fmt(report.lip_max)],
    ]


def _ablation_rows(result: AblationResult) -> list[list[str]]:
    segmented = any(row.lve_transition is not None for row in result.rows)
    header = ["sigma", "fve", "lve"]
    if segmented:
        header += ["lve_transition", "lve_hold"]
    rows = [header]
    for row in result.rows:
        cells = [
            "rec" if row.sigma is None else str(row.sigma),
            _fmt(row.fve),
            _fmt(row.lve),
        ]
        if segmented:
            cells.append("" if row.lve_transition is None else _fmt(row.lve_transition))
            cells.append("" if row.lve_hold is None else _fmt(row.lve_hold))
        rows.append(cells)
    return rows


def format_csv_report(report) -> str:
    """Render any report object as CSV text; the layout depends on the type.
    A dict renders as key,value rows in its order, an int value as is."""
    if isinstance(report, dict):
        rows = [[key, str(value) if isinstance(value, int) else _fmt(value)]
                for key, value in report.items()]
        return _csv_text([["key", "value"], *rows])
    if isinstance(report, metrics.MetricReport):
        return _csv_text(_metric_rows(report))
    if isinstance(report, AblationResult):
        return _csv_text(_ablation_rows(report))
    if isinstance(report, LossReport):
        table = _table_text(["t", "loss"], 1, [report.per_frame])
        return table + _csv_text([["total", _fmt(report.total)]])
    if isinstance(report, CoarticulationWeights):
        return _table_text(["t", "raw_energy", "weight"], 1, [report.raw_energy, report.weights])
    raise TypeError(f"no CSV layout for {type(report).__name__}")


def _csv_text(rows) -> str:
    """The rows-to-text rule of the small reports: comma-joined fields, one
    line per row, a newline after the last. Per-frame tables use
    _table_text."""
    return "\n".join(",".join(row) for row in rows) + "\n"


def write_csv_report(report, path) -> None:
    Path(path).write_text(format_csv_report(report), encoding="utf-8")


def write_loss_curve(curve, path) -> None:
    Path(path).write_text(_table_text(["step", "loss"], 0, [curve]), encoding="utf-8")


# -- key = value texts -----------------------------------------------------------
#
# Grammar shared by synthesis specs and train configs: one `key = value` pair
# per line, `#` starts a comment line, blank lines are skipped. The formatters
# write scalar keys in table order, none for a None field, floats as shortest
# round-trip literals, so equal objects serialize to identical bytes (what gets hashed).


def _kv_lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"line {lineno}: expected 'key = value': {line!r}")
        key, value = stripped.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _read_scalars(lines, table, what: str) -> dict:
    """Keyword arguments from `(lineno, key, value)` lines; `table` maps each
    text key to its (field, parser). An unknown or repeated key is a FormatError
    naming its line, and a parser's ValueError one reading `bad <what> value:`."""
    found: dict[str, str] = {}
    for lineno, key, value in lines:
        if key not in table:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        if key in found:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        found[key] = value
    try:
        return {field: parse(found[key]) for key, (field, parse) in table.items() if key in found}
    except ValueError as exc:
        raise FormatError(f"bad {what} value: {exc}") from None


def _scalar_lines(obj, table) -> list[str]:
    """The lines _read_scalars reads `obj`'s `table` fields from, in table order."""
    lines = []
    for key, (field, parse) in table.items():
        value = getattr(obj, field)
        if value is not None:
            value = value.value if isinstance(value, LossKind) else value
            lines.append(f"{key} = {repr(float(value)) if parse is float else value}")
    return lines


# text key -> (SynthSpec field, parser); the shape.* and target lines are not scalars
_SPEC_SCALARS = {
    key: (key, parse)
    for key, parse in dict(num_vertices=int, fps=float, blend_halfwidth=float,
                           jitter_amplitude=float, seed=int, label=str).items()
}


def format_synth_spec(spec: SynthSpec) -> str:
    lines = _scalar_lines(spec, _SPEC_SCALARS)
    for name in sorted(spec.shape_bank):
        flat = np.asarray(spec.shape_bank[name], dtype=np.float64).ravel()
        lines.append(f"shape.{name} = " + " ".join(repr(float(v)) for v in flat))
    for time, shape_id in spec.viseme_targets:
        lines.append(f"target = {float(time)!r} {shape_id}")
    return "\n".join(lines) + "\n"


def parse_synth_spec(text: str) -> SynthSpec:
    scalar_lines = []
    shapes: dict[str, list[float]] = {}
    targets: list[tuple[float, str]] = []
    for lineno, key, value in _kv_lines(text):
        if key.startswith("shape."):
            name = key[len("shape.") :]
            if not _is_shape_id(name):
                raise FormatError(f"line {lineno}: bad shape name {name!r}")
            if name in shapes:
                raise FormatError(f"line {lineno}: duplicate shape {name!r}")
            try:
                shapes[name] = [float(v) for v in value.split()]
            except ValueError:
                raise FormatError(
                    f"line {lineno}: shape {name!r} has a non-numeric coordinate"
                ) from None
        elif key == "target":
            parts = value.split()
            if len(parts) != 2:
                raise FormatError(
                    f"line {lineno}: target needs 'time shape_id', got {value!r}"
                )
            try:
                targets.append((float(parts[0]), parts[1]))
            except ValueError:
                raise FormatError(f"line {lineno}: bad target time {parts[0]!r}") from None
        else:
            scalar_lines.append((lineno, key, value))
    kwargs = _read_scalars(scalar_lines, _SPEC_SCALARS, "scalar")

    for required in ("num_vertices", "fps"):
        if required not in kwargs:
            raise FormatError(f"missing key {required!r}")
    if not shapes:
        raise FormatError("spec defines no shapes")
    if not targets:
        raise FormatError("spec defines no targets")

    num_vertices = kwargs["num_vertices"]
    bank = {}
    for name, flat in shapes.items():
        if len(flat) != num_vertices * 3:
            raise FormatError(
                f"shape {name!r} has {len(flat)} coordinates, expected "
                f"{num_vertices * 3} (3 per vertex)"
            )
        bank[name] = np.array(flat, dtype=np.float64).reshape(num_vertices, 3)

    return SynthSpec(viseme_targets=tuple(targets), shape_bank=bank, **kwargs)


def format_train_config(cfg: TrainConfig) -> str:
    return "\n".join(_scalar_lines(cfg, _CONFIG_SCALARS)) + "\n"


def _loss_choice(text: str) -> LossKind:
    if text not in ("rec", "pc"):
        raise ValueError(f"loss must be 'rec' or 'pc', got {text!r}")
    return LossKind(text)


# text key -> (TrainConfig field, parser)
_CONFIG_SCALARS = {
    "loss": ("loss_choice", _loss_choice),
    "sigma": ("sigma", int),
    "learning_rate": ("learning_rate", float),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "num_basis": ("num_basis", int),
}


def parse_train_config(text: str) -> TrainConfig:
    return TrainConfig(**_read_scalars(_kv_lines(text), _CONFIG_SCALARS, "config"))


# -- corpus generation ---------------------------------------------------------


@dataclass(frozen=True)
class CorpusRecord:
    sequence_path: str
    annotation_path: str
    seed: int
    spec_sha256: str


def spec_hash(spec: SynthSpec) -> str:
    """SHA-256 of the spec's canonical text rendering (see format_synth_spec)."""
    return hashlib.sha256(format_synth_spec(spec).encode("utf-8")).hexdigest()


def make_corpus(specs: Iterable[SynthSpec], out_dir) -> list[CorpusRecord]:
    """Generate every spec into `out_dir` and write a manifest.

    Emits trackNNN.msq + trackNNN.ann.csv per spec and manifest.txt with one
    tab-separated record per sequence: sequence path, annotation path, seed,
    spec hash. Regenerating from the same specs reproduces identical bytes.
    Specs are taken one at a time, so a generator of them is never held
    whole. A SynthSpec is checked when it is built: a rejected one in a list
    fails before this is called, leaving no directory or track behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records: list[CorpusRecord] = []
    for i, spec in enumerate(specs):
        seq, annotation = gen_viseme_track(spec)
        seq_name = f"track{i:03d}.msq"
        ann_name = f"track{i:03d}.ann.csv"
        write_msq(seq, out / seq_name)
        write_annotation(annotation, out / ann_name)
        records.append(CorpusRecord(seq_name, ann_name, spec.seed, spec_hash(spec)))

    lines = ["# sequence\tannotation\tseed\tspec_sha256"]
    lines += [
        f"{r.sequence_path}\t{r.annotation_path}\t{r.seed}\t{r.spec_sha256}"
        for r in records
    ]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return records
