"""The file layer: MSQ sequences, masks, annotations, CSV reports, the
key = value texts of specs and configs, and corpus directories with their
manifest. The modules below it only compute; none of them touches a file.

Anything that fails structurally (bad magic, truncation, unparseable line)
raises FormatError with enough context to find the offending byte or line.
Values that parse but violate a contract raise ConstraintError downstream.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .coarticulation import CoarticulationWeights, LossKind, LossReport
from .errors import ConstraintError, FormatError
from .mesh import MeshSequence, VertexRegionMask
from .synth import SegmentAnnotation, SynthSpec, gen_viseme_track
from .toytrain import AblationResult, TrainConfig, TrainReport

__all__ = [
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
# fps is stored single precision; integral rates survive the round trip.
_MSQ_MAGIC = b"MSQ1"
_MSQ_HEADER = struct.Struct("<4sIIf")


def write_msq(seq: MeshSequence, path) -> None:
    frames = seq.frames
    if not np.all(np.isfinite(frames)):
        raise ConstraintError("refusing to write non-finite coordinates")
    header = _MSQ_HEADER.pack(_MSQ_MAGIC, seq.num_frames, seq.num_vertices, seq.fps)
    payload = np.ascontiguousarray(frames, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def read_msq(path) -> MeshSequence:
    data = Path(path).read_bytes()
    if len(data) < _MSQ_HEADER.size:
        raise FormatError(
            f"{path}: truncated header: {len(data)} bytes, need {_MSQ_HEADER.size}"
        )
    magic, num_frames, num_vertices, fps = _MSQ_HEADER.unpack_from(data)
    if magic != _MSQ_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_MSQ_MAGIC!r}")
    if num_frames < 1 or num_vertices < 1:
        raise FormatError(
            f"{path}: header declares {num_frames} frames, {num_vertices} vertices"
        )
    if not math.isfinite(fps) or fps <= 0:
        raise FormatError(f"{path}: header declares fps {fps}")
    expected = num_frames * num_vertices * 3 * 8
    actual = len(data) - _MSQ_HEADER.size
    if actual < expected:
        raise FormatError(
            f"{path}: truncated payload: expected {expected} bytes "
            f"({num_frames}x{num_vertices}x3 float64), got {actual}"
        )
    if actual > expected:
        raise FormatError(f"{path}: trailing data: {actual - expected} extra bytes")
    flat = np.frombuffer(data, dtype="<f8", offset=_MSQ_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        i = int(bad[0])
        frame, rest = divmod(i, num_vertices * 3)
        vertex, component = divmod(rest, 3)
        raise FormatError(
            f"{path}: non-finite value at frame {frame}, vertex {vertex}, "
            f"component {component}"
        )
    frames = flat.astype(np.float64).reshape(num_frames, num_vertices, 3)
    return MeshSequence(frames, fps)


def read_mask(path) -> VertexRegionMask:
    """One vertex index per line; `#` starts a comment; duplicates collapse."""
    indices = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            index = int(body)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: not an index: {body!r}") from None
        if index < 0:
            raise FormatError(f"{path}:{lineno}: negative index {index}")
        indices.add(index)
    if not indices:
        raise FormatError(f"{path}: mask has no indices")
    return VertexRegionMask(np.array(sorted(indices)), region_name=Path(path).stem)


# -- annotations ---------------------------------------------------------------

_ANNOTATION_HEADER = ["frame", "label", "high_motion"]


def write_annotation(annotation: SegmentAnnotation, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_ANNOTATION_HEADER)
        for i, label in enumerate(annotation.labels):
            writer.writerow([i + 1, label, int(annotation.high_motion[i])])


def read_annotation(path) -> SegmentAnnotation:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
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


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


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


def _loss_rows(report: LossReport) -> list[list[str]]:
    # velocity terms start at the second frame, frame losses at the first
    first_t = 2 if report.kind is LossKind.VEL else 1
    rows = [["t", "loss"]]
    rows += [[str(first_t + i), _fmt(v)] for i, v in enumerate(report.per_frame)]
    rows.append(["total", _fmt(report.total)])
    return rows


def _weight_rows(weights: CoarticulationWeights) -> list[list[str]]:
    rows = [["t", "raw_energy", "weight"]]
    for i in range(len(weights)):
        rows.append(
            [
                str(weights.frame_start + i + 1),
                _fmt(weights.raw_energy[i]),
                _fmt(weights.weights[i]),
            ]
        )
    return rows


def _train_rows(report: TrainReport) -> list[list[str]]:
    rows = [
        ["key", "value"],
        ["steps", str(len(report.loss_curve))],
        ["final_rec", _fmt(report.final_rec)],
        ["final_vel", _fmt(report.final_vel)],
        ["final_pc", _fmt(report.final_pc)],
        ["fve", _fmt(report.metrics.fve)],
        ["lve", _fmt(report.metrics.lve)],
        ["ldtw", _fmt(report.metrics.ldtw)],
        ["lip_max", _fmt(report.metrics.lip_max)],
    ]
    if report.lve_transition is not None:
        rows.append(["lve_transition", _fmt(report.lve_transition)])
    if report.lve_hold is not None:
        rows.append(["lve_hold", _fmt(report.lve_hold)])
    return rows


def format_csv_report(report) -> str:
    """Render any report object as CSV text; the layout depends on the type."""
    if isinstance(report, metrics.MetricReport):
        rows = _metric_rows(report)
    elif isinstance(report, AblationResult):
        rows = _ablation_rows(report)
    elif isinstance(report, LossReport):
        rows = _loss_rows(report)
    elif isinstance(report, CoarticulationWeights):
        rows = _weight_rows(report)
    elif isinstance(report, TrainReport):
        rows = _train_rows(report)
    else:
        raise TypeError(f"no CSV layout for {type(report).__name__}")
    return _csv_text(rows)


def _csv_text(rows) -> str:
    """The one rows-to-text rule of every CSV report: comma-joined fields,
    one line per row, a newline after the last."""
    return "\n".join(",".join(row) for row in rows) + "\n"


def write_csv_report(report, path) -> None:
    Path(path).write_text(format_csv_report(report))


def write_loss_curve(curve, path) -> None:
    rows = [["step", "loss"]]
    rows += [[str(i), _fmt(v)] for i, v in enumerate(np.asarray(curve, dtype=float))]
    Path(path).write_text(_csv_text(rows))


# -- key = value texts -----------------------------------------------------------
#
# Grammar shared by synthesis specs and train configs: one `key = value` pair
# per line, `#` starts a comment line, blank lines are skipped. The formatters
# emit a canonical ordering with shortest round-trip float literals, so equal
# objects serialize to identical bytes (which is what gets hashed).


def _kv_lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"line {lineno}: expected 'key = value': {line!r}")
        key, value = stripped.split("=", 1)
        yield lineno, key.strip(), value.strip()


def format_synth_spec(spec: SynthSpec) -> str:
    lines = [
        f"num_vertices = {spec.num_vertices}",
        f"fps = {float(spec.fps)!r}",
        f"blend_halfwidth = {float(spec.blend_halfwidth)!r}",
        f"jitter_amplitude = {float(spec.jitter_amplitude)!r}",
        f"seed = {spec.seed}",
    ]
    if spec.label is not None:
        lines.append(f"label = {spec.label}")
    for name in sorted(spec.shape_bank):
        flat = np.asarray(spec.shape_bank[name], dtype=np.float64).ravel()
        lines.append(f"shape.{name} = " + " ".join(repr(float(v)) for v in flat))
    for time, shape_id in spec.viseme_targets:
        lines.append(f"target = {float(time)!r} {shape_id}")
    return "\n".join(lines) + "\n"


def parse_synth_spec(text: str) -> SynthSpec:
    scalars: dict[str, str] = {}
    shapes: dict[str, list[float]] = {}
    targets: list[tuple[float, str]] = []
    for lineno, key, value in _kv_lines(text):
        if key.startswith("shape."):
            name = key[len("shape.") :]
            if not name or " " in name:
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
        elif key in ("num_vertices", "fps", "blend_halfwidth", "jitter_amplitude", "seed", "label"):
            if key in scalars:
                raise FormatError(f"line {lineno}: duplicate key {key!r}")
            scalars[key] = value
        else:
            raise FormatError(f"line {lineno}: unknown key {key!r}")

    for required in ("num_vertices", "fps"):
        if required not in scalars:
            raise FormatError(f"missing key {required!r}")
    if not shapes:
        raise FormatError("spec defines no shapes")
    if not targets:
        raise FormatError("spec defines no targets")

    try:
        num_vertices = int(scalars["num_vertices"])
        fps = float(scalars["fps"])
        blend_halfwidth = float(scalars.get("blend_halfwidth", "0.1"))
        jitter_amplitude = float(scalars.get("jitter_amplitude", "0.0"))
        seed = int(scalars.get("seed", "0"))
    except ValueError as exc:
        raise FormatError(f"bad scalar value: {exc}") from None

    bank = {}
    for name, flat in shapes.items():
        if len(flat) != num_vertices * 3:
            raise FormatError(
                f"shape {name!r} has {len(flat)} coordinates, expected "
                f"{num_vertices * 3} (3 per vertex)"
            )
        bank[name] = np.array(flat, dtype=np.float64).reshape(num_vertices, 3)

    return SynthSpec(
        num_vertices=num_vertices,
        fps=fps,
        viseme_targets=tuple(targets),
        shape_bank=bank,
        blend_halfwidth=blend_halfwidth,
        jitter_amplitude=jitter_amplitude,
        seed=seed,
        label=scalars.get("label"),
    )


def format_train_config(cfg: TrainConfig) -> str:
    lines = [
        f"loss = {cfg.loss_choice.value}",
        f"sigma = {cfg.sigma}",
        f"vel_coefficient = {float(cfg.vel_coefficient)!r}",
        f"learning_rate = {float(cfg.learning_rate)!r}",
        f"steps = {cfg.steps}",
        f"seed = {cfg.seed}",
    ]
    if cfg.num_basis is not None:
        lines.append(f"num_basis = {cfg.num_basis}")
    return "\n".join(lines) + "\n"


def parse_train_config(text: str) -> TrainConfig:
    values: dict[str, str] = {}
    for lineno, key, value in _kv_lines(text):
        if key not in ("loss", "sigma", "vel_coefficient", "learning_rate", "steps", "seed", "num_basis"):
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    kwargs = {}
    try:
        if "loss" in values:
            if values["loss"] not in ("rec", "pc"):
                raise FormatError(f"loss must be 'rec' or 'pc', got {values['loss']!r}")
            kwargs["loss_choice"] = LossKind(values["loss"])
        if "sigma" in values:
            kwargs["sigma"] = int(values["sigma"])
        if "vel_coefficient" in values:
            kwargs["vel_coefficient"] = float(values["vel_coefficient"])
        if "learning_rate" in values:
            kwargs["learning_rate"] = float(values["learning_rate"])
        if "steps" in values:
            kwargs["steps"] = int(values["steps"])
        if "seed" in values:
            kwargs["seed"] = int(values["seed"])
        if "num_basis" in values:
            kwargs["num_basis"] = int(values["num_basis"])
    except ValueError as exc:
        raise FormatError(f"bad config value: {exc}") from None
    return TrainConfig(**kwargs)


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


def make_corpus(specs: list[SynthSpec], out_dir) -> list[CorpusRecord]:
    """Generate every spec into `out_dir` and write a manifest.

    Emits trackNNN.msq + trackNNN.ann.csv per spec and manifest.txt with one
    tab-separated record per sequence: sequence path, annotation path, seed,
    spec hash. Regenerating from the same specs reproduces identical bytes.
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
