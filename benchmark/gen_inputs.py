"""Seeded benchmark inputs, written with the benchmark's own numpy code.

Nothing here imports visemekit, so a change to `visemekit.synth` or
`visemekit.io` cannot change the bytes a workload feeds the program. Each
workload draws its ops from a fixed pool of input items; item i of a pool
is always generated from the same seed, so the outputs of every item can be
checked against reference values recorded once (reference.json). The run
seed only chooses which pool items a run uses and in which order.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FPS = 30.0
NUM_VERTICES = 60
NUM_LIP_VERTICES = 20
_MSQ_HEADER = struct.Struct("<4sIIf")

# train_sweep: the paper's ablation grid with the criterion 7/8 settings
TRAIN_FRAMES = 120
TRAIN_POOL = 8
TRAIN_TRACKS_PER_RUN = 3
TRAIN_GRID = ("pc0", "pc1", "pc2", "pc3", "pc4", "pc5", "rec")

# corpus_prep: one 100 s track per op, then weights at every radius
CORPUS_FRAMES = 3000
CORPUS_POOL = 8
CORPUS_SIGMAS = (0, 1, 2, 3, 4, 5)

_POOL_SEEDS = {"train_sweep": 7101, "corpus_prep": 7303}


@dataclass
class Item:
    """One pool item: the files it consists of and their combined SHA-256."""

    key: str
    files: dict[str, Path]
    meta: dict = field(default_factory=dict)
    sha256: str = ""


def encode_msq(frames: np.ndarray, fps: float = FPS) -> bytes:
    frames = np.ascontiguousarray(frames, dtype="<f8")
    num_frames, num_vertices = frames.shape[:2]
    return _MSQ_HEADER.pack(b"MSQ1", num_frames, num_vertices, fps) + frames.tobytes()


def decode_msq(data: bytes) -> tuple[np.ndarray, float]:
    magic, num_frames, num_vertices, fps = _MSQ_HEADER.unpack_from(data)
    if magic != b"MSQ1":
        raise ValueError(f"bad MSQ magic {magic!r}")
    flat = np.frombuffer(data, dtype="<f8", offset=_MSQ_HEADER.size)
    return flat.reshape(num_frames, num_vertices, 3).astype(np.float64), float(fps)


def _write(path: Path, data: bytes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _seal(item: Item) -> Item:
    digest = hashlib.sha256()
    for name in sorted(item.files):
        digest.update(name.encode())
        digest.update(item.files[name].read_bytes())
    item.sha256 = digest.hexdigest()
    return item


def _shape_bank(rng, num_shapes: int, lips: np.ndarray) -> np.ndarray:
    """(S, V, 3) key shapes that differ mostly on the lip vertices."""
    base = rng.normal(0.0, 0.5, size=(NUM_VERTICES, 3))
    face = np.setdiff1d(np.arange(NUM_VERTICES), lips)
    bank = np.repeat(base[None], num_shapes, axis=0)
    bank[:, lips] += rng.normal(0.0, 0.8, size=(num_shapes, len(lips), 3))
    bank[:, face] += rng.normal(0.0, 0.05, size=(num_shapes, len(face), 3))
    return bank


def _anchor_frames(rng, num_frames: int, min_gap: int, max_gap: int) -> np.ndarray:
    """Increasing anchor frames from 0 to exactly num_frames - 1."""
    anchors = [0]
    while anchors[-1] < num_frames - 1:
        anchors.append(min(anchors[-1] + int(rng.integers(min_gap, max_gap + 1)), num_frames - 1))
    return np.array(anchors)


def _shape_sequence(rng, count: int, num_shapes: int) -> np.ndarray:
    """Shape ids with no id repeated back to back."""
    ids = [int(rng.integers(num_shapes))]
    for _ in range(count - 1):
        ids.append((ids[-1] + 1 + int(rng.integers(num_shapes - 1))) % num_shapes)
    return np.array(ids)


def _blend_track(rng, num_frames: int, bank: np.ndarray, halfwidth: float):
    """Hold each key shape, cross over with a raised cosine; returns
    (clean frames (T, V, 3), per-frame label list)."""
    anchors = _anchor_frames(rng, num_frames, 8, 22)
    ids = _shape_sequence(rng, len(anchors), len(bank))
    t = np.arange(num_frames, dtype=np.float64)
    seg = np.clip(np.searchsorted(anchors, t, side="right") - 1, 0, len(anchors) - 2)
    lo_anchor, hi_anchor = anchors[seg], anchors[seg + 1]
    mid = 0.5 * (lo_anchor + hi_anchor)
    half = np.minimum(halfwidth, 0.5 * (hi_anchor - lo_anchor))
    u = np.clip((t - (mid - half)) / (2.0 * half), 0.0, 1.0)
    alpha = 0.5 * (1.0 - np.cos(np.pi * u))
    frames = (1.0 - alpha)[:, None, None] * bank[ids[seg]] + alpha[:, None, None] * bank[ids[seg + 1]]
    labels = [
        "transition" if 0.0 < a < 1.0 else f"vis{ids[s] if a == 0.0 else ids[s + 1]}"
        for a, s in zip(alpha, seg)
    ]
    return frames, labels


def _annotation_text(frames: np.ndarray, labels: list[str]) -> bytes:
    step = np.sum(np.diff(frames, axis=0) ** 2, axis=(1, 2))
    energy = np.concatenate([[step[0]], step])
    high = energy > np.median(energy)
    lines = ["frame,label,high_motion"]
    lines += [f"{i + 1},{lab},{int(h)}" for i, (lab, h) in enumerate(zip(labels, high))]
    return ("\n".join(lines) + "\n").encode()


def _lips(rng) -> np.ndarray:
    return np.sort(rng.choice(NUM_VERTICES, NUM_LIP_VERTICES, replace=False))


def _lips_text(lips: np.ndarray) -> bytes:
    return ("# lip vertices\n" + "".join(f"{i}\n" for i in lips)).encode()


def _train_config_text(grid_point: str) -> bytes:
    loss = "rec" if grid_point == "rec" else "pc"
    lines = [f"loss = {loss}"]
    if loss == "pc":
        lines.append(f"sigma = {grid_point[2:]}")
    lines += ["learning_rate = 0.2", "steps = 1200", "num_basis = 30"]
    return ("\n".join(lines) + "\n").encode()


def train_track(index: int, root: Path) -> Item:
    rng = np.random.default_rng([_POOL_SEEDS["train_sweep"], index])
    lips = _lips(rng)
    clean, labels = _blend_track(rng, TRAIN_FRAMES, _shape_bank(rng, 5, lips), 3.0)
    frames = clean + rng.uniform(-0.01, 0.01, size=clean.shape)
    d = root / f"track{index}"
    files = {
        "gt": _write(d / "gt.msq", encode_msq(frames)),
        "annot": _write(d / "gt.ann.csv", _annotation_text(clean, labels)),
        "lips": _write(d / "lips.txt", _lips_text(lips)),
    }
    for point in TRAIN_GRID:
        files[f"cfg_{point}"] = _write(d / f"{point}.cfg", _train_config_text(point))
    return _seal(Item(f"track{index}", files, {"lips": lips}))


def corpus_spec(index: int, root: Path) -> Item:
    """Spec text for a 3000-frame track: ~5 visemes per second of speech."""
    rng = np.random.default_rng([_POOL_SEEDS["corpus_prep"], index])
    lips = _lips(rng)
    bank = _shape_bank(rng, 6, lips)
    anchors = _anchor_frames(rng, CORPUS_FRAMES, 4, 9)
    ids = _shape_sequence(rng, len(anchors), len(bank))
    lines = [
        f"num_vertices = {NUM_VERTICES}",
        f"fps = {FPS!r}",
        "blend_halfwidth = 0.08",
        "jitter_amplitude = 0.005",
        f"seed = {1000 + index}",
        f"label = corpus-{index}",
    ]
    for k, shape in enumerate(bank):
        lines.append(f"shape.vis{k} = " + " ".join(repr(float(v)) for v in shape.ravel()))
    lines += [f"target = {float(frame / FPS)!r} vis{k}" for frame, k in zip(anchors, ids)]
    d = root / f"spec{index}"
    files = {"spec": _write(d / "spec.txt", ("\n".join(lines) + "\n").encode())}
    return _seal(Item(f"spec{index}", files))


def pool(workload: str, root: Path) -> list[Item]:
    """Every item of a workload's pool, for reference recording."""
    if workload == "train_sweep":
        return [train_track(i, root) for i in range(TRAIN_POOL)]
    if workload == "corpus_prep":
        return [corpus_spec(i, root) for i in range(CORPUS_POOL)]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Op:
    """One user command sequence, and the pool item whose outputs it checks."""

    key: str  # reference key: pool item, plus grid point for train_sweep
    item: Item
    grid_point: str | None = None


def op_schedule(workload: str, seed: int, root: Path) -> list[Op]:
    """The run's op cycle; the run repeats it until its time is up."""
    rng = np.random.default_rng(seed)
    if workload == "train_sweep":
        chosen = rng.choice(TRAIN_POOL, TRAIN_TRACKS_PER_RUN, replace=False)
        ops = []
        for index in chosen:
            item = train_track(int(index), root)
            for g in rng.permutation(len(TRAIN_GRID)):
                point = TRAIN_GRID[g]
                ops.append(Op(f"{item.key}/{point}", item, point))
        return ops
    if workload == "corpus_prep":
        return [Op(item.key, item) for item in (corpus_spec(int(i), root) for i in rng.permutation(CORPUS_POOL))]
    raise ValueError(f"unknown workload {workload!r}")
