"""Synthetic viseme tracks with controllable articulatory transitions.

A track holds each target shape until the next one approaches, then crosses
over with a raised-cosine blend, which mimics the gradual, inertia-limited
way real mouth shapes flow into each other. The generator knows exactly
which frames are transitions, so the annotation can serve as ground truth
for segment-conditioned evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .coarticulation import WindowSpec, coarticulation_weights
from .errors import ConstraintError, require_integer
from .mesh import MeshSequence

__all__ = [
    "SynthSpec",
    "SegmentAnnotation",
    "gen_viseme_track",
    "inject_jitter",
    "demo_spec",
]

TRANSITION_LABEL = "transition"


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic track.

    viseme_targets: (time_seconds, shape_id) anchors, strictly increasing in
    time; the track spans time 0 through the last anchor. shape_bank maps
    shape ids to (V, 3) vertex arrays. blend_halfwidth is the half-duration
    of each crossfade in seconds (clamped to half the gap between anchors).
    """

    num_vertices: int
    fps: float
    viseme_targets: tuple[tuple[float, str], ...]
    shape_bank: Mapping[str, np.ndarray]
    blend_halfwidth: float = 0.1
    jitter_amplitude: float = 0.0
    seed: int = 0
    label: str | None = None


@dataclass(frozen=True)
class SegmentAnnotation:
    """Per-frame labels ("transition" or the active shape id) and a flag for
    frames whose generator-known motion energy exceeds the track median."""

    labels: tuple[str, ...]
    high_motion: np.ndarray

    def transition_mask(self) -> np.ndarray:
        return np.array(self.labels, dtype=object) == TRANSITION_LABEL


def _require_amplitude(value: float, name: str) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ConstraintError(f"{name} must be finite and >= 0, got {value}")


def _validate_spec(spec: SynthSpec) -> None:
    if spec.num_vertices < 1:
        raise ConstraintError("num_vertices must be >= 1")
    if not math.isfinite(spec.fps) or spec.fps <= 0:
        raise ConstraintError(f"fps must be positive and finite, got {spec.fps}")
    if not spec.blend_halfwidth >= 0:  # inf is allowed: it clamps to half the gap
        raise ConstraintError(f"blend_halfwidth must be >= 0, got {spec.blend_halfwidth}")
    _require_amplitude(spec.jitter_amplitude, "jitter_amplitude")
    require_integer(spec.seed, "seed")
    if not spec.viseme_targets:
        raise ConstraintError("need at least one viseme target")
    times = [t for t, _ in spec.viseme_targets]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConstraintError(f"target times must be strictly increasing, got {times}")
    if times[0] < 0:
        raise ConstraintError("target times must be nonnegative")
    for _, shape_id in spec.viseme_targets:
        if shape_id not in spec.shape_bank:
            raise ConstraintError(f"shape id {shape_id!r} not found in shape bank")
    for name, shape in spec.shape_bank.items():
        arr = np.asarray(shape, dtype=np.float64)
        if arr.shape != (spec.num_vertices, 3):
            raise ConstraintError(
                f"shape {name!r} has shape {arr.shape}, expected ({spec.num_vertices}, 3)"
            )
        if not np.all(np.isfinite(arr)):
            raise ConstraintError(f"shape {name!r} contains non-finite coordinates")


def gen_viseme_track(spec: SynthSpec) -> tuple[MeshSequence, SegmentAnnotation]:
    """Render a spec into a mesh sequence plus its segment annotation.

    One array pass covers every frame: each frame blends the anchor at or
    before it into the next one with the raised-cosine factor alpha, which is
    0 before the blend window, 1 after it and 1/2 at the anchors' midpoint.
    Frames before the first anchor, after the last one, and every frame of a
    one-target track sit on a flat end of the ramp. The labels come from the
    same alpha ("transition" while 0 < alpha < 1, else the shape it holds),
    and the high-motion flags from the clean render's windowed energy.
    Jitter (if any) is layered on afterwards via inject_jitter with the
    spec's seed, so the same spec always produces identical bytes.
    """
    _validate_spec(spec)
    ids = [sid for _, sid in spec.viseme_targets]
    times = np.array([t for t, _ in spec.viseme_targets], dtype=np.float64)
    shapes = np.array([spec.shape_bank[sid] for sid in ids], dtype=np.float64)

    num_frames = int(round(times[-1] * spec.fps)) + 1
    u = np.arange(num_frames) / spec.fps
    last = len(times) - 1
    seg = np.clip(np.searchsorted(times, u, side="right") - 1, 0, max(last - 1, 0))
    nxt = np.minimum(seg + 1, last)
    mid = 0.5 * (times[seg] + times[nxt])
    half = np.minimum(spec.blend_halfwidth, 0.5 * (times[nxt] - times[seg]))
    lo, hi = mid - half, mid + half
    with np.errstate(invalid="ignore"):  # 0/0 where the blend has zero width
        ramp = 0.5 * (1.0 - np.cos(np.pi * (np.clip(u, lo, hi) - lo) / (hi - lo)))
    alpha = np.where(hi > lo, ramp, u >= mid)
    weight = alpha[:, None, None]
    frames = (1.0 - weight) * shapes[seg] + weight * shapes[nxt]
    choice = np.where(alpha == 0.0, seg, np.where(alpha == 1.0, nxt, last + 1))
    labels = tuple(np.array(ids + [TRANSITION_LABEL], dtype=object)[choice])

    clean = MeshSequence(frames, spec.fps, spec.label)

    if num_frames >= 2:
        energy = coarticulation_weights(clean, WindowSpec()).raw_energy
    else:
        energy = np.zeros(num_frames)
    high_motion = energy > np.median(energy)
    annotation = SegmentAnnotation(labels, high_motion)

    track = clean
    if spec.jitter_amplitude > 0:
        track = inject_jitter(clean, spec.jitter_amplitude, spec.seed)
    return track, annotation


def inject_jitter(seq: MeshSequence, amplitude: float, seed: int) -> MeshSequence:
    """Perturb every coordinate with uniform noise in [-amplitude, amplitude].

    The noise comes from numpy's PCG64 stream seeded with `seed`, so repeat
    calls are bitwise identical; the generator id is recorded in the label.
    Amplitude 0 returns the input unchanged.
    """
    _require_amplitude(amplitude, "jitter amplitude")
    seed = require_integer(seed, "seed")
    if amplitude == 0:
        return seq
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-amplitude, amplitude, size=seq.frames.shape)
    tag = f"jitter(uniform,pcg64,amp={amplitude:g},seed={seed})"
    label = f"{seq.label}+{tag}" if seq.label else tag
    return MeshSequence(seq.frames + noise, seq.fps, label)


# -- a ready-made corpus recipe -------------------------------------------------


def demo_spec(
    seed: int,
    num_vertices: int = 60,
    num_frames: int = 120,
    fps: float = 30.0,
    num_lip_vertices: int = 20,
    lip_scale: float = 0.8,
    face_scale: float = 0.05,
    blend_halfwidth: float = 0.1,
    jitter_amplitude: float = 0.01,
    num_targets: int = 8,
) -> SynthSpec:
    """A track with strong viseme transitions, for demos and experiments.

    Vertices [0, num_lip_vertices) act as the "lip" region: the bank shapes
    differ mostly there, so transitions show up as concentrated lip motion.
    Targets are evenly spaced so the track has exactly `num_frames` frames.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 0.5, size=(num_vertices, 3))
    bank: dict[str, np.ndarray] = {"rest": base}
    num_shapes = 4
    for k in range(num_shapes):
        shape = base.copy()
        shape[:num_lip_vertices] += rng.normal(0.0, lip_scale, size=(num_lip_vertices, 3))
        shape[num_lip_vertices:] += rng.normal(
            0.0, face_scale, size=(num_vertices - num_lip_vertices, 3)
        )
        bank[f"vis{k}"] = shape

    duration = (num_frames - 1) / fps
    anchor_times = np.linspace(0.0, duration, num_targets)
    names = list(bank)
    targets = []
    prev = None
    for t in anchor_times:
        choices = [n for n in names if n != prev]
        name = choices[int(rng.integers(len(choices)))]
        targets.append((float(t), name))
        prev = name

    return SynthSpec(
        num_vertices=num_vertices,
        fps=fps,
        viseme_targets=tuple(targets),
        shape_bank=bank,
        blend_halfwidth=blend_halfwidth,
        jitter_amplitude=jitter_amplitude,
        seed=seed,
        label=f"demo-{seed}",
    )
