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

from .coarticulation import coarticulation_weights
from .errors import ConstraintError, require_float32, require_integer
from .mesh import MeshSequence

__all__ = [
    "SynthSpec",
    "SegmentAnnotation",
    "gen_viseme_track",
    "demo_spec",
]

TRANSITION_LABEL = "transition"
# The MSQ header stores the frame count as a u32, so no longer track can be
# written.
_MAX_FRAMES = 2**32 - 1


def _is_utf8_text(value) -> bool:
    """Whether `value` is a str without lone surrogates, which UTF-8 cannot encode."""
    return isinstance(value, str) and not any("\ud800" <= c <= "\udfff" for c in value)


def _is_shape_id(name) -> bool:
    """Whether `name` is one field to a target line's whitespace split and a shape line's '='."""
    return _is_utf8_text(name) and name.split() == [name] and "=" not in name


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic track.

    viseme_targets: (time_seconds, shape_id) anchors, strictly increasing in
    time; the track spans time 0 through the last anchor. shape_bank maps
    shape ids to (V, 3) vertex arrays; the id "transition" is reserved for
    the annotation's blend frames. blend_halfwidth is the half-duration of
    each crossfade in seconds (clamped to half the gap between anchors).

    Every field is checked here, once, and num_vertices and seed are stored
    as ints. Shape ids and the label must be text the spec format carries
    verbatim: an id is non-empty, without whitespace or '='; a label is one
    line without leading or trailing whitespace; both encode to UTF-8. fps
    must stay finite and nonzero in the MSQ header's float32. The bank's
    arrays are not copied, so a bank mutated after construction is the
    caller's to keep valid, as with MeshSequence frames.
    """

    num_vertices: int
    fps: float
    viseme_targets: tuple[tuple[float, str], ...]
    shape_bank: Mapping[str, np.ndarray]
    blend_halfwidth: float = 0.1
    jitter_amplitude: float = 0.0
    seed: int = 0
    label: str | None = None

    def __post_init__(self):
        num_vertices = require_integer(self.num_vertices, "num_vertices", 1)
        object.__setattr__(self, "num_vertices", num_vertices)
        if not math.isfinite(self.fps) or self.fps <= 0:
            raise ConstraintError(f"fps must be positive and finite, got {self.fps}")
        require_float32(self.fps, "fps")
        if not self.blend_halfwidth >= 0:  # inf is allowed: it clamps to half the gap
            raise ConstraintError(f"blend_halfwidth must be >= 0, got {self.blend_halfwidth}")
        if not 0 <= self.jitter_amplitude < math.inf:  # False for nan
            raise ConstraintError(
                f"jitter_amplitude must be finite and >= 0, got {self.jitter_amplitude}"
            )
        object.__setattr__(self, "seed", require_integer(self.seed, "seed"))
        if not self.viseme_targets:
            raise ConstraintError("need at least one viseme target")
        times = [t for t, _ in self.viseme_targets]
        if not all(math.isfinite(t) for t in times):
            raise ConstraintError(f"target times must be finite, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConstraintError(f"target times must be strictly increasing, got {times}")
        if times[0] < 0:
            raise ConstraintError("target times must be nonnegative")
        last_frame = times[-1] * self.fps
        if not (last_frame < _MAX_FRAMES and round(last_frame) + 1 <= _MAX_FRAMES):
            raise ConstraintError(
                f"last target time {times[-1]} at fps {self.fps} needs more than "
                f"{_MAX_FRAMES} frames, the most an MSQ file holds"
            )
        for _, shape_id in self.viseme_targets:
            if shape_id not in self.shape_bank:
                raise ConstraintError(f"shape id {shape_id!r} not found in shape bank")
        for name, shape in self.shape_bank.items():
            if not _is_shape_id(name):
                raise ConstraintError(
                    f"shape id {name!r} must be non-empty UTF-8 text without whitespace or '='"
                )
            if name == TRANSITION_LABEL:
                raise ConstraintError(
                    f"shape id {name!r} is reserved: the annotation labels blend frames with it"
                )
            arr = np.asarray(shape, dtype=np.float64)
            if arr.shape != (self.num_vertices, 3):
                raise ConstraintError(
                    f"shape {name!r} has shape {arr.shape}, expected ({self.num_vertices}, 3)"
                )
            if not np.all(np.isfinite(arr)):
                raise ConstraintError(f"shape {name!r} contains non-finite coordinates")
        label = self.label
        if label is not None and not (_is_utf8_text(label) and label == label.strip()
                                      and len(label.splitlines()) <= 1):
            raise ConstraintError(f"label {label!r} must be one line of UTF-8 text "
                                  "without leading or trailing whitespace")


@dataclass(frozen=True)
class SegmentAnnotation:
    """Per-frame labels ("transition" or the active shape id) and a flag for
    frames whose generator-known motion energy exceeds the track median."""

    labels: tuple[str, ...]
    high_motion: np.ndarray

    def transition_mask(self) -> np.ndarray:
        return np.array(self.labels, dtype=object) == TRANSITION_LABEL


def gen_viseme_track(spec: SynthSpec) -> tuple[MeshSequence, SegmentAnnotation]:
    """Render a spec into a mesh sequence plus its segment annotation.

    One array pass covers every frame: each frame blends the anchor at or
    before it into the next one with the raised-cosine factor alpha, which is
    0 before the blend window, 1 after it and 1/2 at the anchors' midpoint.
    Frames before the first anchor, after the last one, and every frame of a
    one-target track sit on a flat end of the ramp. The labels come from the
    same alpha ("transition" while 0 < alpha < 1, else the shape it holds),
    and the high-motion flags from the clean render's windowed energy.
    Jitter (if the amplitude a > 0) is then added to the frames in place:
    uniform noise in [-a, a] per coordinate from numpy's PCG64 stream seeded
    with the spec's seed, so the same spec always produces identical bytes.
    """
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
    # blended in place, and blend is freed before the jitter's noise is drawn,
    # so a render holds at most two tracks at once
    frames = shapes.take(seg, axis=0)
    frames *= 1.0 - weight
    blend = shapes.take(nxt, axis=0)
    blend *= weight
    frames += blend
    del blend
    choice = np.where(alpha == 0.0, seg, np.where(alpha == 1.0, nxt, last + 1))
    labels = tuple(np.array(ids + [TRANSITION_LABEL], dtype=object)[choice])

    seq = MeshSequence(frames, spec.fps)  # shares frames: the jitter lands in seq

    if num_frames >= 2:
        energy = coarticulation_weights(seq).raw_energy
    else:
        energy = np.zeros(num_frames)
    # the median as np.median computes it, without its numpy.ma import
    median = np.sort(energy)[(num_frames - 1) // 2 : num_frames // 2 + 1].mean()
    annotation = SegmentAnnotation(labels, energy > median)
    amplitude = spec.jitter_amplitude
    if amplitude > 0:
        frames += np.random.default_rng(spec.seed).uniform(-amplitude, amplitude, frames.shape)
    return seq, annotation


# -- a ready-made corpus recipe -------------------------------------------------


def demo_spec(
    seed: int,
    num_vertices: int = 60,
    num_frames: int = 120,
    num_lip_vertices: int = 20,
    jitter_amplitude: float = 0.01,
) -> SynthSpec:
    """A track with strong viseme transitions, for demos and experiments.

    Vertices [0, num_lip_vertices) act as the "lip" region: the bank shapes
    differ mostly there (offsets of scale 0.8 against 0.05 elsewhere), so
    transitions show up as concentrated lip motion. Eight targets are evenly
    spaced at 30 fps so the track has exactly `num_frames` frames, with
    0.1 s crossfades.
    """
    fps = 30.0
    num_frames = require_integer(num_frames, "num_frames", 2)
    if not 0 <= num_lip_vertices <= num_vertices:
        raise ConstraintError(
            f"num_lip_vertices must lie in [0, num_vertices={num_vertices}], "
            f"got {num_lip_vertices}"
        )
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 0.5, size=(num_vertices, 3))
    bank: dict[str, np.ndarray] = {"rest": base}
    num_shapes = 4
    for k in range(num_shapes):
        shape = base.copy()
        shape[:num_lip_vertices] += rng.normal(0.0, 0.8, size=(num_lip_vertices, 3))
        shape[num_lip_vertices:] += rng.normal(
            0.0, 0.05, size=(num_vertices - num_lip_vertices, 3)
        )
        bank[f"vis{k}"] = shape

    duration = (num_frames - 1) / fps
    anchor_times = np.linspace(0.0, duration, 8)
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
        blend_halfwidth=0.1,
        jitter_amplitude=jitter_amplitude,
        seed=seed,
        label=f"demo-{seed}",
    )
