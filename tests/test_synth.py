import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visemekit import (
    ConstraintError,
    MeshSequence,
    SynthSpec,
    coarticulation_weights,
    demo_spec,
    frame_difference_norms,
    gen_viseme_track,
    make_corpus,
    spec_hash,
)
from visemekit.synth import TRANSITION_LABEL

SRC = Path(__file__).resolve().parent.parent / "src"


def two_shape_spec(**overrides):
    bank = {
        "a": np.zeros((2, 3)),
        "b": np.full((2, 3), 1.0),
    }
    kwargs = dict(
        num_vertices=2,
        fps=10.0,
        viseme_targets=((0.0, "a"), (1.0, "b")),
        shape_bank=bank,
        blend_halfwidth=0.3,
        jitter_amplitude=0.0,
        seed=0,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


class TestGenVisemeTrack:
    def test_single_target_is_constant(self):
        spec = two_shape_spec(viseme_targets=((0.5, "b"),))
        seq, annotation = gen_viseme_track(spec)
        assert seq.num_frames == 6  # round(0.5 * 10) + 1
        assert np.all(np.asarray(seq.frames) == 1.0)
        assert all(lab == "b" for lab in annotation.labels)
        assert not annotation.transition_mask().any()

    def test_zero_halfwidth_steps_at_boundary(self):
        spec = two_shape_spec(blend_halfwidth=0.0)
        seq, annotation = gen_viseme_track(spec)
        diffs = frame_difference_norms(seq)
        assert np.count_nonzero(diffs) == 1
        assert TRANSITION_LABEL not in annotation.labels
        # frames before the midpoint hold a, the rest hold b
        assert annotation.labels[0] == "a" and annotation.labels[-1] == "b"

    def test_midpoint_frame_is_average(self):
        spec = two_shape_spec()
        seq, annotation = gen_viseme_track(spec)
        assert seq.num_frames == 11
        mid_frame = np.asarray(seq.frames)[5]  # u = 0.5, the anchor midpoint
        assert mid_frame == pytest.approx(0.5 * np.ones((2, 3)), abs=1e-9)
        assert annotation.labels[5] == TRANSITION_LABEL

    def test_frames_stay_in_blend_envelope(self):
        spec = two_shape_spec()
        seq, _ = gen_viseme_track(spec)
        frames = np.asarray(seq.frames)
        assert frames.min() >= -1e-9 and frames.max() <= 1.0 + 1e-9

    def test_transition_labels_match_partial_blend(self):
        spec = two_shape_spec()
        seq, annotation = gen_viseme_track(spec)
        frames = np.asarray(seq.frames)
        partial = [bool(0.0 < f[0, 0] < 1.0) for f in frames]
        assert [lab == TRANSITION_LABEL for lab in annotation.labels] == partial

    def test_high_motion_is_energy_above_median(self):
        spec = demo_spec(seed=4, jitter_amplitude=0.0)
        seq, annotation = gen_viseme_track(spec)
        energy = coarticulation_weights(seq).raw_energy
        assert np.array_equal(annotation.high_motion, energy > np.median(energy))

    @pytest.mark.parametrize("num_frames", [2, 121, 122])
    def test_high_motion_median_at_odd_and_even_lengths(self, num_frames):
        # held frames tie at energy 0, where > must still split as np.median does
        spec = demo_spec(seed=9, num_frames=num_frames, jitter_amplitude=0.0)
        seq, annotation = gen_viseme_track(spec)
        energy = coarticulation_weights(seq).raw_energy
        assert np.array_equal(annotation.high_motion, energy > np.median(energy))

    def test_high_motion_of_one_frame(self):
        seq, annotation = gen_viseme_track(two_shape_spec(viseme_targets=((0.0, "a"),)))
        assert seq.num_frames == 1
        assert annotation.high_motion.tolist() == [False]  # 0 > np.median([0])

    def test_gen_does_not_import_numpy_ma(self, tmp_path):
        # np.median imports numpy.ma on its first call, a cost every cold gen paid
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "num_vertices = 1\nfps = 30\nshape.a = 0 0 0\nshape.b = 1 0 0\n"
            "target = 0.0 a\ntarget = 1.0 b\n"
        )
        code = (
            "import sys\n"
            "from visemekit.cli import main\n"
            f"assert main(['gen', '--spec', {str(spec)!r}, '--out', {str(tmp_path / 'c')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              timeout=120, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_transition_energy_above_hold_energy(self):
        spec = demo_spec(seed=5, jitter_amplitude=0.0)
        seq, annotation = gen_viseme_track(spec)
        energy = coarticulation_weights(seq).raw_energy
        tmask = annotation.transition_mask()
        assert tmask.any() and (~tmask).any()
        assert np.median(energy[tmask]) > np.median(energy[~tmask])

    def test_determinism(self):
        spec = demo_spec(seed=6)
        a, ann_a = gen_viseme_track(spec)
        b, ann_b = gen_viseme_track(spec)
        assert np.asarray(a.frames).tobytes() == np.asarray(b.frames).tobytes()
        assert ann_a.labels == ann_b.labels
        assert np.array_equal(ann_a.high_motion, ann_b.high_motion)

    def test_annotation_length(self):
        seq, annotation = gen_viseme_track(demo_spec(seed=7))
        assert len(annotation.labels) == seq.num_frames
        assert len(annotation.high_motion) == seq.num_frames

    def test_invalid_specs(self):
        with pytest.raises(ConstraintError):
            gen_viseme_track(two_shape_spec(viseme_targets=((0.0, "a"), (0.0, "b"))))
        with pytest.raises(ConstraintError):
            gen_viseme_track(two_shape_spec(viseme_targets=((0.0, "missing"),)))
        with pytest.raises(ConstraintError):
            gen_viseme_track(two_shape_spec(blend_halfwidth=-0.1))
        with pytest.raises(ConstraintError):
            gen_viseme_track(two_shape_spec(jitter_amplitude=-0.01))
        with pytest.raises(ConstraintError):
            gen_viseme_track(two_shape_spec(shape_bank={"a": np.zeros((3, 3)), "b": np.zeros((2, 3))}))
        with pytest.raises(ConstraintError):
            gen_viseme_track(two_shape_spec(viseme_targets=()))
        for fps in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConstraintError, match="fps"):
                gen_viseme_track(two_shape_spec(fps=fps))
        for seed in (-1, 2.5, float("nan")):
            with pytest.raises(ConstraintError, match="seed"):
                gen_viseme_track(two_shape_spec(seed=seed, jitter_amplitude=0.01))
        with pytest.raises(ConstraintError, match="blend_halfwidth"):
            gen_viseme_track(two_shape_spec(blend_halfwidth=float("nan")))
        for amplitude in (float("nan"), float("inf")):
            with pytest.raises(ConstraintError, match="jitter_amplitude"):
                gen_viseme_track(two_shape_spec(jitter_amplitude=amplitude))
        for time in (float("nan"), float("inf")):
            with pytest.raises(ConstraintError, match="target times must be finite"):
                gen_viseme_track(two_shape_spec(viseme_targets=((0.0, "a"), (time, "b"))))
            with pytest.raises(ConstraintError, match="target times must be finite"):
                gen_viseme_track(two_shape_spec(viseme_targets=((time, "a"),)))

    def test_transition_is_not_a_shape_id(self):
        # a held shape named "transition" would be counted as a blend frame
        bank = {TRANSITION_LABEL: np.zeros((2, 3)), "b": np.ones((2, 3))}
        targets = ((0.0, TRANSITION_LABEL), (1.0, "b"), (2.0, TRANSITION_LABEL))
        with pytest.raises(ConstraintError, match="'transition' is reserved"):
            gen_viseme_track(
                two_shape_spec(shape_bank=bank, viseme_targets=targets, blend_halfwidth=0.05)
            )
        # also when no target holds it
        bank = {"a": np.zeros((2, 3)), "b": np.ones((2, 3)), TRANSITION_LABEL: np.ones((2, 3))}
        with pytest.raises(ConstraintError, match="'transition' is reserved"):
            gen_viseme_track(two_shape_spec(shape_bank=bank))

    def test_frame_count_fits_the_msq_header(self):
        # round(t_last * fps) + 1 frames; an MSQ header counts them in a u32
        # (building the spec checks it; nothing is rendered or allocated)
        fits = 2.0**32 - 2
        two_shape_spec(fps=1.0, viseme_targets=((0.0, "a"), (fits, "b")))
        two_shape_spec(fps=1.0, viseme_targets=((fits + 0.5, "a"),))
        for last, fps in ((fits + 1, 1.0), (1e12, 30.0), (1e300, 30.0), (1e308, 10.0)):
            with pytest.raises(ConstraintError, match="MSQ"):
                two_shape_spec(fps=fps, viseme_targets=((0.0, "a"), (last, "b")))

    @pytest.mark.parametrize("num_vertices", [0, -2, 1.5])
    def test_vertex_count_is_a_positive_integer(self, num_vertices):
        with pytest.raises(
            ConstraintError, match=rf"num_vertices must be an integer >= 1, got {num_vertices}$"
        ):
            two_shape_spec(num_vertices=num_vertices)

    def test_infinite_halfwidth_clamps_to_half_the_gap(self):
        wide, _ = gen_viseme_track(two_shape_spec(blend_halfwidth=float("inf")))
        half_gap, _ = gen_viseme_track(two_shape_spec(blend_halfwidth=0.5))
        assert wide.frames.tobytes() == half_gap.frames.tobytes()


def _render_like_loop(spec):
    """What gen_viseme_track must return for `spec`, built on the loop
    oracle: its clean frames plus uniform noise in [-a, a] drawn from numpy's
    PCG64 stream seeded with the spec's seed (when a > 0), its labels, and
    the flags of above-median windowed energy of the clean frames."""
    frames, labels = oracles.render_loop(spec)
    clean = MeshSequence(frames, spec.fps)
    energy = np.zeros(clean.num_frames)
    if clean.num_frames >= 2:
        energy = coarticulation_weights(clean).raw_energy
    a = spec.jitter_amplitude
    if a > 0:
        frames = frames + np.random.default_rng(spec.seed).uniform(-a, a, frames.shape)
    return frames, labels, energy > np.median(energy)


def assert_matches_loop(spec):
    seq, annotation = gen_viseme_track(spec)
    frames, labels, high_motion = _render_like_loop(spec)
    assert seq.frames.tobytes() == frames.tobytes()
    assert list(annotation.labels) == labels
    assert np.array_equal(annotation.high_motion, high_motion)


def anchored_spec(times, halfwidth=0.1, fps=10.0, num_vertices=3, seed=0):
    rng = np.random.default_rng(seed)
    names = [f"s{i % 3}" for i in range(len(times))]
    bank = {name: rng.normal(size=(num_vertices, 3)) for name in sorted(set(names))}
    return SynthSpec(
        num_vertices=num_vertices,
        fps=fps,
        viseme_targets=tuple(zip(times, names)),
        shape_bank=bank,
        blend_halfwidth=halfwidth,
    )


class TestRenderMemory:
    def test_jittered_long_track_peak(self):
        """The render blends and jitters in place: one track of frames plus
        one track-sized temporary at a time."""
        spec = demo_spec(8, num_vertices=60, num_frames=3000, jitter_amplitude=0.01)
        gen_viseme_track(spec)  # the first call imports modules lazily
        tracemalloc.start()
        try:
            seq, annotation = gen_viseme_track(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.frames.shape == (3000, 60, 3)
        assert peak <= 2.25 * seq.frames.nbytes
        frames, labels = oracles.render_loop(spec)
        amplitude = spec.jitter_amplitude
        noise = np.random.default_rng(spec.seed).uniform(-amplitude, amplitude, frames.shape)
        assert seq.frames.tobytes() == (frames + noise).tobytes()
        assert list(annotation.labels) == labels


class TestRenderMatchesLoop:
    """The vectorized render against tests/oracles.py::render_loop: frame
    bytes, labels and high-motion flags."""

    @pytest.mark.parametrize("num_frames", [120, 3000])
    @pytest.mark.parametrize("seed", range(40))
    def test_demo_specs(self, seed, num_frames):
        assert_matches_loop(demo_spec(seed, num_frames=num_frames))

    @pytest.mark.parametrize(
        "spec",
        [
            anchored_spec((0.0,)),
            anchored_spec((0.7,), fps=29.97),
            anchored_spec((0.0, 0.5, 1.2, 2.0), halfwidth=0.0),
            anchored_spec((0.35, 0.9, 1.6), fps=7.3),
            anchored_spec((0.5, 1.0, 1.5)),
            anchored_spec((0.0, 0.8, 1.63), fps=29.97),
            anchored_spec((0.04, 1.0, 2.017)),
            anchored_spec((0.0, 0.3, 1.0, 1.4), halfwidth=5.0),
            anchored_spec((0.0, 0.3, 1.0, 1.4), halfwidth=math.inf),
            anchored_spec((0.2, 0.3, 1.0, 1.45), halfwidth=math.inf, fps=29.97),
        ],
        ids=[
            "one-target-at-zero",
            "one-target-later",
            "zero-width-blend",
            "first-anchor-late",
            "first-anchor-on-grid",
            "last-anchor-off-grid",
            "both-ends-off-grid",
            "halfwidth-above-half-gap",
            "halfwidth-inf",
            "halfwidth-inf-off-grid",
        ],
    )
    def test_edge_cases(self, spec):
        assert_matches_loop(spec)

    def test_jittered_track(self):
        assert_matches_loop(two_shape_spec(jitter_amplitude=0.05, seed=9))

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(0, 5),
        gaps=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        on_grid=st.booleans(),
        shift=st.floats(0.0, 0.999),
        fps=st.sampled_from([30.0, 29.97, 7.3, 10.0, 24.0]),
        halfwidth=st.sampled_from([0.0, 0.02, 0.1, 0.5, 5.0, math.inf]),
        coords=st.lists(st.floats(-10.0, 10.0), min_size=18, max_size=18),
    )
    def test_random_specs(self, start, gaps, on_grid, shift, fps, halfwidth, coords):
        # Anchors either sit on the frame grid or between its frames.
        steps = start + np.cumsum(gaps) - gaps[0]
        times = steps / fps if on_grid else (steps + shift) / fps
        names = [f"s{i % 3}" for i in range(len(times))]
        bank = {
            f"s{k}": np.reshape(coords[6 * k:6 * k + 6], (2, 3)) for k in range(3)
        }
        spec = SynthSpec(
            num_vertices=2,
            fps=fps,
            viseme_targets=tuple((float(t), n) for t, n in zip(times, names)),
            shape_bank=bank,
            blend_halfwidth=halfwidth,
        )
        seq, annotation = gen_viseme_track(spec)
        frames, labels, high_motion = _render_like_loop(spec)
        # The loop copies the first and last anchor shapes verbatim, while the
        # blend maps a -0.0 coordinate there to +0.0; adding 0.0 maps -0.0 to
        # +0.0 and leaves every other value unchanged.
        assert (seq.frames + 0.0).tobytes() == (frames + 0.0).tobytes()
        assert list(annotation.labels) == labels
        assert np.array_equal(annotation.high_motion, high_motion)


class TestInjectJitter:
    """The jitter gen_viseme_track adds to its render, and SynthSpec's checks
    of the jitter amplitude and seed."""

    def test_zero_amplitude_is_identity(self):
        seq, _ = gen_viseme_track(two_shape_spec(jitter_amplitude=0.0, seed=1))
        other_seed, _ = gen_viseme_track(two_shape_spec(jitter_amplitude=0.0, seed=2))
        frames, _ = oracles.render_loop(two_shape_spec())
        assert seq.frames.tobytes() == frames.tobytes()
        assert other_seed.frames.tobytes() == frames.tobytes()

    def test_deterministic(self):
        a, _ = gen_viseme_track(two_shape_spec(jitter_amplitude=0.1, seed=42))
        b, _ = gen_viseme_track(two_shape_spec(jitter_amplitude=0.1, seed=42))
        c, _ = gen_viseme_track(two_shape_spec(jitter_amplitude=0.1, seed=43))
        assert a.frames.tobytes() == b.frames.tobytes()
        assert a.frames.tobytes() != c.frames.tobytes()

    def test_bounded_and_centered(self):
        # a constant all-zero track, so the render is the noise: >= 1e5
        # samples, 200 frames x 170 vertices x 3 coords
        spec = SynthSpec(
            num_vertices=170,
            fps=1.0,
            viseme_targets=((0.0, "rest"), (199.0, "rest")),
            shape_bank={"rest": np.zeros((170, 3))},
            jitter_amplitude=0.1,
            seed=3,
        )
        noise = gen_viseme_track(spec)[0].frames
        n = noise.size
        assert n >= 1e5
        assert np.max(np.abs(noise)) <= 0.1
        # uniform on [-a, a]: std a/sqrt(3), mean-of-n std a/sqrt(3n)
        assert abs(noise.mean()) <= 3 * 0.1 / np.sqrt(3 * n)

    def test_negative_amplitude(self):
        with pytest.raises(ConstraintError):
            two_shape_spec(jitter_amplitude=-0.5)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
    def test_non_finite_amplitude(self, amplitude):
        with pytest.raises(ConstraintError, match="amplitude"):
            two_shape_spec(jitter_amplitude=amplitude)

    @pytest.mark.parametrize("seed", [-1, 2.5, float("nan")])
    def test_bad_seed(self, seed):
        with pytest.raises(ConstraintError, match="seed"):
            two_shape_spec(jitter_amplitude=0.1, seed=seed)


class TestMakeCorpus:
    def test_empty_specs(self, tmp_path):
        records = make_corpus([], tmp_path / "corpus")
        assert records == []
        manifest = (tmp_path / "corpus" / "manifest.txt").read_text()
        assert manifest.startswith("#")
        assert len(manifest.splitlines()) == 1
        assert not list((tmp_path / "corpus").glob("*.msq"))

    def test_two_specs(self, tmp_path):
        specs = [demo_spec(seed=0), demo_spec(seed=1)]
        records = make_corpus(specs, tmp_path / "corpus")
        assert len(records) == 2
        lines = (tmp_path / "corpus" / "manifest.txt").read_text().splitlines()
        assert len(lines) == 3
        for record in records:
            assert (tmp_path / "corpus" / record.sequence_path).exists()
            assert (tmp_path / "corpus" / record.annotation_path).exists()
            assert record.sequence_path in "\n".join(lines)

    def test_regeneration_is_byte_identical(self, tmp_path):
        specs = [demo_spec(seed=0), demo_spec(seed=1)]
        make_corpus(specs, tmp_path / "one")
        make_corpus(specs, tmp_path / "two")
        for name in ("track000.msq", "track001.msq", "track000.ann.csv", "manifest.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_bad_spec_writes_nothing(self, tmp_path):
        # a bad spec is rejected when it is built, before make_corpus runs
        out = tmp_path / "corpus"
        with pytest.raises(ConstraintError, match="missing"):
            bad = two_shape_spec(viseme_targets=((0.0, "a"), (1.0, "missing")))
            make_corpus([two_shape_spec(), bad], out)
        assert not out.exists()
        assert not list(tmp_path.rglob("track000.*"))


class TestSpecHash:
    def test_stable(self):
        assert spec_hash(demo_spec(seed=0)) == spec_hash(demo_spec(seed=0))

    def test_sensitive_to_seed(self):
        assert spec_hash(demo_spec(seed=0)) != spec_hash(demo_spec(seed=1))

    def test_demo_specs_are_pinned(self):
        assert [spec_hash(demo_spec(seed)) for seed in range(4)] == [
            "25ebd9a05fbc328ae3f61078b07e582dd02055987f01370f5e8924629babeea5",
            "9ff422c00df2395372bda8da3efe51f1ea08cca2ff013b3bbae20e288bef29c9",
            "34f841e6fa903227f7c183adda5d3ceca1ff90262fbe5f55aedc3257eaf028ac",
            "450298727fb99a11c870a68a26118459f90ab00001f3b28cd023ec7388c5d18d",
        ]


class TestDemoSpec:
    def test_exact_frame_count(self):
        seq, _ = gen_viseme_track(demo_spec(seed=0))
        assert seq.num_frames == 120
        assert seq.num_vertices == 60

    def test_has_transitions_and_holds(self):
        _, annotation = gen_viseme_track(demo_spec(seed=0))
        tmask = annotation.transition_mask()
        assert tmask.any() and (~tmask).any()

    @pytest.mark.parametrize("num_lip_vertices", [7, 20, -1])
    def test_lip_count_outside_the_vertices(self, num_lip_vertices):
        with pytest.raises(ConstraintError, match="num_lip_vertices"):
            demo_spec(seed=0, num_vertices=6, num_lip_vertices=num_lip_vertices)

    @pytest.mark.parametrize("num_frames", [1, 0, -4, 2.5, float("nan")])
    def test_frame_count_below_two_or_not_integral(self, num_frames):
        with pytest.raises(ConstraintError, match="num_frames must be an integer >= 2"):
            demo_spec(seed=0, num_frames=num_frames)

    def test_two_frames(self):
        seq, _ = gen_viseme_track(demo_spec(seed=0, num_frames=2.0))
        assert seq.num_frames == 2

    def test_all_vertices_are_lips(self):
        seq, _ = gen_viseme_track(demo_spec(seed=0, num_vertices=6, num_lip_vertices=6))
        assert seq.num_vertices == 6
