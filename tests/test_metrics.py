import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from visemekit import mesh, metrics
from visemekit import (
    ConstraintError,
    MeshSequence,
    VertexRegionMask,
    dtw,
    evaluate,
    ldtw,
)
from visemekit.synth import demo_spec, gen_viseme_track


def seq(frames, fps=30.0):
    return MeshSequence(np.asarray(frames, dtype=np.float64), fps)


def rand_seq(rng, num_frames, num_vertices):
    return seq(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)))


class TestFrameMetrics:
    """FVE, LVE and Lip-max as `evaluate` reports them."""

    def test_identity_all_zero(self):
        rng = np.random.default_rng(0)
        s = rand_seq(rng, 5, 4)
        lips = VertexRegionMask(np.array([0, 2]))
        report = evaluate(s, s, lips)
        assert report.fve == 0.0
        assert report.lve == 0.0
        assert report.lip_max == 0.0
        assert ldtw(s, s, lips) == 0.0

    def test_uniform_offset(self):
        rng = np.random.default_rng(1)
        gt = rand_seq(rng, 6, 5)
        pred = MeshSequence(gt.frames + [0.3, 0.0, 0.0], gt.fps)
        report = evaluate(gt, pred, VertexRegionMask(np.array([1, 3])))
        assert report.fve == pytest.approx(0.3, abs=1e-12)
        assert report.lve == pytest.approx(0.3, abs=1e-12)
        assert report.lip_max == pytest.approx(0.3, abs=1e-12)

    def test_lve_full_mask_equals_fve(self):
        rng = np.random.default_rng(2)
        gt, pred = rand_seq(rng, 7, 6), rand_seq(rng, 7, 6)
        report = evaluate(gt, pred, VertexRegionMask.full(6))
        assert report.lve == pytest.approx(report.fve, abs=1e-12)

    def test_matches_oracles(self):
        rng = np.random.default_rng(3)
        gt, pred = rand_seq(rng, 6, 5), rand_seq(rng, 6, 5)
        lips = [0, 2, 4]
        g, p = gt.frames.tolist(), pred.frames.tolist()
        report = evaluate(gt, pred, VertexRegionMask(np.array(lips)))
        assert report.fve == pytest.approx(oracles.fve(g, p), rel=1e-12)
        assert report.lve == pytest.approx(oracles.lve(g, p, lips), rel=1e-12)
        assert report.lip_max == pytest.approx(oracles.lip_max(g, p, lips), rel=1e-12)

    def test_lip_max_single_displacement(self):
        gt = seq(np.zeros((2, 3, 3)))
        frames = np.zeros((2, 3, 3))
        frames[0, 1, 0] = 0.5  # one lip vertex off in one of two frames
        pred = seq(frames)
        lips = VertexRegionMask(np.array([0, 1]))
        assert evaluate(gt, pred, lips).lip_max == pytest.approx(0.25, abs=1e-15)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        gt, pred = rand_seq(rng, 5, 4), rand_seq(rng, 5, 4)
        off = [2.5, -1.0, 0.25]
        gt2 = MeshSequence(gt.frames + off, gt.fps)
        pred2 = MeshSequence(pred.frames + off, pred.fps)
        lips = VertexRegionMask(np.array([1, 2]))
        before, after = evaluate(gt, pred, lips), evaluate(gt2, pred2, lips)
        assert after.fve == pytest.approx(before.fve, abs=1e-9)
        assert after.lve == pytest.approx(before.lve, abs=1e-9)

    def test_mask_out_of_range(self):
        rng = np.random.default_rng(5)
        gt, pred = rand_seq(rng, 3, 2), rand_seq(rng, 3, 2)
        with pytest.raises(ConstraintError):
            evaluate(gt, pred, VertexRegionMask(np.array([5])))


def x_frames(values):
    """(n, 1, 3) frames of one vertex moving along x, so the mean-vertex cost
    of two frames is the distance of their x values."""
    return np.asarray(values, dtype=np.float64)[:, None, None] * [1.0, 0.0, 0.0]


def mean_vertex_norm(x, y):
    """LDTW's local cost: the vertex distances added left to right, over their count."""
    total = 0.0
    for distance in np.linalg.norm(x - y, axis=1).tolist():
        total += distance
    return total / len(x)


class TestDtw:
    def test_identical_sequences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, (5, 4, 3))
        result = dtw(a, a)
        assert result.distance == 0.0
        assert result.path == tuple((i, i) for i in range(5))
        assert result.path_length == 5

    def test_repeated_frame(self):
        result = dtw(np.zeros((1, 1, 3)), np.zeros((2, 1, 3)))
        assert result.distance == 0.0
        assert result.path == ((0, 0), (0, 1))

    def test_tie_break_prefers_diagonal(self):
        # all-zero costs: every path is optimal, backtrack must take diagonals
        result = dtw(np.zeros((3, 1, 3)), np.zeros((3, 1, 3)))
        assert result.path == ((0, 0), (1, 1), (2, 2))

    def test_empty_input(self):
        with pytest.raises(ConstraintError):
            dtw(np.zeros((0, 1, 3)), np.zeros((2, 1, 3)))
        with pytest.raises(ConstraintError, match="nonempty"):
            dtw(np.zeros((2, 0, 3)), np.zeros((2, 0, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ConstraintError):
            dtw(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))

    @pytest.mark.parametrize("a, b", [
        (np.zeros(4), np.zeros(3)),
        (np.zeros((4, 3)), np.zeros((3, 3))),
        (np.zeros((4, 2, 2)), np.zeros((3, 2, 2))),
        (np.zeros((4, 2, 3)), np.zeros((3, 5, 3))),
        (np.zeros((4, 2, 3)), np.zeros((3, 6))),
    ])
    def test_rejects_inputs_that_are_not_lip_frames(self, a, b):
        with pytest.raises(ConstraintError, match=r"\(T, L, 3\)") as info:
            dtw(a, b)
        # raised by the shape check, not while handling a numpy error
        assert info.value.__context__ is None

    @pytest.mark.parametrize("a", [[[[0.0, 0.0, 0.0]], [[1.0, 1.0]]], [[["x", "y", "z"]]]])
    def test_rejects_inputs_that_are_not_numeric_arrays(self, a):
        with pytest.raises(ConstraintError, match=r"not regular \(T, L, 3\) arrays"):
            dtw(a, np.zeros((2, 1, 3)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        num_lips = int(rng.integers(1, 4))
        a = rng.normal(0.0, 1.0, (n, num_lips, 3))
        b = rng.normal(0.0, 1.0, (m, num_lips, 3))
        table = [[mean_vertex_norm(a[i], b[j]) for j in range(m)] for i in range(n)]
        result = dtw(a, b)
        assert abs(result.distance - oracles.dtw_exhaustive(table)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_path_is_monotone_and_anchored(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.normal(0.0, 1.0, (n, 2, 3))
        b = rng.normal(0.0, 1.0, (m, 2, 3))
        path = dtw(a, b).path
        assert path[0] == (0, 0)
        assert path[-1] == (n - 1, m - 1)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))


def oracle_cases(rng, count):
    """Random DTW inputs, lengths 1-40: (V, 3) frames, then their first
    vertex's x coordinates as x_frames, with every third case made tie-heavy
    (values rounded to 0.5, so every local cost is exact) and every seventh
    all zeros."""
    for case in range(count):
        n, m = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        num_vertices = int(rng.integers(1, 5))
        a = rng.normal(0.0, 1.0, (n, num_vertices, 3))
        b = rng.normal(0.0, 1.0, (m, num_vertices, 3))
        if case % 3 == 1:
            a, b = np.round(2.0 * a) / 2.0, np.round(2.0 * b) / 2.0
        if case % 7 == 0:
            a, b = np.zeros_like(a), np.zeros_like(b)
        yield a, b
        yield x_frames(a[:, 0, 0]), x_frames(b[:, 0, 0])


class TestDtwKernel:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(20)
        for a, b in oracle_cases(rng, 60):
            distance, path = oracles.dtw_loop(a, b, mean_vertex_norm)
            result = dtw(a, b)
            assert result.path == path
            assert result.distance == distance

    def test_ldtw_equals_loop_oracle_exactly(self):
        rng = np.random.default_rng(21)
        for a, b in oracle_cases(rng, 60):
            if a.ndim == 1:
                continue
            lips = VertexRegionMask.full(a.shape[1])
            distance, path = oracles.dtw_loop(a, b, mean_vertex_norm)
            assert ldtw(seq(a), seq(b), lips) == distance / len(path)

    def test_ldtw_with_lip_subsets_equals_loop_oracle_exactly(self):
        # lip frames come from fancy indexing, as in evaluate; the first case
        # is the benchmark's layout of 20 lips out of 60 vertices
        rng = np.random.default_rng(23)
        for case in range(40):
            num_vertices = 60 if case == 0 else int(rng.integers(1, 65))
            count = 20 if case == 0 else int(rng.integers(1, min(num_vertices, 40) + 1))
            lips = VertexRegionMask(np.sort(rng.choice(num_vertices, count, replace=False)))
            n, m = int(rng.integers(1, 31)), int(rng.integers(1, 31))
            gt = rand_seq(rng, n, num_vertices)
            pred = rand_seq(rng, m, num_vertices)
            a, b = gt.frames[:, lips.indices], pred.frames[:, lips.indices]
            distance, path = oracles.dtw_loop(a, b, mean_vertex_norm)
            assert ldtw(gt, pred, lips) == distance / len(path)

    def test_memory_layout_does_not_change_results(self):
        rng = np.random.default_rng(24)
        frames_a = rng.normal(0.0, 1.0, (15, 30, 3))
        frames_b = rng.normal(0.0, 1.0, (11, 30, 3))
        lips = np.arange(3, 30, 2)

        def layouts(frames):
            picked = frames[:, lips]
            return (np.ascontiguousarray(picked), np.asfortranarray(picked), picked)

        results = [
            (dtw(a, b), ldtw(seq(a), seq(b), VertexRegionMask.full(len(lips))))
            for a, b in zip(layouts(frames_a), layouts(frames_b))
        ]
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_int32_fortran_inputs_match_float64_copies(self, monkeypatch):
        # dtw converts any layout and dtype before it cuts the row blocks; a
        # 40-element budget cuts a into one-row blocks
        monkeypatch.setattr(mesh, "_BLOCK_ELEMENTS", 40)
        frames = np.arange(60 * 4 * 3, dtype=np.int32).reshape(60, 4, 3)
        a, b = frames[::2, [0, 3]], np.asfortranarray(frames[:7, 1:3])
        copies = (np.array(a, dtype=np.float64, order="C"),
                  np.array(b, dtype=np.float64, order="C"))
        assert dtw(a, b) == dtw(*copies)

    def test_peak_memory_is_one_table(self):
        n = m = 2000
        a = x_frames(np.linspace(0.0, 1.0, n))
        b = x_frames(np.linspace(1.0, 0.0, m))
        tracemalloc.start()
        try:
            dtw(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (n + 1) * (m + 1) * 8

    def test_cost_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(22)
        cases = []
        for num_vertices, lips in ((3, [0, 2]), (129, range(129))):
            a = rng.normal(0.0, 1.0, (17, num_vertices, 3))
            b = rng.normal(0.0, 1.0, (13, num_vertices, 3))
            cases.append((a, b, VertexRegionMask(np.array(lips))))

        def results():
            return [(dtw(a, b), dtw(a[:, :1], b[:, :1]), ldtw(seq(a), seq(b), lips))
                    for a, b, lips in cases]

        whole = results()
        # a tiny budget forces several blocks, down to one row per block
        for budget in (5, 50, 200, 20000):
            monkeypatch.setattr(mesh, "_BLOCK_ELEMENTS", budget)
            assert results() == whole

    def test_block_cost_contract(self):
        # the local cost of x_frames is the distance of their x values
        result = dtw(x_frames(np.arange(4)), x_frames(np.arange(3)))
        assert result.distance == 1.0
        assert result.path == ((0, 0), (1, 1), (2, 2), (3, 2))

    @pytest.mark.parametrize("num_lips", [1, 7, 8, 9, 15, 16, 17, 20, 24, 128, 129, 136, 257])
    def test_local_costs_add_in_lip_order_at_many_lip_counts(self, num_lips):
        # the lip counts sit on both sides of where numpy's pairwise sum of a
        # contiguous axis changes branch: in sequence below 8 terms, eight
        # running sums up to 128, halves above. At 1 and 7 lips it adds in
        # lip order too; from 8 lips on its order differs, so np.mean would
        # not match LDTW's local cost there
        rng = np.random.default_rng(num_lips)
        gt, pred = rand_seq(rng, 6, num_lips), rand_seq(rng, 5, num_lips)
        a, b = gt.frames, pred.frames
        distance, path = oracles.dtw_loop(a, b, mean_vertex_norm)
        assert ldtw(gt, pred, VertexRegionMask.full(num_lips)) == distance / len(path)
        # every local cost, not only those on the path, and a lone cell's
        want = [[mean_vertex_norm(x, y) for y in b] for x in a]
        a_planes, b_planes = a.transpose(2, 1, 0)[..., None], b.transpose(2, 1, 0)[:, :, None]
        assert metrics._vertex_mean(metrics._distances(a_planes, b_planes)).tolist() == want
        assert dtw(a[:1], b[:1]).distance == want[0][0]

    def test_ldtw_equals_loop_oracle_at_benchmark_shape(self):
        # 120 x 120 frames, 20 scattered lips of 60 vertices, ground truth
        # against a smooth noisy copy of itself
        gt, _ = gen_viseme_track(demo_spec(11))
        rng = np.random.default_rng(26)
        pred = seq(gt.frames + np.cumsum(rng.normal(0.0, 0.01, gt.frames.shape), axis=0))
        lips = VertexRegionMask(np.sort(rng.choice(60, 20, replace=False)))
        a, b = gt.frames[:, lips.indices], pred.frames[:, lips.indices]
        assert a.shape == b.shape == (120, 20, 3)
        distance, path = oracles.dtw_loop(a, b, mean_vertex_norm)
        assert ldtw(gt, pred, lips) == distance / len(path)

    def test_ldtw_peak_memory_is_one_table(self):
        n = m = 1000
        rng = np.random.default_rng(27)
        gt, pred = rand_seq(rng, n, 60), rand_seq(rng, m, 60)
        lips = VertexRegionMask(np.arange(0, 60, 3))
        tracemalloc.start()
        try:
            ldtw(gt, pred, lips)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (n + 1) * (m + 1) * 8


class TestLdtw:
    def test_duplicated_frame_unequal_lengths(self):
        rng = np.random.default_rng(1)
        gt = rand_seq(rng, 5, 3)
        frames = np.asarray(gt.frames)
        pred = seq(np.concatenate([frames[:3], frames[2:3], frames[3:]], axis=0))
        lips = VertexRegionMask(np.array([0, 1]))
        value = ldtw(gt, pred, lips)
        assert value >= 0.0
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        gt, pred = rand_seq(rng, 6, 4), rand_seq(rng, 6, 4)
        lips = VertexRegionMask(np.array([0, 3]))
        assert ldtw(gt, pred, lips) == pytest.approx(ldtw(pred, gt, lips), abs=1e-12)

    def test_bounded_by_diagonal_path_cost(self):
        # D is at most the diagonal path's cost, LVE's frame-order sum, and
        # the path has at least T steps, so LDTW <= LVE holds in floats too.
        # Noise from far below to far above the frame steps puts the optimal
        # path on the diagonal, next to it and away from it
        rng = np.random.default_rng(3)
        for _ in range(120):
            num_frames, num_lips = int(rng.integers(2, 61)), int(rng.integers(1, 30))
            gt = seq(np.cumsum(rng.normal(0.0, 1.0, (num_frames, num_lips, 3)), axis=0))
            noise = 10.0 ** rng.uniform(-4.0, 1.0)
            pred = seq(gt.frames + rng.normal(0.0, noise, gt.frames.shape))
            lips = VertexRegionMask.full(num_lips)
            assert ldtw(gt, pred, lips) <= evaluate(gt, pred, lips).lve

    def test_equals_lve_on_a_small_constant_offset(self):
        # an offset far below every frame step keeps the optimal path on the
        # diagonal, whose cost per step is the LVE
        rng = np.random.default_rng(4)
        for _ in range(40):
            num_frames, num_lips = int(rng.integers(20, 121)), int(rng.integers(1, 30))
            gt = seq(np.cumsum(rng.normal(0.0, 1.0, (num_frames, num_lips, 3)), axis=0))
            offset = rng.normal(0.0, 1e-3 / num_frames, 3)
            pred = seq(gt.frames + offset)
            lips = VertexRegionMask.full(num_lips)
            result = dtw(gt.frames, pred.frames)
            assert result.path == tuple((t, t) for t in range(num_frames))
            assert ldtw(gt, pred, lips) == evaluate(gt, pred, lips).lve


class TestEvaluate:
    def test_report_consistency(self):
        rng = np.random.default_rng(0)
        gt, pred = rand_seq(rng, 6, 5), rand_seq(rng, 6, 5)
        lips = VertexRegionMask(np.array([0, 2, 4]))
        report = evaluate(gt, pred, lips)
        assert report.ldtw == ldtw(gt, pred, lips)
        assert len(report.per_frame_lve) == 6
        errors = np.linalg.norm(gt.frames - pred.frames, axis=2)
        assert report.fve == pytest.approx(np.mean(errors), abs=1e-9)
        assert report.lve == pytest.approx(np.mean(report.per_frame_lve), abs=1e-9)

    def test_per_frame_lve_is_the_dtw_diagonal(self):
        # each frame's LVE is the local cost DTW gives that pair of frames
        # (a lone cell's cost); the first case has the benchmark's shape
        rng = np.random.default_rng(2)
        for case in range(20):
            num_frames = 120 if case == 0 else int(rng.integers(1, 40))
            num_vertices = 60 if case == 0 else int(rng.integers(1, 65))
            count = 20 if case == 0 else int(rng.integers(1, num_vertices + 1))
            lips = VertexRegionMask(np.sort(rng.choice(num_vertices, count, replace=False)))
            gt, pred = rand_seq(rng, num_frames, num_vertices), rand_seq(rng, num_frames, num_vertices)
            a, b = gt.frames[:, lips.indices], pred.frames[:, lips.indices]
            want = [dtw(a[t : t + 1], b[t : t + 1]).distance for t in range(num_frames)]
            assert evaluate(gt, pred, lips).per_frame_lve.tolist() == want

    def test_frame_errors_peak_memory_is_a_block(self):
        # one block of distances and its lip rows, plus the (3, T) output;
        # whole-track (T, V, 3) temporaries would take 4.3 MB each
        rng = np.random.default_rng(3)
        gt, pred = rand_seq(rng, 3000, 60), rand_seq(rng, 3000, 60)
        lips = VertexRegionMask(np.arange(0, 60, 3))
        tracemalloc.start()
        try:
            metrics._vertex_errors(gt, pred, lips)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * mesh._BLOCK_ELEMENTS * 8 + 3 * 3000 * 8

    def test_zero_iff_identical(self):
        rng = np.random.default_rng(1)
        gt = rand_seq(rng, 4, 3)
        lips = VertexRegionMask.full(3)
        report = evaluate(gt, gt, lips)
        assert (report.fve, report.lve, report.ldtw, report.lip_max) == (0, 0, 0, 0)
        frames = np.asarray(gt.frames).copy()
        frames[2, 1, 0] += 1e-6
        report = evaluate(gt, seq(frames), lips)
        assert report.fve > 0 and report.lve > 0 and report.ldtw > 0 and report.lip_max > 0


class TestTransitionSplit:
    def test_means_over_each_side(self):
        per_frame = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        transition = np.array([False, True, True, False, False])
        assert metrics.transition_split(per_frame, transition) == (2.5, 14.0 / 3.0)

    def test_a_side_without_frames_is_none(self):
        per_frame = np.array([1.0, 2.0])
        assert metrics.transition_split(per_frame, np.array([False, False])) == (None, 1.5)
        assert metrics.transition_split(per_frame, np.array([True, True])) == (1.5, None)

    def test_length_mismatch(self):
        with pytest.raises(ConstraintError, match="^annotation covers 2 frames, sequence has 5$"):
            metrics.transition_split(np.zeros(5), np.array([True, False]))
