import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from visemekit import metrics
from visemekit import (
    ConstraintError,
    MeshSequence,
    VertexRegionMask,
    dtw,
    evaluate,
    ldtw,
)


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


class TestDtw:
    def test_identical_sequences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 1.0, (5, 3))
        result = dtw(a, a)
        assert result.distance == 0.0
        assert result.path == tuple((i, i) for i in range(5))
        assert result.path_length == 5

    def test_repeated_frame(self):
        result = dtw(np.zeros((1, 1)), np.zeros((2, 1)))
        assert result.distance == 0.0
        assert result.path == ((0, 0), (0, 1))

    def test_tie_break_prefers_diagonal(self):
        # all-zero costs: every path is optimal, backtrack must take diagonals
        result = dtw(np.zeros((3, 1)), np.zeros((3, 1)))
        assert result.path == ((0, 0), (1, 1), (2, 2))

    def test_empty_input(self):
        with pytest.raises(ConstraintError):
            dtw(np.zeros((0, 1)), np.zeros((2, 1)))

    def test_dimension_mismatch(self):
        with pytest.raises(ConstraintError):
            dtw(np.zeros((2, 2)), np.zeros((2, 3)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        a = rng.normal(0.0, 1.0, (n, dim))
        b = rng.normal(0.0, 1.0, (m, dim))
        table = [[float(np.linalg.norm(a[i] - b[j])) for j in range(m)] for i in range(n)]
        result = dtw(a, b)
        assert abs(result.distance - oracles.dtw_exhaustive(table)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_path_is_monotone_and_anchored(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.normal(0.0, 1.0, (n, 2))
        b = rng.normal(0.0, 1.0, (m, 2))
        path = dtw(a, b).path
        assert path[0] == (0, 0)
        assert path[-1] == (n - 1, m - 1)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))


def raveled_norm(x, y):
    return float(np.linalg.norm(np.ravel(x) - np.ravel(y)))


def mean_vertex_norm(x, y):
    return float(np.linalg.norm(x - y, axis=1).mean())


def oracle_cases(rng, count):
    """Random DTW inputs, lengths 1-40: (V, 3) frames, then the same as 1-D
    features, with every third case made tie-heavy (values rounded to 0.5,
    so every local cost is exact) and every seventh all zeros."""
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
        yield a[:, 0, 0], b[:, 0, 0]


class TestDtwKernel:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(20)
        for a, b in oracle_cases(rng, 60):
            distance, path = oracles.dtw_loop(a, b, raveled_norm)
            result = dtw(a, b)
            assert result.path == path
            assert abs(result.distance - distance) <= 1e-12

    def test_ldtw_equals_loop_oracle_exactly(self):
        rng = np.random.default_rng(21)
        for a, b in oracle_cases(rng, 60):
            if a.ndim == 1:
                continue
            lips = VertexRegionMask.full(a.shape[1])
            distance, path = oracles.dtw_loop(a, b, mean_vertex_norm)
            assert ldtw(seq(a), seq(b), lips) == distance / len(path)

    def test_cost_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(22)
        a = rng.normal(0.0, 1.0, (17, 3, 3))
        b = rng.normal(0.0, 1.0, (13, 3, 3))
        lips = VertexRegionMask(np.array([0, 2]))
        whole = (dtw(a, b), dtw(a[:, 0, 0], b[:, 0, 0]), ldtw(seq(a), seq(b), lips))
        # a tiny budget forces several blocks, down to one row per block
        for budget in (5, 50, 200):
            monkeypatch.setattr(metrics, "_COST_BLOCK_ELEMENTS", budget)
            blocked = (dtw(a, b), dtw(a[:, 0, 0], b[:, 0, 0]), ldtw(seq(a), seq(b), lips))
            assert blocked == whole

    def test_block_cost_contract(self):
        # a custom cost receives a row block of a and all of b
        seen = []

        def cost(rows, b):
            seen.append((rows.shape, b.shape))
            return np.abs(rows[:, None] - b[None, :])

        result = dtw(np.arange(4.0), np.arange(3.0), cost)
        assert seen == [((4,), (3,))]
        assert result.distance == 1.0
        assert result.path == ((0, 0), (1, 1), (2, 2), (3, 2))


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
        rng = np.random.default_rng(3)
        for _ in range(10):
            gt, pred = rand_seq(rng, 6, 4), rand_seq(rng, 6, 4)
            lips = VertexRegionMask(np.array([1, 2]))
            g = np.asarray(gt.frames)[:, lips.indices]
            p = np.asarray(pred.frames)[:, lips.indices]
            diag_costs = [
                float(np.mean(np.linalg.norm(g[t] - p[t], axis=-1))) for t in range(6)
            ]
            assert ldtw(gt, pred, lips) <= np.mean(diag_costs) + 1e-12


class TestEvaluate:
    def test_report_consistency(self):
        rng = np.random.default_rng(0)
        gt, pred = rand_seq(rng, 6, 5), rand_seq(rng, 6, 5)
        lips = VertexRegionMask(np.array([0, 2, 4]))
        report = evaluate(gt, pred, lips)
        assert report.ldtw == ldtw(gt, pred, lips)
        assert len(report.per_frame_fve) == 6
        assert len(report.per_frame_lve) == 6
        assert report.fve == pytest.approx(np.mean(report.per_frame_fve), abs=1e-9)
        assert report.lve == pytest.approx(np.mean(report.per_frame_lve), abs=1e-9)
        # the single largest lip error over the whole sequence
        assert report.lip_max_global >= report.lip_max - 1e-15

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
