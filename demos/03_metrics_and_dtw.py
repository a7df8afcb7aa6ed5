"""Evaluation metrics, including the warping-based one.

FVE and LVE are plain per-vertex errors. LDTW aligns the two lip
trajectories first, so a prediction that lags the ground truth by a few
frames scores far better on LDTW than on LVE.
"""

import numpy as np

from visemekit import MeshSequence, VertexRegionMask, dtw, evaluate, format_csv_report

frames = np.zeros((20, 4, 3))
frames[8:, :, 0] = 1.0
gt = MeshSequence(frames, fps=30.0)

lagged = np.zeros_like(frames)
lagged[11:, :, 0] = 1.0  # same motion, three frames late
lagged += np.random.default_rng(0).normal(0.0, 0.01, lagged.shape)  # and a little noise
pred = MeshSequence(lagged, fps=30.0)

lips = VertexRegionMask(np.array([0, 1]), region_name="lips")
report = evaluate(gt, pred, lips)
print(format_csv_report(report), end="")
print(f"LVE {report.lve:.4f} vs LDTW {report.ldtw:.4f}: warping forgives the lag")

# dtw on the lip frames is the alignment behind LDTW: its cost per path step
result = dtw(np.take(frames, lips.indices, axis=1), np.take(lagged, lips.indices, axis=1))
assert result.distance / result.path_length == report.ldtw
print(f"alignment path has {len(result.path)} steps, total cost {result.distance:.4f}")
print("first steps of the path:", result.path[:6])
