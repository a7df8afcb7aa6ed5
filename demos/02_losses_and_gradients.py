"""The two training losses on the same prediction error.

The reconstruction loss charges every frame equally, and the weighted loss
charges most where the ground truth moves most. The weighted loss's analytic
gradient is checked against central finite differences at the end:
`central_difference` probes it as a function of the predicted frames alone.
"""

import numpy as np

from visemekit import (
    MeshSequence,
    central_difference,
    coarticulation_weights,
    grad_loss_pc,
    loss_pc,
    loss_rec,
    relative_gradient_error,
)

rng = np.random.default_rng(0)

frames = np.zeros((10, 2, 3))
frames[5:, :, 0] = 1.0  # a single sharp transition
gt = MeshSequence(frames, fps=30.0)
pred = MeshSequence(frames + rng.normal(0.0, 0.05, frames.shape), fps=30.0)

rec = loss_rec(gt, pred)
weights = coarticulation_weights(gt, 2)
pc = loss_pc(gt, pred, weights)

print(f"rec total {rec.total:.6f}  pc total {pc.total:.6f}")
print("frame  rec_loss   pc_loss    weight")
for i in range(gt.num_frames):
    print(
        f"{i + 1:5d}  {rec.per_frame[i]:.6f}  {pc.per_frame[i]:.6f}  "
        f"{weights.weights[i]:.4f}"
    )

analytic = grad_loss_pc(gt, pred, weights)
numeric = central_difference(
    lambda frames: loss_pc(gt, MeshSequence(frames, fps=30.0), weights).total,
    pred.frames,
    step=1e-4,
)
print(f"pc gradient vs finite differences: {relative_gradient_error(analytic, numeric):.2e}")
