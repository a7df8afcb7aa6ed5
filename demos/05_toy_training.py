"""Does transition weighting actually help? One paired run.

The toy model has 30 basis functions for 120 frames, so it cannot fit
everything and the loss decides where the error goes. Training twice from
the same init, once with the plain reconstruction loss and once with the
weighted one, shows the weighted model spending its capacity on the
transitions.
"""

import numpy as np

from visemekit import (
    LossKind,
    TrainConfig,
    VertexRegionMask,
    demo_spec,
    evaluate,
    fit,
    gen_viseme_track,
    loss_rec,
    transition_split,
)

track, annotation = gen_viseme_track(demo_spec(seed=0))
lips = VertexRegionMask(np.arange(20), region_name="lips")

transition_lve = {}
for kind in (LossKind.REC, LossKind.PC):
    cfg = TrainConfig(
        loss_choice=kind,
        sigma=2,
        learning_rate=0.2,
        steps=1200,
        seed=0,
        num_basis=30,
    )
    pred = fit(track, cfg).prediction
    scores = evaluate(track, pred, lips)
    transition, hold = transition_split(scores.per_frame_lve, annotation.transition_mask())
    transition_lve[kind] = transition
    print(
        f"{kind.value:>3s}: final rec {loss_rec(track, pred).total:8.3f}  "
        f"lve {scores.lve:.4f}  "
        f"transition lve {transition:.4f}  "
        f"hold lve {hold:.4f}"
    )

rec = transition_lve[LossKind.REC]
pc = transition_lve[LossKind.PC]
print(f"transition lip error: {(rec - pc) / rec:+.1%} for the weighted loss")
print("the weighted model gives ground elsewhere; that is the trade")
