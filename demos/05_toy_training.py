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
    fit,
    gen_viseme_track,
)

track, annotation = gen_viseme_track(demo_spec(seed=0))
lips = VertexRegionMask(np.arange(20), region_name="lips")

reports = {}
for kind in (LossKind.REC, LossKind.PC):
    cfg = TrainConfig(
        loss_choice=kind,
        sigma=2,
        learning_rate=0.2,
        steps=1200,
        seed=0,
        num_basis=30,
    )
    report = fit(track, cfg, annotation=annotation, lips=lips)
    reports[kind] = report
    print(
        f"{kind.value:>3s}: final rec {report.final_rec:8.3f}  "
        f"lve {report.metrics.lve:.4f}  "
        f"transition lve {report.lve_transition:.4f}  "
        f"hold lve {report.lve_hold:.4f}"
    )

rec = reports[LossKind.REC].lve_transition
pc = reports[LossKind.PC].lve_transition
print(f"transition lip error: {(rec - pc) / rec:+.1%} for the weighted loss")
print("the weighted model gives ground elsewhere; that is the trade")
