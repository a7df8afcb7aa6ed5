"""Coarticulation-aware losses and lip metrics for vertex animation.

The package turns a ground-truth vertex sequence into per-frame attention:
windowed motion energy, softmax-normalized, weighting the reconstruction
error so frames with fast lip motion (viseme transitions) count more.
Alongside the losses it ships the evaluation metrics (FVE, LVE, LDTW,
Lip-max), a synthetic viseme-track generator, and a deliberately
under-capacity toy model for demonstrating what the weighting buys.
"""

from .coarticulation import (
    BoundaryPolicy,
    CoarticulationWeights,
    LossKind,
    LossReport,
    WindowSpec,
    coarticulation_weights,
    finite_difference_gradient,
    grad_loss_pc,
    grad_loss_rec,
    grad_loss_vel,
    loss_pc,
    loss_rec,
    loss_vel,
    relative_gradient_error,
    strict_frame_range,
)
from .errors import ConstraintError, DivergenceError, FormatError, VisemekitError
from .io import (
    CorpusRecord,
    format_csv_report,
    format_synth_spec,
    format_train_config,
    make_corpus,
    parse_synth_spec,
    parse_train_config,
    read_annotation,
    read_mask,
    read_msq,
    read_text,
    spec_hash,
    write_annotation,
    write_csv_report,
    write_loss_curve,
    write_msq,
)
from .mesh import MeshSequence, VertexRegionMask, frame_difference_norms
from .metrics import DtwResult, MetricReport, dtw, evaluate, ldtw, transition_split
from .synth import SegmentAnnotation, SynthSpec, demo_spec, gen_viseme_track, inject_jitter
from .toytrain import (
    AblationResult,
    AblationRow,
    TrainConfig,
    TrainReport,
    ablate_window,
    fit,
    objective_and_gradient,
    temporal_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPolicy",
    "CoarticulationWeights",
    "LossKind",
    "LossReport",
    "WindowSpec",
    "coarticulation_weights",
    "finite_difference_gradient",
    "grad_loss_pc",
    "grad_loss_rec",
    "grad_loss_vel",
    "loss_pc",
    "loss_rec",
    "loss_vel",
    "relative_gradient_error",
    "strict_frame_range",
    "ConstraintError",
    "DivergenceError",
    "FormatError",
    "VisemekitError",
    "format_csv_report",
    "format_synth_spec",
    "format_train_config",
    "parse_synth_spec",
    "parse_train_config",
    "read_annotation",
    "read_mask",
    "read_msq",
    "read_text",
    "write_annotation",
    "write_csv_report",
    "write_loss_curve",
    "write_msq",
    "CorpusRecord",
    "make_corpus",
    "spec_hash",
    "MeshSequence",
    "VertexRegionMask",
    "frame_difference_norms",
    "DtwResult",
    "MetricReport",
    "dtw",
    "evaluate",
    "ldtw",
    "transition_split",
    "SegmentAnnotation",
    "SynthSpec",
    "demo_spec",
    "gen_viseme_track",
    "inject_jitter",
    "AblationResult",
    "AblationRow",
    "TrainConfig",
    "TrainReport",
    "ablate_window",
    "fit",
    "objective_and_gradient",
    "temporal_basis",
    "__version__",
]
