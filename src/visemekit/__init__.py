"""Coarticulation-aware losses and lip metrics for vertex animation.

The package turns a ground-truth vertex sequence into per-frame attention:
windowed motion energy, softmax-normalized, weighting the reconstruction
error so frames with fast lip motion (viseme transitions) count more.
Alongside the losses it ships the evaluation metrics (FVE, LVE, LDTW,
Lip-max), a synthetic viseme-track generator, and a deliberately
under-capacity toy model for demonstrating what the weighting buys.

Each module's `__all__` is its list of public names; the package republishes
them (all but `cli`, the command).
"""

from . import coarticulation, errors, io, mesh, metrics, synth, toytrain
from .coarticulation import *
from .errors import *
from .io import *
from .mesh import *
from .metrics import *
from .synth import *
from .toytrain import *

__version__ = "0.1.0"

__all__ = [
    *coarticulation.__all__,
    *errors.__all__,
    *io.__all__,
    *mesh.__all__,
    *metrics.__all__,
    *synth.__all__,
    *toytrain.__all__,
    "__version__",
]
