"""Span tracing of visemekit's public functions, from outside the package.

`Tracer.install` replaces each listed function at every module attribute
that names it (so `toytrain.coarticulation_weights` is traced as well as
`coarticulation.coarticulation_weights`) and `uninstall` puts the
originals back. Spans (name, start, end, parent, op id) are kept in memory
and written out once at the end. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SPANS = (
    "cli.main",
    "io.read_msq", "io.write_msq", "io.read_annotation", "io.write_annotation",
    "io.read_mask", "io.parse_train_config", "io.parse_synth_spec",
    "io.format_csv_report", "io.write_loss_curve",
    "toytrain.fit", "toytrain.objective_and_gradient", "toytrain.predict",
    "toytrain.temporal_basis",
    "coarticulation.coarticulation_weights", "coarticulation.loss_rec",
    "coarticulation.loss_pc", "coarticulation.grad_loss_rec",
    "coarticulation.grad_loss_pc",
    "metrics.evaluate", "metrics.ldtw", "metrics.dtw",
    "synth.make_corpus", "synth.gen_viseme_track", "synth.spec_hash",
    "mesh.frame_difference_norms", "mesh.as_frames", "mesh.require_same_shape",
)

READS = ("io.read_msq", "io.read_annotation", "io.read_mask")
WRITES = ("io.write_msq", "io.write_annotation", "io.write_loss_curve")

COUNTS = (
    "io.bytes_read", "io.bytes_written", "metrics.dtw.cells",
    "coarticulation.frames_weighted", "synth.frames_generated",
)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_work(name, args, kwargs, result, counts) -> None:
    """Work done by one call, measured at the span boundary."""
    if name in READS:
        counts["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    elif name in WRITES:
        counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif name == "metrics.dtw":
        counts["metrics.dtw.cells"] += len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b"))
    elif name == "coarticulation.coarticulation_weights":
        counts["coarticulation.frames_weighted"] += len(result.weights)
    elif name == "synth.gen_viseme_track":
        counts["synth.frames_generated"] += len(result[0].frames)


class Tracer:
    def __init__(self):
        self.names: list[str] = list(SPANS)
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op_id = -1
        self.active = False
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn):
        name = self.names[nid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            _count_work(name, args, kwargs, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for nid, name in enumerate(self.names):
            module_name, attr = name.split(".", 1)
            fn = getattr(sys.modules.get(f"visemekit.{module_name}"), attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            originals[id(fn)] = (fn, self._wrap(nid, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "visemekit" and not module_name.startswith("visemekit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int16),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(arrays: dict[str, np.ndarray], names: list[str], ops: set[int]) -> dict[str, float]:
    """Per-span calls, total and self milliseconds over the spans of `ops`,
    plus toytrain.steps (objective evaluations made by fit)."""
    dur = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    keep = np.isin(arrays["op"], list(ops))
    out: dict[str, float] = {}
    for nid, name in enumerate(names):
        sel = keep & (arrays["name_id"] == nid)
        out[f"{name}.calls"] = float(sel.sum())
        out[f"{name}.total_ms"] = float(dur[sel].sum() * 1e3)
        out[f"{name}.self_ms"] = float(self_time[sel].sum() * 1e3)
    fit_id = names.index("toytrain.fit")
    step_id = names.index("toytrain.objective_and_gradient")
    steps = keep & (arrays["name_id"] == step_id) & has_parent
    steps &= arrays["name_id"][np.where(has_parent, parent, 0)] == fit_id
    out["toytrain.steps"] = float(steps.sum())
    # time of fit's loop: fit's own time plus the objective calls it made
    out["toytrain.loop_ms"] = out["toytrain.fit.self_ms"] + float(dur[steps].sum() * 1e3)
    return out
