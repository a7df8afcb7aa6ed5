"""Command line front end.

Exit codes: 0 success, 1 constraint violation (bad values, divergence,
failed gradient check, out of memory), 2 file or format problem (also
argparse usage).
Results are byte-identical to the corresponding library calls; randomized
commands take an explicit seed and default to 0, never wall-clock entropy.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io, metrics, toytrain
from .coarticulation import (
    LossKind,
    central_difference,
    coarticulation_weights,
    grad_loss_pc,
    grad_loss_rec,
    loss_pc,
    loss_rec,
    relative_gradient_error,
)
from .errors import ConstraintError, FormatError, require_integer
from .mesh import MeshSequence, VertexRegionMask

__all__ = ["main"]


def _emit(report, out: str | None) -> None:
    """CSV to the --out path when given, else to stdout."""
    if out:
        io.write_csv_report(report, out)
    else:
        sys.stdout.write(io.format_csv_report(report))


def _load_lips(path: str | None, num_vertices: int) -> VertexRegionMask:
    if path:
        mask = io.read_mask(path)
        mask.validate_for(num_vertices)
        return mask
    return VertexRegionMask.full(num_vertices)


def _load_config(path: str | None) -> toytrain.TrainConfig:
    if path is None:
        return toytrain.TrainConfig()
    return io.parse_train_config(io.read_text(path))


def _load_annotation(path: str | None):
    return io.read_annotation(path) if path else None


def cmd_weights(args) -> int:
    weights = coarticulation_weights(io.read_msq(args.gt), args.sigma)
    _emit(weights, args.out)
    return 0


def cmd_loss(args) -> int:
    gt = io.read_msq(args.gt)
    pred = io.read_msq(args.pred)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the error raised below
        if args.kind == "pc":
            report = loss_pc(gt, pred, coarticulation_weights(gt, args.sigma))
        else:
            report = loss_rec(gt, pred)
    if not np.isfinite(report.total):  # a sum of terms >= 0: finite iff each term is
        raise ConstraintError("loss is not finite")
    _emit(report, args.out)
    return 0


def cmd_metrics(args) -> int:
    gt = io.read_msq(args.gt)
    pred = io.read_msq(args.pred)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the error raised below
        report = metrics.evaluate(gt, pred, _load_lips(args.lips, gt.num_vertices))
    if not np.isfinite([report.fve, report.lve, report.ldtw, report.lip_max]).all():
        raise ConstraintError("a metric is not finite")
    _emit(report, args.out)
    return 0


def cmd_gen(args) -> int:
    require_integer(args.count, "--count", 1)
    spec = io.parse_synth_spec(io.read_text(args.spec))
    specs = [replace(spec, seed=spec.seed + i) for i in range(args.count)]
    records = io.make_corpus(specs, args.out)
    for record in records:
        print(f"wrote {record.sequence_path} (seed {record.seed})")
    print(f"manifest: {Path(args.out) / 'manifest.txt'}")
    return 0


def cmd_train(args) -> int:
    gt = io.read_msq(args.gt)
    cfg = _load_config(args.config)
    annotation = _load_annotation(args.annot)
    if annotation is not None:
        metrics._require_coverage(len(annotation.labels), gt.num_frames)
    lips = _load_lips(args.lips, gt.num_vertices)
    report = toytrain.fit(gt, cfg)
    pred = report.prediction
    scores = metrics.evaluate(gt, pred, lips)
    summary = {
        "steps": len(report.loss_curve),
        "final_rec": loss_rec(gt, pred).total,
        "final_vel": _velocity_error(gt, pred),
        "final_pc": loss_pc(gt, pred, report.weights).total,
        "fve": scores.fve,
        "lve": scores.lve,
        "ldtw": scores.ldtw,
        "lip_max": scores.lip_max,
    }
    if annotation is not None:
        split = metrics.transition_split(scores.per_frame_lve, annotation.transition_mask())
        for key, value in zip(("lve_transition", "lve_hold"), split):
            if value is not None:
                summary[key] = value
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_csv_report(summary, out_dir / "report.csv")
    io.write_loss_curve(report.loss_curve, out_dir / "loss_curve.csv")
    io.write_msq(pred, out_dir / "pred.msq")
    print(
        f"trained {summary['steps']} steps ({cfg.loss_choice.value} loss): "
        f"rec {summary['final_rec']:.6g}, pc {summary['final_pc']:.6g}, "
        f"lve {summary['lve']:.6g}"
    )
    print(f"outputs in {out_dir}")
    return 0


def _velocity_error(gt: MeshSequence, pred: MeshSequence) -> float:
    """Squared mismatch of the frame-to-frame steps of pred against gt's,
    summed: how much the prediction jitters. A score, not a training loss."""
    a, b = gt.frames, pred.frames
    dv = (a[1:] - a[:-1]) - (b[1:] - b[:-1])
    # summed per step, then over the steps, so report.csv keeps its bytes
    return float(np.sum(dv * dv, axis=(1, 2)).sum())


def cmd_ablate(args) -> int:
    gt = io.read_msq(args.gt)
    cfg = _load_config(args.config)
    sigmas = _parse_sigmas(args.sigmas)
    result = toytrain.ablate_window(
        gt,
        cfg,
        sigmas,
        annotation=_load_annotation(args.annot),
        lips=_load_lips(args.lips, gt.num_vertices),
    )
    sys.stdout.write(io.format_csv_report(result))
    if args.out:
        io.write_csv_report(result, args.out)
    if result.best_sigma is not None:
        best = result.best_sigma
        print(f"best sigma = {best} (lowest lip error among weighted runs)")
        size = 2 * best + 1
        if size == 5:
            print("window size 5 gave the lowest lip error")
        else:
            print(f"window size {size} gave the lowest lip error, not 5")
    return 0


def _parse_sigmas(text: str) -> list[int]:
    try:
        sigmas = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConstraintError(f"bad sigma list: {text!r}") from None
    if not sigmas:
        raise ConstraintError("sigma list is empty")
    return sigmas


def cmd_gradcheck(args) -> int:
    require_integer(args.trials, "--trials", 1)
    require_integer(args.seed, "--seed")
    if not 0 <= args.tolerance < np.inf:  # nan fails both comparisons
        raise ConstraintError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    rng = np.random.default_rng(args.seed)
    worst = dict.fromkeys(("rec", "pc", "toy"), 0.0)
    fps = 30.0

    # a step too large for the arithmetic gives a NaN error, so FAIL below
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(args.trials):
            num_frames = int(rng.integers(3, 9))
            num_vertices = int(rng.integers(1, 5))
            gt = MeshSequence(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)), fps)
            pred = MeshSequence(rng.normal(0.0, 1.0, (num_frames, num_vertices, 3)), fps)
            sigma = int(rng.integers(0, 4))
            weights = coarticulation_weights(gt, sigma)
            num_basis = int(rng.integers(1, num_frames))
            coef = rng.normal(0.0, 1.0, (num_basis, num_vertices, 3))
            loss_choice = LossKind.PC if trial % 2 else LossKind.REC
            cfg = toytrain.TrainConfig(loss_choice, sigma=sigma, steps=1)
            basis = toytrain.temporal_basis(num_frames, num_basis)

            def of_frames(loss, *extra):  # a loss against gt, as a function of the frames
                return lambda frames: loss(gt, MeshSequence(frames, fps), *extra).total

            rec, pc = of_frames(loss_rec), of_frames(loss_pc, weights)
            frame_loss = pc if loss_choice is LossKind.PC else rec

            # the trainer's least-squares objective, as the chosen frame loss of
            # the toy model's basis prediction
            def toy(c):
                return frame_loss(np.tensordot(basis, c, axes=(1, 0)))

            # name: (analytic gradient, scalar function of an array, point)
            cases = {
                "rec": (grad_loss_rec(gt, pred), rec, pred.frames),
                "pc": (grad_loss_pc(gt, pred, weights), pc, pred.frames),
                "toy": (toytrain.objective_and_gradient(gt, coef, cfg)[1], toy, coef),
            }
            for name, (analytic, f, x) in cases.items():
                error = relative_gradient_error(analytic, central_difference(f, x, args.step))
                # np.maximum keeps a NaN error, which max() would drop
                worst[name] = float(np.maximum(worst[name], error))

    for name in worst:
        print(f"{name}: worst relative error {worst[name]:.3e} over {args.trials} trials")
    overall = float(np.max(list(worst.values())))
    ok = overall <= args.tolerance  # False for a NaN error
    print(f"worst overall {overall:.3e} (tolerance {args.tolerance:g}): "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process. parse_args leaves it
    unchanged and fills a fresh namespace with the defaults on every call."""
    parser = argparse.ArgumentParser(
        prog="visemekit",
        description="Coarticulation-weighted losses, lip metrics, and a toy trainer "
        "for vertex-animation sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="coarticulation weights of a sequence")
    p.add_argument("--gt", required=True, help="MSQ sequence")
    p.add_argument("--sigma", type=int, default=2, help="window radius (default 2)")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("loss", help="loss between two sequences")
    p.add_argument("--gt", required=True, help="ground-truth MSQ")
    p.add_argument("--pred", required=True, help="predicted MSQ")
    p.add_argument("--kind", required=True, choices=["rec", "pc"])
    p.add_argument("--sigma", type=int, default=2, help="window radius for pc")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("metrics", help="FVE, LVE, LDTW, Lip-max between two sequences")
    p.add_argument("--gt", required=True, help="ground-truth MSQ")
    p.add_argument("--pred", required=True, help="predicted MSQ")
    p.add_argument("--lips", required=True, help="lip mask file")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("gen", help="generate a synthetic corpus from a spec file")
    p.add_argument("--spec", required=True, help="synthesis spec (key = value text)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=1,
                   help="number of tracks; track i uses seed spec.seed + i")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="fit the toy model to a sequence")
    p.add_argument("--gt", required=True, help="ground-truth MSQ")
    p.add_argument("--out", required=True,
                   help="directory for report.csv, loss_curve.csv, pred.msq")
    p.add_argument("--config", help="train config file (key = value text)")
    p.add_argument("--annot", help="annotation CSV for transition/hold error split")
    p.add_argument("--lips", help="lip mask file (default: all vertices)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="sweep the window radius, with an unweighted baseline")
    p.add_argument("--gt", required=True, help="ground-truth MSQ")
    p.add_argument("--sigmas", default="0,1,2,3,4,5", help="comma-separated radii")
    p.add_argument("--config", help="train config file (loss field is ignored)")
    p.add_argument("--annot", help="annotation CSV for transition/hold error split")
    p.add_argument("--lips", help="lip mask file (default: all vertices)")
    p.add_argument("--out", help="also write the table to this CSV path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--step", type=float, default=1e-4, help="central-difference step")
    p.add_argument("--tolerance", type=float, default=1e-4,
                   help="max allowed relative error")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
