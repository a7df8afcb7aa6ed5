"""What one op of each workload runs, what it writes and how it is checked.

An op is a short list of `visemekit` command lines, driven in-process
through `visemekit.cli.main`. `observe` reads the op's outputs back with the
benchmark's own parsers into a flat dict of numbers. Checks are of two kinds:
invariants computed from the inputs by this file (independent of visemekit),
and agreement with the values recorded on the commit that defined the
benchmark (reference.json).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import gen_inputs as gi

# CSV values carry 9 significant digits. A change in reduction order moves
# a result by ~1e-15 relative, which can flip the last printed digit: up
# to 1e-8 relative. RTOL leaves ten times that, and fails anything larger.
RTOL = 1e-7
ATOL = 1e-12


def command_lines(workload: str, op: gi.Op, out: Path) -> list[list[str]]:
    files = {name: str(path) for name, path in op.item.files.items()}
    if workload == "train_sweep":
        return [[
            "train", "--gt", files["gt"], "--out", str(out),
            "--config", files[f"cfg_{op.grid_point}"],
            "--annot", files["annot"], "--lips", files["lips"],
        ]]
    if workload == "corpus_prep":
        lines = [["gen", "--spec", files["spec"], "--out", str(out)]]
        lines += [
            ["weights", "--gt", str(out / "track000.msq"), "--sigma", str(s),
             "--out", str(out / f"w{s}.csv")]
            for s in gi.CORPUS_SIGMAS
        ]
        return lines
    raise ValueError(f"unknown workload {workload!r}")


def output_files(workload: str, out: Path) -> list[Path]:
    """Files an op must (re)write; removed before each op so none is stale."""
    if workload == "train_sweep":
        return [out / "report.csv", out / "loss_curve.csv", out / "pred.msq"]
    names = ["track000.msq", "track000.ann.csv", "manifest.txt"]
    names += [f"w{s}.csv" for s in gi.CORPUS_SIGMAS]
    return [out / name for name in names]


# -- reading outputs -------------------------------------------------------------


def _frame_stats(prefix: str, frames: np.ndarray) -> dict[str, float]:
    flat = frames.ravel()
    probe = np.cos(np.arange(flat.size) * 0.7548776662466927)
    return {
        f"{prefix}_sum": float(flat.sum()),
        f"{prefix}_sumsq": float(flat @ flat),
        f"{prefix}_proj": float(flat @ probe),
    }


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def observe(workload: str, op: gi.Op, out: Path) -> dict[str, float]:
    if workload == "train_sweep":
        obs = {key: float(value) for key, value in _csv_rows(out / "report.csv")[1:]}
        curve = np.array([float(row[1]) for row in _csv_rows(out / "loss_curve.csv")[1:]])
        obs.update(curve_len=float(len(curve)), curve_first=float(curve[0]),
                   curve_last=float(curve[-1]))
        pred, _ = gi.decode_msq((out / "pred.msq").read_bytes())
        obs.update(_frame_stats("pred", pred))
        return obs
    track, fps = gi.decode_msq((out / "track000.msq").read_bytes())
    obs = {"frames": float(track.shape[0]), "vertices": float(track.shape[1]), "fps": fps}
    obs.update(_frame_stats("track", track))
    ann = _csv_rows(out / "track000.ann.csv")[1:]
    obs["ann_rows"] = float(len(ann))
    obs["ann_transition"] = float(sum(row[1] == "transition" for row in ann))
    obs["ann_high_motion"] = float(sum(row[2] == "1" for row in ann))
    manifest = (out / "manifest.txt").read_text().splitlines()
    obs["manifest_records"] = float(len(manifest) - 1)
    # the hash is compared exactly, as text
    obs["spec_sha256"] = manifest[1].split("\t")[3]
    for s in gi.CORPUS_SIGMAS:
        rows = np.array(_csv_rows(out / f"w{s}.csv")[1:], dtype=np.float64)
        frame, raw, weight = rows[:, 0], rows[:, 1], rows[:, 2]
        obs[f"w{s}_rows"] = float(len(rows))
        obs[f"w{s}_frames_in_order"] = float(np.array_equal(frame, np.arange(1, len(rows) + 1)))
        obs[f"w{s}_min"] = float(weight.min())
        obs[f"w{s}_sum"] = float(weight.sum())
        obs[f"w{s}_sumsq"] = float(weight @ weight)
        obs[f"w{s}_raw_sum"] = float(raw.sum())
        obs[f"w{s}_proj"] = float(weight @ np.cos(frame * 0.7548776662466927))
    return obs


# -- checks ----------------------------------------------------------------------


def invariant_failures(workload: str, op: gi.Op, out: Path, obs: dict, vk) -> list[str]:
    """Checks that need no recorded values; `vk` is the imported visemekit."""
    bad = []
    if workload == "train_sweep":
        if obs["steps"] != 1200 or obs["curve_len"] != 1200:
            bad.append(f"expected 1200 steps, report has {obs['steps']}, curve {obs['curve_len']}")
        if not obs["curve_last"] < obs["curve_first"]:
            bad.append(f"loss did not fall: {obs['curve_first']} -> {obs['curve_last']}")
        gt, _ = gi.decode_msq(op.item.files["gt"].read_bytes())
        pred, _ = gi.decode_msq((out / "pred.msq").read_bytes())
        bad += _metric_identities(gt, pred, op.item.meta["lips"], obs)
    else:
        for s in gi.CORPUS_SIGMAS:
            if obs[f"w{s}_rows"] != obs["frames"] or obs[f"w{s}_frames_in_order"] != 1.0:
                bad.append(f"sigma {s}: weights do not cover frames 1..{obs['frames']:.0f}")
            if not obs[f"w{s}_min"] > 0.0:
                bad.append(f"sigma {s}: non-positive weight {obs[f'w{s}_min']}")
            if abs(obs[f"w{s}_sum"] - 1.0) > RTOL:
                bad.append(f"sigma {s}: weights sum to {obs[f'w{s}_sum']!r}")
        if obs["ann_rows"] != obs["frames"] or obs["manifest_records"] != 1:
            bad.append("annotation or manifest does not match the track")
        # MSQ round trip through the program's own reader and writer
        original = (out / "track000.msq").read_bytes()
        again = out / "roundtrip.msq"
        vk.io.write_msq(vk.io.read_msq(out / "track000.msq"), again)
        if again.read_bytes() != original:
            bad.append("MSQ write->read->write round trip is not bit-exact")
        again.unlink()
    return bad


def _metric_identities(gt, pred, lips, obs) -> list[str]:
    """FVE, LVE and Lip-max recomputed here; LDTW bounded by the diagonal
    path, whose cost per step is the LVE for equal-length clips."""
    bad = []
    errors = np.linalg.norm(gt - pred, axis=2)
    lip = errors[:, lips]
    mine = {
        "fve": float(errors.mean(axis=1).mean()),
        "lve": float(lip.mean(axis=1).mean()),
        "lip_max": float(lip.max(axis=1).mean()),
    }
    for key, value in mine.items():
        if not np.isclose(obs[key], value, rtol=RTOL, atol=ATOL):
            bad.append(f"{key} {obs[key]!r} differs from the recomputed {value!r}")
    if not 0.0 <= obs["ldtw"] <= mine["lve"] * (1.0 + RTOL):
        bad.append(f"ldtw {obs['ldtw']!r} outside [0, diagonal cost per step {mine['lve']!r}]")
    return bad


def reference_failures(obs: dict, ref: dict) -> list[str]:
    bad = []
    if set(obs) != set(ref):
        bad.append(f"output keys {sorted(obs)} differ from reference keys {sorted(ref)}")
    for key in sorted(set(obs) & set(ref)):
        got, want = obs[key], ref[key]
        if isinstance(want, str):
            ok = got == want
        else:
            ok = bool(np.isclose(got, want, rtol=RTOL, atol=ATOL))
        if not ok:
            bad.append(f"{key}: got {got!r}, reference {want!r}")
    return bad
