"""Loop-based reference implementations for the test suite.

Everything here is deliberately independent of the package: plain Python
loops over nested lists, 1-based frame arithmetic where the definitions are
1-based, and exhaustive enumeration instead of dynamic programming. Slow on
purpose; only run on small instances. The track renderer keeps numpy for its
cosine and frame arithmetic, because the package's render must match it byte
for byte, and the gradient-descent loops keep numpy for their matrix products.
The exact descent works in rational arithmetic and needs neither.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np


def softmax(values):
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def step_sq_norms(frames):
    """||v^k - v^(k-1)||^2 for k = 2..T (1-based); entry [k-2]."""
    out = []
    for k in range(1, len(frames)):
        acc = 0.0
        for i in range(len(frames[0])):
            for c in range(3):
                d = float(frames[k][i][c]) - float(frames[k - 1][i][c])
                acc += d * d
        out.append(acc)
    return out


def window_energy_clamp(frames, t1, sigma):
    """Mean step norm over the window around 1-based frame t1, endpoints
    clamped into the feasible step range k in [2, T]."""
    return window_energy_loop(step_sq_norms(frames), t1, sigma)


def window_energy_loop(steps, t1, sigma):
    """window_energy_clamp from the step norms (entry k-2 is step k), added
    left to right in one plain loop: Python's sum() of floats compensates
    from 3.12 on, so it is no left-to-right reference."""
    num_frames = len(steps) + 1
    lo = min(max(t1 - sigma, 2), num_frames)
    hi = min(max(t1 + sigma, 2), num_frames)
    total = 0.0
    for k in range(lo, hi + 1):
        total += steps[k - 2]
    return total / (hi - lo + 1)


def window_energy_strict(frames, t1, sigma):
    """Untruncated window; only defined for t1 in [1+sigma, T-sigma] and
    raises when the window (intersected with k >= 2) is empty."""
    num_frames = len(frames)
    if not 1 + sigma <= t1 <= num_frames - sigma:
        raise ValueError(f"t1={t1} outside strict domain")
    ks = [k for k in range(t1 - sigma, t1 + sigma + 1) if k >= 2]
    if not ks:
        raise ValueError("empty window")
    steps = step_sq_norms(frames)
    return sum(steps[k - 2] for k in ks) / len(ks)


def weights_clamp(frames, sigma):
    num_frames = len(frames)
    return softmax([window_energy_clamp(frames, t, sigma) for t in range(1, num_frames + 1)])


def loss_rec(gt, pred):
    total = 0.0
    per_frame = []
    for t in range(len(gt)):
        acc = 0.0
        for i in range(len(gt[0])):
            for c in range(3):
                d = float(gt[t][i][c]) - float(pred[t][i][c])
                acc += d * d
        per_frame.append(acc)
        total += acc
    return total, per_frame


def loss_vel(gt, pred):
    total = 0.0
    per_frame = []
    for t in range(1, len(gt)):
        acc = 0.0
        for i in range(len(gt[0])):
            for c in range(3):
                dg = float(gt[t][i][c]) - float(gt[t - 1][i][c])
                dp = float(pred[t][i][c]) - float(pred[t - 1][i][c])
                acc += (dg - dp) ** 2
        per_frame.append(acc)
        total += acc
    return total, per_frame


def loss_pc(gt, pred, weights):
    _, per_frame = loss_rec(gt, pred)
    return sum(w * e for w, e in zip(weights, per_frame))


def vertex_error(gt_frame, pred_frame, i):
    acc = 0.0
    for c in range(3):
        d = float(gt_frame[i][c]) - float(pred_frame[i][c])
        acc += d * d
    return math.sqrt(acc)


def fve(gt, pred):
    frame_means = []
    for t in range(len(gt)):
        errs = [vertex_error(gt[t], pred[t], i) for i in range(len(gt[0]))]
        frame_means.append(sum(errs) / len(errs))
    return sum(frame_means) / len(frame_means)


def lve(gt, pred, lip_indices):
    frame_means = []
    for t in range(len(gt)):
        errs = [vertex_error(gt[t], pred[t], i) for i in lip_indices]
        frame_means.append(sum(errs) / len(errs))
    return sum(frame_means) / len(frame_means)


def lip_max(gt, pred, lip_indices):
    frame_maxes = []
    for t in range(len(gt)):
        frame_maxes.append(max(vertex_error(gt[t], pred[t], i) for i in lip_indices))
    return sum(frame_maxes) / len(frame_maxes)


def enumerate_paths(n, m):
    """Every monotone path from (0,0) to (n-1,m-1) with steps right/down/diag."""
    if n == 1 and m == 1:
        yield [(0, 0)]
        return
    if n > 1:
        for path in enumerate_paths(n - 1, m):
            yield path + [(n - 1, m - 1)]
    if m > 1:
        for path in enumerate_paths(n, m - 1):
            yield path + [(n - 1, m - 1)]
    if n > 1 and m > 1:
        for path in enumerate_paths(n - 1, m - 1):
            yield path + [(n - 1, m - 1)]


def dtw_exhaustive(cost_table):
    """Minimum path sum over every monotone path, by brute enumeration."""
    n, m = len(cost_table), len(cost_table[0])
    best = math.inf
    for path in enumerate_paths(n, m):
        total = sum(cost_table[i][j] for i, j in path)
        best = min(best, total)
    return best


def dtw_loop(a, b, cost):
    """Classic DTW, one cell at a time: cost(a[i], b[j]) scores one pair.

    The accumulated table is filled row by row with
    D[i][j] = cost + min(D[i-1][j-1], D[i-1][j], D[i][j-1]), and the path is
    backtracked with the tie-break diagonal, then vertical (advance a), then
    horizontal (advance b). Returns (distance, path).
    """
    n, m = len(a), len(b)
    acc = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            local = cost(a[i], b[j])
            if i == 0 and j == 0:
                acc[i][j] = local
            elif i == 0:
                acc[i][j] = local + acc[i][j - 1]
            elif j == 0:
                acc[i][j] = local + acc[i - 1][j]
            else:
                acc[i][j] = local + min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1])

    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1])
            if acc[i - 1][j - 1] == best:
                i, j = i - 1, j - 1
            elif acc[i - 1][j] == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return acc[n - 1][m - 1], tuple(path)


def _blend_factor(u, lo, hi):
    # Raised-cosine ramp from 0 at lo to 1 at hi; 1/2 at the midpoint.
    if hi <= lo:
        return 0.0 if u < 0.5 * (lo + hi) else 1.0
    if u <= lo:
        return 0.0
    if u >= hi:
        return 1.0
    return 0.5 * (1.0 - np.cos(np.pi * (u - lo) / (hi - lo)))


def render_loop(spec):
    """Render a synthesis spec one frame at a time, without validation or
    jitter. Frames up to the first anchor copy its shape, frames from the last
    anchor on copy the last shape, and every frame in between blends the two
    anchors around it. Returns the (T, V, 3) clean frames and the labels.
    """
    times = [t for t, _ in spec.viseme_targets]
    shapes = [
        np.asarray(spec.shape_bank[sid], dtype=np.float64)
        for _, sid in spec.viseme_targets
    ]
    ids = [sid for _, sid in spec.viseme_targets]

    num_frames = int(round(times[-1] * spec.fps)) + 1
    frames = np.empty((num_frames, spec.num_vertices, 3))
    labels = []
    for f in range(num_frames):
        u = f / spec.fps
        if u <= times[0]:
            frames[f] = shapes[0]
            labels.append(ids[0])
            continue
        if u >= times[-1]:
            frames[f] = shapes[-1]
            labels.append(ids[-1])
            continue
        seg = int(np.searchsorted(times, u, side="right")) - 1
        mid = 0.5 * (times[seg] + times[seg + 1])
        half = min(spec.blend_halfwidth, 0.5 * (times[seg + 1] - times[seg]))
        alpha = _blend_factor(u, mid - half, mid + half)
        frames[f] = (1.0 - alpha) * shapes[seg] + alpha * shapes[seg + 1]
        if 0.0 < alpha < 1.0:
            labels.append("transition")
        else:
            labels.append(ids[seg] if alpha == 0.0 else ids[seg + 1])
    return frames, labels


class LoopDiverged(ArithmeticError):
    """The loop's objective became non-finite at `step`."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"loss became non-finite at step {step}")


def quadratic_form(basis, w, targets):
    """The toy objective as normal equations, f(C) = <C, G C> - 2 <C, R> + c0.

    With the basis B (T, K), the flattened targets Y (T, 3V) and per-frame
    weights w, G = B^T diag(w) B, R = B^T diag(w) Y and c0 = <Y, diag(w) Y>.
    Returns (G, R, c0).
    """
    basis = np.asarray(basis, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    gram = basis.T @ (w[:, None] * basis)
    rhs = basis.T @ (w[:, None] * targets)
    offset = float(w @ np.sum(targets * targets, axis=1))
    return gram, rhs, offset


def fit_loop(gram, rhs, offset, coef0, learning_rate, steps):
    """Plain gradient descent on f(C) = <C, G C> - 2 <C, R> + c0, one step at a
    time from the flattened coefficients coef0 (K, 3V): record f, then take
    C <- C - 2 lr (G C - R). Returns the (steps,) loss curve and the final
    coefficients; raises LoopDiverged at the first non-finite objective.
    """
    flat = np.array(coef0, dtype=np.float64)
    curve = np.empty(steps)
    step_size = 2.0 * learning_rate
    for step in range(steps):
        residual = gram @ flat - rhs
        total = float(np.vdot(flat, residual - rhs)) + offset
        if not math.isfinite(total):
            raise LoopDiverged(step)
        curve[step] = total
        flat -= step_size * residual
    return curve, flat


def fit_exact(basis, w, targets, coef0, learning_rate, steps):
    """Gradient descent on the toy objective in exact rational arithmetic.

    Every input is a float or nested lists of floats (basis B (T, K),
    weights w (T,), flattened targets Y (T, P), coefficients coef0 (K, P)),
    converted exactly to Fraction. Each step records f(C) from its
    definition, with the frame residuals E = B C - Y,
        f(C) = sum_t w_t |E_t|^2,
    then takes C <- C - lr grad f(C). Returns the loss curve and the final
    coefficients as Fractions.
    """
    B = [[Fraction(float(x)) for x in row] for row in basis]
    Y = [[Fraction(float(x)) for x in row] for row in targets]
    C = [[Fraction(float(x)) for x in row] for row in coef0]
    W = [Fraction(float(x)) for x in w]
    lr = Fraction(float(learning_rate))
    T, K, P = len(B), len(B[0]), len(Y[0])
    curve = []
    for _ in range(steps):
        E = [[sum(B[t][k] * C[k][j] for k in range(K)) - Y[t][j] for j in range(P)]
             for t in range(T)]
        curve.append(sum(W[t] * sum(e * e for e in E[t]) for t in range(T)))
        grad = [[2 * sum(W[t] * E[t][j] * B[t][k] for t in range(T)) for j in range(P)]
                for k in range(K)]
        C = [[C[k][j] - lr * grad[k][j] for j in range(P)] for k in range(K)]
    return curve, C


def fit_loop_longdouble(basis, w, targets, coef0, learning_rate, steps):
    """The descent of fit_exact in numpy's long double (80-bit extended on
    x86): each step records f(C) from the frame residuals E = B C - Y, then
    takes C <- C - lr grad f(C). Summing non-negative terms instead of
    cancelling against c0 keeps f's digits after it has fallen by many
    orders of magnitude. Returns the long-double curve and coefficients.
    """
    ld = np.longdouble
    B, Y = np.asarray(basis, dtype=ld), np.asarray(targets, dtype=ld)
    W, C = np.asarray(w, dtype=ld)[:, None], np.array(coef0, dtype=ld)
    lr = ld(learning_rate)
    curve = np.empty(steps, dtype=ld)
    for step in range(steps):
        E = B @ C - Y
        curve[step] = np.sum(W * E * E)
        C -= 2 * lr * (B.T @ (W * E))
    return curve, C


def csv_rows_loop(header, first, columns, tail=()):
    """The per-row CSV renderer: the header, then one row per index i with
    str(first + i) and format(v, ".9g") of each column's i-th value, then the
    `tail` rows; comma-joined, a newline after every row."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        cells = [str(first + i)]
        for column in columns:
            cells.append(format(float(column[i]), ".9g"))
        lines.append(",".join(cells))
    for row in tail:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def annotation_rows_loop(labels, flags):
    """The per-row annotation writer: a csv.writer header, then one writerow
    of [frame, label, int(flag)] per frame, 1-based, newline-terminated."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["frame", "label", "high_motion"])
    for i, label in enumerate(labels):
        writer.writerow([i + 1, label, int(flags[i])])
    return out.getvalue()
