"""The visemekit benchmark: one closed-loop client driving the `visemekit` CLI.

    python3 benchmark/run.py --workload train_sweep --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. One process, one thread of our own
and one BLAS thread. Each op is one user command (a few for corpus_prep),
run in-process through `visemekit.cli.main` and checked after it returns. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (see BENCHMARK.json), timed with
tracing off. --trace 1 reruns a fixed block of ops, alternately untraced
and traced, and reports per-span calls, total and self time, work counts,
rates derived from them and the tracing overhead; the spans are saved to
.benchwork/results/. Timings come only from this process and its
set-up children (perf_counter, getrusage): no system-wide tracing, no
cache dropping.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io as stringio
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads OpenBLAS (set-up children inherit
# it). On a 2-vCPU host the idle BLAS worker spins next to the Python thread:
# with the default two threads train_sweep ran ~10% slower and its op_p50_ms
# spread over seeds was three times wider.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import gen_inputs as gi  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

WORKLOADS = ("train_sweep", "corpus_prep")
# Highest percentile with at least ten samples above it at the op count a
# 55 s run reaches on the commit that defined the benchmark, with margin for
# a host running at two thirds of its usual speed (train_sweep ~115 ops,
# corpus_prep ~130; p85 keeps ten samples above it down to 67 ops).
TAIL_PERCENTILE = {"train_sweep": 85, "corpus_prep": 85}
# Ops rerun by each untraced/traced pass pair of a --trace 1 run: one whole
# grid for train_sweep.
TRACE_BLOCK = {"train_sweep": 7, "corpus_prep": 2}
SETUP_PROBES = 5


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def import_visemekit():
    """Import visemekit from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import visemekit
    import visemekit.cli  # noqa: F401

    if Path(visemekit.__file__).resolve().parent != (SRC / "visemekit").resolve():
        raise SystemExit(f"visemekit imported from {visemekit.__file__}, not {SRC}")
    return visemekit


class Runner:
    """Executes and checks ops of one workload in a scratch directory."""

    def __init__(self, workload: str, work: Path, reference: dict | None):
        self.workload = workload
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = reference
        self.vk = None
        self.errors: list[str] = []

    def start(self) -> None:
        self.vk = import_visemekit()

    def execute(self, op: gi.Op, tracer: spans.Tracer | None = None) -> tuple[float, dict | None]:
        """Run one op, traced when a tracer is given and installed; returns
        its latency and its observations (None if it failed)."""
        for path in wl.output_files(self.workload, self.out):
            path.unlink(missing_ok=True)
        lines = wl.command_lines(self.workload, op, self.out)
        failure = None
        if tracer:
            tracer.active = True
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stringio.StringIO()):
                for argv in lines:
                    code = self.vk.cli.main(argv)
                    if code != 0:
                        failure = f"visemekit {argv[0]} exited with {code}"
                        break
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failure = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer:
            tracer.active = False
        obs = None
        if failure is None:
            obs, failure = self.check(op)
        if failure is not None:
            self.errors.append(f"{op.key}: {failure}")
            obs = None
        return dt, obs

    def check(self, op: gi.Op) -> tuple[dict | None, str | None]:
        try:
            obs = wl.observe(self.workload, op, self.out)
            bad = wl.invariant_failures(self.workload, op, self.out, obs, self.vk)
        except Exception as exc:  # unreadable or missing outputs
            return None, f"output check raised {type(exc).__name__}: {exc}"
        if self.reference is not None:
            bad += wl.reference_failures(obs, self.reference["outputs"][op.key])
        return obs, "; ".join(bad) if bad else None


def verify_inputs(schedule: list[gi.Op], reference: dict) -> str:
    """Every input item must match the bytes recorded with the reference."""
    digest = hashlib.sha256()
    seen = set()
    for op in schedule:
        item = op.item
        if item.key not in seen:
            want = reference["inputs"].get(item.key)
            if item.sha256 != want:
                raise SystemExit(f"input {item.key} hashes to {item.sha256}, reference {want}")
            seen.add(item.key)
        digest.update(op.key.encode())
        digest.update(item.sha256.encode())
    return digest.hexdigest()


def measure_setup(workload: str, op: gi.Op, work: Path) -> list[float]:
    """Set-up time samples, each from a fresh process."""
    out = work / "probe"
    out.mkdir(parents=True, exist_ok=True)
    lines = json.dumps(wl.command_lines(workload, op, out))
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), lines],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_facts(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        libdir = Path(np.__file__).parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(next(libdir.glob("libscipy_openblas*.so*"))))
        blas_threads = int(lib.scipy_openblas_get_num_threads64_())
    except (OSError, StopIteration, AttributeError):
        blas_threads = None
    llc = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                llc = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "llc": llc,
        "client": "closed loop, 1 client, 1 thread of our own, ops in-process via visemekit.cli.main",
        "limits": (
            "timings from this process only (perf_counter, getrusage); no system-wide "
            "tracing, no cache dropping; every working set fits in the LLC, so io byte "
            "rates are computed from file sizes and span times, not measured bandwidth"
        ),
    }


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop. It shows how fast the host
    runs at the moment, so host drift can be told apart from a program change."""
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        sum(i * i for i in range(100_000))
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e3


def timed_run(runner: Runner, schedule: list[gi.Op], seconds: float):
    latencies, failed = [], 0
    deadline = perf_counter() + seconds
    k = 0
    while True:
        dt, obs = runner.execute(schedule[k % len(schedule)])
        latencies.append(dt)
        failed += obs is None
        k += 1
        if perf_counter() >= deadline:
            return latencies, failed


def end_to_end(workload: str, latencies: list[float], failed: int, setup: list[float]) -> dict:
    lat = np.array(latencies)
    ok = len(lat) - failed
    tail = TAIL_PERCENTILE[workload]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / lat.sum(),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_tail_ms": float(np.percentile(lat, tail)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": ok / len(lat),
    }


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(runner: Runner, schedule: list[gi.Op], seconds: float, tag: str):
    """Alternate untraced and traced passes over one fixed block of ops."""
    block = schedule[: TRACE_BLOCK[runner.workload]]
    tracer = spans.Tracer()
    passes = []  # (op ids, work counts) of each traced pass
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    op_id = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        for op in block:
            dt, obs = runner.execute(op)
            untraced_s += dt
            attempted += 1
            failed += obs is None
        counts_before = dict(tracer.counts)
        ids = set()
        tracer.install()
        try:
            for op in block:
                tracer.op_id = op_id
                ids.add(op_id)
                op_id += 1
                dt, obs = runner.execute(op, tracer)
                traced_s += dt
                attempted += 1
                failed += obs is None
        finally:
            tracer.uninstall()
        counts = {k: tracer.counts.get(k, 0) - counts_before.get(k, 0) for k in spans.COUNTS}
        passes.append((ids, counts))

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer.save(results / f"spans-{tag}.npz")
    arrays = tracer.arrays()
    per_pass = []
    for ids, counts in passes:
        m = spans.summarize(arrays, tracer.names, ids)
        m.update({k: float(v) for k, v in counts.items()})
        m["toytrain.step_us"] = _rate(m.pop("toytrain.loop_ms") * 1e3, m["toytrain.steps"])
        m["metrics.dtw.ns_per_cell"] = _rate(m["metrics.dtw.total_ms"] * 1e6, m["metrics.dtw.cells"])
        m["coarticulation.weights_ns_per_frame"] = _rate(
            m["coarticulation.coarticulation_weights.total_ms"] * 1e6,
            m["coarticulation.frames_weighted"],
        )
        m["synth.gen_us_per_frame"] = _rate(
            m["synth.gen_viseme_track.self_ms"] * 1e3, m["synth.frames_generated"]
        )
        m["io.read_mb_per_s"] = _rate(
            m["io.bytes_read"] / 1e6, sum(m[f"{s}.total_ms"] for s in spans.READS) / 1e3
        )
        m["io.write_mb_per_s"] = _rate(
            m["io.bytes_written"] / 1e6, sum(m[f"{s}.total_ms"] for s in spans.WRITES) / 1e3
        )
        per_pass.append(m)
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    # share of untraced ops/s lost to tracing: (untraced - traced) / untraced
    metrics["trace.overhead_share"] = 1.0 - untraced_s / traced_s
    facts = {"trace_passes": len(passes), "trace_block_ops": len(block), "spans_missing": tracer.missing}
    return metrics, attempted, failed, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "visemekit" / "__init__.py").is_file():
        print(f"error: no visemekit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    units = metric_units(args.trace)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reference = load_reference()[args.workload]
        schedule = gi.op_schedule(args.workload, args.seed, work / "inputs")
        input_sha = verify_inputs(schedule, reference)
        runner = Runner(args.workload, work, reference)

        setup = measure_setup(args.workload, schedule[0], work) if args.trace == 0 else []
        runner.start()
        runner.execute(schedule[0])  # warm-up op, untimed (checked all the same)
        warmup_errors = len(runner.errors)

        facts = run_facts(args.workload, args.seed)
        facts["input_set_sha256"] = input_sha
        facts["input_items"] = sorted({op.item.key: op.item.sha256 for op in schedule}.items())
        if args.trace == 0:
            before = host_loop_ms()
            latencies, failed = timed_run(runner, schedule, args.seconds)
            facts["host_loop_ms"] = [before, host_loop_ms()]
            attempted = len(latencies)
            values = end_to_end(args.workload, latencies, failed, setup)
            facts.update(ops=attempted, tail_percentile=TAIL_PERCENTILE[args.workload],
                         samples_above_tail=int(attempted * (100 - TAIL_PERCENTILE[args.workload]) / 100),
                         setup_samples_s=setup)
        else:
            values, attempted, failed, more = traced_run(runner, schedule, args.seconds, tag)
            facts.update(more)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        failed += warmup_errors
        attempted += 1
        for message in runner.errors[:20]:
            print(f"check failed: {message}", file=sys.stderr)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"facts-{tag}.json").write_text(json.dumps(facts, indent=1) + "\n")
        print("facts " + json.dumps(facts))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
