"""Alternating parent/change pairs of the benchmark, summarized into one file.

    python3 tools/pairs.py --parent HEAD --out BENCH_<n>.json

Run from the root of a source checkout. The parent revision is exported with
`git archive` into .benchwork/parent-<sha>/; the change is the working tree.
For each workload of BENCHMARK.json, pair k of 10 runs `benchmark/run.py
--seed <seed + k> --seconds <run_seconds> --trace 0` once in each tree, each
with its own benchmark code and BENCHMARK.json's run length. The parent runs first in even pairs and
the change in odd ones, so a host that speeds up or slows down over a pair
does not favour one side. The output file is rewritten after every pair, so
an interrupted series keeps the pairs it finished. It holds every run's
end-to-end metrics, `host_loop_ms` (a fixed pure-Python loop timed before and
after the run, which shows host drift) and, per workload and metric, both
medians, the parent's quartiles, the pairs the change won (ties count for
neither side) and a verdict:

- `failed`: a change run reported a failed check, or the change's runs failed
  more operations than the parent's; such a change never reads as a gain;
- `regression`: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, relative to the parent's median;
- `gain`: the change won at least nine tenths of the pairs and its median is
  better by more than the parent's interquartile range;
- `unresolved`: neither, and the parent's interquartile range is wider than
  the bound, unless every change run reads better than every parent run;
- `within bound`: otherwise.

After the pairs it runs the tier-1 suite (`python -m pytest -q
--continue-on-collection-errors` with `src` on PYTHONPATH) once in the parent
tree and once in the working tree, and writes each side's wall seconds and its
passed, failed and error counts under the top-level `tier1` key.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".benchwork"
PAIRS = 10  # per workload; a gain needs at least nine of ten pairs won
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def export_parent(rev: str) -> tuple[str, Path]:
    """The commit `rev` names and its tree under .benchwork/, exported once
    per commit."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = WORK / f"parent-{sha[:12]}"
    if not (tree / "benchmark" / "run.py").is_file():
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # extraction filters exist from Python 3.10.12 and 3.11.4 on
            options = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tree, **options)
    return sha, tree


def parse_run(stdout: str) -> dict:
    """The result of one benchmark run from its stdout: the last line is the
    JSON result and the `facts ` line carries host_loop_ms."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    facts = next((json.loads(line[6:]) for line in lines if line.startswith("facts ")), {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "host_loop_ms": facts.get("host_loop_ms"),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"benchmark run failed in {tree} (seed {seed}): {done.stderr.strip()}")
    return {"seed": seed, **parse_run(done.stdout)}


def parse_pytest_summary(stdout: str) -> dict:
    """Passed, failed and error counts from the summary line that ends
    pytest's output, such as `2 failed, 583 passed, 1 error in 20.01s`."""
    lines = stdout.strip().splitlines()
    summary = lines[-1].strip("= ") if lines else ""
    if " in " not in summary:
        raise ValueError(f"no pytest summary line, the output ends {summary!r}")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary.rsplit(" in ", 1)[0])}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("errors", counts.get("error", 0))}


def run_tier1(tree: Path) -> dict:
    """Wall seconds and outcome counts of one tier-1 run in `tree`."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=tree, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    try:
        counts = parse_pytest_summary(done.stdout)
    except ValueError as exc:
        raise SystemExit(f"tier-1 run failed in {tree}: {exc}: {done.stderr.strip()}") from None
    return {"wall_s": round(wall_s, 3), **counts}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of BENCHMARK.json's end_to_end list: medians, the parent's
    quartiles, pairs won and the verdict described in the module docstring."""
    failed = (
        not all(pair["change"]["correct"] for pair in pairs)
        or sum(pair["change"]["failed"] for pair in pairs) > sum(pair["parent"]["failed"] for pair in pairs)
    )
    summary = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "higher" else -1.0  # sign * value grows when better
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        won = sum(sign * c > sign * p for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        q1, q3 = _quartiles(parent)
        spread = q3 - q1
        scale = abs(parent_median)
        worse = sign * (parent_median - change_median)  # > 0 when the change is worse
        if failed:
            verdict = "failed"
        elif worse > bound * scale:
            verdict = "regression"
        elif won >= 0.9 * len(pairs) and -worse > spread:
            verdict = "gain"
        elif spread > bound * scale and not min(sign * c for c in change) > max(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": bound,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": [q1, q3],
            "pairs_won": won,
            "pairs": len(pairs),
            "verdict": verdict,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--seed", type=int, default=1001, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_sha, parent_tree = export_parent(args.parent)
    out = Path(args.out)
    record = {
        "parent": parent_sha,
        "change": "working tree",
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        record["workloads"][workload] = {"pairs": pairs}
        for k in range(PAIRS):
            seed = args.seed + k
            sides = [("parent", parent_tree), ("change", ROOT)]
            if k % 2:
                sides.reverse()
            pair = {"seed": seed, "first": sides[0][0]}
            for side, tree in sides:
                pair[side] = run_once(tree, workload, seed, seconds)
            pairs.append(pair)
            record["workloads"][workload]["summary"] = summarize(pairs, bench["end_to_end"])
            out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{workload} pair {k + 1}/{PAIRS} (seed {seed}) done", file=sys.stderr)
    record["tier1"] = {}
    for side, tree in (("parent", parent_tree), ("change", ROOT)):
        record["tier1"][side] = run_tier1(tree)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"tier-1 {side}: {record['tier1'][side]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
