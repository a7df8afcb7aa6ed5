"""Record reference.json: the input hashes and checked outputs of every pool item.

    python3 benchmark/make_reference.py [workload ...]

Run on the commit that defines the benchmark. Each output must first pass
the reference-free invariants; later commits are then held to these values
within workloads.RTOL. Recording both pools takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, WORK, WORKLOADS, Runner  # first: it fixes the BLAS threads

import gen_inputs as gi


def pool_ops(workload: str, items: list[gi.Item]) -> list[gi.Op]:
    if workload == "train_sweep":
        return [gi.Op(f"{item.key}/{p}", item, p) for item in items for p in gi.TRAIN_GRID]
    return [gi.Op(item.key, item) for item in items]


def record(workload: str) -> dict:
    work = WORK / f"reference-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        items = gi.pool(workload, work / "inputs")
        runner = Runner(workload, work, None)
        runner.start()
        outputs = {}
        for op in pool_ops(workload, items):
            _, obs = runner.execute(op)
            if obs is None:
                raise SystemExit(f"{workload} {op.key}: {runner.errors[-1]}")
            outputs[op.key] = obs
        return {"inputs": {item.key: item.sha256 for item in items}, "outputs": outputs}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for workload in sys.argv[1:] or WORKLOADS:
        reference[workload] = record(workload)
        print(f"{workload}: {len(reference[workload]['outputs'])} outputs recorded")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
