"""Set-up time of a fresh process: `import visemekit` plus one warm-up op.

    python3 setup_probe.py <src dir> '<JSON list of visemekit argv lists>'

Prints {"setup_s": seconds}. The clock starts before the package import,
so the time includes importing numpy and visemekit.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, lines = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from visemekit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in lines]
    elapsed = time.perf_counter() - T0
    if any(codes):
        print(f"warm-up op failed with exit codes {codes}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
