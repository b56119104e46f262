"""Benchmark of ellsum's verify path.

    python3 perfbench/run.py --workload grid --seed 42 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Workloads are defined in workloads.py and listed, with why each was
chosen, in BENCHMARK.json.

--trace 0 measures end to end, with tracing off: a serial closed loop of
jobs for --seconds, after a warm-up that also checks the 2-worker path, plus
set-up time in fresh interpreters.  --trace 1 measures per layer:
rounds of untraced serial, untraced jobs=2 and traced serial runs of the
workload's first job (see spans.py).

Stdout ends with two JSON lines: the machine and run details, then the
result {"correct", "attempted", "failed", "metrics"}.  The exit code is 2,
with no result, when the checkout has no ellsum sources.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "deep", "shallow"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellsum" / "__init__.py").is_file():
        print(f"perfbench: no ellsum sources at {SRC / 'ellsum'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    measure = bench.per_layer if args.trace else bench.end_to_end
    result, detail = measure(args.workload, args.seed, args.seconds)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "machine": bench.machine(args.seed), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
