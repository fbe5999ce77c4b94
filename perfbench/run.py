"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload tcp-batch64-closed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer metrics
(and, on the TCP workload, the layer budget table).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the run.  The exit
code is non-zero when a correctness check fails, and the program is built
from ``src/`` next to this directory, so it fails without printing a result
when that is missing.  See ``BENCHMARK.json`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tcp-batch64-closed", "sim-fig1-check")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({source})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    if args.workload == "sim-fig1-check":
        import sim_workload

        outcome = sim_workload.run(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        import tcp_workload

        outcome = tcp_workload.run(args.seed, args.seconds, bool(args.trace))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if outcome["correct"] and sorted(expected) != sorted(outcome["metrics"]):
        print("error: the metrics emitted differ from BENCHMARK.json's", file=sys.stderr)
        return 3

    report = outcome.pop("report", None)
    if report:
        print(report)
    for problem in outcome.pop("problems"):
        print(f"correctness violation: {problem}", file=sys.stderr)
    for name, entry in outcome["metrics"].items():
        print(f"{name:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
