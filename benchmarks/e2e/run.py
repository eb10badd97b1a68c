"""One workload, one pass: the command ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
prints every metric of the pass by name and, as the last line of
standard output, the JSON object the acceptance driver reads. Exits
non-zero without printing a result when the program under test
(``src/repro``) is not beside the benchmark, or when a correctness
check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="timed work per pass; 0 runs exactly one episode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: install the span tracer and report per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies tick and host counts (smoke runs)")
    parser.add_argument("--result-file", default=None,
                        help="also write the full result as JSON to this path")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print(f"error: no program under test at {REPO / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for entry in (str(REPO / "src"), str(REPO)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e.runner import contract_line, print_report, run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print_report(result)
    if args.result_file:
        Path(args.result_file).write_text(json.dumps(result), encoding="utf-8")
    print(json.dumps(contract_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
