#!/usr/bin/env python3
"""Read the machine's speed mode with a fixed pure-Python loop.

    python3 scripts/calibrate.py --side parent --workload odd-deep \\
        --seed 2701 --trace 0 --out calibration.jsonl

Times the same integer loop three times and appends one JSON line, the
given labels plus ``calibration_s``, the median of the three, to --out
(stdout without it).  Run it just before each benchmark run: a box that
switches between a fast and a slower mode moves every workload together,
and this reading shows which mode a run met.  ``bench_record.py
--calibration`` files the readings with the pairs.  Standard library only.
"""

import argparse
import json
import statistics
import sys
import time


def loop_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", required=True, help="parent or change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="JSON-lines file to append to")
    args = ap.parse_args(argv)
    line = json.dumps({
        "side": args.side, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calibration_s": statistics.median(loop_s() for _ in range(3)),
    })
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
