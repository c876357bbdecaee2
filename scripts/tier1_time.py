#!/usr/bin/env python3
"""Time the Tier-1 suite of one source tree, end to end.

    python3 scripts/tier1_time.py --tree PATH [--runs 3] [--out tier1.json]

Runs the Tier-1 command (``python -m pytest -q --continue-on-collection-errors``
with PYTHONPATH=src, from the tree's root) the given number of times, one
run after another, and writes JSON: the command, each run's wall time and
pass/fail counts, and the median wall time.  The median is the figure to
compare between two trees; measure both on the same machine.  Exits 1 if
any run fails.  Standard library only.
"""

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def count(summary: str, word: str) -> int:
    """The number before `word` in pytest's summary line, 0 if absent."""
    m = re.search(rf"(\d+) {word}", summary)
    return int(m.group(1)) if m else 0


def time_once(tree: pathlib.Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run(COMMAND, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "passed": count(summary, "passed"),
        "failed": count(summary, "failed") + count(summary, "error"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=pathlib.Path, default=pathlib.Path("."), help="source tree root")
    ap.add_argument("--runs", type=int, default=3, help="number of runs (default 3)")
    ap.add_argument("--out", type=pathlib.Path, help="JSON file to write (default: stdout)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    tree = args.tree.resolve()
    runs = [time_once(tree) for _ in range(args.runs)]
    result = {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "wall_s": [r["wall_s"] for r in runs],
        "median_s": statistics.median(r["wall_s"] for r in runs),
        "passed": [r["passed"] for r in runs],
        "failed": [r["failed"] for r in runs],
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    print(
        f"tier-1: median {result['median_s']:.2f} s over {args.runs} runs, "
        f"passed {result['passed']}, failed {result['failed']}",
        file=sys.stderr,
    )
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
