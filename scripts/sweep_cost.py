#!/usr/bin/env python3
"""Cost of the brute route's colimit sweep over the keys a workload reaches.

    python3 scripts/sweep_cost.py [--workload verify-default,odd-deep] \\
        [--seed 1] [--repeat 15]

Runs each named benchmark workload once in process (the calls of
``perfbench/workloads.py``), with the brute route's memo of whole answers
(``_brute_groups``) emptied first and a spy on ``_colimit_sweep``, which
that memo calls once per miss, that records the distinct keys (p, a, t,
n_top, s_top) the workload reaches.  Then it times the sweep over all
those keys, once per repeat, and prints JSON, in milliseconds: per
workload the key count, the median and quartiles of the whole sweep's time
over the repeats, and the median per key of the five dearest keys.
odd-deep reads the seed (the signs of its deep weights).  Standard library
only; run from the repository root or anywhere, the package is read from
this tree's src/.
"""

import argparse
import contextlib
import io
import json
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stabcoh import cohomology as C  # noqa: E402
from workloads import WORKLOADS, inputs_for  # noqa: E402


def reached_keys(workload: str, seed: int) -> list:
    """The distinct arguments of ``_colimit_sweep`` in one cold run."""
    sweep = C._colimit_sweep
    keys = set()

    def spy(*key):
        keys.add(key)
        return sweep(*key)

    C._brute_groups.cache_clear()
    C._colimit_sweep = spy
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tally = WORKLOADS[workload](inputs_for(workload, seed))
    finally:
        C._colimit_sweep = sweep
    if tally.failures or tally.problems:
        raise SystemExit(f"{workload}: {tally.failures[:2]} {tally.problems[:2]}")
    return sorted(keys)


def sweep_cost(keys: list, repeat: int) -> dict:
    sweep = C._colimit_sweep
    totals, per_key = [], {key: [] for key in keys}
    for _ in range(repeat):
        start = time.perf_counter()
        for key in keys:
            t0 = time.perf_counter()
            sweep(*key)
            per_key[key].append(time.perf_counter() - t0)
        totals.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(totals, n=4, method="inclusive")
    dearest = sorted(((statistics.median(ts), key) for key, ts in per_key.items()), reverse=True)[:5]
    return {
        "keys": len(keys),
        "median_ms": round(median * 1e3, 4),
        "quartiles_ms": [round(q1 * 1e3, 4), round(q3 * 1e3, 4)],
        "dearest": [{"key": list(key), "median_ms": round(t * 1e3, 4)} for t, key in dearest],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="verify-default,odd-deep", help="comma-separated workloads")
    ap.add_argument("--seed", type=int, default=1, help="odd-deep's seed")
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be at least 2")
    out = {"python": platform.python_version(), "seed": args.seed, "repeat": args.repeat}
    for workload in args.workload.split(","):
        out[workload] = sweep_cost(reached_keys(workload, args.seed), args.repeat)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
