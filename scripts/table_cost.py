#!/usr/bin/env python3
"""Per-stage cost of the table layer on the wide-window benchmark inputs.

    python3 scripts/table_cost.py [--repeat 21]

Times, in process and once per repeat, each stage that the wide-window
workload (``perfbench/workloads.py``) runs through ``spectral`` and
``cli.compute_route_table``, on its window (t in [-512, 512], s <= 5):

* ``source``: the Hovey--Sadofsky table with the extra row of s that the
  L1 column needs (``hovey_sadofsky_table``);
* ``l_functors``: ``apply_l_functors`` on that table;
* ``assembly``: ``assemble_abutment`` of that page;
* ``ss``: the whole ss route (``compute_route_table("ss", ...)``);
* ``golden``: the reference table;
* ``structured_p2`` and ``structured_p5``: the structured route at p = 2
  and p = 5, with every cache of ``stabcoh.cohomology`` emptied first, as
  in the benchmark's fresh child;
* ``compare_ss_structured``, ``compare_ss_golden``,
  ``compare_structured_golden``: the three ``compare_tables`` calls of
  the workload.

Prints JSON, in milliseconds: per stage the median and quartiles over the
repeats, and the cell count of each table built.  Standard library only;
run from the repository root or anywhere, the package is read from this
tree's src/.
"""

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from stabcoh import cli, cohomology, spectral  # noqa: E402
from stabcoh.config import RunConfig  # noqa: E402
from workloads import WIDE_S_MAX, WIDE_WINDOW  # noqa: E402


def clear_cohomology_caches() -> None:
    for value in vars(cohomology).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def one_pass() -> tuple[dict, dict]:
    """({stage: seconds}, {table: cell count}) of one pass over the stages."""
    lo, hi = WIDE_WINDOW
    cfg2 = RunConfig(p=2, t_lo=lo, t_hi=hi, s_max=WIDE_S_MAX, routes=("ss", "structured", "golden"))
    cfg5 = RunConfig(p=5, t_lo=lo, t_hi=hi, s_max=WIDE_S_MAX, routes=("structured",))
    times, out = {}, {}

    def timed(stage, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        times[stage] = time.perf_counter() - start
        return result

    source = timed("source", spectral.hovey_sadofsky_table, 2, WIDE_WINDOW, WIDE_S_MAX + 1)
    page = timed("l_functors", spectral.apply_l_functors, source)
    timed("assembly", spectral.assemble_abutment, page, WIDE_S_MAX)
    out["ss"] = timed("ss", cli.compute_route_table, "ss", cfg2)
    out["golden"] = timed("golden", cli.compute_route_table, "golden", cfg2)
    clear_cohomology_caches()
    out["structured"] = timed("structured_p2", cli.compute_route_table, "structured", cfg2)
    clear_cohomology_caches()
    out["structured_p5"] = timed("structured_p5", cli.compute_route_table, "structured", cfg5)
    for a, b in (("ss", "structured"), ("ss", "golden"), ("structured", "golden")):
        if timed(f"compare_{a}_{b}", spectral.compare_tables, out[a], out[b]):
            raise SystemExit(f"{a} and {b} differ on the wide window")
    cells = {"source": len(source.cells), "page": len(page.cells)}
    cells.update((name, len(table.cells)) for name, table in out.items())
    return times, cells


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=21)
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be at least 2")
    samples, cells = {}, None
    for _ in range(args.repeat):
        times, cells = one_pass()
        for stage, seconds in times.items():
            samples.setdefault(stage, []).append(seconds)
    stages = {}
    for stage, ts in samples.items():
        q1, median, q3 = statistics.quantiles(ts, n=4, method="inclusive")
        stages[stage] = {"median_ms": round(median * 1e3, 4), "quartiles_ms": [round(q1 * 1e3, 4), round(q3 * 1e3, 4)]}
    out = {"python": platform.python_version(), "repeat": args.repeat, "cells": cells, "stages": stages}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
