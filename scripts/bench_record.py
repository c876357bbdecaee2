#!/usr/bin/env python3
"""Condense parent/change perfbench records into one BENCH_<n>.json.

    python3 scripts/bench_record.py --parent PARENT/perfbench/out \\
        --change CHANGE/perfbench/out --out BENCH_<n>.json \\
        [--tier1-parent PARENT.json --tier1-change CHANGE.json] \\
        [--calibration CALIBRATION.jsonl]

Each directory holds the records ``perfbench/run.py`` writes
(``<workload>-seed<seed>-trace<0|1>.json``).  A parent record and a change
record with the same workload, seed and trace flag form one pair.  For
every workload and metric the output lists the per-pair values, each
side's median and quartiles, and how many pairs the change won, lost and
tied, judged by the metric's ``better`` direction in BENCHMARK.json.
Untraced pairs give the end-to-end metrics, traced pairs the per-layer
ones.  ``gain`` applies the claim rule: the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile range.  Each end-to-end metric also carries ``regression``:
the change's median is worse than the parent's by more than the metric's
``bound`` in BENCHMARK.json, read as a fraction of the parent's median.
The optional ``--tier1-*`` files, written by ``scripts/tier1_time.py``,
are copied under ``"tier1"``.  The optional ``--calibration`` file holds
the lines ``scripts/calibrate.py`` wrote before each run; each workload
gets the readings of its pairs, per side in seed order, under
``calibration_s``, in the same sections as its metrics.  Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_records(directory: pathlib.Path) -> dict:
    """{(workload, seed, trace): record} for every record in directory."""
    out = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return out


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name: str, pairs: list, better: str, unit: str, bound=None) -> dict:
    """Per-pair values, medians, quartiles and the win count of one metric
    over pairs of (seed, parent record, change record), and, given the
    metric's relative bound, whether the change's median regresses past it."""
    parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, _, c in pairs]
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    out = {
        "unit": unit,
        "better": better,
        "seeds": [seed for seed, _, _ in pairs],
        "parent": parent,
        "change": change,
        "parent_median": pmed,
        "parent_quartiles": [pq1, pq3],
        "change_median": cmed,
        "change_quartiles": [cq1, cq3],
        "wins": wins,
        "losses": losses,
        "ties": len(pairs) - wins - losses,
        "gain": wins >= 0.9 * len(pairs) and sign * (pmed - cmed) > pq3 - pq1,
    }
    if bound is not None:
        out["bound"] = bound
        out["regression"] = sign * (cmed - pmed) > bound * abs(pmed)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=pathlib.Path, required=True, help="parent record directory")
    ap.add_argument("--change", type=pathlib.Path, required=True, help="change record directory")
    ap.add_argument("--out", type=pathlib.Path, required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--tier1-parent", type=pathlib.Path, help="tier1_time.py output for the parent")
    ap.add_argument("--tier1-change", type=pathlib.Path, help="tier1_time.py output for the change")
    ap.add_argument("--calibration", type=pathlib.Path, help="calibrate.py readings, JSON lines")
    args = ap.parse_args(argv)
    if (args.tier1_parent is None) != (args.tier1_change is None):
        ap.error("--tier1-parent and --tier1-change go together")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load_records(args.parent), load_records(args.change)
    readings = {}
    if args.calibration is not None:
        for line in args.calibration.read_text().splitlines():
            r = json.loads(line)
            readings[(r["side"], r["workload"], r["seed"], r["trace"])] = r["calibration_s"]
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        print("no parent/change pair shares a workload, seed and trace flag", file=sys.stderr)
        return 1

    workloads = {}
    for workload in sorted({k[0] for k in keys}):
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            pairs = [(k[1], parent[k], change[k]) for k in keys if k[0] == workload and k[2] == trace]
            if not pairs:
                continue
            names = [n for n in pairs[0][1]["metrics"] if all(n in c["metrics"] for _, _, c in pairs)]
            entry[section] = {
                n: summarize(
                    n, pairs, direction.get(n, "lower"), pairs[0][1]["metrics"][n]["unit"], bounds.get(n)
                )
                for n in names
            }
            if readings:
                entry.setdefault("calibration_s", {})[section] = {
                    side: [readings.get((side, workload, seed, trace)) for seed, _, _ in pairs]
                    for side in ("parent", "change")
                }
        workloads[workload] = entry

    first = parent[keys[0]]
    bench = {
        "machine": {"nproc": first["nproc"], "python": first["python"], "numpy": first["numpy"]},
        "seconds": sorted({parent[k]["seconds"] for k in keys}),
        "src_lines": {"parent": first["src_lines"], "change": change[keys[0]]["src_lines"]},
        "workloads": workloads,
    }
    if args.tier1_parent is not None:
        bench["tier1"] = {
            "parent": json.loads(args.tier1_parent.read_text()),
            "change": json.loads(args.tier1_change.read_text()),
        }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry.get("end_to_end", {}).items():
            print(
                f"{workload} {name}: parent {m['parent_median']:.4g} "
                f"[{m['parent_quartiles'][0]:.4g}, {m['parent_quartiles'][1]:.4g}] -> change "
                f"{m['change_median']:.4g} [{m['change_quartiles'][0]:.4g}, "
                f"{m['change_quartiles'][1]:.4g}] {m['unit']}, wins {m['wins']}/{len(m['seeds'])}"
                + (f", regression {str(m['regression']).lower()}" if "regression" in m else "")
            )
    if "tier1" in bench:
        t = bench["tier1"]
        print(
            f"tier1 median wall: parent {t['parent']['median_s']:.2f} s -> change "
            f"{t['change']['median_s']:.2f} s, passed {t['parent']['passed']} -> {t['change']['passed']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
