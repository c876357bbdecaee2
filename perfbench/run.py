#!/usr/bin/env python3
"""Benchmark runner for stabcoh.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a fresh
Python child, one child at a time, so nothing cached inside a process
carries from one pass to the next: users pay cold start on every stabcoh
invocation.  Children get PYTHONPATH=src (the package is used from source)
and no STABCOH_THREADS, so an inherited setting cannot change the program.

With --trace 0 the last stdout line reports the end-to-end metrics: the
medians over the run of wall_s (one pass, from the first call into stabcoh
to the checked result), setup_s (child start through ``import stabcoh.cli``)
and peak_rss_mb (per child, from wait4), and answered_frac, the share of
the run's operations that returned an answer instead of raising.  With --trace 1 the run alternates untraced and
traced passes; the traced ones wrap stabcoh's public functions from outside
(see tracing.py) and the line reports the per-layer metrics, plus the
tracing overhead as traced minus untraced wall_s.

A full record of the run (machine, versions, load, every pass) goes to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json and the spans of the
last traced run of a workload to perfbench/out/trace-<workload>-pass<k>.jsonl.
An incorrect answer makes the run print correct=false; a child that dies or
a missing source tree exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify-default", "wide-window", "odd-deep")

SETUP_PROBES = 2  # import-only children before each untraced pass
MIN_PASSES = 3  # untraced runs; traced runs make at least one pass of each kind
RUN_CEILING_S = 120  # no pass starts once it could end past this, whatever the minimum
RUN_DEADLINE_S = 170  # any child still running then is killed and the run fails


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STABCOH_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(mode: str, workload: str, seed: int, pass_id: int, trace_path: str, deadline: float) -> dict:
    """Run one child to completion and return its record, with the set-up
    time, the full child time and the child's own peak RSS added."""
    cmd = [sys.executable, str(BENCH / "child.py"), mode, workload, str(seed), str(pass_id), trace_path]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - t_spawn, 1.0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give
        # the largest peak across every child reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    t_end = time.monotonic()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child for {workload} exited {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("imported") - t_spawn
    record["child_s"] = t_end - t_spawn
    record["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return record


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_passes(args, kinds, min_passes: int, probes: int, deadline: float):
    """Passes cycling through `kinds` (each at least once) until the next
    pass would end after --seconds, with at least `min_passes`.  Before each
    pass, `probes` import-only children sample the set-up time, so that the
    samples spread over the run as the passes do.  Returns (passes, setups)."""
    start = time.monotonic()
    passes: list[dict] = []
    setups: list[float] = []
    while True:
        setups += [spawn("setup", args.workload, args.seed, -1, "", deadline)["setup_s"]
                   for _ in range(probes)]
        kind = kinds[len(passes) % len(kinds)]
        trace_path = str(OUT / f"trace-{args.workload}-pass{len(passes)}.jsonl")
        rec = spawn(kind, args.workload, args.seed, len(passes), trace_path, deadline)
        rec["kind"] = kind
        passes.append(rec)
        if len(passes) < len(kinds):
            continue
        elapsed = time.monotonic() - start
        cycle = elapsed / len(passes)
        if elapsed + 1.5 * cycle > RUN_CEILING_S or (
            len(passes) >= min_passes and elapsed + cycle > args.seconds
        ):
            return passes, setups


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stabcoh benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stabcoh" / "cli.py").is_file():
        print(f"no stabcoh source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"trace-{args.workload}-pass*.jsonl"):
        old.unlink()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_line_count(),
        "loadavg_start": os.getloadavg(),
    }
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        # Unmeasured warm-up: byte-code caches and the page cache are filled
        # once, as on any machine where stabcoh has run before.
        spawn("setup", args.workload, args.seed, -1, "", deadline)
        if args.trace:
            passes, setups = run_passes(args, ("plain", "traced"), 2, 0, deadline)
        else:
            passes, setups = run_passes(args, ("plain",), MIN_PASSES, SETUP_PROBES, deadline)
    except ChildFailed as e:
        print(str(e), file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()
    record["numpy"] = passes[0]["numpy"]
    record["setup_samples"] = setups
    record["passes"] = passes

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    plain = [p for p in passes if p["kind"] == "plain"]
    if args.trace:
        traced = [p for p in passes if p["kind"] == "traced"]
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        units = {name: "s" if name.endswith("_s") else "count" for name in values}
    else:
        values = {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "answered_frac": (attempted - failed) / attempted,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "answered_frac": "ratio"}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    record["metrics"] = metrics
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for msg in problems[:20]:
        print(f"INCORRECT: {msg}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, "
        f"{failed}/{attempted} operations failed; record in {record_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
