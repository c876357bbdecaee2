#!/usr/bin/env python3
"""Time a cold ``import stabcoh.cli`` of one source tree.

    python3 scripts/import_cost.py --tree PATH [--runs 25] [--out import.json]

Starts the given number of fresh interpreters, one after another, each
with PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX set to an empty
temporary directory, so that no bytecode is read or written: every module
compiles from source, the standard library's included, so a module the
package imports costs more here than in a run that reads the installed
standard library's bytecode.  Each child times only the import
statement, not its own start-up, and lists the modules the import adds to
the ones the interpreter (``site`` included) had already loaded.

Writes JSON: each run's import time, their median and quartiles (inclusive
method, as ``bench_record.py``), and the standard-library modules the
import adds.  The median is the figure to compare between two trees;
measure both on the same machine, in the same session.  Exits 1 if any
child fails.  Standard library only.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

CHILD = """
import sys, time
before = set(sys.modules)
start = time.perf_counter()
import stabcoh.cli
elapsed = time.perf_counter() - start
added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in sys.stdlib_module_names)
import json
print(json.dumps([elapsed, added]))
"""


def import_once(tree: pathlib.Path, prefix: str) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = prefix
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    elapsed, added = json.loads(proc.stdout)
    return elapsed, added


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=pathlib.Path, default=pathlib.Path("."), help="source tree root")
    ap.add_argument("--runs", type=int, default=25, help="number of interpreters (default 25)")
    ap.add_argument("--out", type=pathlib.Path, help="JSON file to write (default: stdout)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    tree = args.tree.resolve()
    with tempfile.TemporaryDirectory() as prefix:  # stays empty: nothing is written
        try:
            runs = [import_once(tree, prefix) for _ in range(args.runs)]
        except subprocess.CalledProcessError as e:
            print(f"child failed:\n{e.stderr}", file=sys.stderr)
            return 1
    times = [elapsed for elapsed, _ in runs]
    q1, median, q3 = (
        statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    )
    result = {
        "command": "import stabcoh.cli (PYTHONDONTWRITEBYTECODE=1, empty PYTHONPYCACHEPREFIX)",
        "tree": str(tree),
        "import_s": times,
        "median_s": median,
        "quartiles_s": [q1, q3],
        "stdlib_added": runs[0][1],
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    print(
        f"import stabcoh.cli: median {median * 1e3:.1f} ms [{q1 * 1e3:.1f}, {q3 * 1e3:.1f}] "
        f"over {args.runs} runs; stdlib added: {', '.join(result['stdlib_added']) or 'none'}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
