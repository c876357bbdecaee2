#!/usr/bin/env python3
"""Per-stage cost of the brute route's bar cross-check, one weight class
at a time.

    python3 scripts/bar_cost.py [--p 2,3,5,7] [--s-top 4] [--repeat 15]

For every class w mod e (e = 2 at p = 2, p(p-1) at odd p) that
``_bar_crosscheck_class`` checks at the given top degree, prints the
class's orbit representative w0 and the unit k with k w0 = w mod e
(``_orbit_representative``), and times each stage in process.  The bar
side is built at w0, once per orbit (``_bar_groups``), so the bar stages
below are those of w0's complex.  JSON, with the median over the repeats,
in milliseconds:

* ``group``: ``units_group_data`` at w0 once its table (``_units_table``)
  and the table's axioms are cached, as for every orbit after the first
  of its quotient; ``table_check``: those axioms, paid once per quotient
  (``_check_table``);
* ``d0``, ``d1``, ...: each bar differential (``_bar_differential``);
* ``complex``: the bar ``CochainComplex``, its shape and d d = 0 checks;
* ``H0``, ``H1``, ...: ``complex_cohomology`` of each checked degree;
* ``model``: the quotient model's side of the check, mirrored from
  ``_bar_crosscheck_class``: its level complex read with
  ``complex_cohomology`` and with the sweep's order reader
  ``_complex_orders`` on the whole complex (lag 0);
* ``class``: the whole check with the shared bar memo emptied before
  each repeat, as for the first class of an orbit;
* ``shared``: the whole check with the orbit's bar groups cached, as for
  every later class of the orbit: the transport check and the model.

Skipped classes are listed with their reason, and ``bar_complexes``
counts the orbits, one bar complex each, per prime.  The default --s-top
is the odd-deep benchmark workload's; `stabcoh verify` runs at 5.
Standard library only; run from the repository root or anywhere, the
package is read from this tree's src/.
"""

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from stabcoh import cohomology as C  # noqa: E402
from stabcoh.exact_linalg import BaseZMod, CochainComplex, complex_cohomology  # noqa: E402


def median_ms(fn, repeat: int, before=None) -> float:
    times = []
    for _ in range(repeat):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 4)


def model_side(p: int, w: int, r: int, s_chk: int, N: int = 2) -> None:
    a, t = C._action_class(p, w, N)
    diffs = C._level_complex_matrices(p, a, t, r, N, s_chk)
    sparse = tuple([{j: x for j, x in enumerate(row) if x} for row in d] for d in diffs)
    model = CochainComplex(BaseZMod(p, N), tuple(range(1, s_chk + 3)), sparse)
    C._complex_orders(diffs, p, N, model.ranks)
    for s in range(s_chk + 1):
        complex_cohomology(model, s)


def class_cost(p: int, w: int, s_top: int, repeat: int) -> dict:
    check = C._bar_crosscheck_class.__wrapped__
    found = check(p, w, s_top)
    if found is None:
        return {"p": p, "w": w, "skipped": "DEFAULT_BAR_BUDGET"}
    r, s_chk, _ = found
    w0, k = C._orbit_representative(p, w)
    g = C.units_group_data(p, r, w0, 2)
    n = len(g) - 1
    ms = {
        "group": median_ms(lambda: C.units_group_data(p, r, w0, 2), repeat),
        "table_check": median_ms(lambda: C._check_table(g.table), repeat, C._check_table.cache_clear),
    }
    diffs = []
    for j in range(s_chk + 1):
        ms[f"d{j}"] = median_ms(lambda: C._bar_differential(g, j), repeat)
        diffs.append(C._bar_differential(g, j))
    ranks = tuple(n**j for j in range(s_chk + 2))
    ms["complex"] = median_ms(lambda: CochainComplex(BaseZMod(p, 2), ranks, tuple(diffs)), repeat)
    cx = CochainComplex(BaseZMod(p, 2), ranks, tuple(diffs))
    for s in range(s_chk + 1):
        ms[f"H{s}"] = median_ms(lambda: complex_cohomology(cx, s), repeat)
    ms["model"] = median_ms(lambda: model_side(p, w, r, s_chk), repeat)
    ms["class"] = median_ms(lambda: check(p, w, s_top), repeat, C._bar_groups.cache_clear)
    check(p, w, s_top)
    ms["shared"] = median_ms(lambda: check(p, w, s_top), repeat)
    return {"p": p, "w": w, "w0": w0, "k": k, "level": r, "order": n + 1, "s_chk": s_chk, "ms": ms}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--p", default="2,3,5,7", help="comma-separated primes")
    ap.add_argument("--s-top", type=int, default=4, help="top degree the brute call asks for")
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args()
    classes, bar_complexes = [], {}
    for p in map(int, args.p.split(",")):
        e = 2 if p == 2 else p * (p - 1)
        costs = [class_cost(p, w, args.s_top, args.repeat) for w in range(e)]
        bar_complexes[p] = len({(c["level"], c["w0"], c["s_chk"]) for c in costs if "w0" in c})
        classes += costs
    out = {
        "python": platform.python_version(),
        "s_top": args.s_top,
        "repeat": args.repeat,
        "bar_complexes": bar_complexes,
        "classes": classes,
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
