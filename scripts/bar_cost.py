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
* per checked degree s, the stages of ``bar_cohomology_finite``, mirrored
  here: ``enc{s}``, building d^s's one encoding (``_BarCoboundary``);
  ``dd{s}``, d d = 0, d^s applied to each column of d^(s-1);
  ``rows{s}``, the probe's rows emitted and made dense; ``snf{s}``, the
  probe's Smith form with both column transforms; ``cand{s}``, the
  candidate check, d^s applied to each kernel generator of the probe
  with a_i >= 1, plus the second elimination when it flags rows; ``H{s}``,
  the group read by ``kernel_quotient``; ``cols{s}``, the columns of d^s
  that degree s + 1 reads (not for the top degree); ``bar``, the whole
  ``bar_cohomology_finite``;
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
from stabcoh.exact_linalg import (  # noqa: E402
    CochainComplex,
    _identity_ll,
    complex_cohomology,
    dense_rows,
    kernel_quotient,
    snf_mod,
)


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
    model = CochainComplex(p, N, tuple(range(1, s_chk + 3)), sparse)
    C._complex_orders(diffs, p, N, model.ranks)
    for s in range(s_chk + 1):
        complex_cohomology(model, s)


def bar_stages(g, s_chk: int, repeat: int) -> dict:
    """The stages of ``bar_cohomology_finite`` on g, degree by degree."""
    p, N, ms, cols = g.p, g.N, {}, []
    for s in range(s_chk + 1):
        ms[f"enc{s}"] = median_ms(lambda: C._BarCoboundary(g, s), repeat)
        d = C._BarCoboundary(g, s)
        m, c = d.shape
        ms[f"dd{s}"] = median_ms(lambda: [any(d.apply(col)) for col in cols], repeat)
        probe = range(min(2 * c, m))
        ms[f"rows{s}"] = median_ms(lambda: dense_rows(d.rows(probe), c), repeat)
        P = dense_rows(d.rows(probe), c)
        if not P:
            continue
        ms[f"snf{s}"] = median_ms(lambda: snf_mod(P, p, N, want=("V", "Vi")), repeat)
        avals, _, v, vi = snf_mod(P, p, N, want=("V", "Vi"))

        def candidates():
            bad = set()
            for i, a in enumerate(avals):
                if a and m > len(P) and any(dz := d.apply([p ** (N - a) * r[i] for r in v])):
                    bad.update(R for R, y in enumerate(dz) if y)
            if bad:
                return snf_mod(dense_rows(d.rows(probe) + d.rows(sorted(bad)), c), p, N, want=("Vi",))
            return avals, None, None, vi

        ms[f"cand{s}"] = median_ms(candidates, repeat)
        kernel = candidates()
        ms[f"H{s}"] = median_ms(lambda: kernel_quotient(kernel[0], kernel[3], cols, p, N), repeat)
        if s < s_chk:
            ms[f"cols{s}"] = median_ms(lambda: [d.apply(e) for e in _identity_ll(c)], repeat)
            cols = [d.apply(e) for e in _identity_ll(c)]
    return ms


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
    ms.update(bar_stages(g, s_chk, repeat))
    ms["bar"] = median_ms(lambda: C.bar_cohomology_finite(g, s_chk), repeat)
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
