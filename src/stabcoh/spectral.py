"""The two-column derived-completion spectral sequence at p = 2.

Input: the known Ext table over E(1)_*E(1) for the sphere at p = 2
(Hovey--Sadofsky), a bigraded table of Z_(2)-modules.  Applying the
derived completion functors L0, L1 cellwise gives a two-column E_2-page;
every differential d_r (r >= 2) raises the column index by r, so both
endpoints can never be nonzero and the page collapses.  The abutment in
degree (n, t) therefore carries exactly the contributions L0 Ext^(n,t) and
L1 Ext^(n+1,t), reported as an associated graded with a collision flag
instead of guessing extensions.

The target table (continuous cohomology of the height-1 stabilizer group)
is transcribed as ``golden_table``; ``compare_tables`` closes the loop.
Each table is built in one pass, in key order: the transcribed tables
row by row in s over even t only (E(1)_* and pi_*E_1 live in even
degrees, so both tables vanish at odd t), the page column by column.
Cell checks run over the whole table at once.  Cell lookups on tables
and pages are dict lookups; assembly visits only the page's nonzero cells
and comparison only the two tables' cells, so both cost time linear in
those cells.

Row-overlap convention: both tables have a "t even, s >= 2" line next to
dedicated t = 0 entries, and t = 0 is itself even.  Whether t = 0 belongs
to the even line is controlled by ``t0_even_row``; the default True is the
value the brute-force route certifies (H^s at t = 0 is Z/2 for s >= 2),
and the acceptance suite pins it.

Source caveat, recorded at the data site: in the original filtration-one
statement the cyclic group in the (8k-1)-stem reads Z/16k; its 2-primary
part is what the s = 1 row here means.
"""

from __future__ import annotations

import io
from operator import itemgetter

from .errors import UnsupportedPrime, WindowMismatch
from .modules import (
    ModuleExpr,
    Value,
    cyclic,
    format_module_expr,
    l0,
    l1,
    local_free,
    padic,
    prufer,
    zero_module,
)
from .exact_linalg import vp

__all__ = [
    "BigradedTable",
    "SSPage",
    "hovey_sadofsky_table",
    "apply_l_functors",
    "assemble_abutment",
    "derived_ss_table",
    "golden_table",
    "compare_tables",
    "DEFAULT_T0_EVEN_ROW",
    "table_to_json",
    "table_to_csv",
]

DEFAULT_T0_EVEN_ROW = True


class BigradedTable(Value):
    """Map (s, t) -> module expression on a declared window; zero cells are
    absent, every key occurs once and every stored expression is canonical.

    Equality and hashing read p, both windows, route, cells and collisions,
    never ``_by_key``: the dict of ``cells`` built on construction, in which
    ``get`` looks a cell up in O(1) instead of scanning the table."""

    __slots__ = ("p", "t_window", "s_window", "route", "cells", "collisions", "_by_key")

    def __init__(self, p, t_window, s_window, route, cells, collisions=frozenset()):
        self._set(p, t_window, s_window, route, cells, collisions)
        _index_cells(self)

    def _key(self):
        return self.p, self.t_window, self.s_window, self.route, self.cells, self.collisions

    def get(self, s: int, t: int) -> ModuleExpr:
        expr = self._by_key.get((s, t))
        return zero_module() if expr is None else expr

    def same_window(self, other: "BigradedTable") -> bool:
        return (
            self.p == other.p
            and self.t_window == other.t_window
            and self.s_window == other.s_window
        )


def _index_cells(table) -> None:
    """Store ``table._by_key``, the dict of ``table.cells``, after refusing a
    column i of an (i, s, t) key other than 0 or 1, a cell outside the
    window, a zero cell (``p`` is None) and a key that occurs twice.  The
    checks read the whole table; when one fails, the first bad cell is found."""
    index = dict(table.cells)
    if isinstance(table, SSPage) and not set(map(itemgetter(0), index)) <= {0, 1}:
        raise ValueError("derived index must be 0 or 1")
    ss, ts = set(map(itemgetter(-2), index)), set(map(itemgetter(-1), index))
    (s_lo, s_hi), (t_lo, t_hi) = table.s_window, table.t_window
    if index and not (
        len(index) == len(table.cells)
        and s_lo <= min(ss) and max(ss) <= s_hi
        and t_lo <= min(ts) and max(ts) <= t_hi
        and None not in {expr.p for expr in index.values()}
    ):
        seen = set()
        for key, expr in table.cells:
            s, t = key[-2:]
            if not (s_lo <= s <= s_hi):
                raise ValueError(f"cell s={s} outside window {table.s_window}")
            if not (t_lo <= t <= t_hi):
                raise ValueError(f"cell t={t} outside window {table.t_window}")
            if expr.is_zero:
                raise ValueError("zero cells must be omitted")
            if key in seen:
                raise ValueError(f"duplicate cell {key}")
            seen.add(key)
    object.__setattr__(table, "_by_key", index)


def _build_table(p, t_window, s_window, route, cell_fn) -> BigradedTable:
    """cell_fn on the window, row by row in s over even t only, so in key
    order; cell_fn must vanish at odd t, as both transcribed tables do."""
    evens = tuple(range(t_window[0] + t_window[0] % 2, t_window[1] + 1, 2))  # one int per t
    cells = tuple(
        ((s, t), expr)
        for s in range(s_window[0], s_window[1] + 1)
        for t in evens
        if (expr := cell_fn(s, t)).p is not None
    )
    return BigradedTable(p, tuple(t_window), tuple(s_window), route, cells)


# ---------------------------------------------------------------------------
# the two tables


def _uncompleted_ext_cell(s: int, t: int, t0_even_row: bool) -> ModuleExpr:
    if t % 2 or s < 0:
        return zero_module()
    if t == 0:
        out = zero_module()
        if s == 0:
            return local_free(2)
        if s == 2:
            out = prufer(2)
        if s >= 2 and t0_even_row:
            out = out + cyclic(2, 1)
        return out
    if s == 1:
        v = vp(t, 2)
        # t = 2^(k+1) m with m odd: k = v - 1; Z/2^(k+2) needs k != 0
        return cyclic(2, 1) if v == 1 else cyclic(2, v + 1)
    if s >= 2:
        return cyclic(2, 1)
    return zero_module()


def hovey_sadofsky_table(
    p: int = 2,
    t_window: tuple[int, int] = (-48, 48),
    s_max: int = 5,
    t0_even_row: bool = DEFAULT_T0_EVEN_ROW,
) -> BigradedTable:
    """Ext^(s,t) over E(1)_*E(1) of the sphere at p = 2, transcribed:
    Z_(2) at (0,0); Q/Z_(2) at (2,0); Z/2^(k+2) at s = 1, t = 2^(k+1)m
    with m odd and k nonzero; Z/2 at s = 1, t = 4t'+2; Z/2 for s >= 2 and
    even t; zero elsewhere.  Only tabulated at p = 2."""
    if p != 2:
        raise UnsupportedPrime("the uncompleted Ext table is only known at p = 2")
    return _build_table(
        p, t_window, (0, s_max), "hovey-sadofsky",
        lambda s, t: _uncompleted_ext_cell(s, t, t0_even_row),
    )


def _golden_cell(s: int, t: int, t0_even_row: bool) -> ModuleExpr:
    if t % 2 or s < 0:
        return zero_module()
    if t == 0:
        if s in (0, 1):
            return padic(2)
        return cyclic(2, 1) if t0_even_row else zero_module()
    if s == 1:
        v = vp(t, 2)
        return cyclic(2, 1) if v == 1 else cyclic(2, v + 1)
    if s >= 2:
        return cyclic(2, 1)
    return zero_module()


def golden_table(
    p: int = 2,
    t_window: tuple[int, int] = (-48, 48),
    s_max: int = 5,
    t0_even_row: bool = DEFAULT_T0_EVEN_ROW,
) -> BigradedTable:
    """Continuous cohomology of the height-1 stabilizer group on E_t at
    p = 2: Z_2 at (s, t) = (0, 0) and (1, 0); otherwise the same torsion
    rows as the uncompleted Ext table."""
    if p != 2:
        raise UnsupportedPrime("the reference table is only known at p = 2")
    return _build_table(
        p, t_window, (0, s_max), "golden",
        lambda s, t: _golden_cell(s, t, t0_even_row),
    )


# ---------------------------------------------------------------------------
# the collapsing page


class SSPage(Value):
    """E_2 = E_infinity page: (i, s, t) -> module, i in {0, 1} only, which
    construction enforces and which makes the collapse structural: d_r
    (r >= 2) moves i by r, so it never joins two nonzero cells.  The cells
    obey the rules of ``BigradedTable`` cells, and ``get`` reads the same
    kind of dict index, which equality and hashing never read."""

    __slots__ = ("p", "t_window", "s_window", "cells", "_by_key")

    def __init__(self, p, t_window, s_window, cells):
        self._set(p, t_window, s_window, cells)
        _index_cells(self)

    def _key(self):
        return self.p, self.t_window, self.s_window, self.cells

    def get(self, i: int, s: int, t: int) -> ModuleExpr:
        expr = self._by_key.get((i, s, t))
        return zero_module() if expr is None else expr


def apply_l_functors(table: BigradedTable) -> SSPage:
    """Cellwise L0 and L1 of the input Ext table, one call of each per
    cell: the column-0 cells, then the column-1 cells, each in the input's
    key order, so the page's cells come out in key order."""
    col0, col1 = [], []
    for (s, t), expr in table.cells:
        e0, e1 = l0(expr), l1(expr)
        if e0.p is not None:
            col0.append(((0, s, t), e0))
        if e1.p is not None:
            col1.append(((1, s, t), e1))
    return SSPage(table.p, table.t_window, table.s_window, tuple(col0 + col1))


def assemble_abutment(page: SSPage, s_max: int | None = None) -> BigradedTable:
    """Collapse the two-column page: the abutment at (n, t) is the direct
    sum of the (0, n, t) and (1, n+1, t) entries, with a collision flag
    whenever both are nonzero (extension ambiguity in the associated
    graded).  Each nonzero cell (i, s, t) lands in degree n = s - i, so
    the page's cells are visited once and the rest of the window never."""
    if s_max is None:
        s_max = page.s_window[1]
    sums = {}
    collisions = set()
    for (i, s, t), expr in page.cells:
        n = s - i
        if not 0 <= n <= s_max:
            continue
        if (n, t) in sums:
            collisions.add((n, t))
            expr = sums[n, t] + expr
        sums[n, t] = expr
    return BigradedTable(
        page.p,
        page.t_window,
        (0, s_max),
        "ss",
        tuple(sorted(sums.items())),
        frozenset(collisions),
    )


def derived_ss_table(
    p: int = 2,
    t_window: tuple[int, int] = (-48, 48),
    s_max: int = 5,
    t0_even_row: bool = DEFAULT_T0_EVEN_ROW,
) -> BigradedTable:
    """Full pipeline: Ext input (one extra row of s for the L1 column),
    L functors, collapse, abutment on the requested window."""
    source = hovey_sadofsky_table(p, t_window, s_max + 1, t0_even_row)
    return assemble_abutment(apply_l_functors(source), s_max=s_max)


# ---------------------------------------------------------------------------
# comparison and serialization


def compare_tables(a: BigradedTable, b: BigradedTable) -> list[tuple[int, int, ModuleExpr, ModuleExpr]]:
    """Cells where the two tables differ; empty iff identical on the
    shared window.  Raises WindowMismatch when the windows differ.  Equal
    indexes mean no difference: each holds every nonzero cell of its table."""
    if not a.same_window(b):
        raise WindowMismatch(
            f"windows differ: {a.t_window}x{a.s_window} vs {b.t_window}x{b.s_window}"
        )
    if a._by_key == b._by_key:
        return []
    diffs = []
    keys = sorted(a._by_key.keys() | b._by_key.keys())
    for s, t in keys:
        ea, eb = a.get(s, t), b.get(s, t)
        if ea is not eb and ea != eb:
            diffs.append((s, t, ea, eb))
    return diffs


def table_to_json(table: BigradedTable) -> str:
    import json  # only the json format needs it; verify never loads it

    doc = {
        "p": table.p,
        "window": {"t": list(table.t_window), "s": list(table.s_window)},
        "route": table.route,
        "cells": [
            {
                "s": s,
                "t": t,
                "module": format_module_expr(expr),
                "collision": (s, t) in table.collisions,
            }
            for (s, t), expr in table.cells
        ],
    }
    return json.dumps(doc, indent=2)


def table_to_csv(table: BigradedTable) -> str:
    import csv  # only the csv format needs it; verify never loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["s", "t", "module", "collision"])
    for (s, t), expr in table.cells:
        writer.writerow([s, t, format_module_expr(expr), str((s, t) in table.collisions).lower()])
    return buf.getvalue()
