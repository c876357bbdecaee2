"""Bigraded tables, the collapsing page, assembly, and serialization."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import abutment_by_cells, abutment_cell, table_from_json
from stabcoh.cli import compute_route_table
from stabcoh.cohomology import continuous_via_quotients, units_cohomology
from stabcoh.config import RunConfig
from stabcoh.errors import UnsupportedPrime, WindowMismatch
from stabcoh.modules import ModuleExpr, cyclic, l0, l1, local_free, padic, prufer, zero_module
from stabcoh.spectral import (
    BigradedTable,
    SSPage,
    _golden_cell,
    _uncompleted_ext_cell,
    apply_l_functors,
    assemble_abutment,
    compare_tables,
    derived_ss_table,
    golden_table,
    hovey_sadofsky_table,
    table_to_csv,
    table_to_json,
)


def test_uncompleted_ext_table_spot_values():
    h = hovey_sadofsky_table()
    assert h.get(0, 0) == local_free(2)
    assert h.get(2, 0) == prufer(2) + cyclic(2, 1)  # t=0 counted even (default)
    assert h.get(1, 8) == cyclic(2, 4)  # t = 2^(k+1) m, k = 2
    assert h.get(1, 6) == cyclic(2, 1)
    assert h.get(0, 2) == zero_module()
    assert h.get(1, 2) == cyclic(2, 1)
    assert h.get(1, 4) == cyclic(2, 3)
    assert h.get(3, 0) == cyclic(2, 1)
    assert h.get(4, 10) == cyclic(2, 1)
    assert h.get(1, 0) == zero_module()


def test_uncompleted_ext_table_flag_false():
    h = hovey_sadofsky_table(t0_even_row=False)
    assert h.get(2, 0) == prufer(2)
    assert h.get(3, 0) == zero_module()
    assert h.get(2, 2) == cyclic(2, 1)  # unaffected away from t = 0


def test_golden_table_spot_values():
    g = golden_table()
    assert g.get(0, 0) == padic(2)
    assert g.get(1, 0) == padic(2)
    assert g.get(1, 8) == cyclic(2, 4)
    assert g.get(1, 16) == cyclic(2, 5)  # t = 2^(k+1) m forces k = 3
    assert g.get(1, 6) == cyclic(2, 1)
    assert g.get(3, 4) == cyclic(2, 1)
    assert g.get(0, 3) == zero_module()
    assert g.get(2, 0) == cyclic(2, 1)
    assert g.get(1, -8) == cyclic(2, 4)


def test_tables_refuse_odd_primes():
    with pytest.raises(UnsupportedPrime):
        hovey_sadofsky_table(p=3)
    with pytest.raises(UnsupportedPrime):
        golden_table(p=5)


def test_apply_l_functors_spot_values():
    t = hovey_sadofsky_table(t_window=(-8, 8), s_max=3)
    page = apply_l_functors(t)
    assert page.get(1, 2, 0) == padic(2)  # L1 of the divisible part
    assert page.get(0, 2, 0) == cyclic(2, 1)  # L0 kills Q/Z, keeps Z/2
    assert page.get(0, 1, 8) == cyclic(2, 4)
    assert page.get(1, 1, 8) == zero_module()
    assert page.get(0, 0, 0) == padic(2)


def test_apply_l_functors_pure_divisible_cell():
    # with t=0 outside the even row, the (2,0) cell is exactly Q/Z_(2):
    # its first derived functor is Z_2 and its completion vanishes
    t = hovey_sadofsky_table(t_window=(0, 0), s_max=3, t0_even_row=False)
    page = apply_l_functors(t)
    assert page.get(1, 2, 0) == padic(2)
    assert page.get(0, 2, 0) == zero_module()


def test_apply_l_functors_empty_table():
    t = BigradedTable(2, (0, 1), (0, 1), "hovey-sadofsky", ())
    page = apply_l_functors(t)
    assert page.cells == ()
    assert assemble_abutment(page).cells == ()


def test_page_rejects_higher_columns():
    with pytest.raises(ValueError):
        SSPage(2, (0, 0), (0, 1), (((2, 0, 0), padic(2)),))


def test_abutment_contributions_are_constrained():
    t = hovey_sadofsky_table(t_window=(-8, 8), s_max=4)
    page = apply_l_functors(t)
    out = assemble_abutment(page, s_max=3)
    for tt in range(-8, 9):
        for n in range(4):
            cell = abutment_cell(page, n, tt)
            for (i, s), expr in cell.contributions:
                assert (i, s) in ((0, n), (1, n + 1))
                assert not expr.is_zero
            assert out.get(n, tt) == cell.assembled
            assert ((n, tt) in out.collisions) == cell.collision
    # the t=0 tower: H^1 receives exactly the L1 of Ext^(2,0)
    cell = abutment_cell(page, 1, 0)
    assert cell.assembled == padic(2)
    assert cell.contributions == (((1, 2), padic(2)),)
    assert not cell.collision
    assert out == abutment_by_cells(page, s_max=3)


def _nonzero_exprs(p):
    counts = st.integers(min_value=0, max_value=2)
    return st.builds(
        lambda f, z, cy, q: ModuleExpr(p, f, z, tuple(cy), q),
        counts,
        counts,
        st.lists(st.integers(min_value=1, max_value=5), max_size=2),
        counts,
    ).filter(lambda m: not m.is_zero)


@st.composite
def pages_and_s_max(draw):
    """A page on a small random window with random nonzero cells in both
    columns, and an s_max from 0 to one past the page's top row, or None."""
    p = draw(st.sampled_from([2, 3]))
    t_lo = draw(st.integers(min_value=-4, max_value=4))
    t_hi = t_lo + draw(st.integers(min_value=0, max_value=4))
    s_top = draw(st.integers(min_value=0, max_value=4))
    keys = [(i, s, t) for i in (0, 1) for s in range(s_top + 1) for t in range(t_lo, t_hi + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    cells = tuple(sorted((key, draw(_nonzero_exprs(p))) for key in chosen))
    s_max = draw(st.none() | st.integers(min_value=0, max_value=s_top + 1))
    return SSPage(p, (t_lo, t_hi), (0, s_top), cells), s_max


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pages_and_s_max())
@example((SSPage(2, (0, 1), (0, 3), ()), None))  # empty page
@example((  # a collision at (1, 0), and s_max = 1 below the top row 3
    SSPage(
        2,
        (0, 1),
        (0, 3),
        (
            ((0, 1, 0), cyclic(2, 1)),
            ((0, 3, 1), cyclic(2, 2)),
            ((1, 2, 0), padic(2)),
            ((1, 3, 1), padic(2)),
        ),
    ),
    1,
))
def test_sparse_assembly_equals_per_cell_oracle(page_and_s_max):
    page, s_max = page_and_s_max
    assert assemble_abutment(page, s_max) == abutment_by_cells(page, s_max)


def test_assembled_equals_golden_both_conventions():
    for flag in (True, False):
        ss = derived_ss_table(t0_even_row=flag)
        gold = golden_table(t0_even_row=flag)
        assert compare_tables(ss, gold) == []
        assert ss.collisions == frozenset()


def test_assembly_collision_flag():
    # a synthetic page with both contributions nonzero in one abutment cell
    page = SSPage(
        2,
        (0, 0),
        (0, 2),
        (((0, 1, 0), cyclic(2, 1)), ((1, 2, 0), padic(2))),
    )
    out = assemble_abutment(page, s_max=2)
    assert out.get(1, 0) == padic(2) + cyclic(2, 1)
    assert (1, 0) in out.collisions


def test_compare_tables_reports_cells():
    a = golden_table(t_window=(0, 8), s_max=2)
    b = golden_table(t_window=(0, 8), s_max=2)
    assert compare_tables(a, b) == []
    cells = dict(b.cells)
    cells[(1, 8)] = cyclic(2, 3)
    b2 = BigradedTable(2, b.t_window, b.s_window, "golden", tuple(sorted(cells.items())))
    diffs = compare_tables(a, b2)
    assert len(diffs) == 1 and diffs[0][:2] == (1, 8)
    with pytest.raises(WindowMismatch):
        compare_tables(a, golden_table(t_window=(0, 6), s_max=2))


def test_compare_tables_of_differing_tables_walks_every_key():
    # equal indexes return at once; tables that differ still get the walk
    # over the sorted union of both tables' keys: a changed cell, a cell
    # on one side only, and one on the other side only
    a = golden_table(t_window=(-16, 16), s_max=3)
    cells = dict(a.cells)
    cells[(1, 8)] = cyclic(2, 3)
    del cells[(0, 0)]
    assert a.get(1, 7) == zero_module()
    cells[(1, 7)] = padic(2)
    b = BigradedTable(a.p, a.t_window, a.s_window, "ss", tuple(sorted(cells.items())))
    keys = sorted(a._by_key.keys() | b._by_key.keys())
    walk = [(s, t, a.get(s, t), b.get(s, t)) for s, t in keys if a.get(s, t) != b.get(s, t)]
    assert [d[:2] for d in walk] == [(0, 0), (1, 7), (1, 8)]
    assert compare_tables(a, b) == walk
    assert compare_tables(b, a) == [(s, t, y, x) for s, t, x, y in walk]
    twin = BigradedTable(a.p, a.t_window, a.s_window, "ss", a.cells)
    assert compare_tables(a, twin) == [] and a != twin


def test_cell_index_takes_no_part_in_equality_or_hash():
    a = golden_table(t_window=(-16, 16), s_max=3)
    b = BigradedTable(a.p, a.t_window, a.s_window, a.route, a.cells)
    assert a.get(1, 8) == cyclic(2, 4)  # builds the index of a only
    assert a == b and hash(a) == hash(b)
    for (s, t), expr in a.cells:
        assert b.get(s, t) == expr
    assert a == b and hash(a) == hash(b)
    assert a.get(1, 7) == zero_module() and a.get(9, 0) == zero_module()
    page = apply_l_functors(hovey_sadofsky_table(t_window=(-16, 16), s_max=3))
    twin = SSPage(page.p, page.t_window, page.s_window, page.cells)
    assert page.get(1, 2, 0) == padic(2) and page.get(0, 1, 7) == zero_module()
    assert page == twin and hash(page) == hash(twin)
    # a cell present on one side only reads zero on the other
    cells = dict(a.cells)
    del cells[(1, 8)]
    c = BigradedTable(a.p, a.t_window, a.s_window, a.route, tuple(sorted(cells.items())))
    assert compare_tables(a, c) == [(1, 8, cyclic(2, 4), zero_module())]


def test_tables_that_differ_only_in_route_or_collisions_are_unequal():
    a = golden_table(t_window=(0, 8), s_max=2)
    assert a == BigradedTable(a.p, a.t_window, a.s_window, a.route, a.cells)
    assert a != BigradedTable(a.p, a.t_window, a.s_window, "ss", a.cells)
    assert a != BigradedTable(a.p, a.t_window, a.s_window, a.route, a.cells, frozenset({(1, 8)}))
    page = apply_l_functors(hovey_sadofsky_table(t_window=(0, 8), s_max=2))
    for record, name in ((a, "cells"), (a, "_by_key"), (page, "cells")):
        with pytest.raises(AttributeError):
            setattr(record, name, ())


def test_wide_window_assembly_matches_golden():
    window = (-512, 512)
    ss = derived_ss_table(2, window, 5)
    assert ss.collisions == frozenset()
    assert compare_tables(ss, golden_table(2, window, 5)) == []


def test_json_round_trip_and_schema():
    t = derived_ss_table(t_window=(-8, 8), s_max=3)
    doc = json.loads(table_to_json(t))
    assert doc["p"] == 2
    assert doc["window"] == {"t": [-8, 8], "s": [0, 3]}
    assert doc["route"] == "ss"
    assert all(set(c) == {"s", "t", "module", "collision"} for c in doc["cells"])
    assert table_from_json(table_to_json(t)) == t


def test_csv_mirror():
    t = golden_table(t_window=(0, 4), s_max=1)
    lines = table_to_csv(t).strip().splitlines()
    assert lines[0] == "s,t,module,collision"
    assert "1,4,Z/2^3,false" in lines


FROZEN_GOLDEN_0_16_S3 = """\
s,t,module,collision
0,0,Zp,false
1,0,Zp,false
1,2,Z/2,false
1,4,Z/2^3,false
1,6,Z/2,false
1,8,Z/2^4,false
1,10,Z/2,false
1,12,Z/2^3,false
1,14,Z/2,false
1,16,Z/2^5,false
2,0,Z/2,false
2,2,Z/2,false
2,4,Z/2,false
2,6,Z/2,false
2,8,Z/2,false
2,10,Z/2,false
2,12,Z/2,false
2,14,Z/2,false
2,16,Z/2,false
3,0,Z/2,false
3,2,Z/2,false
3,4,Z/2,false
3,6,Z/2,false
3,8,Z/2,false
3,10,Z/2,false
3,12,Z/2,false
3,14,Z/2,false
3,16,Z/2,false
"""


def test_golden_master_csv_regression():
    # frozen literal transcription of the reference table on 0 <= t <= 16,
    # s <= 3; guards against accidental edits to the row rules
    got = table_to_csv(golden_table(t_window=(0, 16), s_max=3))
    assert got == FROZEN_GOLDEN_0_16_S3


def test_zero_cells_are_omitted():
    t = golden_table(t_window=(1, 1), s_max=5)  # odd t: everything zero
    assert t.cells == ()
    with pytest.raises(ValueError):
        BigradedTable(2, (0, 0), (0, 0), "golden", (((0, 0), zero_module()),))
    with pytest.raises(ValueError, match="zero cells"):
        SSPage(2, (0, 0), (0, 1), (((0, 0, 0), zero_module()),))


def test_page_refuses_cells_outside_its_window():
    with pytest.raises(ValueError, match="outside window"):
        SSPage(2, (0, 0), (0, 1), (((0, 2, 0), padic(2)),))
    with pytest.raises(ValueError, match="outside window"):
        SSPage(2, (0, 0), (0, 1), (((1, 1, 2), padic(2)),))


def test_duplicate_cells_are_refused():
    # with two values at one (s, t), compare_tables would read only one
    # of them and could miss a conflicting cell
    with pytest.raises(ValueError, match="duplicate"):
        BigradedTable(
            2, (0, 4), (0, 2), "golden",
            (((1, 2), cyclic(2, 1)), ((1, 2), cyclic(2, 3))),
        )
    with pytest.raises(ValueError, match="duplicate"):
        SSPage(2, (0, 0), (0, 2), (((0, 1, 0), cyclic(2, 1)), ((0, 1, 0), padic(2))))
    doc = json.loads(table_to_json(golden_table(t_window=(0, 4), s_max=2)))
    doc["cells"].append({"s": 1, "t": 2, "module": "Z/2^3", "collision": False})
    with pytest.raises(ValueError, match="duplicate"):
        table_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# builders emit cells in key order; bulk cell checks


def _table_by_cells(p, t_window, s_max, route, cell):
    """The table of cell(s, t) built one cell at a time over every (s, t)
    of the window, odd t included, then sorted by key."""
    cells = []
    for t in range(t_window[0], t_window[1] + 1):
        for s in range(s_max + 1):
            expr = cell(s, t)
            if not expr.is_zero:
                cells.append(((s, t), expr))
    return BigradedTable(p, t_window, (0, s_max), route, tuple(sorted(cells, key=lambda it: it[0])))


def _page_by_cells(source):
    """L0 and L1 of source, one (i, s, t) of the window at a time."""
    cells = []
    for i, functor in ((0, l0), (1, l1)):
        for s in range(source.s_window[0], source.s_window[1] + 1):
            for t in range(source.t_window[0], source.t_window[1] + 1):
                expr = functor(source.get(s, t))
                if not expr.is_zero:
                    cells.append(((i, s, t), expr))
    return SSPage(source.p, source.t_window, source.s_window, tuple(cells))


def _assert_keys_increase(record):
    keys = [key for key, _ in record.cells]
    assert all(a < b for a, b in zip(keys, keys[1:])), keys


@st.composite
def table_windows(draw, reach=60, width=40):
    """A t window with odd, negative or single-point bounds, an s_max from 0
    to 6 and a t0_even_row value."""
    t_lo = draw(st.integers(min_value=-reach, max_value=reach))
    t_hi = t_lo + draw(st.integers(min_value=0, max_value=width))
    return (t_lo, t_hi), draw(st.integers(min_value=0, max_value=6)), draw(st.booleans())


@settings(derandomize=True, max_examples=120, deadline=None)
@given(table_windows())
@example(((-7, 13), 5, True))
@example(((-1, -1), 0, False))
@example(((0, 0), 6, True))
@example(((3, 3), 2, True))
def test_transcribed_tables_and_ss_route_equal_per_cell_oracles(window):
    # equality reads cells, so a builder that emitted them out of key order
    # would make equal tables compare unequal; the oracles evaluate every
    # (s, t), odd t included, where the builders read even t only
    t_window, s_max, t0 = window
    source = hovey_sadofsky_table(2, t_window, s_max + 1, t0)
    want_source = _table_by_cells(
        2, t_window, s_max + 1, "hovey-sadofsky", lambda s, t: _uncompleted_ext_cell(s, t, t0)
    )
    page = apply_l_functors(source)
    want_page = _page_by_cells(want_source)
    ss = derived_ss_table(2, t_window, s_max, t0)
    golden = golden_table(2, t_window, s_max, t0)
    want_golden = _table_by_cells(2, t_window, s_max, "golden", lambda s, t: _golden_cell(s, t, t0))
    for record in (source, page, ss, golden):
        _assert_keys_increase(record)
    assert source == want_source
    assert page == want_page
    assert ss == abutment_by_cells(want_page, s_max)
    assert golden == want_golden
    cfg = RunConfig(p=2, t_lo=t_window[0], t_hi=t_window[1], s_max=s_max, t0_even_row=t0)
    assert compute_route_table("ss", cfg) == ss
    assert compute_route_table("golden", cfg) == golden


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), table_windows(reach=40, width=24), st.booleans())
@example(2, ((-7, 13), 5, True), True)
@example(3, ((-1, -1), 0, True), True)
def test_route_tables_equal_per_cell_oracles(p, window, with_brute):
    # structured on every window, brute too on windows cut to at most 9
    # degrees within |t| <= 32 (its cost grows with the weights' depth,
    # not with the table layer under test)
    (t_lo, t_hi), s_max, _ = window
    routes = {"structured": units_cohomology}
    if with_brute:
        routes["brute"] = continuous_via_quotients
        width = min(t_hi - t_lo, 8)
        t_lo = max(-24, min(t_lo, 24))
        t_hi = t_lo + width
    cfg = RunConfig(p=p, t_lo=t_lo, t_hi=t_hi, s_max=s_max)
    for route, fn in routes.items():
        table = compute_route_table(route, cfg)
        _assert_keys_increase(table)
        want = _table_by_cells(
            p, (t_lo, t_hi), s_max, route,
            lambda s, t: zero_module() if t % 2 else fn(p, t // 2, s_max).group(s),
        )
        assert table == want


def _first_refusal(cells, s_window, t_window, page):
    """The message of the per-cell checks on cells, in order, or None: a
    page's column other than 0 or 1 anywhere first, then per cell s
    outside the window, t outside it, a zero cell, a key seen before."""
    if page and any(key[0] not in (0, 1) for key, _ in cells):
        return "derived index must be 0 or 1"
    seen = set()
    for key, expr in cells:
        s, t = key[-2:]
        if not s_window[0] <= s <= s_window[1]:
            return f"cell s={s} outside window {s_window}"
        if not t_window[0] <= t <= t_window[1]:
            return f"cell t={t} outside window {t_window}"
        if expr.is_zero:
            return "zero cells must be omitted"
        if key in seen:
            return f"duplicate cell {key}"
        seen.add(key)
    return None


# "duplicate" twice: it is dropped while the list is still empty
_FAULTS = ("duplicate", "zero", "s", "t", "duplicate", "column")
_CELL_EXPRS = st.sampled_from([cyclic(2, 1), cyclic(2, 3), padic(2), prufer(2), local_free(2) + cyclic(2, 2)])


@st.composite
def planted_cells(draw):
    """(page?, s_window, t_window, cells): distinct in-window keys with
    nonzero cells, then up to three planted faults, each a zero cell, an s
    or a t outside the window, a repeated key, or (for a page) a column
    other than 0 or 1, at random places; the list may stay sorted or not."""
    page = draw(st.booleans())
    s_window = (0, draw(st.integers(min_value=0, max_value=4)))
    t_lo = draw(st.integers(min_value=-6, max_value=6))
    t_window = (t_lo, t_lo + draw(st.integers(min_value=0, max_value=6)))
    heads = [(0,), (1,)] if page else [()]
    keys = [
        head + (s, t)
        for head in heads
        for s in range(s_window[0], s_window[1] + 1)
        for t in range(t_window[0], t_window[1] + 1)
    ]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=12))
    cells = [(key, draw(_CELL_EXPRS)) for key in chosen]
    if draw(st.booleans()):
        cells.sort(key=lambda it: it[0])
    for fault in draw(st.lists(st.sampled_from(_FAULTS if page else _FAULTS[:5]), max_size=3)):
        head = draw(st.sampled_from(heads))
        s = draw(st.integers(*s_window))
        t = draw(st.integers(*t_window))
        expr = draw(_CELL_EXPRS | st.just(zero_module()))  # a cell may carry two faults
        if fault == "zero":
            key, expr = head + (s, t), zero_module()
        elif fault == "s":
            key = head + (draw(st.sampled_from([s_window[0] - 1, s_window[1] + 1, -5, 9])), t)
        elif fault == "t":
            key = head + (s, draw(st.sampled_from([t_window[0] - 1, t_window[1] + 1, -40, 40])))
        elif fault == "column":
            key = (draw(st.sampled_from([-1, 2, 3])), s, t)
        elif cells:
            key = draw(st.sampled_from(cells))[0]
        else:
            continue
        cells.insert(draw(st.integers(0, len(cells))), (key, expr))
    return page, s_window, t_window, tuple(cells)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(planted_cells())
@example((False, (0, 2), (0, 4), (((1, 2), cyclic(2, 1)), ((1, 2), zero_module()))))
@example((True, (0, 1), (0, 0), (((0, 2, 0), padic(2)), ((2, 0, 0), padic(2)))))
@example((False, (0, 0), (-1, 1), ()))
def test_bulk_cell_checks_refuse_as_per_cell_checks_would(planted):
    # the whole-table checks find every fault the per-cell checks find, and
    # name the same cell: the first one a per-cell walk would refuse
    page, s_window, t_window, cells = planted
    want = _first_refusal(cells, s_window, t_window, page)

    def build():
        if page:
            return SSPage(2, t_window, s_window, cells)
        return BigradedTable(2, t_window, s_window, "golden", cells)

    if want is None:
        assert build()._by_key == dict(cells)
    else:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == want
