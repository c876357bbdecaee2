"""Weight-module cohomology: routes, oracles, and cross-validation."""

import math
import random
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    _level_data,
    bar_cohomology_by_enumeration,
    cohomology_by_full_elimination,
    colimit_orders_at,
    cyclic_cohomology,
    cyclic_group_data,
    dense_array,
    enumerate_cohomology_type,
    full_bar_differential,
    image_exponents,
    is_associative,
    lattice_quotient_by_enumeration,
    primitive_root_by_orbit,
    quotient_level_cohomology,
    reference_bar_differential,
    sparse_rows,
)
from stabcoh import cli, cohomology, exact_linalg
from stabcoh.cohomology import (
    DEFAULT_BAR_BUDGET,
    CohomologyResult,
    FiniteGroupData,
    _action_class,
    _anchor_valuation,
    _bar_crosscheck,
    _BarCoboundary,
    _bar_crosscheck_class,
    _bar_groups,
    _brute_groups,
    _check_table,
    _colimit_level,
    _colimit_sweep,
    _complex_orders,
    _geometric_sum,
    _level_complex_matrices,
    _min_level,
    _orbit_representative,
    _partition_from_counts,
    _torsion_scalars,
    _unfold_orders,
    _units_groups,
    _units_precision,
    _units_total_complex,
    bar_cohomology_finite,
    continuous_via_quotients,
    primitive_root,
    procyclic_generator,
    teichmuller,
    torsion_order,
    units_cohomology,
    units_group_data,
)
from stabcoh.errors import BudgetExceeded, NoStabilization, PrecisionExhausted
from stabcoh.exact_linalg import (
    PRECISION_CEILING,
    CochainComplex,
    complex_cohomology,
    lattice_quotient_exponents,
    rank_one_cohomology,
    vp,
)
from stabcoh.modules import ModuleExpr, cyclic, is_prime, padic, zero_module


# --- number-theoretic anchor -------------------------------------------------


def test_valuation_anchor_for_five():
    # v_2(5^w - 1) = v_2(w) + 2 for even w, and 2 for odd w
    for w in range(1, 513):
        v = vp(5**w - 1, 2)
        if w % 2 == 0:
            assert v == vp(w, 2) + 2
        else:
            assert v == 2


def test_valuation_anchor_odd_primes():
    for p in (3, 5, 7):
        for w in range(1, 100):
            assert vp((1 + p) ** w - 1, p) == vp(w, p) + 1


def test_primitive_root_matches_orbit_definition():
    for p in range(3, 2000):
        if is_prime(p):
            assert primitive_root(p) == primitive_root_by_orbit(p), p


# --- finite cyclic groups ----------------------------------------------------


def test_cyclic_sign_action_on_z4():
    r = cyclic_cohomology(2, -1, 2, 2, 2)
    assert [str(r[s]) for s in range(3)] == ["Z/2", "Z/2", "Z/2"]


def test_cyclic_trivial_action_on_z4():
    r = cyclic_cohomology(2, 1, 2, 2, 2)
    assert [str(r[s]) for s in range(3)] == ["Z/2^2", "Z/2", "Z/2"]


def test_cyclic_trivial_group():
    r = cyclic_cohomology(1, 1, 2, 3, 3)
    assert r[0] == cyclic(2, 3)
    assert all(r[s] == zero_module() for s in (1, 2, 3))


def test_cyclic_two_periodicity():
    for m, a, p, N in [(2, 7, 2, 3), (4, 3, 2, 4), (3, 4, 3, 2), (6, 8, 3, 2)]:
        r = cyclic_cohomology(m, a, p, N, 5)
        for s in range(1, 4):
            assert r[s] == r[s + 2]


# --- bar complexes -----------------------------------------------------------


def test_bar_trivial_group():
    g = cyclic_group_data(1, 1, 2, 2)
    r = bar_cohomology_finite(g, 3)
    assert r.group(0) == cyclic(2, 2)
    assert all(r.group(s) == zero_module() for s in (1, 2, 3))


def test_bar_matches_tiny_enumeration():
    # C2 with the sign action on Z/4: compare against full cochain
    # enumeration in degrees 0..2
    table = ((0, 1), (1, 0))
    action = (1, 3)
    for s in range(3):
        want = bar_cohomology_by_enumeration(table, action, 2, 2, s)
        g = cyclic_group_data(2, 3, 2, 2)
        got = bar_cohomology_finite(g, 2).group(s)
        assert tuple(got.cyclics) == want and got.padics == got.free == 0


def test_bar_cross_route_agreement_with_cyclic():
    for (m, a, p, N) in [(2, -1, 2, 2), (2, 1, 2, 2), (3, 1, 3, 2), (4, 7, 2, 3)]:
        g = cyclic_group_data(m, a % p**N, p, N)
        bar = bar_cohomology_finite(g, 3, budget=10**7)
        cyc = cyclic_cohomology(m, a % p**N, p, N, 3)
        for s in range(4):
            assert bar.group(s) == cyc[s], (m, a, p, N, s)


def test_bar_units_mod_8_homomorphism_count():
    # (Z/8)^x = C2 x C2 acting trivially on Z/2: H^1 counts homs, (Z/2)^2
    g = units_group_data(2, 3, 0, 1)
    assert bar_cohomology_finite(g, 1).group(1) == cyclic(2, 1, 2)


def test_bar_budget_guard():
    g = units_group_data(2, 4, 0, 1)
    with pytest.raises(BudgetExceeded):
        bar_cohomology_finite(g, 3, budget=10**4)


def test_bar_group_axioms_checked():
    from stabcoh.cohomology import FiniteGroupData

    with pytest.raises(ValueError):
        FiniteGroupData(2, 1, ((0, 1), (1, 1)), (1, 1))  # row not a permutation
    with pytest.raises(ValueError):
        FiniteGroupData(2, 2, ((0, 1), (1, 0)), (1, 2))  # 2 is not a unit mod 4
    with pytest.raises(ValueError):
        FiniteGroupData(2, 2, ((1, 0), (0, 1)), (1, 1))  # index 0 not the identity
    with pytest.raises(ValueError):
        # g^2 = e but 3*3 = 9 is not 1 mod 16: action not multiplicative
        FiniteGroupData(2, 4, ((0, 1), (1, 0)), (1, 3))


# the smallest non-associative loop: a Latin square with an identity
LOOP_5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def test_group_data_refuses_the_order_5_loop():
    # rows and columns are permutations and index 0 an identity, so every
    # check before associativity passes
    assert all(sorted(col) == list(range(5)) for col in zip(*LOOP_5))
    assert not is_associative(LOOP_5)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupData(2, 1, LOOP_5, (1,) * 5)


def test_table_check_caches_no_failure():
    # a table that fails its axioms raises on every construction: the
    # shared table check stores verdicts, never a failure
    _check_table.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="not associative"):
            FiniteGroupData(2, 1, LOOP_5, (1,) * 5)
    info = _check_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_weights_of_one_quotient_share_one_table_check():
    # (Z/49)^x acting by two weights: one table, checked once; the action
    # checks run for each weight
    _check_table.cache_clear()
    g1, g2 = units_group_data(7, 2, 1, 2), units_group_data(7, 2, 2, 2)
    assert g1.table == g2.table and g1.action != g2.action
    info = _check_table.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    with pytest.raises(ValueError, match="not multiplicative"):
        FiniteGroupData(7, 2, g1.table, (1,) + g1.action[2:] + g1.action[1:2])
    assert _check_table.cache_info().hits == 2


def test_weights_of_one_quotient_share_one_units_table():
    # the table of (Z/p^r)^x depends on (p, r) alone: two weights at one
    # level get the same table object, equal to one built here from the
    # units, and the bar groups are the periodic model's raw groups
    for p, r, weights in ((2, 3, (1, 2)), (3, 2, (1, 2)), (7, 2, (1, 3))):
        g1, g2 = (units_group_data(p, r, w, 2) for w in weights)
        assert g1.table is g2.table and g1.action != g2.action, (p, r)
        units = [u for u in range(1, p**r) if u % p]
        fresh = tuple(tuple(units.index(u * v % p**r) for v in units) for u in units)
        assert g1.table == fresh and g1.table is not fresh, (p, r)
        for w, g in zip(weights, (g1, g2)):
            assert g.action == tuple(pow(u, w, p**2) for u in units), (p, r, w)
            want = tuple(enumerate(quotient_level_cohomology(p, w, r, 2, 1)))
            assert bar_cohomology_finite(g, 1).groups == want, (p, r, w)


def _symmetric_group_table(k):
    perms = list(permutations(range(k)))  # the identity comes first
    index = {q: i for i, q in enumerate(perms)}
    return tuple(tuple(index[tuple(a[b[x]] for x in range(k))] for b in perms) for a in perms)


def _direct_product_table(a, b):
    # (i, j) has index i * len(b) + j, so (0, 0) is 0
    m = len(b)
    return tuple(
        tuple(a[i][k] * m + b[j][l] for k in range(len(a)) for l in range(m))
        for i in range(len(a))
        for j in range(m)
    )


def test_light_associativity_test_matches_every_triple():
    # group tables, and products of a group with the order-5 loop, whose
    # group factor passes (x g) z = x (g z) while the table is not
    # associative; each relabelled by a permutation that fixes the
    # identity, and half of them with two entries of one row swapped.  Rows
    # stay permutations and index 0 an identity, so the verdict is
    # associativity alone, and it must be the verdict of every triple
    rng = random.Random(20261018)
    groups = [units_group_data(p, r, 0, 1).table for p, r in [(2, 3), (2, 4), (3, 2), (5, 2), (7, 1)]]
    groups += [cyclic_group_data(m, 1, 2, 1).table for m in (2, 3, 6, 8)]
    groups += [_symmetric_group_table(3), _symmetric_group_table(4)]
    loops = [_direct_product_table(h, LOOP_5) for h in groups[5:8] + groups[9:10]]
    loops += [_direct_product_table(LOOP_5, h) for h in groups[5:8]]
    verdicts = []
    for _ in range(400):
        tbl = rng.choice(groups + loops)
        n = len(tbl)
        perm = [0] + rng.sample(range(1, n), n - 1)
        inv = [perm.index(i) for i in range(n)]
        t = [[perm[tbl[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
        if n > 2 and rng.random() < 0.5:
            i = rng.randrange(1, n)
            j, k = rng.sample(range(1, n), 2)
            t[i][j], t[i][k] = t[i][k], t[i][j]
        t = tuple(map(tuple, t))
        try:
            FiniteGroupData(2, 1, t, (1,) * n)
            accepted = True
        except ValueError as e:
            assert "not associative" in str(e)
            accepted = False
        assert accepted == is_associative(t), t
        verdicts.append(accepted)
    assert any(verdicts) and not all(verdicts)


def test_small_model_equals_bar_on_quotients():
    for p, rmax in [(2, 4), (3, 2)]:
        for r in range(2 if p == 2 else 1, rmax + 1):
            for w in (-2, -1, 0, 1, 2, 4):
                for N in (1, 2, 3):
                    try:
                        g = units_group_data(p, r, w, N)
                    except ValueError:
                        continue
                    n = len(g)
                    smax = 3 if n <= 4 else (2 if n <= 8 else 1)
                    bar = bar_cohomology_finite(g, smax, budget=10**7)
                    small = quotient_level_cohomology(p, w, r, N, smax)
                    for s in range(smax + 1):
                        assert bar.group(s) == small[s], (p, r, w, N, s)


def _full_bar_groups(g, s_max):
    """H^s from the full cochain complex, n^k cochains in degree k."""
    n = len(g)
    ranks = tuple(n**k for k in range(s_max + 2))
    diffs = tuple(sparse_rows(full_bar_differential(g, k)) for k in range(s_max + 1))
    cx = CochainComplex(g.p, g.N, ranks, diffs)
    return [complex_cohomology(cx, s) for s in range(s_max + 1)]


def _bar_rows(g, k):
    """Every row of the normalized bar differential d^k, emitted from its
    one encoding."""
    d = _BarCoboundary(g, k)
    return d.rows(range(d.shape[0]))


def test_normalized_bar_equals_full_bar():
    # every group of acceptance 5's cyclic sweep with |G| <= 4 (s <= 3),
    # then the unit groups (Z/8)^x, (Z/16)^x and (Z/9)^x at the
    # cross-check's N = 2 and in its degrees s <= 2
    groups = []
    for p in (2, 3):
        for m in range(1, 5):
            for N in range(1, 5):
                M = p**N
                for a in range(1, M):
                    if a % p and pow(a, m, M) == 1:
                        groups.append((cyclic_group_data(m, a, p, N), 3))
    for p, r in [(2, 3), (2, 4), (3, 2)]:
        for w in range(-3, 7):
            groups.append((units_group_data(p, r, w, 2), 2))
    for g, s_max in groups:
        n = len(g) - 1
        for k in range(s_max + 1):
            d = _bar_rows(g, k)
            assert dense_array(d, n**k).shape == (n ** (k + 1), n**k)
            assert all(len(row) <= k + 2 for row in d)
        bar = bar_cohomology_finite(g, s_max, budget=10**7)
        full = _full_bar_groups(g, s_max)
        for s in range(s_max + 1):
            assert bar.group(s) == full[s], (g.p, g.N, len(g), g.action, s)


def test_bar_differential_matches_the_row_at_a_time_reference():
    # the one encoding of each bar differential against the row-at-a-time
    # reference on (Z/p^r)^x, r <= 3, acting on Z/p^N, N <= 3, by each
    # listed weight that descends, in degrees k <= 3 with at most 40,000
    # rows: the rows it emits for every head are the reference's, dict-equal
    # and in the same order, and applying it to random cochains is the
    # matrix product with those rows, taken row by row.  The weights give trivial actions and
    # actions with -1 in their image, so rows whose first and last terms
    # cancel (act = 1 at even k, act = -1 at odd k) occur; the last term's
    # column R // n is then missing from row R
    rng = np.random.default_rng(20261020)
    cases = cancelled = 0
    for p in (2, 3, 5, 7):
        for r in range(2 if p == 2 else 1, 4):
            for N in (1, 2, 3):
                for w in (0, 1, p**2):
                    try:
                        g = units_group_data(p, r, w, N)
                    except ValueError:
                        continue
                    n = len(g) - 1
                    M = p**N
                    for k in range(4):
                        if n ** (k + 1) > 40_000:
                            break
                        want = reference_bar_differential(g, k)
                        d = _BarCoboundary(g, k)
                        assert d.shape == (n ** (k + 1), n**k)
                        assert d.rows(range(n ** (k + 1))) == want, (p, r, N, w, k)
                        for f in rng.integers(0, M, size=(2, n**k)).tolist():
                            product = [sum(x * f[j] for j, x in row.items()) % M for row in want]
                            assert d.apply(f) == product, (p, r, N, w, k)
                        cases += 1
                        cancelled += sum(R // n not in row for R, row in enumerate(want))
    assert cases >= 250 and cancelled


def _bump_encoding(monkeypatch, k, bump):
    """Let bump edit the terms of every bar d^k that bar_cohomology_finite
    builds, before any of it is read."""
    real = cohomology._BarCoboundary

    def build(g, j):
        d = real(g, j)
        if j == k:
            bump(d.terms)
        return d

    monkeypatch.setattr(cohomology, "_BarCoboundary", build)


def test_bar_complex_refuses_one_changed_entry(monkeypatch):
    # d d = 0, checked by applying d^k to every column of d^(k-1): +1 on the
    # first term's coefficient in one row R of d^1 at p = 7, and of d^2 at
    # p = 3, adds row R mod c of d^(k-1) to row R of the composite, so every
    # R whose row there is nonzero must be refused; so must +1 on the sign
    # of any other term, which changes that term in every row.  Probe rows
    # and the applied operator are read from the same edited terms
    rng = random.Random(20261019)
    for p, k in ((7, 1), (3, 2)):
        g = units_group_data(p, 2, 1, 2)
        bar_cohomology_finite(g, k)
        c = (len(g) - 1) ** k  # the rows of d^(k-1), the columns of d^k
        live = [R for R, row in enumerate(_bar_rows(g, k - 1)) if row]
        rows = [R for R in range((len(g) - 1) ** (k + 1)) if R % c in live]
        for R in rng.sample(rows, 8):

            def bump_first(terms, R=R):
                terms[0][0][R] += 1

            with monkeypatch.context() as m:
                _bump_encoding(m, k, bump_first)
                with pytest.raises(ValueError, match="did not square to zero"):
                    bar_cohomology_finite(g, k)
        for t in range(1, k + 2):

            def bump_sign(terms, t=t):
                terms[t] = (terms[t][0] + 1, terms[t][1])

            with monkeypatch.context() as m:
                _bump_encoding(m, k, bump_sign)
                with pytest.raises(ValueError, match="did not square to zero"):
                    bar_cohomology_finite(g, k)


def test_zmod_complex_refuses_a_column_out_of_range():
    # a row key n or -1 in a differential with n columns is a shape error,
    # in the one-column d^0 and in d^1 alike; the complex squares to zero
    # over Z/9 before the bad key goes in
    d0 = [{0: 3}, {0: 6}]
    d1 = [{0: 2, 1: 8}, {}, {1: 3}]
    ranks = (1, 2, 3)
    CochainComplex(3, 2, ranks, (d0, d1))
    for k, n in ((0, 1), (1, 2)):
        for bad in (n, -1):
            diffs = [d0, d1]
            diffs[k] = [{**diffs[k][0], bad: 1}] + diffs[k][1:]
            with pytest.raises(ValueError, match=f"differential {k} does not have shape"):
                CochainComplex(3, 2, ranks, tuple(diffs))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_crosscheck_bar_differentials_match_full_row_elimination(p):
    # every bar complex of every class mod e, built from the class's own
    # action: bar_cohomology_finite, which eliminates a tall differential on
    # a checked probe of its rows, equals the oracle's elimination of every
    # row and, within the budget, the full bar complex's groups; and they
    # are the groups the cross-check shares across the class's orbit
    e = p * (p - 1)
    tall = 0
    for w in range(e):
        r, s_chk, shared = _bar_crosscheck_class(p, w, 2)
        g = units_group_data(p, r, w, 2)
        n = len(g) - 1
        diffs = [_bar_rows(g, k) for k in range(s_chk + 1)]
        tall += sum(len(d) > 2 * n**k for k, d in enumerate(diffs))
        bar = bar_cohomology_finite(g, s_chk)
        full = None
        if len(g) ** (2 * s_chk + 1) <= DEFAULT_BAR_BUDGET:
            full = _full_bar_groups(g, s_chk)
        for s in range(s_chk + 1):
            got = bar.group(s)
            dout = dense_array(diffs[s], n**s)
            din = dense_array(diffs[s - 1], n ** (s - 1)) if s else None
            assert got == cohomology_by_full_elimination(dout, din, n**s, p, 2), (w, s)
            assert full is None or got == full[s], (w, s)
            assert got == shared[s][1], (w, s)
    assert tall


def _snf_sizes(monkeypatch):
    """The shape and modulus exponent of every snf_mod call, through each
    module that binds the name."""
    calls = []
    real = exact_linalg.snf_mod

    def spy(A, p, L, *args, **kwargs):
        calls.append((np.shape(A), L))
        return real(A, p, L, *args, **kwargs)

    for module in (exact_linalg, cohomology):
        monkeypatch.setattr(module, "snf_mod", spy)
    return calls


def test_bar_hot_path_eliminates_probes_only(monkeypatch):
    # count guard: d^1 of (Z/49)^x is 1,681 x 41; a Smith form that sees
    # more than its 82 x 41 probe means full-height elimination is back,
    # and more than 82 emitted rows of d^1 means it is being materialized
    calls = _snf_sizes(monkeypatch)
    emitted = {}
    real = _BarCoboundary.rows

    def rows(self, indices):
        out = real(self, indices)
        emitted[self.shape] = emitted.get(self.shape, 0) + len(out)
        return out

    monkeypatch.setattr(_BarCoboundary, "rows", rows)
    bar_cohomology_finite(units_group_data(7, 2, 1, 2), 1)
    assert calls and max(m * n for (m, n), _ in calls) <= 82 * 41
    assert (82, 41) in [shape for shape, _ in calls]
    assert 0 < emitted[(1681, 41)] <= 82


def _reordered_cyclic(m, elems, p, N, u):
    """Z/m with its elements indexed in the order elems, acting on Z/p^N
    through the unit u."""
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[(a + b) % m] for b in elems) for a in elems)
    return FiniteGroupData(p, N, table, tuple(pow(u, e, p**N) for e in elems))


def test_bar_probe_fallback_adds_the_rows_outside_its_span(monkeypatch):
    # Z/6 listed as 0, 2, 4, 1, 3, 5: the first two non-identity elements
    # generate the proper subgroup {0, 2, 4}, so the probe of d^k, the rows
    # of the first 2 n^(k-1) heads, can miss rows of the whole differential.
    # On Z/49 by 1, 48 and 3^7 (orders 1, 2 and 6) the candidate check
    # flags rows in degrees 1 and 2, 0 and 2, and 1 and 2.  Z/9 listed as
    # 0, 3, 6, 1, ..., 8 on Z/9 by 4 acts trivially on {0, 3, 6}, and the
    # rows the probe misses lie off its span by 3, not by a unit: degrees 0,
    # 1 and 2 are flagged.  Each flagged degree runs exactly one more
    # elimination, of the probe plus the flagged rows, and the groups are
    # those of the full bar complex and of the oracle's elimination of
    # every row
    z6, z9 = (0, 2, 4, 1, 3, 5), (0, 3, 6, 1, 2, 4, 5, 7, 8)
    cases = [
        (_reordered_cyclic(6, z6, 7, 2, 1), [(2, 1), (10, 5), (19, 5), (50, 25), (122, 25)]),
        (_reordered_cyclic(6, z6, 7, 2, 48), [(2, 1), (5, 1), (10, 5), (50, 25), (125, 25)]),
        (_reordered_cyclic(6, z6, 7, 2, 3**7), [(2, 1), (10, 5), (22, 5), (50, 25), (125, 25)]),
        (_reordered_cyclic(9, z9, 3, 2, 4), [(2, 1), (8, 1), (16, 8), (52, 8), (128, 64), (512, 64)]),
    ]
    for g, shapes in cases:
        n = len(g) - 1
        with monkeypatch.context() as m:
            calls = _snf_sizes(m)
            bar = bar_cohomology_finite(g, 2)
        assert [shape for shape, L in calls if L == 2] == shapes, g.action
        full = _full_bar_groups(g, 2)
        diffs = [dense_array(_bar_rows(g, k), n**k) for k in range(3)]
        for s in range(3):
            want = cohomology_by_full_elimination(diffs[s], diffs[s - 1] if s else None, n**s, g.p, 2)
            assert bar.group(s) == full[s] == want, (g.action, s)


def test_bar_candidate_check_flags_exactly_the_rows_outside_the_probe_span(monkeypatch):
    # the candidate check against the span criterion it replaces: with
    # P V = U^-1 D the probe's Smith form, a row r lies in the span of P iff
    # (r V)_i = 0 mod p^(a_i) for every i.  The rows that
    # bar_cohomology_finite adds to a probe are exactly the rows failing that
    # test, on the reordered Z/6 and Z/9 tables whose probes miss rows and
    # on unit groups whose probes do not
    groups = [_reordered_cyclic(6, (0, 2, 4, 1, 3, 5), 7, 2, u) for u in (1, 48, 31)]
    groups.append(_reordered_cyclic(9, (0, 3, 6, 1, 2, 4, 5, 7, 8), 3, 2, 4))
    groups += [units_group_data(3, 2, w, 2) for w in range(6)] + [units_group_data(5, 2, 1, 2)]
    flagged = 0
    for g in groups:
        p, N, n = g.p, g.N, len(g) - 1
        s_max = 2 if n < 10 else 1
        seen = []
        real = exact_linalg.dense_rows
        with monkeypatch.context() as mp:
            mp.setattr(cohomology, "dense_rows", lambda rows, c: seen.append((c, rows)) or real(rows, c))
            bar_cohomology_finite(g, s_max)
        for k in range(s_max + 1):
            c = n**k
            rows = _bar_rows(g, k)
            vals, _, V, _ = exact_linalg.snf_mod(dense_array(rows[: 2 * c], c).tolist(), p, N, want=("V",))
            want = [
                R for R, row in enumerate(rows)
                if any(sum(x * V[j][i] for j, x in row.items()) % p**a for i, a in enumerate(vals) if a)
            ]
            calls = [rs for cols, rs in seen if cols == c]
            assert calls[0] == rows[: 2 * c] and len(calls) == 1 + bool(want), (g.action, k)
            assert calls[1:] in ([], [rows[: 2 * c] + [rows[R] for R in want]]), (g.action, k)
            assert all(R >= 2 * c for R in want)
            flagged += bool(want)
    assert flagged >= 9


def test_brute_certificate_records_the_bar_check():
    # (level, degree) checked, or None where |G|^3 = 110^3 skips the check
    assert continuous_via_quotients(7, 1, 4).certificate["bar_check"] == [2, 1]
    assert continuous_via_quotients(11, 1, 2).certificate["bar_check"] is None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_group_data_is_periodic_in_the_weight(p):
    # at N = 2 the action u -> u^w mod p^2 and the descent test read w
    # only mod e, the exponent of (Z/p^2)^x
    e = 2 if p == 2 else p * (p - 1)
    for r in range(2 if p == 2 else 1, 3):
        for w in range(-e, e):
            try:
                g = units_group_data(p, r, w, 2)
            except ValueError:
                with pytest.raises(ValueError):
                    units_group_data(p, r, w + e, 2)
                continue
            assert units_group_data(p, r, w + e, 2) == g, (p, r, w)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_bar_crosscheck_memo_is_exact(p):
    # each weight's cached answer must be the check of that weight: the
    # bar groups equal the periodic model's raw groups at the real w
    e = 2 if p == 2 else p * (p - 1)
    _bar_crosscheck_class.cache_clear()
    for w in range(-e, e):
        checked = _bar_crosscheck(p, w, 2)
        assert checked is not None, (p, w)
        r, s_chk, groups = checked
        assert r == _min_level(p, _action_class(p, w, 2)[0], 2)
        assert groups == tuple(enumerate(quotient_level_cohomology(p, w, r, 2, s_chk))), (p, w)
    info = _bar_crosscheck_class.cache_info()
    assert info.currsize == e and info.hits == e


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_bar_crosscheck_level_always_descends(p):
    # the cross-check builds (Z/p^r)^x at r = _min_level without a guard:
    # the descent test of units_group_data must pass for every weight class
    e = 2 if p == 2 else p * (p - 1)
    for w in range(e):
        r = _min_level(p, pow(procyclic_generator(p), w, p**2), 2)
        assert len(units_group_data(p, r, w, 2)) == p ** (r - 1) * (p - 1)


def _clear_brute_memos():
    for memo in (_units_groups, _brute_groups, _bar_crosscheck_class, _bar_groups):
        memo.cache_clear()


def test_bar_crosscheck_reads_the_sweeps_reader(monkeypatch):
    # the group reader of every Z/p^N complex, bar and model alike, is
    # lattice_quotient_exponents; a fault there that drops an exponent
    # must trip the bar cross-check even though both sides share it: at
    # p = 3, w = 0 the checked H^0 is Z/9 on both sides, and the sweep's
    # order reader, which does not call it, still reads order 2
    original = exact_linalg.lattice_quotient_exponents
    monkeypatch.setattr(
        exact_linalg, "lattice_quotient_exponents", lambda *args: original(*args)[1:]
    )
    _clear_brute_memos()
    try:
        with pytest.raises(AssertionError, match="quotient model disagrees with the bar complex"):
            continuous_via_quotients(3, 0, 2)
    finally:
        _clear_brute_memos()


def test_bar_crosscheck_reads_the_sweeps_order_reader(monkeypatch):
    # the sweep reads orders through _complex_orders, not exponents; a
    # fault there, one more than the true order in every degree of every
    # row N, must trip the bar cross-check before the sweep reads a single
    # colimit
    original = cohomology._complex_orders
    monkeypatch.setattr(
        cohomology,
        "_complex_orders",
        lambda *args: tuple(tuple(x + 1 for x in row) for row in original(*args)),
    )
    sweeps = []
    sweep = cohomology._colimit_sweep
    monkeypatch.setattr(cohomology, "_colimit_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    _clear_brute_memos()
    try:
        with pytest.raises(AssertionError, match="quotient model disagrees with the bar complex"):
            continuous_via_quotients(3, 0, 2)
        assert sweeps == []
        assert _brute_groups.cache_info().currsize == 0
    finally:
        _clear_brute_memos()


def test_sweep_refuses_a_level_where_the_projection_is_no_chain_map(monkeypatch, capsys):
    # one level below r* the cyclic norm, the entry of d^1 from cyclic
    # degree 1 to 2, is nonzero mod p^N, so the lag-N projection P is not a
    # chain map there; the sweep must refuse to read H(PC), and the CLI
    # must exit 4 without printing a table
    real = cohomology._colimit_level
    monkeypatch.setattr(cohomology, "_colimit_level", lambda p, a, N: real(p, a, N) - 1)
    _clear_brute_memos()
    try:
        for p, w, N in ((2, 1, 2), (2, 0, 3), (3, 0, 2), (5, 2, 1), (7, 3, 4)):
            a, t = _action_class(p, w, N)
            assert _level_complex_matrices(p, a, t, real(p, a, N) - 1, N, 1)[1][0][0], (p, w, N)
            with pytest.raises(AssertionError, match="projection is not a chain map"):
                _colimit_sweep(p, a, t, N, 1)
        code = cli.main(["cohomology", "--t=-8:8", "--smax", "2", "--route", "brute"])
    finally:
        _clear_brute_memos()
    out, err = capsys.readouterr()
    assert code == 4 and out == "", out
    assert "internal error: AssertionError" in err and "projection is not a chain map" in err


def _fault_on_model(monkeypatch, fault):
    """Let fault rewrite every group the bar cross-check reads off the
    periodic model's complex, the one complex ``cohomology`` reads with
    ``complex_cohomology``; the bar complexes keep their honest groups.
    Returns the model degrees read."""
    real = cohomology.complex_cohomology
    degrees = []

    def reader(c, s):
        degrees.append(s)
        return fault(real(c, s))

    monkeypatch.setattr(cohomology, "complex_cohomology", reader)
    return degrees


def test_bar_crosscheck_failure_is_never_cached(monkeypatch):
    # a model side that reads Z/p^5 in every checked degree disagrees with
    # the bar complex on every call, and no failure enters the memo
    _bar_crosscheck_class.cache_clear()
    degrees = _fault_on_model(monkeypatch, lambda _: cyclic(2, 5))
    for _ in range(2):
        with pytest.raises(AssertionError, match="disagrees with the bar complex"):
            continuous_via_quotients(2, 3, 2)
    assert degrees == [0, 0]
    assert _bar_crosscheck_class.cache_info().currsize == 0


def test_bar_crosscheck_compares_groups_not_only_orders(monkeypatch):
    # a model side that splits Z/p^2 into Z/p + Z/p keeps every order, so
    # only the comparison of whole groups can catch it; at p = 2, w = 0 the
    # checked H^0 is Z/4
    degrees = _fault_on_model(
        monkeypatch, lambda got: ModuleExpr(2, cyclics=(1,) * got.torsion_length())
    )
    _bar_crosscheck_class.cache_clear()
    with pytest.raises(AssertionError, match="disagrees with the bar complex at level 2, degree 0"):
        continuous_via_quotients(2, 0, 2)
    assert degrees == [0]
    assert _bar_crosscheck_class.cache_info().currsize == 0


def test_bar_crosscheck_refuses_a_model_that_is_not_a_complex(monkeypatch, capsys):
    # adding 1 to entry [0][0] of every d^s, s >= 1, breaks d d = 0 at
    # p = 3, w = 0; read as groups regardless, the broken model gives
    # H^1 = 0 where Z_p belongs, so the check must refuse it outright
    real = cohomology._level_complex_matrices

    def broken(*args):
        diffs = real(*args)
        for d in diffs[1:]:
            d[0][0] += 1
        return diffs

    monkeypatch.setattr(cohomology, "_level_complex_matrices", broken)
    _clear_brute_memos()
    try:
        with pytest.raises(ValueError, match="did not square to zero"):
            continuous_via_quotients(3, 0, 3)
        _clear_brute_memos()
        argv = ["cohomology", "--p", "3", "--t", "0", "--smax", "3", "--route", "brute"]
        assert cli.main(argv) == cli.EXIT_INTERNAL
        assert "did not square to zero" in capsys.readouterr().err
    finally:
        _clear_brute_memos()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_orbit_representative_is_an_associate(p):
    # w0 = gcd(w, e) mod e, and k a unit mod e with k w0 = w mod e, for
    # every w, negative ones too; the representative is its own, with k = 1
    e = 2 if p == 2 else p * (p - 1)
    for w in range(-2 * e, 2 * e):
        w0, k = _orbit_representative(p, w)
        assert w0 == math.gcd(w, e) % e and math.gcd(k, e) == 1 and (k * w0 - w) % e == 0, (w, w0, k)
        assert _orbit_representative(p, w0) == (w0, 1)


def _fault_on_transport(monkeypatch, fault):
    """Break the transport of the shared bar groups: "identity" takes
    phi_k to be the identity, "non-unit" takes k = 2, and "action" changes
    one entry of the representative's action vector as
    ``_bar_crosscheck_class`` reads it."""
    if fault != "action":
        real = cohomology._orbit_representative
        k = 1 if fault == "identity" else 2
        monkeypatch.setattr(cohomology, "_orbit_representative", lambda p, w: (real(p, w)[0], k))
    else:
        real = cohomology._bar_groups

        def perturbed(p, r, w0, s_chk):
            bar, act = real(p, r, w0, s_chk)
            return bar, act[:-1] + ((act[-1] + p) % p**2,)

        monkeypatch.setattr(cohomology, "_bar_groups", perturbed)


@pytest.mark.parametrize(
    "fault, w, w0, k", [("identity", 41, 1, 41), ("action", 41, 1, 41), ("non-unit", 4, 2, 23)]
)
def test_bar_crosscheck_refuses_a_wrong_transport(monkeypatch, capsys, fault, w, w0, k):
    # at p = 7, classes 41 = -1 and 4 mod 42 are not their orbit's
    # representative; phi_k taken as the identity or the representative's
    # action with one entry changed breaks act_w = act_w0 o phi_k, and
    # u -> u^2 (2 w0 = w, but 2 is no unit mod 42) does not permute the
    # table.  The check must raise on every call, the brute CLI (t = 2w)
    # must exit 4 without a table, and no failure may enter a memo: the
    # cross-check and sweep memos stay empty, and the shared memo holds
    # only the representative's honest groups
    assert _orbit_representative(7, w) == (w0, k)
    _fault_on_transport(monkeypatch, fault)
    _clear_brute_memos()
    try:
        for _ in range(2):
            with pytest.raises(AssertionError, match=f"does not carry weight {w0} to weight {w} at level 2"):
                _bar_crosscheck_class(7, w, 2)
        argv = ["cohomology", "--p", "7", "--t", str(2 * w), "--smax", "2", "--route", "brute"]
        assert cli.main(argv) == cli.EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and "internal error: AssertionError" in err and "does not carry" in err
        for memo in (_bar_crosscheck_class, _brute_groups):
            assert memo.cache_info().currsize == 0, memo
        assert _bar_groups.cache_info().currsize == 1
        assert _bar_groups(7, 2, w0, 1)[0].groups == _bar_groups.__wrapped__(7, 2, w0, 1)[0].groups
    finally:
        _clear_brute_memos()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bar_crosscheck_reads_the_model_at_every_class_of_an_orbit(monkeypatch, p):
    # the bar groups are shared across an orbit, the model is built for
    # each class: a model fault that fires only at the classes that are
    # not their orbit's representative must still trip the check there
    e = p * (p - 1)
    current = []

    def fault(got):
        return got if _orbit_representative(p, current[-1])[0] == current[-1] else cyclic(p, 5)

    _fault_on_model(monkeypatch, fault)
    _clear_brute_memos()
    try:
        for w in range(e):
            current.append(w)
            if _orbit_representative(p, w)[0] == w:
                continuous_via_quotients(p, w, 2)
                continue
            with pytest.raises(AssertionError, match="quotient model disagrees with the bar complex"):
                continuous_via_quotients(p, w, 2)
        assert _bar_crosscheck_class.cache_info().currsize == len({math.gcd(w, e) for w in range(e)})
    finally:
        _clear_brute_memos()


def test_bar_crosscheck_builds_one_bar_complex_per_orbit(monkeypatch, capsys):
    # odd-deep's weights (seed 1) reach 20 classes mod e and 11 orbits
    # (4 of 6 at p = 3, 3 of 7 at p = 5, 4 of 7 at p = 7); verify's p = 2
    # classes 0 and 1 are 2 orbits
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    calls = []
    real = cohomology.bar_cohomology_finite
    monkeypatch.setattr(cohomology, "bar_cohomology_finite", lambda *a: calls.append(a) or real(*a))
    _clear_brute_memos()
    try:
        for p, w in workloads.odd_deep_inputs(1):
            continuous_via_quotients(p, w, workloads.S_MAX_ODD)
        assert (_bar_crosscheck_class.cache_info().currsize, len(calls)) == (20, 11)
        _clear_brute_memos()
        calls.clear()
        assert cli.main(["verify"]) == cli.EXIT_OK
        capsys.readouterr()
        assert (_bar_crosscheck_class.cache_info().currsize, len(calls)) == (2, 2)
    finally:
        _clear_brute_memos()


# --- structured route --------------------------------------------------------


def test_units_cohomology_reference_cells():
    r = units_cohomology(2, 4, 1)
    assert r.group(1) == cyclic(2, 4)  # t = 8
    r = units_cohomology(2, 1, 1)
    assert r.group(1) == cyclic(2, 1)  # t = 2
    r = units_cohomology(2, 0, 1)
    assert r.group(0) == padic(2) and r.group(1) == padic(2)
    r = units_cohomology(3, 2, 1)
    assert r.group(1) == cyclic(3, 1)


def test_units_cohomology_deep_weight_reads_its_precision():
    # v_2(5^64 - 1) = 8: d^0 = [0; 2^8] has invariant factor 2^8, so the
    # one elimination runs at precision 9; w = 4 and w = 1 need 5 and 2
    r = units_cohomology(2, 64, 1)
    assert r.group(1) == cyclic(2, 8)
    assert r.certificate["precision"] == 9
    assert units_cohomology(2, 4, 1).certificate["precision"] == 5
    assert units_cohomology(2, 1, 1).certificate["precision"] == 2


def test_units_cohomology_precision_ceiling():
    with pytest.raises(PrecisionExhausted):
        units_cohomology(2, 64, 1, precision_ceiling=8)
    r = units_cohomology(2, 64, 1, precision_ceiling=9)
    assert r.group(1) == cyclic(2, 8) and r.certificate["precision"] == 9


def test_units_cohomology_teichmuller_entries():
    # p = 5, torsion C4: weights 1 and 3 act through characters of order 4,
    # whose unit t - 1 the structured complex rescales to 1
    for w, want in [(1, zero_module()), (3, zero_module()), (4, cyclic(5, 1)), (20, cyclic(5, 2))]:
        r = units_cohomology(5, w, 2)
        assert r.group(1) == want
        assert r.group(2) == zero_module()


def _closed_form(p, w, s):
    """H^s(Z_p^x, Z_p(w)).  At odd p: Z_p in degrees 0 and 1 at w = 0,
    Z/p^(1 + v_p(w)) in degree 1 when (p - 1) | w, and 0 otherwise.  At
    p = 2 (the reference table at t = 2w): Z_2 in degrees 0 and 1 at w = 0,
    Z/2 in degree 1 for odd w and Z/2^(2 + v_2(w)) for even w != 0, and Z/2
    in every degree s >= 2."""
    if p == 2 and s >= 2:
        return cyclic(2, 1)
    if w == 0:
        return padic(p) if s in (0, 1) else zero_module()
    if p == 2:
        return zero_module() if s == 0 else cyclic(2, 1 if w % 2 else 2 + vp(w, 2))
    if s == 1 and w % (p - 1) == 0:
        return cyclic(p, 1 + vp(w, p))
    return zero_module()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_units_cohomology_odd_prime_closed_form(p):
    # the closed form, structured == brute and H^s(w) == H^s(-w) on both
    # routes; at p = 7 the weights run through torsion characters of order
    # 1, 2, 3 and 6, and the deep ones need precisions up to 13
    small = list(range(-2 * (p - 1), 2 * (p - 1) + 1))
    deep = [sign * p**k * (p - 1) for k in range(12) for sign in (1, -1)]
    s_max = 3
    structured = {w: units_cohomology(p, w, s_max) for w in small + deep}
    for w, res in structured.items():
        for s in range(s_max + 1):
            assert res.group(s) == _closed_form(p, w, s), (p, w, s)
        assert res.groups == structured[-w].groups, (p, w)
    brute = {w: continuous_via_quotients(p, w, s_max) for w in small + deep}
    for w, res in brute.items():
        assert res.groups == structured[w].groups, (p, w)
        assert res.groups == brute[-w].groups, (p, w)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), u=st.integers(1, 1000), k=st.integers(0, 8))
def test_weight_sign_symmetry_property(p, u, k):
    # H^s(w) == H^s(-w) on both routes and structured == brute, for
    # weights w = u p^k up to v_p(w) = 17 (n_top up to 21, at p = 2)
    w = u * p**k
    structured = [units_cohomology(p, x, 3).groups for x in (w, -w)]
    brute = [continuous_via_quotients(p, x, 3).groups for x in (w, -w)]
    assert structured[0] == structured[1] == brute[0] == brute[1], (p, w)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    m=st.integers(0, 300),
    n_top=st.integers(25, 60),
    sign=st.sampled_from([1, -1]),
)
def test_brute_equals_structured_past_precision_24(p, m, n_top, sign):
    # w = u p^k with u prime to p has v_p(gamma^w - 1) = k + 2 at p = 2 and
    # k + 1 at odd p, so the brute route unfolds at n_top = v + 2 > 24
    k = n_top - (4 if p == 2 else 3)
    w = sign * (m * p + 1) * p**k
    brute = continuous_via_quotients(p, w, 3)
    assert brute.certificate["precision"] == n_top
    assert brute.groups == units_cohomology(p, w, 3).groups, (p, w)


def test_teichmuller_is_root_of_unity():
    for p in (3, 5, 7):
        om = teichmuller(p, 6)
        assert pow(om, p - 1, p**6) == 1
        assert om % p != 1 or p == 2


# --- brute route -------------------------------------------------------------


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    N=st.integers(1, 6),
    a=st.one_of(st.sampled_from([0, 1]), st.integers(0, 11**6)),
    q=st.one_of(st.sampled_from([0, 1]), st.integers(0, 200)),
    k=st.one_of(st.none(), st.integers(0, 4)),
)
@example(p=2, N=3, a=0, q=0, k=None)
@example(p=2, N=3, a=0, q=1, k=None)
@example(p=3, N=2, a=1, q=0, k=None)
@example(p=3, N=2, a=1, q=1, k=None)
@example(p=5, N=3, a=1, q=0, k=3)
@example(p=2, N=4, a=0, q=0, k=2)
@example(p=2, N=6, a=5, q=0, k=4)
def test_geometric_sum_matches_the_naive_sum(p, N, a, q, k):
    # 1 + a + ... + a^(q-1) mod p^N, the one-pow closed form against the
    # term-by-term sum, at a in {0, 1}, q in {0, 1} and q = p^k (k given)
    if k is not None:
        q = p**k
    M = p**N
    want, term = 0, 1
    for _ in range(q):
        want, term = (want + term) % M, term * a % M
    assert _geometric_sum(a, q, M) == want, (a, q, M)


def test_brute_reference_cells():
    r = continuous_via_quotients(2, 1, 1)
    assert r.group(1) == cyclic(2, 1)  # t = 2, s = 1
    r = continuous_via_quotients(2, 0, 2)
    assert r.group(2) == cyclic(2, 1)  # t = 0, s = 2
    r = continuous_via_quotients(2, 4, 0)
    assert r.group(0) == zero_module()  # t = 8, s = 0


def test_brute_detects_free_summands():
    r = continuous_via_quotients(2, 0, 1)
    assert r.group(0) == padic(2)
    assert r.group(1) == padic(2)


@pytest.mark.parametrize("p,weights", [(2, range(-6, 7)), (3, range(-4, 5))])
def test_brute_agrees_with_structured(p, weights):
    for w in weights:
        b = continuous_via_quotients(p, w, 3)
        s = units_cohomology(p, w, 3)
        for k in range(4):
            assert b.group(k) == s.group(k), (p, w, k)


@pytest.mark.parametrize(
    "p,weights",
    [(2, (1, 3, 5, 9, 17, -7, 4, 12, 20)), (3, (2, 4, 8, 20, -2, -16)), (5, (4, 24, 44, -16, 1, 21))],
)
def test_brute_colimit_memo_is_exact(monkeypatch, p, weights):
    # the weights share action classes at small N, but the sweep reads
    # every N off one Smith form per degree over Z/p^n_top, once per
    # (n_top, class at n_top): with the bar checks already done, each miss
    # of the memo of whole answers makes exactly s_max + 1 = 4 snf_mod
    # calls, all at L = n_top; a fresh recomputation, with every brute memo
    # emptied first, must give the same groups and certificates
    assert len({_action_class(p, w, 2) for w in weights}) < len(weights)
    _clear_brute_memos()
    try:
        warm = [continuous_via_quotients(p, w, 3) for w in weights]
        calls = []
        real = cohomology.snf_mod
        monkeypatch.setattr(
            cohomology, "snf_mod", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)
        )
        _brute_groups.cache_clear()
        for w in weights:
            continuous_via_quotients(p, w, 3)
        n_top = [res.certificate["precision"] for res in warm]
        misses = _brute_groups.cache_info().misses
        assert misses == len({(n, _action_class(p, w, n)) for w, n in zip(weights, n_top)})
        assert len(calls) == 4 * misses
        for w, res in zip(weights, warm):
            _clear_brute_memos()
            calls.clear()
            cold = continuous_via_quotients(p, w, 3)
            assert cold.groups == res.groups, (p, w)
            assert cold.certificate == res.certificate, (p, w)
            sweep = [args for args in calls if args[2] == res.certificate["precision"]]
            assert len(sweep) == 4 and all(len(args[0]) == 2 for args in sweep), (p, w)
    finally:
        _clear_brute_memos()


@pytest.mark.parametrize(
    "p,weights",
    [
        (2, (1, 3, -5, 2, 6, -10, 4, 12, 20, 64, -192, 0, 9, 17)),
        (3, (1, 55, -53, 2, 56, 4, -50, 0, 54, 3, 57, -1, 18, 72)),
        (5, (1, 501, -499, 2, 502, 4, 0, 500, 3, -497, 20, 520)),
    ],
)
def test_brute_memo_is_exact(p, weights):
    # weights with the same n_top and the same action class at n_top share
    # one sweep and unfolding (at n_top = 4: w mod 4 at p = 2, w mod
    # p^3 (p - 1) at odd p); fresh recomputation, with every brute memo
    # emptied first, must give the same groups and certificates
    _clear_brute_memos()
    warm = [continuous_via_quotients(p, w, 3) for w in weights]
    assert _brute_groups.cache_info().hits > 0
    for w, res in zip(weights, warm):
        _clear_brute_memos()
        cold = continuous_via_quotients(p, w, 3)
        assert cold == res and cold.w == w, (p, w)
        assert cold.certificate == res.certificate, (p, w)
    # two weights that share a key get results that differ only in w, and
    # no certificate dict is shared between them
    n_top = {w: res.certificate["precision"] for w, res in zip(weights, warm)}
    key = {w: (n_top[w], _action_class(p, w, n_top[w])) for w in weights}
    a, b = next(
        (a, b) for i, a in enumerate(weights) for b in weights[i + 1 :] if key[a] == key[b]
    )
    ra, rb = continuous_via_quotients(p, a, 3), continuous_via_quotients(p, b, 3)
    assert ra != rb and CohomologyResult(ra.p, b, ra.groups, ra.route, ra.certificate) == rb
    assert ra.certificate == rb.certificate and ra.certificate is not rb.certificate


@st.composite
def _class_cases(draw):
    """(p, w, n): |w| <= 10^6, or w = u p^k, deep in the valuation."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    deep = st.builds(lambda u, k: u * p**k, st.integers(-60, 60), st.integers(0, 20))
    return p, draw(st.integers(-(10**6), 10**6) | deep), draw(st.integers(1, 40))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=_class_cases())
@example(case=(2, -1, 30))
@example(case=(11, -7 * 11**5, 40))
def test_action_class_reduces_from_the_top_precision(case):
    # the brute memo reads the class at every N <= n_top off the class at
    # n_top: gamma^w and the Teichmueller power omega^w mod p^N are the
    # reductions mod p^N of the same powers mod p^n
    p, w, n = case
    a, t = _action_class(p, w, n)
    for N in range(1, n + 1):
        assert _action_class(p, w, N) == (a % p**N, t % p**N), (p, w, n, N)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    parts=st.lists(st.integers(1, 8), max_size=6),
    n_top=st.integers(9, 12),
    at=st.integers(1, 12),
    bump=st.integers(-2, 2),
)
@example(parts=[8], n_top=9, at=9, bump=1)  # not saturated
@example(parts=[2], n_top=9, at=2, bump=1)  # counts increase
@example(parts=[1], n_top=9, at=2, bump=-2)  # a negative count
def test_partition_from_counts_reads_profiles_and_refuses_the_rest(parts, n_top, at, bump):
    # the profile m(N) = sum_j min(e_j, N) gives back its partition; moved
    # at one N, it is read iff its counts m(k) - m(k - 1) stay a partition's
    # counting function (non-negative, non-increasing, 0 at the top), and
    # then the partition read has that profile
    def profile(es):
        return [sum(min(e, N) for e in es) for N in range(n_top + 1)]

    m = profile(parts)
    assert _partition_from_counts(m) == tuple(sorted(parts, reverse=True))
    m[min(at, n_top)] += bump
    counts = [m[k] - m[k - 1] for k in range(1, n_top + 1)]
    valid = min(counts) >= 0 and counts == sorted(counts, reverse=True) and counts[-1] == 0
    got = _partition_from_counts(m)
    assert (got is not None) == valid, (parts, m)
    assert got is None or (profile(got) == m and list(got) == sorted(got, reverse=True))


def test_unfold_orders_reads_groups_and_refuses_the_rest():
    # a_s(N) = rho_s N + m_s(N) + m_(s+1)(N) for H^0 = Z_p, H^1 = Z_p + Z/p^2
    # and torsion Z/p in degree 2, at n_top = 5
    orders = [(N + min(2, N), N + min(2, N) + min(1, N)) for N in range(1, 6)]
    assert _unfold_orders(orders, 1, 5) == ([1, 1], [(), (2,)])
    steep = orders[:4] + [(orders[4][0] + 1, orders[4][1])]  # slopes differ at the top
    assert _unfold_orders(steep, 1, 5) is None
    # a torsion exponent of n_top - 1 bends the top two increments apart,
    # and only the slope rule refuses it
    assert _unfold_orders([(N + min(4, N),) for N in range(1, 6)], 0, 5) is None
    # in the last degree only the remainder's sign can refuse: m_2(1) = -1
    negative = [(orders[0][0], orders[0][1] - 2)] + orders[1:]
    assert _unfold_orders(negative, 1, 5) is None


def test_brute_unfolding_failure_is_never_cached(monkeypatch):
    # orders that do not unfold are an internal error on every call, and
    # no failure enters the memo of whole answers
    monkeypatch.setattr(cohomology, "_unfold_orders", lambda *args: None)
    _clear_brute_memos()
    try:
        for _ in range(2):
            with pytest.raises(AssertionError, match="brute orders do not unfold"):
                continuous_via_quotients(2, 3, 2)
        assert _brute_groups.cache_info().currsize == 0
    finally:
        _clear_brute_memos()


def _pushed_image(source, target, p, N, s, lag):
    """Exponents of the image of H^s(source) in H^s(target) under lag
    inflation steps, each multiplying cyclic degree j by p^floor(j/2)."""
    M = p**N
    scalar = [pow(p, ((s - i) // 2) * lag, M) for i in range(s + 1)]
    pushed = [[(x * c) % M for x, c in zip(z, scalar)] for z in source.cocycles[s]]
    return lattice_quotient_exponents(pushed, target.boundaries[s], s + 1, p, N)


@pytest.mark.parametrize("p,N", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_level_data_emits_exactly_the_live_generators(p, N):
    # generator p^(N - a_i) V e_i of ker d^s is 0 mod p^N iff a_i = 0: the
    # emitted cocycles are all nonzero, lie in ker d^s and span it (equal
    # exponents, enumerated), at the lowest level and at r*
    M = p**N
    for w in (0, 1, 2, 3, 4, 6, -5):
        a, t = _action_class(p, w, N)
        for r in (_min_level(p, a, N), _colimit_level(p, a, N)):
            cocycles = _level_data(p, a, t, r, N, 2).cocycles
            diffs = _level_complex_matrices(p, a, t, r, N, 2)
            for s in range(3):
                gens = cocycles[s]
                assert all(any(x % M for x in z) for z in gens), (w, r, s)
                assert not any(
                    sum(d * x for d, x in zip(row, z)) % M for row in diffs[s] for z in gens
                ), (w, r, s)
                assert lattice_quotient_by_enumeration(gens, [], s + 1, p, N) == (
                    enumerate_cohomology_type(diffs[s], None, s + 1, p, N)
                ), (w, r, s)


def _search_colimit_exponents(p, a, t, N, s_top, level_ceiling):
    """Oracle: the colimit found by search, the stopping rule the brute
    route used before its level and lag were derived.  From each base
    level, push the image until two consecutive lags agree; accept once
    three consecutive base levels agree."""
    levels = {}

    def level(r):
        if r not in levels:
            levels[r] = _level_data(p, a, t, r, N, s_top)
        return levels[r]

    out = []
    for s in range(s_top + 1):
        stable_run = []
        base = _min_level(p, a, N)
        while len(stable_run) < 3 or not stable_run[-1] == stable_run[-2] == stable_run[-3]:
            lag_prev = lag_val = None
            for lag in range(1, level_ceiling - base + 1):
                cur = _pushed_image(level(base), level(base + lag), p, N, s, lag)
                if cur == lag_prev:
                    lag_val = cur
                    break
                lag_prev = cur
            if lag_val is None or base >= level_ceiling:
                raise NoStabilization(f"search failed for s={s}, N={N}")
            stable_run.append(lag_val)
            base += 1
        out.append(stable_run[-1])
    return tuple(out)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    N=st.integers(1, 7),
    u=st.integers(-24, 24),
    k=st.integers(0, 8),
    s_top=st.sampled_from([3, 5]),
)
def test_derived_colimit_matches_search(p, N, u, k, s_top):
    # w = u p^k reaches the deep action classes a = 1 mod p^N as well as
    # the shallow ones; the derived level is N + 1 (N + 2 at p = 2), the
    # search agrees with it (the top row of the sweep at n_top = N, read at
    # that level, with the sums of the searched exponents, the exponent
    # reader at r* and lag N with the exponents themselves), and one more
    # level and one more lag change nothing
    w = u * p**k
    a, t = _action_class(p, w, N)
    r = _colimit_level(p, a, N)
    assert r == N + (2 if p == 2 else 1), (p, w, N)
    searched = _search_colimit_exponents(p, a, t, N, s_top, 2 * N + 24)
    orders, level_read = _colimit_sweep(p, a, t, N, s_top)
    assert level_read == r and orders[N - 1] == tuple(map(sum, searched)), (p, w, N)
    level = _level_data(p, a, t, r, N, s_top)
    exps = tuple(image_exponents(level, p, N, s, N) for s in range(s_top + 1))
    assert exps == searched, (p, w, N)
    source = _level_data(p, a, t, r + 1, N, s_top)
    target = _level_data(p, a, t, r + 1 + N + 1, N, s_top)
    later = tuple(_pushed_image(source, target, p, N, s, N + 1) for s in range(s_top + 1))
    assert later == exps, (p, w, N)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    N=st.integers(1, 20),
    u=st.integers(-30, 30),
    k=st.integers(0, 12),
    s_top=st.sampled_from([0, 1, 4, 5]),
)
def test_projected_orders_are_the_sums_of_the_image_exponents(p, N, u, k, s_top):
    # the sweep reads H^s(PC) at every precision M <= N off one Smith form
    # of a <= 2 x 2 block per degree over Z/p^N; the oracle reads the image
    # of H^s(P) on the whole level complex at M, built at r*(M) mod p^M, as
    # a group, from kernel generators and boundaries.  P splits the complex
    # at r*(M), so the orders agree row by row.  On the whole complex, at
    # r* and at the lowest level, the same reader's top row gives the raw
    # orders (lag 0), the row the bar check reads
    w = u * p**k
    a, t = _action_class(p, w, N)
    orders, r = _colimit_sweep(p, a, t, N, s_top)
    assert r == _colimit_level(p, a, N)
    for M in range(1, N + 1):
        aM, tM = a % p**M, t % p**M
        level = _level_data(p, aM, tM, _colimit_level(p, aM, M), M, s_top)
        want = tuple(sum(image_exponents(level, p, M, s, M)) for s in range(s_top + 1))
        assert orders[M - 1] == want, (p, w, N, M)
    for r in (r, _min_level(p, a, N)):
        level = _level_data(p, a, t, r, N, s_top)
        raw = tuple(sum(image_exponents(level, p, N, s, 0)) for s in range(s_top + 1))
        diffs = _level_complex_matrices(p, a, t, r, N, s_top)
        assert _complex_orders(diffs, p, N, tuple(range(1, s_top + 2)))[N - 1] == raw, (p, w, N, r)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    u=st.integers(-30, 30),
    k=st.integers(0, 12),
    s_top=st.sampled_from([0, 1, 4, 5]),
)
@example(p=2, u=1, k=0, s_top=1)  # a - 1 = 4 has valuation 2, above N = 1
@example(p=3, u=1, k=12, s_top=5)  # the deepest class: n_top = 15
def test_sweep_rows_match_the_per_precision_reader(p, u, k, s_top):
    # the sweep reads every N <= n_top off one Smith form per degree over
    # Z/p^n_top, a valuation v read as min(v, N); each row must equal the
    # per-precision reader, PC built at r*(N) from the class reduced mod p^N
    # and read by a Smith form mod p^N, and the level read is r*(n_top)
    w = u * p**k
    n_top = max(4, _anchor_valuation(p, w) + 2)
    a, t = _action_class(p, w, n_top)
    orders, r = _colimit_sweep(p, a, t, n_top, s_top)
    assert r == _colimit_level(p, a, n_top) and len(orders) == n_top, (p, w)
    for N in range(1, n_top + 1):
        assert orders[N - 1] == colimit_orders_at(p, a % p**N, t % p**N, N, s_top), (p, w, N)


def test_order_reader_refuses_an_order_out_of_range():
    # d^0 = d^1 = [1] is no complex: the image of d^0 is all of C^1 while
    # ker d^1 is 0, so H^1 would have order p^-N; the reader refuses it at
    # the first N
    with pytest.raises(AssertionError, match=r"order -1 outside \[0, 1\] at N=1, s=1"):
        _complex_orders([[[1]], [[1]]], 2, 3, (1, 1))


@pytest.mark.parametrize(
    "p,weights",
    [
        (2, (1, 3, -5, 2, 6, -10, 4, 12, 20, 64, -192, 0)),
        (3, (1, 5, -1, 2, 4, -8, 3, 6, -12, 18, 0)),
        (5, (1, 3, -1, 2, 6, 4, 8, -16, 20, 60, 0)),
    ],
)
def test_structured_memo_is_exact(p, weights):
    # weights with the same torsion scalars and the same v_p(gamma^|w| - 1)
    # share one elimination; fresh recomputation, with the cache emptied
    # first, must give the same groups and certificates
    _units_groups.cache_clear()
    warm = [units_cohomology(p, w, 3) for w in weights]
    assert _units_groups.cache_info().hits > 0
    for w, res in zip(weights, warm):
        _units_groups.cache_clear()
        cold = units_cohomology(p, w, 3)
        assert cold == res and cold.w == w, (p, w)
        assert cold.certificate == res.certificate, (p, w)
    # two weights that share a key get results that differ only in w, and
    # no certificate dict is shared between them
    key = {w: (_torsion_scalars(p, w), _anchor_valuation(p, w)) for w in weights}
    a, b = next(
        (a, b) for i, a in enumerate(weights) for b in weights[i + 1 :] if key[a] == key[b]
    )
    ra, rb = units_cohomology(p, a, 3), units_cohomology(p, b, 3)
    assert ra != rb and CohomologyResult(ra.p, b, ra.groups, ra.route, ra.certificate) == rb
    assert ra.certificate == rb.certificate and ra.certificate is not rb.certificate


def test_structured_certificate_precision_within_ceiling():
    # the route refuses exactly when its derived precision N exceeds the
    # ceiling; otherwise it answers at N, never past the ceiling, with the
    # groups it gives under the default ceiling
    for p in (2, 3, 5):
        for w in (0, 1, 2, p - 1, 4 * p, p**4 * (p - 1), -(p**6)):
            full = units_cohomology(p, w, 2)
            N = full.certificate["precision"]
            for ceiling in (1, 2, 3, 4, 5, 7, 16, 256):
                try:
                    r = units_cohomology(p, w, 2, precision_ceiling=ceiling)
                except PrecisionExhausted:
                    assert N > ceiling, (p, w, ceiling)
                    continue
                assert N <= ceiling, (p, w, ceiling)
                assert r.groups == full.groups and r.certificate == {"precision": N}, (p, w)
    # v_2(5^4 - 1) = 4 needs precision 5: refused under a ceiling of 4,
    # answered at exactly 5 under a ceiling of 5
    with pytest.raises(PrecisionExhausted):
        units_cohomology(2, 4, 1, precision_ceiling=4)
    r = units_cohomology(2, 4, 1, precision_ceiling=5)
    assert r.group(1) == cyclic(2, 4) and r.certificate["precision"] == 5


@st.composite
def _structured_cases(draw):
    """(p, w, s_max): |w| <= 60, or w = +-u p^k, deep in the valuation."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    deep = st.builds(
        lambda u, k, sign: sign * u * p**k,
        st.integers(1, 60), st.integers(0, 12), st.sampled_from([1, -1]),
    )
    return p, draw(st.integers(-60, 60) | deep), draw(st.sampled_from([0, 1, 5]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_structured_cases())
def test_structured_derived_precision_is_minimal(case):
    # N = 1 + max v_p(gcd of a differential's entries), read here off every
    # differential of the complex: the route reports it, every degree is
    # certified at N with the closed-form group, and at N - 1 the reading
    # is refused
    p, w, s_max = case
    h = _torsion_scalars(p, w)
    c = p ** _anchor_valuation(p, w) if w else 0
    diffs = _units_total_complex(h, c, s_max + 1)
    ranks = (1,) + (2,) * (s_max + 1)
    gs = [math.gcd(*(x for row in d for x in row)) for d in diffs]
    N = 1 + max((vp(g, p) for g in gs if g), default=0)
    assert _units_precision(p, h, c, s_max) == N, (p, w, s_max)
    assert units_cohomology(p, w, s_max).certificate["precision"] == N, (p, w, s_max)
    groups = rank_one_cohomology(ranks, diffs, p, N)
    for s in range(s_max + 1):
        assert groups[s] == _closed_form(p, w, s), (p, w, s)
    if N >= 2:
        with pytest.raises(PrecisionExhausted):
            rank_one_cohomology(ranks, diffs, p, N - 1)


def test_structured_refusal_precedes_elimination(monkeypatch):
    # a ceiling below the derived precision is refused before any Smith
    # diagonal of the complex is read, even with the memo empty: neither
    # the reader, as cohomology binds it, nor snf_trunc, as the reader
    # binds it, is called
    def forbidden(*args):
        raise AssertionError("the structured complex was read")

    monkeypatch.setattr(cohomology, "rank_one_cohomology", forbidden)
    monkeypatch.setattr(exact_linalg, "snf_trunc", forbidden)
    _units_groups.cache_clear()
    for p, w, ceiling in ((2, 64, 8), (2, 4, 4), (2, 1, 1), (2, 0, 1), (3, 2 * 3**13, 14)):
        with pytest.raises(PrecisionExhausted, match=f"ceiling {ceiling} hit"):
            units_cohomology(p, w, 3, precision_ceiling=ceiling)
    assert _units_groups.cache_info().currsize == 0


def test_structured_underived_precision_is_an_internal_error(monkeypatch):
    # one below the derived precision, snf_trunc's check fires; that is an
    # AssertionError (exit 4), raised on every call and never cached
    real = cohomology._units_precision
    monkeypatch.setattr(cohomology, "_units_precision", lambda *args: real(*args) - 1)
    _units_groups.cache_clear()
    for _ in range(2):
        with pytest.raises(AssertionError, match="not certified at precision 8"):
            units_cohomology(2, 64, 1)
    assert _units_groups.cache_info().currsize == 0


def test_structured_complex_that_does_not_square_to_zero_exits_4(monkeypatch, capsys):
    # torsion scalars with h_even h_odd != 0 make d^1 d^0 = (h_odd h_even, 0)
    # nonzero: the reader's d d = 0 check must refuse the complex, and the
    # CLI must exit 4 without printing a table
    monkeypatch.setattr(cohomology, "_torsion_scalars", lambda p, w: (1, torsion_order(p)))
    for memo in (_units_precision, _units_groups):
        memo.cache_clear()
    try:
        argv = ["cohomology", "--p", "3", "--t", "4", "--smax", "2", "--route", "structured"]
        code = cli.main(argv)
    finally:
        for memo in (_units_precision, _units_groups):
            memo.cache_clear()
    out, err = capsys.readouterr()
    assert code == 4 and out == "", out
    assert "d did not square to zero" in err, err


def test_cohomology_result_equality_ignores_the_certificate():
    groups = ((0, padic(2)), (1, cyclic(2, 3)))
    a = CohomologyResult(2, 4, groups, "structured", {"precision": 5})
    b = CohomologyResult(2, 4, groups, "structured", {"precision": 9})
    assert a == b and hash(a) == hash(b)
    assert a != CohomologyResult(2, 6, groups, "structured")
    assert a != CohomologyResult(2, 4, groups, "brute")
    assert a != CohomologyResult(2, 4, groups[:1], "structured")
    assert a != (2, 4, groups, "structured")
    fresh, other = CohomologyResult(2, 4, groups, "bar"), CohomologyResult(2, 4, groups, "bar")
    assert fresh.certificate == {} and fresh.certificate is not other.certificate


def test_finite_group_data_is_a_frozen_value():
    g = units_group_data(2, 3, 1, 2)
    assert g == units_group_data(2, 3, 1, 2) and hash(g) == hash(units_group_data(2, 3, 1, 2))
    assert g != units_group_data(2, 3, 1, 3) and g != units_group_data(2, 2, 1, 2)
    res = bar_cohomology_finite(g, 1)
    for record, name in ((g, "N"), (res, "groups"), (res, "certificate")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_anchor_valuation_matches_direct_power():
    for p in (2, 3, 5, 7):
        g = procyclic_generator(p)
        for w in list(range(-60, 61)) + [p**5, -(p**5) * (p - 1)]:
            want = 0 if w == 0 else vp(g ** abs(w) - 1, p)
            assert _anchor_valuation(p, w) == want, (p, w)
    assert _anchor_valuation(3, 3**15) == 16


def test_brute_certificate_reports_levels():
    r = continuous_via_quotients(2, 4, 2)
    assert r.certificate["max_level"] >= 6
    assert r.certificate["precision"] >= 6
    # the default ceiling is the package's one precision ceiling, 256
    assert r.certificate["precision_ceiling"] == PRECISION_CEILING == 256
    # v_2(5^4 - 1) = 4 gives n_top = 6, read at level 6 + 2 with lag 6
    # and its bar cross-check ran at level 2 in degrees s <= 2
    assert r.certificate == {
        "precision": 6, "max_level": 8, "lag": 6, "precision_ceiling": 256, "bar_check": [2, 2]
    }
    r = continuous_via_quotients(3, 2 * 3**5, 2)
    assert r.certificate == {
        "precision": 8, "max_level": 9, "lag": 8, "precision_ceiling": 256, "bar_check": [1, 2]
    }
    r = continuous_via_quotients(2, 4, 2, precision_ceiling=12)
    assert r.certificate["precision_ceiling"] == 12


# --- precision monotonicity --------------------------------------------------


def test_precision_monotonicity_structured():
    # the structured complex's groups at the derived precision are its
    # groups at every larger one
    for w in (0, 1, 4, 12):
        h = _torsion_scalars(2, w)
        c = 2 ** _anchor_valuation(2, w) if w else 0
        N = units_cohomology(2, w, 3).certificate["precision"]
        groups = []
        for n in (N, 16, 32):
            diffs = _units_total_complex(h, c, 4)
            groups.append(rank_one_cohomology((1, 2, 2, 2, 2), diffs, 2, n)[:4])
        assert groups[0] == groups[1] == groups[2], w
