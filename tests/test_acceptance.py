"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance here is exact (module-expression
equality); there are no numeric thresholds to calibrate.
"""

import random
import time
from itertools import product

import numpy as np

from oracles import cyclic_cohomology, cyclic_group_data, enumerate_cohomology_type, sparse_rows
from stabcoh.cli import main
from stabcoh.cohomology import (
    bar_cohomology_finite,
    continuous_via_quotients,
    units_cohomology,
)
from stabcoh.exact_linalg import (
    CochainComplex,
    complex_cohomology,
    snf_mod,
    vp,
)
from stabcoh.modules import (
    ModuleExpr,
    boxtimes,
    cyclic,
    hom,
    l0,
    l1,
    local_free,
    ls,
    padic,
    parse_module_expr,
    tensor,
    zero_module,
)
from stabcoh.spectral import (
    DEFAULT_T0_EVEN_ROW,
    compare_tables,
    derived_ss_table,
    golden_table,
)


def _p2_routes_cell(w, s, s_max=3):
    structured = units_cohomology(2, w, s_max).group(s)
    brute = continuous_via_quotients(2, w, s_max).group(s)
    ss = derived_ss_table(t_window=(2 * w, 2 * w), s_max=s_max).get(s, 2 * w)
    return structured, brute, ss


def test_acceptance_1_golden_table_reproduction(capsys):
    """verify on p = 2, t in [-48, 48], s in [0, 5] exits 0 (exact match)."""
    start = time.time()
    code = main(["verify", "--t=-48:48", "--smax", "5"])
    elapsed = time.time() - start
    assert code == 0
    ss = derived_ss_table(t_window=(-48, 48), s_max=5)
    gold = golden_table(t_window=(-48, 48), s_max=5)
    assert compare_tables(ss, gold) == []
    assert ss.collisions == frozenset()
    assert elapsed < 10.0, f"verify took {elapsed:.1f}s, budget 10s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS - golden-table reproduction, exact, {elapsed:.1f}s")


def test_acceptance_2_spot_values(capsys):
    """Reference cells: H^1 at t=8,16,6 and the t=0 tower, on all routes."""
    start = time.time()
    # the s = 1 row reads Z/2^(k+2) at t = 2^(k+1) m with m odd, k != 0;
    # mechanically, t = 16 = 2^4 gives k = 3, hence Z/2^5 = Z/32
    k16 = vp(16, 2) - 1
    assert k16 == 3
    expected = {
        (4, 1): cyclic(2, 4),   # t = 8:  Z/16
        (8, 1): cyclic(2, k16 + 2),  # t = 16: Z/32 by the row rule
        (3, 1): cyclic(2, 1),   # t = 6:  Z/2
        (0, 0): padic(2),       # t = 0, s = 0: Z_2
        (0, 1): padic(2),       # t = 0, s = 1: Z_2
    }
    for (w, s), want in expected.items():
        structured, brute, ss = _p2_routes_cell(w, s)
        assert structured == want, (w, s, str(structured))
        assert brute == want, (w, s, str(brute))
        assert ss == want, (w, s, str(ss))
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"ACCEPTANCE 2 PASS - spot values identical on all three routes, {elapsed:.1f}s")


def test_acceptance_3_triple_route_agreement(capsys):
    """Cell-for-cell agreement of all three routes for |t| <= 16, s <= 3,
    and the brute-route answer at (s >= 2, t = 0) pins the t0 convention."""
    start = time.time()
    s_max = 3
    for t in range(-16, 17):
        if t % 2:
            continue
        w = t // 2
        structured = units_cohomology(2, w, s_max)
        brute = continuous_via_quotients(2, w, s_max)
        ss = derived_ss_table(t_window=(t, t), s_max=s_max)
        for s in range(s_max + 1):
            a, b, c = structured.group(s), brute.group(s), ss.get(s, t)
            assert a == b == c, (t, s, str(a), str(b), str(c))
    # the pinned interpretation: brute force says H^s(t=0) = Z/2 for s >= 2,
    # so t = 0 belongs to the even-t row and the flag defaults to True
    brute_t0 = continuous_via_quotients(2, 0, 3)
    assert brute_t0.group(2) == cyclic(2, 1)
    assert brute_t0.group(3) == cyclic(2, 1)
    assert DEFAULT_T0_EVEN_ROW is True
    elapsed = time.time() - start
    assert elapsed < 300.0, f"triple agreement took {elapsed:.1f}s, budget 5min"
    with capsys.disabled():
        print(
            "ACCEPTANCE 3 PASS - triple-route agreement on |t|<=16, s<=3; "
            f"t0-even-row pinned True by the brute route, {elapsed:.1f}s"
        )


def _random_expr(rng: random.Random, fg_only=False) -> ModuleExpr:
    return ModuleExpr(
        2,
        rng.randrange(4),
        0 if fg_only else rng.randrange(3),
        tuple(rng.randrange(1, 7) for _ in range(rng.randrange(4))),
        0 if fg_only else rng.randrange(3),
    )


def test_acceptance_4_l_functor_axioms(capsys):
    """Property sweep over 10^4 random module expressions, zero failures."""
    start = time.time()
    rng = random.Random(0xC0FFEE)
    n = 10_000
    for _ in range(n):
        m = _random_expr(rng)
        k = _random_expr(rng)
        fg = _random_expr(rng, fg_only=True)
        assert l0(l0(m)) == l0(m)
        assert l1(l0(m)) == zero_module()
        assert ls(l0(m), 2) == zero_module()
        assert ls(m, 2 + rng.randrange(3)) == zero_module()
        assert l0(m + k) == l0(m) + l0(k)
        assert l1(m + k) == l1(m) + l1(k)
        assert boxtimes(m, fg) == l0(tensor(m, fg))
        assert boxtimes(fg, m) == l0(tensor(fg, m))
        f, r = rng.randrange(4), rng.randrange(4)
        free_src, free_tgt = local_free(2, f), local_free(2, r)
        assert l0(hom(free_src, free_tgt)) == hom(l0(free_src), l0(free_tgt))
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"ACCEPTANCE 4 PASS - {n} L-functor axiom samples, zero failures, {elapsed:.1f}s")


def test_acceptance_5_oracle_equivalence(capsys):
    """cyclic = bar exhaustively (m <= 6, N <= 4, s <= 3); complex
    cohomology = enumeration (ranks <= 3, N <= 4).  Zero failures."""
    start = time.time()
    checked_bar = 0
    for p in (2, 3):
        for m in range(1, 7):
            for N in range(1, 5):
                M = p**N
                for a in range(1, M):
                    if a % p == 0 or pow(a, m, M) != 1:
                        continue
                    g = cyclic_group_data(m, a, p, N)
                    bar = bar_cohomology_finite(g, 3, budget=10**7)
                    cyc = cyclic_cohomology(m, a, p, N, 3)
                    for s in range(4):
                        assert bar.group(s) == cyc[s], (p, m, N, a, s)
                    checked_bar += 1
    checked_enum = 0
    rng = np.random.default_rng(0xACCE55)
    for p, N in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        M = p**N
        for n in range(1, 4):
            for _ in range(10):
                dout = rng.integers(0, M, size=(int(rng.integers(1, 3)), n))
                vals, _, V, _ = snf_mod(dout.tolist(), p, N, want=("V",))
                V = np.array(V, dtype=np.int64)
                avals = [min(v, N) for v in vals] + [N] * (n - len(vals))
                gens = [(V[:, i] * p ** (N - avals[i])) % M for i in range(n)]
                kcols = int(rng.integers(1, 3))
                din = np.zeros((n, kcols), dtype=np.int64)
                for j in range(kcols):
                    coeff = rng.integers(0, M, size=n)
                    din[:, j] = sum(c * g for c, g in zip(coeff, gens)) % M
                cx = CochainComplex(
                    p, N, (kcols, n, dout.shape[0]), (sparse_rows(din), sparse_rows(dout % M))
                )
                got = complex_cohomology(cx, 1)
                want = enumerate_cohomology_type(dout.tolist(), din.tolist(), n, p, N)
                assert tuple(got.cyclics) == want, (p, N, dout, din)
                checked_enum += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s, budget 2min"
    with capsys.disabled():
        print(
            f"ACCEPTANCE 5 PASS - {checked_bar} cyclic-vs-bar and "
            f"{checked_enum} enumeration instances, zero failures, {elapsed:.1f}s"
        )


def test_acceptance_6_valuation_anchor(capsys):
    """v_2(5^w - 1) = v_2(w) + 2 for even w and 2 for odd w, |w| <= 4096."""
    start = time.time()
    for w in range(1, 4097):
        v = vp(5**w - 1, 2)
        want = vp(w, 2) + 2 if w % 2 == 0 else 2
        assert v == want, w
        # negative weights: 5^w - 1 = -(5^|w|-1)/5^|w|, same valuation
        assert vp(1 - 5**w, 2) == v
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"ACCEPTANCE 6 PASS - valuation anchor verified for 1 <= |w| <= 4096, {elapsed:.1f}s")


def test_acceptance_7_odd_prime_sanity(capsys):
    """p = 3: H^0 = H^1 = Z_3 at w = 0; H^1(Z_3(w)) cyclic of order
    3^(1+v_3(w)) for even w != 0 and zero for odd w; both routes agree,
    |w| <= 27."""
    start = time.time()
    r0 = units_cohomology(3, 0, 2)
    b0 = continuous_via_quotients(3, 0, 2)
    assert r0.group(0) == b0.group(0) == padic(3)
    assert r0.group(1) == b0.group(1) == padic(3)
    for w in range(-27, 28):
        if w == 0:
            continue
        s = units_cohomology(3, w, 2)
        b = continuous_via_quotients(3, w, 2)
        for k in range(3):
            assert s.group(k) == b.group(k), (w, k)
        if w % 2 == 0:
            assert s.group(1) == cyclic(3, 1 + vp(w, 3)), w
        else:
            assert s.group(1) == zero_module(), w
        assert s.group(0) == zero_module()
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"ACCEPTANCE 7 PASS - odd-prime closed form and route agreement, {elapsed:.1f}s")
