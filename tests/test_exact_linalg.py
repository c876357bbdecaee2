"""Smith forms, cokernels, and cochain cohomology against hand oracles."""

from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    _smith_mod_full,
    cohomology_by_full_elimination,
    cyclic_cohomology,
    cyclic_group_data,
    det_int,
    enumerate_cohomology_type,
    lattice_quotient_by_enumeration,
    smith_diagonal_by_minor_gcds,
    sparse_rows,
)
from stabcoh import exact_linalg
from stabcoh.errors import PrecisionExhausted
from stabcoh.exact_linalg import (
    CochainComplex,
    complex_cohomology,
    lattice_quotient_exponents,
    rank_one_cohomology,
    snf_int,
    snf_mod,
    snf_trunc,
    vp,
)
from stabcoh.modules import ModuleExpr, cyclic, padic, zero_module

ALL_TRANSFORMS = ("U", "V", "Vi")

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def test_snf_gcd_elimination_oracle_diag_2_3():
    # rank 2, second invariant factor 6: snf_int reads rank <= 1 only
    A = [[2, 0], [0, 3]]
    assert smith_diagonal_by_minor_gcds(A) == [1, 6]
    with pytest.raises(ValueError, match="rank <= 1"):
        snf_int(A)


def test_snf_identity_and_zero():
    with pytest.raises(ValueError, match="rank <= 1"):
        snf_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert snf_int([[0, 0, 0], [0, 0, 0]]) == [0, 0]


@given(small_matrices)
@example([[2, 4], [3, 6]])
@example([[0, -6, 0], [0, 9, 0], [0, 0, 0]])
@example([[0, 0], [0, 0]])
@settings(max_examples=150)
def test_snf_int_divisibility_and_minor_gcds(rows):
    # the determinant-divisor diagonal when its second factor is 0 (or it
    # has none): [gcd of the entries, 0, ..]; a rank-2 matrix is refused
    want = smith_diagonal_by_minor_gcds(rows)
    if want[1:2] in ([], [0]):
        assert snf_int(rows) == want
    else:
        with pytest.raises(ValueError, match="rank <= 1"):
            snf_int(rows)


wide_ints = st.integers(min_value=-(2**70), max_value=2**70)


@given(st.lists(wide_ints, min_size=1, max_size=4), st.lists(wide_ints, min_size=1, max_size=4))
@example([2**40 + 1, 0, -(2**65)], [3**30, 2**63])
@settings(max_examples=100)
def test_snf_int_reads_outer_products_past_int64(u, v):
    # u v^T has rank <= 1 and entries up to 2^140: its one invariant factor
    # is gcd(u) gcd(v).  +1 on entry (0, 0) moves the minor of rows 0, i and
    # columns 0, j by u_i v_j, so a nonzero one there makes the rank 2
    rows = [[x * y for y in v] for x in u]
    want = [gcd(*u) * gcd(*v)] + [0] * (min(len(u), len(v)) - 1)
    assert snf_int(rows) == want == smith_diagonal_by_minor_gcds(rows)
    rows[0][0] += 1
    if any(u[1:]) and any(v[1:]):
        with pytest.raises(ValueError, match="rank <= 1"):
            snf_int(rows)


@given(small_matrices, st.sampled_from([2, 3]), st.integers(min_value=1, max_value=4))
@settings(max_examples=100)
def test_snf_mod_agrees_with_integer_p_parts(rows, p, N):
    A = np.array(rows, dtype=np.int64)
    vals, *T = snf_mod(rows, p, N, want=ALL_TRANSFORMS)
    U, V, Vi = (np.array(X, dtype=np.int64) for X in T)
    M = p**N
    D = (U @ A @ V) % M
    off = D.copy()
    for i in range(min(D.shape)):
        off[i, i] = 0
    assert not off.any()
    got = [min(v, N) for v in vals]
    expected = [
        min(vp(d, p), N) if d else N for d in smith_diagonal_by_minor_gcds(rows)
    ]
    assert got == expected
    assert det_int(T[0]) % p  # U is invertible mod p^N
    assert not ((V @ Vi) % M - np.eye(A.shape[1], dtype=np.int64) % M).any()
    for i in range(min(D.shape)):
        assert (D[i, i] - (p ** vals[i] if vals[i] < N else 0)) % M == 0


def _check_mod_transforms(A, vals, U, V, Vi, p, L):
    """U A V is diagonal with p^vals on the diagonal, U is invertible (its
    integer determinant is prime to p) and Vi is the inverse of V, all mod
    p^L; exact Python-int arithmetic."""
    M = p**L
    m, n = len(A), len(A[0])

    def mul(X, Y):
        return [[sum(x * y for x, y in zip(row, col)) % M for col in zip(*Y)] for row in X]

    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    D = mul(mul(U, A), V)
    for i in range(m):
        for j in range(n):
            want = p ** vals[i] % M if i == j and vals[i] < L else 0
            assert D[i][j] == want, (i, j)
    assert det_int(U) % p
    assert mul(V, Vi) == eye(n)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-(3**45), max_value=3**45), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
)
@settings(max_examples=60)
def test_snf_mod_past_int64_matches_integer_p_parts(rows):
    # 3^40 > 2^63: these residues do not fit a machine word
    p, L = 3, 40
    vals, U, V, Vi = snf_mod(rows, p, L, want=ALL_TRANSFORMS)
    diag = smith_diagonal_by_minor_gcds(rows)
    assert [min(v, L) for v in vals] == [min(vp(d, p), L) if d else L for d in diag]
    _check_mod_transforms(rows, vals, U, V, Vi, p, L)


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda m: st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.just(0), st.just(0), st.integers(min_value=-400, max_value=400)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=m,
                max_size=m,
            )
        )
    ),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=150)
def test_snf_mod_sparse_rows_match_integer_p_parts(rows, p, L):
    # mostly-zero rows, as the bar complexes give: elimination skips the
    # zeros of the pivot row, and the transforms must still be exact; at
    # up to 7 x 7 the integer p-parts come from the oracle's own elimination
    # mod p^L, as minor gcds cost far more there
    vals, U, V, Vi = snf_mod(rows, p, L, want=ALL_TRANSFORMS)
    assert [min(v, L) for v in vals] == _smith_mod_full(rows, p, L)[0][: len(vals)]
    _check_mod_transforms(rows, vals, U, V, Vi, p, L)


def test_snf_mod_container_follows_input():
    # lists of rows in, lists of rows out, whatever their size
    rows = [[2, 4, 6], [1, 3, 5]]
    vals, U, V, Vi = snf_mod(rows, 2, 3, want=ALL_TRANSFORMS)
    assert all(isinstance(T, list) for T in (U, V, Vi))
    _check_mod_transforms(rows, vals, U, V, Vi, 2, 3)
    big = [[(i * j) % 7 for j in range(20)] for i in range(20)]
    vals, U, V, Vi = snf_mod(big, 7, 2, want=ALL_TRANSFORMS)
    assert all(isinstance(T, list) for T in (U, V, Vi))
    _check_mod_transforms(big, vals, U, V, Vi, 7, 2)


@given(small_matrices, st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_transforms_are_built_only_on_request(rows, p, L):
    # every request gives the same diagonal; each transform asked for is
    # the one the full request builds, which satisfies its identity, and
    # each other one is None
    full = snf_mod(rows, p, L, want=ALL_TRANSFORMS)
    _check_mod_transforms(rows, *full, p, L)
    for k in range(len(ALL_TRANSFORMS) + 1):
        for want in combinations(ALL_TRANSFORMS, k):
            got = snf_mod(rows, p, L, want=want)
            assert got[0] == full[0], want
            for name, T, F in zip(ALL_TRANSFORMS, got[1:], full[1:]):
                assert T == (F if name in want else None), (want, name)


def test_snf_truncated_base_and_precision_exhaustion():
    with pytest.raises(PrecisionExhausted):
        snf_trunc([[16]], 2, 3)
    diag = snf_trunc([[16]], 2, 8)
    assert diag == [16] and vp(diag[0], 2) == 4


def test_snf_truncated_stability_under_refinement():
    A = [[64, 192], [128, 384]]  # rank 1, invariant factors 2^6, 0
    with pytest.raises(PrecisionExhausted):
        snf_trunc(A, 2, 6)
    first = snf_trunc(A, 2, 8)
    second = snf_trunc(A, 2, 16)
    assert first == second == snf_int(A) == [64, 0]


def test_complex_left_kernel_of_doubling_on_z8():
    # 0 -> Z/8 --x2--> Z/8 -> 0, leftmost degree
    assert enumerate_cohomology_type([[2]], None, 1, 2, 3) == (1,)
    c = CochainComplex(2, 3, (1, 1), ([{0: 2}],))
    assert complex_cohomology(c, 0) == cyclic(2, 1)
    assert complex_cohomology(c, 1) == cyclic(2, 1)


def test_complexes_are_frozen():
    c = CochainComplex(2, 3, (1, 1), ([{0: 2}],))
    for name in ("p", "N", "ranks", "differentials"):
        with pytest.raises(AttributeError):
            setattr(c, name, 3)
    assert c.p == 2 and c.N == 3 and c.ranks == (1, 1)


def test_complex_zero_differentials_returns_module():
    c = CochainComplex(2, 2, (2, 2), ([{}, {}],))
    assert complex_cohomology(c, 0) == cyclic(2, 2, 2)


def test_two_term_padic_complex_times_sixteen():
    # 0 -> Z_2 --x16--> Z_2 -> 0: cokernel is Z/16, certified exactly;
    # cross-checked by enumeration one level above the torsion exponent
    assert enumerate_cohomology_type(None, [[16]], 1, 2, 6) == (4,)
    assert rank_one_cohomology((1, 1), ([[16]],), 2, 8) == (zero_module(), cyclic(2, 4))


def test_truncated_free_rank_certification():
    # d = 0 exactly: free kernel of rank 2 over Z_2
    assert rank_one_cohomology((2, 2), ([[0, 0], [0, 0]],), 2, 8)[0] == padic(2, 2)


def test_truncated_complex_with_undetermined_entry_raises():
    # at precision 4, x16 cannot be told apart from 0: its kernel is undecided
    with pytest.raises(PrecisionExhausted):
        rank_one_cohomology((1, 1), ([[16]],), 2, 4)
    assert rank_one_cohomology((1, 1), ([[8]],), 2, 4)[1] == cyclic(2, 3)


def test_d_squared_is_checked_on_construction():
    good = CochainComplex(
        2,
        3,
        (1, 1, 1),
        ([{0: 2}], [{0: 4}]),
    )
    # ker(x4 on Z/8) and im(x2) both equal 2Z/8
    assert enumerate_cohomology_type([[4]], [[2]], 1, 2, 3) == ()
    assert complex_cohomology(good, 1) == zero_module()
    with pytest.raises(ValueError):
        CochainComplex(
            2,
            3,
            (1, 1, 1),
            ([{0: 2}], [{0: 3}]),
        )
    # over Z_p the composite must vanish exactly: the group reader rests
    # on boundaries being cocycles, and checks nothing itself; 16 * 16 =
    # 2^8 is 0 mod 2^8 and still refused at N = 8
    for d0, d1 in (([[2]], [[4]]), ([[16]], [[16]]), ([[1, 0], [0, 1]], [[0, 1]])):
        with pytest.raises(ValueError, match="did not square to zero"):
            rank_one_cohomology((len(d0[0]), len(d0), len(d1)), (d0, d1), 2, 8)


@st.composite
def _planted_integer_complexes(draw):
    """(p, N, ranks, diffs, groups, refused): an integer complex C^0 -> C^1
    -> C^2 read over Z_p at precision N, built in diagonal form and
    conjugated by unimodular integer matrices.  C^1 = Z^(a + f + b): d^0
    sends e_j to alpha_j e_j for j < a, d^1 sends e_(a+f+i) to beta_i e_i,
    so d d = 0 and f is the free block; a, b <= 1, as
    ``rank_one_cohomology`` reads differentials of rank <= 1 only.
    groups[s] is the planted H^s over Z_p; refused says whether reading
    the complex must raise PrecisionExhausted: it reads every diagonal, so
    it must exactly when some planted factor has valuation N or more."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(min_value=1, max_value=5))
    # a unit of Z_p, +-(p q + r) with 0 < r < p, times p^v, v up to N + 1
    factor = st.tuples(
        st.sampled_from([1, -1]), st.integers(0, 3), st.integers(1, p - 1), st.integers(0, N + 1)
    ).map(lambda x: x[0] * (p * x[1] + x[2]) * p ** x[3])
    alphas = draw(st.lists(factor, max_size=1))
    betas = draw(st.lists(factor, max_size=1))
    a, b = len(alphas), len(betas)
    f = draw(st.integers(min_value=0, max_value=2))
    k = a + draw(st.integers(min_value=0, max_value=2))
    m = b + draw(st.integers(min_value=0, max_value=2))
    n = a + f + b
    d0 = [[alphas[i] if i == j and i < a else 0 for j in range(k)] for i in range(n)]
    d1 = [[betas[i] if j == a + f + i and i < b else 0 for j in range(n)] for i in range(m)]

    def unimodular(size):
        """(P, P^-1) from a drawn run of elementary row operations."""
        P = [[int(i == j) for j in range(size)] for i in range(size)]
        Pi = [row[:] for row in P]
        if size < 2:
            return P, Pi
        ops = st.tuples(st.integers(0, size - 1), st.integers(0, size - 2), st.integers(-3, 3))
        for i, j, q in draw(st.lists(ops, max_size=2 * size)):
            j += j >= i  # j != i
            P[i] = [x + q * y for x, y in zip(P[i], P[j])]  # row_i += q row_j
            for row in Pi:  # col_j -= q col_i
                row[j] -= q * row[i]
        return P, Pi

    def mul(X, Y):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

    (_, P0i), (P1, P1i), (P2, _) = unimodular(k), unimodular(n), unimodular(m)
    d0, d1 = mul(mul(P1, d0), P0i), mul(mul(P2, d1), P1i)

    def torsion(factors):
        return [vp(x, p) for x in factors if vp(x, p) >= 1]

    def deep(factors):
        return any(vp(x, p) >= N for x in factors)

    groups = [
        ModuleExpr(p, padics=k - a),
        ModuleExpr(p, padics=f, cyclics=torsion(alphas)),
        ModuleExpr(p, padics=m - b, cyclics=torsion(betas)),
    ]
    return p, N, (k, n, m), (d0, d1), groups, deep(alphas) or deep(betas)


@given(_planted_integer_complexes())
@example((2, 3, (1, 1, 1), ([[8]], [[0]]), [zero_module(), cyclic(2, 3), padic(2, 1)], True))
@settings(max_examples=120, deadline=None)
def test_integer_cohomology_returns_the_planted_group(planted):
    # the group of every degree, or PrecisionExhausted exactly when a
    # planted factor, all of which the reader decides, has valuation >= N
    p, N, ranks, diffs, groups, refused = planted
    if refused:
        with pytest.raises(PrecisionExhausted):
            rank_one_cohomology(ranks, diffs, p, N)
    else:
        assert rank_one_cohomology(ranks, diffs, p, N) == tuple(groups), diffs


@pytest.mark.parametrize("d", [[[2, 0], [0, 4]], [[1, 2], [3, 4]]])
def test_integer_base_refuses_a_differential_of_rank_two(d):
    # rank 2, in a complex of one differential or as the map out or the map
    # in of a middle degree: the reader refuses it rather than answer
    for ranks, diffs in (((2, 2), (d,)), ((2, 2, 0), (d, [])), ((0, 2, 2), ([[], []], d))):
        with pytest.raises(ValueError, match="rank <= 1"):
            rank_one_cohomology(ranks, diffs, 2, 8)


def _random_mod_complex(rng, p, N, n, dout=None):
    """A two-differential complex over Z/p^N with d o d = 0, built from a
    map out, random unless given, and a random selection of its kernel as
    the map in."""
    M = p**N
    if dout is None:
        dout = rng.integers(0, M, size=(rng.integers(1, 4), n))
    vals, _, V, _ = snf_mod(dout.tolist(), p, N, want=("V",))
    V = np.array(V, dtype=np.int64)
    gens = []
    avals = [min(v, N) for v in vals] + [N] * (n - len(vals))
    for i in range(n):
        gens.append((V[:, i] * p ** (N - avals[i])) % M)
    k = rng.integers(1, 4)
    din = np.zeros((n, k), dtype=np.int64)
    for j in range(k):
        coeffs = rng.integers(0, M, size=n)
        din[:, j] = sum(c * g for c, g in zip(coeffs, gens)) % M
    return dout % M, din


@pytest.mark.parametrize("p,N", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_mod_cohomology_matches_enumeration(p, N):
    rng = np.random.default_rng(20240000 + 10 * p + N)
    reps = 12 if p**N <= 27 else 6
    for n in range(1, 4):
        if (p**N) ** n > 600_000:
            continue
        for _ in range(reps):
            dout, din = _random_mod_complex(rng, p, N, n)
            c = CochainComplex(
                p, N, (din.shape[1], n, dout.shape[0]), (sparse_rows(din), sparse_rows(dout))
            )
            got = complex_cohomology(c, 1)
            want = enumerate_cohomology_type(dout.tolist(), din.tolist(), n, p, N)
            assert tuple(got.cyclics) == want, (dout, din)


def _snf_mod_spy(monkeypatch):
    """Record the shape and modulus exponent of every snf_mod call."""
    calls = []
    real = exact_linalg.snf_mod

    def spy(A, p, L, *args, **kwargs):
        calls.append((np.shape(A), L))
        return real(A, p, L, *args, **kwargs)

    monkeypatch.setattr(exact_linalg, "snf_mod", spy)
    return calls


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2)])
def test_tall_mod_cohomology_matches_full_elimination_and_enumeration(p, N):
    # tall differentials of low rank, their nonzero rows anywhere, so that
    # a reader that eliminated only some of the rows would be caught
    rng = np.random.default_rng(20261018 + 10 * p + N)
    M = p**N
    for n in range(1, 4):
        for _ in range(15):
            m = int(rng.integers(2 * n + 1, 5 * n + 2))
            basis = rng.integers(0, M, size=(int(rng.integers(1, n + 1)), n))
            coeffs = rng.integers(0, M, size=(m, len(basis)))
            coeffs[rng.random(m) < 0.7] = 0
            dout = coeffs @ basis % M
            # din: random combinations of the kernel generators of dout
            vals, _, V, _ = snf_mod(dout.tolist(), p, N, want=("V",))
            gens = np.array(V, dtype=np.int64) * p ** (N - np.array(vals)) % M
            din = gens @ rng.integers(0, M, size=(n, int(rng.integers(1, 4)))) % M
            c = CochainComplex(
                p, N, (din.shape[1], n, m), (sparse_rows(din), sparse_rows(dout))
            )
            got = complex_cohomology(c, 1)
            assert got == cohomology_by_full_elimination(dout, din, n, p, N), (dout, din)
            assert tuple(got.cyclics) == enumerate_cohomology_type(
                dout.tolist(), din.tolist(), n, p, N
            ), (dout, din)


def test_tall_bar_differential_past_int64_matches_closed_form():
    # Z/2^33: n * p^(2N) >= 2^62, past any int64 elimination, and d^3 of
    # a cyclic group of order 4 has 81 > 2 * 27 rows, so its probe and
    # candidate check run on residues that do not fit a machine word
    from stabcoh.cohomology import bar_cohomology_finite

    p, N, m = 2, 33, 4
    assert 3 * (p**N) ** 2 >= 2**62
    for a in (1, 2**N - 1, 1 + 2**31, 2**31 - 1):
        g = cyclic_group_data(m, a, p, N)
        bar = bar_cohomology_finite(g, 3)
        want = cyclic_cohomology(m, a, p, N, 3)
        assert [bar.group(s) for s in range(4)] == want, a


def test_mod_cohomology_refinement_stability():
    # a complex defined over Z lifts to every precision; certified answers
    # read over Z_p must not move as N grows
    dout = [[2, 4], [1, 2]]  # kernel spanned by (2, -1)
    din = [[4, 8], [-2, -4]]
    prev = None
    for N in (6, 8, 12):
        got = rank_one_cohomology((2, 2, 2), (din, dout), 2, N)[1]
        if prev is not None:
            assert got == prev
        prev = got
    assert prev == cyclic(2, 1)


def test_lattice_quotient_exponents():
    assert lattice_quotient_exponents([[1, 0]], [[2, 0]], 2, 2, 3) == (1,)
    assert lattice_quotient_exponents([[1, 0], [0, 1]], [], 2, 2, 2) == (2, 2)
    assert lattice_quotient_exponents([], [[1, 0]], 2, 2, 3) == ()
    assert lattice_quotient_exponents([[2, 0]], [[8, 0]], 2, 2, 4) == (2,)
    # the quotient is (span(num) + D)/D, so den need not lie in span(num)
    assert lattice_quotient_exponents([[2, 0]], [[1, 0]], 2, 2, 3) == ()
    assert lattice_quotient_exponents([[1, 0], [0, 2]], [[2, 0]], 2, 2, 3) == (2, 1)


@st.composite
def _lattice_instances(draw):
    """(p, N, ambient, num, den) with p^N <= 9 and ambient <= 3; vectors
    are zero, 0 mod p^N (most of them not mod p^(N+1)) or arbitrary."""
    p, N = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    ambient = draw(st.integers(min_value=1, max_value=3))
    M = p**N
    coords = st.lists(st.integers(min_value=-3 * M, max_value=3 * M), min_size=ambient, max_size=ambient)
    vector = st.one_of(st.just([0] * ambient), coords.map(lambda v: [M * x for x in v]), coords)
    num = draw(st.lists(vector, max_size=4))
    den = draw(st.lists(vector, max_size=4))
    return p, N, ambient, num, den


@given(_lattice_instances(), st.booleans())
@example((2, 2, 2, [[4, 0], [0, 1]], [[0, 2]]), False)
@example((3, 1, 3, [[3, 0, 0], [1, 1, 0]], []), True)
@example((2, 3, 1, [], [[8], [0]]), True)
@example((3, 2, 2, [[9, 18], [0, 0], [1, 3]], [[27, 9], [0, 3]]), False)
@settings(max_examples=200, deadline=None)
def test_lattice_quotient_exponents_matches_enumeration(instance, as_arrays):
    p, N, ambient, num, den = instance
    want = lattice_quotient_by_enumeration(num, den, ambient, p, N)
    if as_arrays:
        num, den = (np.array(vs, dtype=np.int64).reshape(len(vs), ambient) for vs in (num, den))
    assert lattice_quotient_exponents(num, den, ambient, p, N) == want


@pytest.mark.parametrize("p,N", [(2, 2), (2, 3), (3, 2)])
def test_mod_cohomology_relations_cover_the_live_generators(monkeypatch, p, N):
    # kernel generator i, p^(N - a_i) V e_i, is 0 mod p^N iff a_i = 0; the
    # group is read in the live coordinates, so every Smith form mod
    # p^(N+1) (the lattice quotient's) has one row per generator with
    # a_i >= 1, none runs when there is none, and the group is still the
    # enumerated one.  Rows of dout are scaled by p^0 or p^1, so a_i = 0, 1
    # and N all occur.
    rng = np.random.default_rng(20261018 + 10 * p + N)
    M = p**N
    seen = set()
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        dout = rng.integers(0, M, size=(m, n)) * p ** rng.integers(0, 2, size=(m, 1)) % M
        dout, din = _random_mod_complex(rng, p, N, n, dout)
        vals = snf_mod(dout.tolist(), p, N)[0]
        avals = [min(a, N) for a in vals] + [N] * (n - len(vals))
        live = sum(a >= 1 for a in avals)
        seen.update(avals)
        c = CochainComplex(
            p, N, (din.shape[1], n, m), (sparse_rows(din), sparse_rows(dout))
        )
        calls = _snf_mod_spy(monkeypatch)
        got = complex_cohomology(c, 1)
        monkeypatch.undo()
        rows = [shape[0] for shape, L in calls if L == N + 1]
        assert rows == [live] * len(rows) and bool(rows) == bool(live), (rows, live)
        assert tuple(got.cyclics) == enumerate_cohomology_type(dout.tolist(), din.tolist(), n, p, N)
    assert {0, 1, N} <= seen
