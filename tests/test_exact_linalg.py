"""Smith forms, cokernels, and cochain cohomology against hand oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import enumerate_cohomology_type, smith_diagonal_by_minor_gcds
from stabcoh.errors import PrecisionExhausted
from stabcoh.exact_linalg import (
    BaseZMod,
    BaseZpTrunc,
    CochainComplex,
    IntMatrix,
    complex_cohomology,
    _snf_mod_np,
    _snf_mod_py,
    lattice_quotient_exponents,
    snf_int,
    snf_mod,
    snf_trunc,
    vp,
)
from stabcoh.modules import ModuleExpr, cyclic, padic, zero_module

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _check_int_transforms(A, diag, U, V, Ui, Vi):
    """U A V is the diagonal matrix of diag, exactly, and Ui, Vi invert
    U, V over Z."""
    m, n = len(A), len(A[0])

    def mul(X, Y):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    D = mul(mul(U, A), V)
    assert D == [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
    assert mul(U, Ui) == eye(m)
    assert mul(V, Vi) == eye(n)


def test_snf_gcd_elimination_oracle_diag_2_3():
    A = [[2, 0], [0, 3]]
    assert smith_diagonal_by_minor_gcds(A) == [1, 6]
    diag, *T = snf_int(A)
    assert diag == [1, 6]
    _check_int_transforms(A, diag, *T)


def test_snf_identity_and_zero():
    I3 = IntMatrix.identity(3).to_lists()
    diag, *T = snf_int(I3)
    assert diag == [1, 1, 1]
    _check_int_transforms(I3, diag, *T)
    Z = IntMatrix.zeros(2, 3).to_lists()
    diag, *T = snf_int(Z)
    assert diag == [0, 0]
    _check_int_transforms(Z, diag, *T)


@given(small_matrices)
@settings(max_examples=150)
def test_snf_transform_identity_and_divisibility(rows):
    diag, *T = snf_int(rows)
    _check_int_transforms(rows, diag, *T)
    d = list(diag)
    for a, b in zip(d, d[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert [abs(x) for x in d] == smith_diagonal_by_minor_gcds(rows)


@given(small_matrices, st.sampled_from([2, 3]), st.integers(min_value=1, max_value=4))
@settings(max_examples=100)
def test_snf_mod_agrees_with_integer_p_parts(rows, p, N):
    A = np.array(rows, dtype=np.int64)
    vals, U, Ui, V, Vi = snf_mod(A, p, N, want_cols=True, want_rows=True)
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
    assert not ((U @ Ui) % M - np.eye(A.shape[0], dtype=np.int64) % M).any()
    assert not ((V @ Vi) % M - np.eye(A.shape[1], dtype=np.int64) % M).any()
    for i in range(min(D.shape)):
        assert (D[i, i] - (p ** vals[i] if vals[i] < N else 0)) % M == 0


def _check_mod_transforms(A, vals, U, Ui, V, Vi, p, L):
    """U A V is diagonal with p^vals on the diagonal, and Ui, Vi are the
    inverses of U, V, all mod p^L; exact Python-int arithmetic."""
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
    assert mul(U, Ui) == eye(m)
    assert mul(V, Vi) == eye(n)


@given(small_matrices, st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=5))
@settings(max_examples=150)
def test_snf_mod_python_and_numpy_paths_agree(rows, p, L):
    py = _snf_mod_py(rows, p, L, True, True)
    npy = _snf_mod_np(np.array(rows, dtype=np.int64), p, L, True, True)
    assert py[0] == npy[0]
    _check_mod_transforms(rows, *py, p, L)
    _check_mod_transforms(rows, npy[0], *(T.tolist() for T in npy[1:]), p, L)


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
    # 3^40 > 2^63: the numpy kernel cannot hold these residues
    p, L = 3, 40
    vals, U, Ui, V, Vi = snf_mod(rows, p, L, want_cols=True, want_rows=True)
    diag, *_ = snf_int(rows, transforms=False)
    assert [min(v, L) for v in vals] == [min(vp(d, p), L) if d else L for d in diag]
    _check_mod_transforms(rows, vals, U, Ui, V, Vi, p, L)


def test_snf_mod_container_follows_input():
    rows = [[2, 4, 6], [1, 3, 5]]
    vals, U, Ui, V, Vi = snf_mod(rows, 2, 3, want_cols=True, want_rows=True)
    assert all(isinstance(T, list) for T in (U, Ui, V, Vi))
    avals, *arrays = snf_mod(np.array(rows), 2, 3, want_cols=True, want_rows=True)
    assert avals == vals
    assert all(isinstance(T, np.ndarray) for T in arrays)
    big = [[3**50, 1], [2, 3**41]]
    _, _, _, V, _ = snf_mod(np.array(big, dtype=object), 3, 45, want_cols=True)
    assert V.dtype == object


def test_snf_truncated_base_and_precision_exhaustion():
    with pytest.raises(PrecisionExhausted):
        snf_trunc([[16]], 2, 3)
    diag, *T = snf_trunc([[16]], 2, 8)
    assert diag == [16] and vp(diag[0], 2) == 4
    _check_int_transforms([[16]], diag, *T)


def test_snf_truncated_stability_under_refinement():
    A = [[12, 4], [8, 24]]  # invariant factors 4, 64
    with pytest.raises(PrecisionExhausted):
        snf_trunc(A, 2, 6)
    first, *_ = snf_trunc(A, 2, 8)
    second, *_ = snf_trunc(A, 2, 16)
    assert [vp(d, 2) for d in first] == [vp(d, 2) for d in second] == [2, 6]


def test_complex_left_kernel_of_doubling_on_z8():
    # 0 -> Z/8 --x2--> Z/8 -> 0, leftmost degree
    assert enumerate_cohomology_type([[2]], None, 1, 2, 3) == (1,)
    c = CochainComplex(BaseZMod(2, 3), 0, (1, 1), (IntMatrix.from_rows([[2]]),))
    assert complex_cohomology(c, 0) == cyclic(2, 1)
    assert complex_cohomology(c, 1) == cyclic(2, 1)


def test_complex_zero_differentials_returns_module():
    c = CochainComplex(
        BaseZMod(2, 2), 0, (2, 2), (IntMatrix.zeros(2, 2),)
    )
    assert complex_cohomology(c, 0) == cyclic(2, 2, 2)


def test_two_term_padic_complex_times_sixteen():
    # 0 -> Z_2 --x16--> Z_2 -> 0: cokernel is Z/16, certified exactly;
    # cross-checked by enumeration one level above the torsion exponent
    assert enumerate_cohomology_type(None, [[16]], 1, 2, 6) == (4,)
    c = CochainComplex(BaseZpTrunc(2, 8), 0, (1, 1), (IntMatrix.from_rows([[16]]),))
    assert complex_cohomology(c, 0) == zero_module()
    assert complex_cohomology(c, 1) == cyclic(2, 4)


def test_truncated_free_rank_certification():
    # d = 0 exactly: free kernel of rank 2 over Z_2
    c = CochainComplex(BaseZpTrunc(2, 8), 0, (2, 2), (IntMatrix.zeros(2, 2),))
    assert complex_cohomology(c, 0) == padic(2, 2)


def test_truncated_complex_with_undetermined_entry_raises():
    # at precision 4, x16 cannot be told apart from 0: its kernel is undecided
    coarse = CochainComplex(BaseZpTrunc(2, 4), 0, (1, 1), (IntMatrix.from_rows([[16]]),))
    with pytest.raises(PrecisionExhausted):
        complex_cohomology(coarse, 0)
    fine = CochainComplex(BaseZpTrunc(2, 4), 0, (1, 1), (IntMatrix.from_rows([[8]]),))
    assert complex_cohomology(fine, 1) == cyclic(2, 3)


def test_d_squared_is_checked_on_construction():
    good = CochainComplex(
        BaseZMod(2, 3),
        0,
        (1, 1, 1),
        (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]])),
    )
    # ker(x4 on Z/8) and im(x2) both equal 2Z/8
    assert enumerate_cohomology_type([[4]], [[2]], 1, 2, 3) == ()
    assert complex_cohomology(good, 1) == zero_module()
    with pytest.raises(ValueError):
        CochainComplex(
            BaseZMod(2, 3),
            0,
            (1, 1, 1),
            (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]])),
        )


def _random_mod_complex(rng, p, N, n):
    """A two-differential complex over Z/p^N with d o d = 0, built from a
    random map out and a random selection of its kernel as the map in."""
    M = p**N
    dout = rng.integers(0, M, size=(rng.integers(1, 4), n))
    vals, _, _, V, _ = snf_mod(dout.copy(), p, N, want_cols=True)
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
            c = CochainComplex(BaseZMod(p, N), 0, (din.shape[1], n, dout.shape[0]), (din, dout))
            got = complex_cohomology(c, 1)
            want = enumerate_cohomology_type(dout.tolist(), din.tolist(), n, p, N)
            assert tuple(got.cyclics) == want, (dout, din)


def test_mod_cohomology_refinement_stability():
    # a complex defined over Z lifts to every precision; certified answers
    # on the Z_p base must not move as N grows
    dout = IntMatrix.from_rows([[2, 4], [1, 2]])  # kernel spanned by (2, -1)
    din = IntMatrix.from_rows([[4, 8], [-2, -4]])
    prev = None
    for N in (6, 8, 12):
        c = CochainComplex(BaseZpTrunc(2, N), 0, (2, 2, 2), (din, dout))
        got = complex_cohomology(c, 1)
        if prev is not None:
            assert got == prev
        prev = got
    assert prev == cyclic(2, 1)


def test_lattice_quotient_exponents():
    assert lattice_quotient_exponents([[1, 0]], [[2, 0]], 2, 2, 3) == (1,)
    assert lattice_quotient_exponents([[1, 0], [0, 1]], [], 2, 2, 2) == (2, 2)
    assert lattice_quotient_exponents([], [[1, 0]], 2, 2, 3) == ()
    assert lattice_quotient_exponents([[2, 0]], [[8, 0]], 2, 2, 4) == (2,)
