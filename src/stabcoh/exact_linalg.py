"""Exact kernels, cokernels and cohomology via Smith normal form.

All arithmetic is on Python ints, so no modulus or size can overflow.
There is one complex type and one reader for integer complexes of rank
<= 1.

* ``CochainComplex(p, N, ranks, differentials)`` -- a complex over the
  finite ring Z/p^N, where every question is decidable in-ring.  It holds
  sparse rows, one dict {column: value mod p^N} per row (the brute
  route's model at the level its bar check reads), and ``_cohomology_mod``
  eliminates every row.  The Smith forms pivot on a globally minimal
  valuation at every step, so the valuation chain is non-decreasing.
  Every Z/p^N group, the bar complexes' too, is read by
  ``kernel_quotient`` in the live kernel coordinates.
* ``rank_one_cohomology(ranks, diffs, p, N)`` -- every H^s over Z_p, at
  working precision N, of an integer complex whose differentials, rows
  of Python ints, have rank <= 1, read off one Smith diagonal per
  differential (``snf_trunc``).  A decision that rests on an invariant
  factor of valuation N or more aborts with PrecisionExhausted.  Callers
  derive N from the same gcds first, so the check is a safety net; an
  answer certified at N holds at every larger N.

``snf_mod`` builds only the transforms its caller names; ``snf_int``
builds none and eliminates nothing.  ``snf_mod`` eliminates dense lists
of rows (``dense_rows``), and ``kernel_quotient`` and
``lattice_quotient_exponents`` leave out the kernel generators and
vectors that are 0 mod p^N.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

from .errors import PrecisionExhausted
from .modules import Frozen, ModuleExpr, zero_module

__all__ = [
    "PRECISION_CEILING",
    "snf_int",
    "snf_mod",
    "snf_trunc",
    "CochainComplex",
    "complex_cohomology",
    "rank_one_cohomology",
    "dense_rows",
    "kernel_quotient",
    "lattice_quotient_exponents",
    "vp",
]

PRECISION_CEILING = 256


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Smith diagonal over Z of a matrix of rank at most one


def snf_int(rows):
    """Integer Smith diagonal [g, 0, .., 0], of length min(m, n), of a
    matrix of rank <= 1, as every structured differential is: g >= 0 is
    the gcd of the entries, and every 2 x 2 minor is 0.  A nonzero minor
    raises ValueError: each entry is tested against one nonzero pivot x_ab,
    x_ij x_ab = x_ib x_aj, which puts every row in the span of row a."""
    A = [list(map(int, r)) for r in rows]
    diag = [0] * (min(len(A), len(A[0])) if A else 0)
    top = next(filter(any, A), None)  # row a, the first nonzero one
    if top is not None:
        b = next(j for j, x in enumerate(top) if x)
        if any(y * top[b] != row[b] * z for row in A for y, z in zip(row, top)):
            raise ValueError("snf_int reads matrices of rank <= 1; a 2 x 2 minor is nonzero")
        diag[0] = gcd(*chain.from_iterable(A))
    return diag


# ---------------------------------------------------------------------------
# Smith normal form over Z/p^L (minimal-valuation pivoting)


def _identity_ll(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def snf_mod(A, p: int, L: int, want=()):
    """Diagonalize a list of rows over Z/p^L.  Returns (vals, U, V, Vi).

    vals has length min(m, n); an entry equal to L means zero in the ring.
    The valuation chain is non-decreasing because pivots are globally
    minimal: step t takes the first entry, in row-major order, of minimal
    valuation in the live block (rows and columns t and up).  Transforms
    are unimodular mod p^L, lists of rows, built only when named in want
    ("U", "V", "Vi"), else None.  Python ints throughout, at any size
    and modulus; A is not modified.
    """
    M = p**L
    A = [[x % M for x in row] for row in A]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity_ll(m) if "U" in want else None
    V = _identity_ll(n) if "V" in want else None
    Vi = _identity_ll(n) if "Vi" in want else None
    ones = list(range(n))  # rows t and up of Vi are still unit vectors e_ones[j]
    vals: list[int] = []
    for t in range(min(m, n)):
        # first entry, in row-major order, of minimal valuation; a unit ends the search
        a, i0, j0 = L, -1, -1
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    if x % p:
                        a, i0, j0 = 0, i, j
                        break
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if v < a:
                        a, i0, j0 = v, i, j
            if a == 0:
                break
        if i0 < 0:
            break
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            if U is not None:
                U[t], U[i0] = U[i0], U[t]
        if j0 != t:
            for r in A[t:]:
                r[t], r[j0] = r[j0], r[t]
            if V is not None:
                for r in V:
                    r[t], r[j0] = r[j0], r[t]
            if Vi is not None:
                Vi[t], Vi[j0] = Vi[j0], Vi[t]
                ones[t], ones[j0] = ones[j0], ones[t]
        # rows t and below are 0 left of column t, and a zero of the pivot
        # row changes nothing, so row operations run on the pivot row's
        # nonzero live entries only, scaled to the pivot p^a: nz, whose
        # first is (t, p^a).  Row t is finished and no step reads it again,
        # as no step reads rows above its own (column swaps included)
        pa = p**a
        nz = [(j, y) for j, y in enumerate(A[t][t:], t) if y]
        u = nz[0][1] // pa
        if u != 1:
            uinv = pow(u, -1, M)
            nz = [(j, (y * uinv) % M) for j, y in nz]
            if U is not None:
                U[t] = [(x * uinv) % M for x in U[t]]
        for i in [i for i in range(t + 1, m) if A[i][t]]:  # p^a divides each A[i][t]
            Ai = A[i]
            f = Ai[t] // pa
            for j, y in nz:
                Ai[j] = (Ai[j] - f * y) % M
            if U is not None:
                U[i] = [(x - f * y) % M for x, y in zip(U[i], U[t])]
        # column t is now clear away from row t, so clearing row t touches
        # nothing below it: column j -= g_j column t, for each nonzero g_j
        gs = [(j, y // pa) for j, y in nz[1:]]
        if V is not None and gs:
            for r in V:
                if rt := r[t]:
                    for j, g in gs:
                        r[j] = (r[j] - rt * g) % M
        if Vi is not None:
            for j, g in gs:
                Vi[t][ones[j]] = g
        vals.append(a)
    vals.extend([L] * (min(m, n) - len(vals)))
    return vals, U, V, Vi


# ---------------------------------------------------------------------------
# Smith normal form over Z_p at working precision N


def snf_trunc(rows, p: int, N: int):
    """Smith diagonal over Z_p at working precision N of an integer matrix
    of rank <= 1: ``snf_int``'s [g, 0, ..], with the p-adic valuations of
    the Z_p Smith form.  Raises PrecisionExhausted when g is nonzero of
    valuation N or more, so every decision a caller reads off the result
    is certified below the precision."""
    diag = snf_int(rows)
    for d in diag:
        if d and vp(d, p) >= N:
            raise PrecisionExhausted(
                f"invariant factor valuation {vp(d, p)} not separated below precision {N}"
            )
    return diag


# ---------------------------------------------------------------------------
# integer complexes of rank <= 1 over Z_p at working precision N


def rank_one_cohomology(ranks, diffs, p: int, N: int) -> tuple[ModuleExpr, ...]:
    """(H^0, .., H^top), top = len(ranks) - 1, over Z_p at working
    precision N of the integer complex Z^ranks[0] -> Z^ranks[1] -> ..,
    diffs[s] the map from degree s to s + 1 as rows of ints, each of rank
    <= 1.  Shapes, and d d = 0 exactly over Z on every composite entry,
    are checked first: the groups rest on boundaries being cocycles.

    ``snf_trunc`` reads the Smith diagonal [g_s, 0, ..] of each d^s once
    (a rank above 1 raises ValueError there, a nonzero g_s of valuation N
    or more PrecisionExhausted), and each degree is read off two of them.
    ker d^s is saturated, so Z^n/ker d^s = im d^s is free and
    Z^n/im d^(s-1) = H^s + Z^rank(d^s).  So H^s has free rank n_s -
    [g_s != 0] - [g_(s-1) != 0] and, when v = v_p(g_(s-1)) >= 1, torsion
    Z/p^v.  That holds where ker d^s = 0 too: there d^(s-1) lands in 0, so
    g_(s-1) = 0 and H^s = 0."""
    if len(diffs) != max(len(ranks) - 1, 0):
        raise ValueError("need exactly len(ranks)-1 differentials")
    for s, d in enumerate(diffs):
        m, n = ranks[s + 1], ranks[s]
        if len(d) != m or any(len(row) != n for row in d):
            raise ValueError(f"differential {s} does not have shape {(m, n)}")
    for s, (din, dout) in enumerate(zip(diffs, diffs[1:])):
        if any(sum(x * y for x, y in zip(row, col)) for row in dout for col in zip(*din)):
            raise ValueError(f"d did not square to zero at position {s}")
    # g_s for s = -1..top, 0 off the ends; a diagonal [g, 0, ..] sums to g
    gs = [0] + [sum(snf_trunc(d, p, N)) for d in diffs] + [0]
    groups = []
    for n, g_in, g_out in zip(ranks, gs, gs[1:]):
        v = vp(g_in, p) if g_in else 0
        groups.append(ModuleExpr(p, padics=n - bool(g_out) - bool(g_in), cyclics=(v,) if v else ()))
    return tuple(groups)


# ---------------------------------------------------------------------------
# cochain complexes over Z/p^N


class CochainComplex(Frozen):
    """A finite complex of free Z/p^N-modules in degrees 0..len(ranks)-1;
    differentials[i] maps degree i to i + 1, as sparse rows, dicts
    {column: value}.  Shapes, and d d = 0 mod p^N on every composite
    entry, are checked on construction.
    """

    __slots__ = ("p", "N", "ranks", "differentials")

    def __init__(self, p: int, N: int, ranks: tuple[int, ...], differentials: tuple):
        self._set(p, N, ranks, differentials)
        if len(differentials) != max(len(ranks) - 1, 0):
            raise ValueError("need exactly len(ranks)-1 differentials")
        for i, d in enumerate(differentials):
            m, n = ranks[i + 1], ranks[i]
            if len(d) != m or not set(range(n)).issuperset(chain.from_iterable(d)):
                raise ValueError(f"differential {i} does not have shape {(m, n)}")
        M = p**N
        for i, (din, dout) in enumerate(zip(differentials, differentials[1:])):
            for row in dout:  # (row din)[col], summed over the sparse entries
                acc: dict[int, int] = {}
                for j, x in row.items():
                    for col, y in din[j].items():
                        acc[col] = acc.get(col, 0) + x * y
                if any(v % M for v in acc.values()):
                    raise ValueError(f"d did not square to zero at position {i}")


def complex_cohomology(c: CochainComplex, degree: int) -> ModuleExpr:
    """ker(d^degree)/im(d^(degree-1)) over Z/p^N as a module expression,
    every summand cyclic."""
    if not (0 <= degree < len(c.ranks)):
        raise ValueError(f"degree {degree} outside [0, {len(c.ranks) - 1}]")
    dout = c.differentials[degree] if degree < len(c.differentials) else None
    din, k = (c.differentials[degree - 1], c.ranks[degree - 1]) if degree else (None, 0)
    return _cohomology_mod(dout, din, c.ranks[degree], k, c.p, c.N)


def dense_rows(rows, n: int) -> list[list[int]]:
    """Sparse rows {column: value} as dense lists of length n."""
    out = [[0] * n for _ in rows]
    for r, row in zip(out, rows):
        for j, x in row.items():
            r[j] = x
    return out


def _cohomology_mod(dout, din, n: int, k: int, p: int, N: int) -> ModuleExpr:
    """ker(dout)/im(din) over Z/p^N for sparse rows, din with k columns
    (None off the ends): every row of dout is eliminated, with column
    transforms only, and ``kernel_quotient`` reads the group off the
    columns of din."""
    if n == 0:
        return zero_module()
    if dout:
        vals, _, _, vi = snf_mod(dense_rows(dout, n), p, N, want=("Vi",))
        avals = [min(a, N) for a in vals] + [N] * (n - len(vals))
    else:
        avals, vi = [N] * n, _identity_ll(n)
    return kernel_quotient(avals, vi, [[row.get(c, 0) for row in din] for c in range(k)], p, N)


def kernel_quotient(avals, vi, cols, p: int, N: int) -> ModuleExpr:
    """ker(dout)/span(cols) over Z/p^N from dout's Smith valuations avals
    (N for a zero pivot, one per column) and inverse column transform vi;
    cols are cocycles, such as the columns of din.  In the coordinates
    z = V^-1 x the kernel is spanned by p^(N - a_i) e_i, of order p^(a_i).
    A dead generator, a_i = 0, is 0 mod p^N, and so is coordinate i of
    every cocycle, so the group is ``lattice_quotient_exponents`` in the
    live coordinates alone: the live generators over the live rows of
    V^-1 cols."""
    live = [i for i, a in enumerate(avals) if a]
    if not live:
        return zero_module()
    gens = [
        [p ** (N - avals[i]) if c == e else 0 for e in range(len(live))] for c, i in enumerate(live)
    ]
    rows = [[(j, x) for j, x in enumerate(vi[i]) if x] for i in live]  # live rows of V^-1, sparse
    image = ([sum(x * col[j] for j, x in row) for row in rows] for col in cols)
    return ModuleExpr(p, cyclics=lattice_quotient_exponents(gens, image, len(live), p, N))


# ---------------------------------------------------------------------------
# finite lattice quotients (the group reader of every Z/p^N complex)


def lattice_quotient_exponents(num, den, ambient: int, p: int, N: int) -> tuple[int, ...]:
    """Exponent multiset of (span(num) + D)/D inside (Z/p^N)^ambient, where
    D = span(den) + p^N Z^ambient.

    num and den are iterables of integer coordinate vectors.  One that is
    0 mod p^N lies in p^N Z^ambient, inside D, so dropping it changes
    neither D nor span(num) + D.  Everything runs mod p^(N+1), one digit
    above the exponent bound p^N, which pins the invariant factors exactly.
    """
    M = p**N
    L1 = p ** (N + 1)

    def live(vectors):
        return [u for u in ([int(x) for x in v] for v in vectors) if any(x % M for x in u)]

    pad = [[M if i == j else 0 for j in range(ambient)] for i in range(ambient)]
    g2 = live(den) + pad
    g1 = live(num) + g2
    a1 = [[v[i] % L1 for v in g1] for i in range(ambient)]
    a2 = [[v[i] % L1 for v in g2] for i in range(ambient)]
    vals1, u1, _, _ = snf_mod(a1, p, N + 1, want=("U",))
    vals1 = [min(v, N) for v in vals1]
    if len(vals1) < ambient:
        raise AssertionError("numerator lattice is not full rank")
    # exact: a2's columns are columns of a1, and row i of U1 a1 is p^vals1[i]
    # times row i of V1^-1 unless snf_mod's U disagrees with its diagonal
    c = []
    for i in range(ambient):
        gap = p ** vals1[i]
        ui = u1[i]
        row = []
        for col in zip(*a2):
            y = sum(x * z for x, z in zip(ui, col)) % L1
            if y % gap:
                raise AssertionError("snf_mod's U is inconsistent with its diagonal")
            row.append(y // gap)
        c.append(row)
    vals2, *_ = snf_mod(c, p, N + 1)
    if any(v > N for v in vals2):
        raise AssertionError("quotient exceeded its exponent bound")
    return tuple(sorted((v for v in vals2 if 1 <= v <= N), reverse=True))
