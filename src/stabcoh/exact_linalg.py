"""Exact kernels, cokernels and cohomology via Smith normal form.

Two base rings are supported:

* ``BaseZMod(p,N)`` -- the finite ring Z/p^N; every question is decidable
  in-ring.  Small matrices eliminate on Python ints, large ones (bar
  complexes) on int64 numpy arrays while the modulus fits.  The Smith
  forms pivot on a globally minimal valuation at every step, so the
  valuation chain is non-decreasing.
* ``BaseZpTrunc(p,N)`` -- the p-adic integers at working precision N.
  Differentials are exact integer matrices and eliminate over Z, whose
  Smith form has the p-adic valuations of the one over Z_p.  Any rank or
  torsion decision that rests on an invariant factor of valuation N or
  more aborts with PrecisionExhausted.  Callers double N and retry, up to
  a ceiling; an answer certified at N is the same at every larger N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import PrecisionExhausted
from .modules import ModuleExpr, zero_module

__all__ = [
    "DEFAULT_PRECISION",
    "PRECISION_CEILING",
    "BaseZMod",
    "BaseZpTrunc",
    "IntMatrix",
    "snf_int",
    "snf_mod",
    "snf_trunc",
    "CochainComplex",
    "complex_cohomology",
    "lattice_quotient_exponents",
    "vp",
]

DEFAULT_PRECISION = 8
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
# bases


@dataclass(frozen=True)
class BaseZMod:
    p: int
    N: int


@dataclass(frozen=True)
class BaseZpTrunc:
    p: int
    N: int


Base = Union[BaseZMod, BaseZpTrunc]


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(map(int, r)) for r in rows]
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(m, n, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(m: int, n: int) -> "IntMatrix":
        return IntMatrix(m, n, (0,) * (m * n))

    def to_lists(self) -> list[list[int]]:
        e = self.entries
        n = self.cols
        return [list(e[i * n : (i + 1) * n]) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a, b = self.to_lists(), other.to_lists()
        flat = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                flat.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(flat))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


# ---------------------------------------------------------------------------
# Smith normal form over Z (pure python, with transforms and inverses)


def _identity_ll(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf_int(rows, transforms: bool = True):
    """Integer Smith form.

    Returns (diag, U, V, Uinv, Vinv) as lists with U @ A @ V diagonal,
    every d_i >= 0 and d_i | d_{i+1}.  Pivots are globally minimal in
    absolute value; once a pivot divides the remaining block, the chain
    condition holds by construction.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity_ll(m) if transforms else None
    Ui = _identity_ll(m) if transforms else None
    V = _identity_ll(n) if transforms else None
    Vi = _identity_ll(n) if transforms else None

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if transforms:
            U[i], U[j] = U[j], U[i]
            for r in Ui:
                r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):  # row_i += q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] += q * Aj[k]
        if transforms:
            Uii, Uj = U[i], U[j]
            for k in range(m):
                Uii[k] += q * Uj[k]
            for r in Ui:
                r[j] -= q * r[i]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        if transforms:
            U[i] = [-x for x in U[i]]
            for r in Ui:
                r[i] = -r[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        if transforms:
            for r in V:
                r[i], r[j] = r[j], r[i]
            Vi[i], Vi[j] = Vi[j], Vi[i]

    def add_col(j, i, q):  # col_j += q * col_i
        for r in A:
            r[j] += q * r[i]
        if transforms:
            for r in V:
                r[j] += q * r[i]
            Vij, Vii = Vi[j], Vi[i]
            for k in range(n):
                Vii[k] -= q * Vij[k]

    t = 0
    rmax = min(m, n)
    while t < rmax:
        piv = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                a = Ai[j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if A[t][t] < 0:
            negate_row(t)
        while True:
            restart = False
            for i in range(m):
                if i != t and A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(i, t)
                        if A[t][t] < 0:
                            negate_row(t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(n):
                if j != t and A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            d = A[t][t]
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    diag = [A[i][i] for i in range(rmax)]
    return diag, U, V, Ui, Vi


# ---------------------------------------------------------------------------
# Smith normal form over Z/p^L (minimal-valuation pivoting)

# Matrices with at least this many entries run on int64 numpy arrays when the
# modulus allows; below it numpy's per-call overhead outweighs the
# vectorization, and Python ints win (the brute route's matrices are at most
# about 7 x 19, the bar complexes' start in the hundreds of entries).
NUMPY_MIN_ENTRIES = 256


def snf_mod(A, p: int, L: int, want_cols: bool = False, want_rows: bool = False):
    """Diagonalize over Z/p^L.  Returns (vals, U, Ui, V, Vi).

    vals has length min(m, n); an entry equal to L means zero in the ring.
    The valuation chain is non-decreasing because pivots are globally
    minimal.  Transforms are unimodular mod p^L and come back in the
    container the matrix came in: numpy arrays for an array, lists of rows
    for lists.  Large matrices run on int64 numpy arrays; small ones, and
    any whose modulus would overflow int64 products, on Python ints.  Both
    paths apply the same pivot rule and the same row and column operations.
    """
    M = p**L
    is_array = isinstance(A, np.ndarray)
    m, n = A.shape if is_array else (len(A), len(A[0]) if A else 0)
    if m * n >= NUMPY_MIN_ENTRIES and max(m, n) * M * M < 2**62:
        vals, *T = _snf_mod_np(np.asarray(A, dtype=np.int64), p, L, want_cols, want_rows)
        if not is_array:
            T = [None if X is None else X.tolist() for X in T]
    else:
        vals, *T = _snf_mod_py(A.tolist() if is_array else A, p, L, want_cols, want_rows)
        if is_array:
            dtype = np.int64 if M < 2**63 else object
            T = [None if X is None else np.array(X, dtype=dtype) for X in T]
    return (vals, *T)


def _snf_mod_py(A, p: int, L: int, want_cols: bool, want_rows: bool):
    """snf_mod on lists of Python ints; A is not modified."""
    M = p**L
    A = [[x % M for x in row] for row in A]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity_ll(m) if want_rows else None
    Ui = _identity_ll(m) if want_rows else None
    V = _identity_ll(n) if want_cols else None
    Vi = _identity_ll(n) if want_cols else None
    vals: list[int] = []
    for t in range(min(m, n)):
        # first entry, in row-major order, of minimal valuation
        a, i0, j0 = L, -1, -1
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if v < a:
                        a, i0, j0 = v, i, j
                        if v == 0:
                            break
            if a == 0:
                break
        if i0 < 0:
            break
        if i0 != t:
            A[t], A[i0] = A[i0], A[t]
            if want_rows:
                U[t], U[i0] = U[i0], U[t]
                for r in Ui:
                    r[t], r[i0] = r[i0], r[t]
        if j0 != t:
            for r in A:
                r[t], r[j0] = r[j0], r[t]
            if want_cols:
                for r in V:
                    r[t], r[j0] = r[j0], r[t]
                Vi[t], Vi[j0] = Vi[j0], Vi[t]
        pa = p**a
        u = A[t][t] // pa
        uinv = pow(u, -1, M)
        At = A[t] = [(x * uinv) % M for x in A[t]]
        if want_rows:
            U[t] = [(x * uinv) % M for x in U[t]]
            for r in Ui:
                r[t] = (r[t] * u) % M
        for i in range(t + 1, m):
            f = A[i][t] // pa
            if f:
                A[i] = [(x - f * y) % M for x, y in zip(A[i], At)]
                if want_rows:
                    U[i] = [(x - f * y) % M for x, y in zip(U[i], U[t])]
                    for r in Ui:
                        r[t] = (r[t] + r[i] * f) % M
        # column t is now clear away from row t, so clearing row t touches
        # nothing below it
        for j in range(t + 1, n):
            g = At[j] // pa
            if g:
                At[j] = 0
                if want_cols:
                    for r in V:
                        r[j] = (r[j] - r[t] * g) % M
                    Vi[t] = [(x + g * y) % M for x, y in zip(Vi[t], Vi[j])]
        vals.append(a)
    vals.extend([L] * (min(m, n) - len(vals)))
    return vals, U, Ui, V, Vi


def _find_min_val_pivot(sub: np.ndarray, p: int, L: int):
    """Position and valuation of an entry of globally minimal valuation,
    or (None, L) when the block vanishes.  Staged so the common case (a
    unit entry somewhere) costs a single vectorized pass."""
    if not sub.size or not sub.any():
        return None, L
    q = 1
    for v in range(L):
        q *= p
        mask = (sub % q) != 0
        if mask.any():
            idx = np.unravel_index(int(mask.argmax()), sub.shape)
            return idx, v
    return None, L


def _snf_mod_np(A: np.ndarray, p: int, L: int, want_cols: bool, want_rows: bool):
    """snf_mod on int64 arrays; needs max(m, n) * p^(2L) < 2^62.
    Elimination touches only the live lower-right block, so tall bar
    matrices stay affordable."""
    M = p**L
    A = A % M
    m, n = A.shape
    U = np.eye(m, dtype=np.int64) if want_rows else None
    Ui = np.eye(m, dtype=np.int64) if want_rows else None
    V = np.eye(n, dtype=np.int64) if want_cols else None
    Vi = np.eye(n, dtype=np.int64) if want_cols else None
    vals: list[int] = []
    rmax = min(m, n)
    t = 0
    while t < rmax:
        idx, a = _find_min_val_pivot(A[t:, t:], p, L)
        if idx is None:
            break
        i0, j0 = idx[0] + t, idx[1] + t
        if i0 != t:
            A[[t, i0], t:] = A[[i0, t], t:]
            if want_rows:
                U[[t, i0], :] = U[[i0, t], :]
                Ui[:, [t, i0]] = Ui[:, [i0, t]]
        if j0 != t:
            A[t:, [t, j0]] = A[t:, [j0, t]]
            if want_cols:
                V[:, [t, j0]] = V[:, [j0, t]]
                Vi[[t, j0], :] = Vi[[j0, t], :]
        pa = p**a
        u = int(A[t, t]) // pa
        uinv = pow(u, -1, M)
        A[t, t:] = (A[t, t:] * uinv) % M
        if want_rows:
            U[t, :] = (U[t, :] * uinv) % M
            Ui[:, t] = (Ui[:, t] * u) % M
        col = A[t + 1 :, t]
        f = (col // pa) % M
        if f.any():
            A[t + 1 :, t:] -= np.outer(f, A[t, t:])
            A[t + 1 :, t:] %= M
            if want_rows:
                U[t + 1 :, :] -= np.outer(f, U[t, :])
                U[t + 1 :, :] %= M
                Ui[:, t] = (Ui[:, t] + Ui[:, t + 1 :] @ f) % M
        g = (A[t, t + 1 :] // pa) % M
        if g.any():
            # column t is already clear away from row t
            A[t, t + 1 :] = (A[t, t + 1 :] - g * pa) % M
            if want_cols:
                V[:, t + 1 :] -= np.outer(V[:, t], g)
                V[:, t + 1 :] %= M
                Vi[t, :] = (Vi[t, :] + g @ Vi[t + 1 :, :]) % M
        vals.append(a)
        t += 1
    vals.extend([L] * (rmax - len(vals)))
    return vals, U, Ui, V, Vi


# ---------------------------------------------------------------------------
# Smith normal form over Z_p at working precision N


def snf_trunc(rows, p: int, N: int, transforms: bool = True):
    """Smith form over Z_p at working precision N, for an exact integer
    matrix: ``snf_int``, whose invariant factors have the p-adic
    valuations of the Z_p Smith form.  Raises PrecisionExhausted when a
    nonzero invariant factor has valuation N or more, so every decision a
    caller reads off the result is certified below the precision."""
    diag, *T = snf_int(rows, transforms)
    for d in diag:
        if d and vp(d, p) >= N:
            raise PrecisionExhausted(
                f"invariant factor valuation {vp(d, p)} not separated below precision {N}"
            )
    return (diag, *T)

# ---------------------------------------------------------------------------
# cochain complexes


@dataclass(frozen=True)
class CochainComplex:
    """A finite complex of free modules; d(i) maps degree lo+i to lo+i+1.

    Differentials are IntMatrix (either base) or int numpy arrays
    (BaseZMod at bar-complex sizes).  Adjacent composites are checked to
    vanish in the base ring on construction.
    """

    base: Base
    degree_lo: int
    ranks: tuple[int, ...]
    differentials: tuple

    def __post_init__(self):
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise ValueError("need exactly len(ranks)-1 differentials")
        for i, d in enumerate(self.differentials):
            r, c = _shape(d)
            if (r, c) != (self.ranks[i + 1], self.ranks[i]):
                raise ValueError(
                    f"differential {i} has shape {(r, c)}, expected "
                    f"{(self.ranks[i + 1], self.ranks[i])}"
                )
        for i in range(len(self.differentials) - 1):
            if not _composite_vanishes(
                self.differentials[i + 1], self.differentials[i], self.base
            ):
                raise ValueError(f"d did not square to zero at position {i}")

    @property
    def degree_hi(self) -> int:
        return self.degree_lo + len(self.ranks) - 1

    def differential(self, degree: int):
        """d : C^degree -> C^(degree+1), or None off the end."""
        i = degree - self.degree_lo
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        return None

    def rank(self, degree: int) -> int:
        i = degree - self.degree_lo
        if 0 <= i < len(self.ranks):
            return self.ranks[i]
        return 0


def _shape(d):
    if isinstance(d, IntMatrix):
        return d.rows, d.cols
    return d.shape


def _to_array(d) -> np.ndarray:
    if isinstance(d, IntMatrix):
        return np.array(d.to_lists(), dtype=np.int64) if d.rows and d.cols else np.zeros((d.rows, d.cols), dtype=np.int64)
    return np.asarray(d, dtype=np.int64)


def _composite_vanishes(dout, din, base: Base) -> bool:
    if isinstance(base, BaseZMod):
        M = base.p**base.N
        a = _to_array(dout) % M
        b = _to_array(din) % M
        if a.shape[1] * M * M >= 2**62:
            raise ValueError("modulus too large for int64 product check")
        return not ((a @ b) % M).any() if a.size and b.size else True
    return (dout @ din).is_zero()


def complex_cohomology(c: CochainComplex, degree: int) -> ModuleExpr:
    """ker(d^degree)/im(d^(degree-1)) as a module expression.

    Over BaseZpTrunc free atoms are Z_p and uncertifiable decisions raise
    PrecisionExhausted; over BaseZMod every summand is cyclic.
    """
    if not (c.degree_lo <= degree <= c.degree_hi):
        raise ValueError(f"degree {degree} outside [{c.degree_lo}, {c.degree_hi}]")
    n = c.rank(degree)
    dout = c.differential(degree)
    din = c.differential(degree - 1)
    base = c.base
    if isinstance(base, BaseZMod):
        return _cohomology_mod(dout, din, n, base.p, base.N)
    return _cohomology_int(dout, din, n, base.p, base.N)


def _cohomology_int(dout, din, n: int, p: int, N: int) -> ModuleExpr:
    """Exact kernel-mod-image of an integer complex, read over Z_p at
    working precision N: both eliminations go through ``snf_trunc``, so a
    kernel or torsion decision at or beyond the precision raises
    PrecisionExhausted even though the arithmetic itself is exact."""
    if n == 0:
        return zero_module()
    if dout is None or dout.rows == 0:
        rank = 0
        vi = _identity_ll(n)
    else:
        diag, _, _, _, vi = snf_trunc(dout.to_lists(), p, N)
        rank = sum(1 for d in diag if d != 0)
    kdim = n - rank
    if kdim == 0:
        return zero_module()
    rel = []
    if din is not None and din.cols:
        y = [
            [sum(vi[i][k] * din[(k, j)] for k in range(n)) for j in range(din.cols)]
            for i in range(n)
        ]
        for i in range(rank):
            if any(y[i][j] != 0 for j in range(din.cols)):
                raise ValueError("boundaries do not lie in the kernel")
        rel = [y[i] for i in range(rank, n)]
    if not rel or not rel[0]:
        free = kdim
        cyc: tuple[int, ...] = ()
    else:
        diag2, *_ = snf_trunc(rel, p, N, transforms=False)
        nonzero = [d for d in diag2 if d != 0]
        free = kdim - len(nonzero)
        cyc = tuple(v for v in (vp(d, p) for d in nonzero) if v >= 1)
    return ModuleExpr(p, padics=free, cyclics=cyc)


def _cohomology_mod(dout, din, n: int, p: int, N: int) -> ModuleExpr:
    if n == 0:
        return zero_module()
    M = p**N
    if dout is None or _shape(dout)[0] == 0:
        avals = [N] * n
        vi = np.eye(n, dtype=np.int64)
    else:
        arr = _to_array(dout)
        vals, _, _, _, vi = snf_mod(arr, p, N, want_cols=True)
        avals = [min(v, N) for v in vals] + [N] * (n - len(vals))
    # kernel generator i is p^(N - a_i) * (V e_i), of order p^(a_i)
    cols = []
    if din is not None:
        b = _to_array(din) % M
        if b.size:
            y = (vi @ b) % M
            c = np.zeros_like(y)
            for i in range(n):
                gap = p ** (N - avals[i])
                if (y[i] % gap).any():
                    raise ValueError("boundaries do not lie in the kernel")
                c[i] = y[i] // gap
            cols.append(c)
    diagrel = np.diag([p**a for a in avals]).astype(np.int64)
    rel = np.hstack([diagrel] + cols) if cols else diagrel
    vals2, *_ = snf_mod(rel, p, N + 1)
    if any(v > N for v in vals2):
        raise AssertionError("finite quotient exceeded its exponent bound")
    exps = tuple(v for v in vals2 if 1 <= v <= N)
    return ModuleExpr(p, cyclics=exps)


# ---------------------------------------------------------------------------
# finite lattice quotients (used by the finite-quotient cohomology route)


def lattice_quotient_exponents(num, den, ambient: int, p: int, N: int) -> tuple[int, ...]:
    """Exponent multiset of (span(num) + D)/D inside (Z/p^N)^ambient, where
    D = span(den) + p^N Z^ambient.

    num and den are iterables of integer coordinate vectors.  Everything
    runs mod p^(N+1), one digit above the exponent bound p^N, which pins
    the invariant factors exactly.
    """
    M = p**N
    L1 = p ** (N + 1)
    pad = [[M if i == j else 0 for j in range(ambient)] for i in range(ambient)]
    g2 = [list(map(int, v)) for v in den] + pad
    g1 = [list(map(int, v)) for v in num] + g2
    a1 = [[v[i] % L1 for v in g1] for i in range(ambient)]
    a2 = [[v[i] % L1 for v in g2] for i in range(ambient)]
    vals1, u1, _, _, _ = snf_mod(a1, p, N + 1, want_rows=True)
    vals1 = [min(v, N) for v in vals1]
    if len(vals1) < ambient:
        raise AssertionError("numerator lattice is not full rank")
    c = []
    for i in range(ambient):
        gap = p ** vals1[i]
        ui = u1[i]
        row = []
        for col in zip(*a2):
            y = sum(x * z for x, z in zip(ui, col)) % L1
            if y % gap:
                raise AssertionError("denominator lattice escapes the numerator")
            row.append(y // gap)
        c.append(row)
    vals2, *_ = snf_mod(c, p, N + 1)
    if any(v > N for v in vals2):
        raise AssertionError("quotient exceeded its exponent bound")
    return tuple(sorted((v for v in vals2 if 1 <= v <= N), reverse=True))
