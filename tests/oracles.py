"""Independent oracles used to pin expected values in the test suite.

Nothing in here calls the package's elimination code: Smith factors come
from determinant divisors, cohomology of small complexes from exhaustive
enumeration, cohomology of cyclic groups from closed forms, and group
structure from order statistics, associativity from every triple, lattice
quotients from listing both subgroups.  The
normalized bar differential is built one row at a time by
``reference_bar_differential``, the reference for the package's one
encoding of it, which emits rows and applies itself to cochains.  The
full bar complex is built one tuple at a time and returned as matrices;
eliminating them is the caller's job, or that of
``cohomology_by_full_elimination``, a separate copy of the Z/p^N complex
cohomology that eliminates every row of the differential.  ``sparse_rows``
and ``dense_array`` convert between those matrices and the package's
container for Z/p^N differentials, rows of dicts {column: value}.  The
abutment of a collapsing page is read one degree (n, t) at a time by
``abutment_cell``, visiting the whole window.  ``table_from_json`` reads
back the package's JSON table format.

Some helpers do call the package.  ``_level_data`` reads a level complex
of the brute route (``_level_complex_matrices``) as kernel generators of
each d^s, from a Smith form with its V transform, and the boundaries of
d^(s-1); ``_pushed_cocycles`` pushes those generators along phi^lag.
``image_exponents`` reads the image of inflation on one level as a group,
with ``lattice_quotient_exponents`` on ``_level_data``; it is the
reference for the sweep's order reader ``_complex_orders``, which reads
H^s of the projected complex PC instead.  ``quotient_level_cohomology``
is ``image_exponents`` at lag 0, the periodic model's raw groups.
``colimit_orders_at`` reads PC one precision at a time, built at that
precision's own level and read with ``snf_mod`` modulo that precision; it
is the reference for the sweep, which reads every precision off one Smith
form at the top one.  None is an oracle for the code it calls; tests
compare them with the bar complex, with enumeration and with each other.
"""

import json
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from stabcoh.cohomology import (
    FiniteGroupData,
    _action_class,
    _colimit_level,
    _level_complex_matrices,
)
from stabcoh.exact_linalg import lattice_quotient_exponents, snf_mod, vp
from stabcoh.modules import ModuleExpr, cyclic, parse_module_expr, zero_module
from stabcoh.spectral import BigradedTable


def sparse_rows(dense):
    """Rows {column: value} of a dense matrix, zero entries left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in np.asarray(dense).tolist()]


def dense_array(rows, ncols):
    """The int64 matrix of sparse rows with ncols columns."""
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in row.items():
            assert 0 <= j < ncols, (i, j)
            a[i, j] = x
    return a


def is_associative(table):
    """(g_i g_j) g_k = g_i (g_j g_k) for every triple of indices."""
    n = len(table)
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def det_int(rows):
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_diagonal_by_minor_gcds(rows):
    """Invariant factors via determinant divisors: d_k = D_k / D_{k-1},
    where D_k is the gcd of all k x k minors.  Exponential, but fine for
    the small matrices the tests feed it."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = min(m, n)
    prev = 1
    out = []
    for k in range(1, r + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = math.gcd(g, det_int([[a[i][j] for j in ci] for i in ri]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            out.extend([0] * (r - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def abelian_type_from_divisor_counts(counts, p):
    """Partition of a finite abelian p-group from n_k = #{x : p^k x = 0}.

    log_p n_k = sum_j min(lambda_j, k), so consecutive differences count
    the parts of size >= k.  Exponents return in descending order."""
    logs = []
    for c in counts:
        e = 0
        while c > 1:
            assert c % p == 0
            c //= p
            e += 1
        logs.append(e)
    geq = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
    result = []
    for k in range(1, len(geq) + 1):
        nxt = geq[k] if k < len(geq) else 0
        result.extend([k] * (geq[k - 1] - nxt))
    return tuple(sorted(result, reverse=True))


def enumerate_cohomology_type(dout, din, n, p, N):
    """Exponents of ker(dout)/im(din) inside (Z/p^N)^n by brute force.

    dout: rows of an (n_out x n) int matrix or None; din: (n x n_in) or
    None.  Returns the partition (descending exponents) of the quotient.
    Every vector of (Z/p^N)^n is named by its base-p^N integer code, and
    the image is a boolean mark array over those codes.
    """
    M = p**N

    def place(length):  # a vector's code is vector @ place(length)
        return M ** np.arange(length - 1, -1, -1, dtype=np.int64)

    def every_vector(length):  # row i has code i
        return (np.arange(M**length, dtype=np.int64)[:, None] // place(length)) % M

    vecs = every_vector(n)
    if dout is not None and len(dout):
        a = np.array(dout, dtype=np.int64)
        ker = vecs[((vecs @ a.T) % M == 0).all(axis=1)]
    else:
        ker = vecs
    in_img = np.zeros(M**n, dtype=bool)
    if din is not None and np.size(din):
        b = np.array(din, dtype=np.int64)
        in_img[((every_vector(b.shape[1]) @ b.T) % M) @ place(n)] = True
    else:
        in_img[0] = True
    img_size = int(in_img.sum())
    counts = []
    for k in range(N + 1):
        cnt = int(in_img[((ker * p**k) % M) @ place(n)].sum())
        assert cnt % img_size == 0
        counts.append(cnt // img_size)
    return abelian_type_from_divisor_counts(counts, p)


def lattice_quotient_by_enumeration(num, den, ambient, p, N):
    """Exponents, descending, of (span(num) + D)/D inside (Z/p^N)^ambient,
    D = span(den), by listing both subgroups element by element (tiny
    instances only).  A quotient class x + D is killed by p^k iff p^k x
    lies in D, which gives the counts ``abelian_type_from_divisor_counts``
    reads."""
    M = p**N

    def span(vectors):
        out = {(0,) * ambient}
        for v in vectors:
            v = [int(x) % M for x in v]
            out = {tuple((x + c * y) % M for x, y in zip(s, v)) for s in out for c in range(M)}
        return out

    d = span(den)
    s = span(list(num) + list(den))
    counts = []
    for k in range(N + 1):
        killed = sum(tuple(x * p**k % M for x in v) in d for v in s)
        assert killed % len(d) == 0
        counts.append(killed // len(d))
    return abelian_type_from_divisor_counts(counts, p)


def bar_cohomology_by_enumeration(mult_table, action_units, p, N, s):
    """H^s of the inhomogeneous cochain complex of a finite group by
    enumerating every cochain (tiny instances only).

    mult_table[i][j] is the index of g_i g_j, index 0 the identity;
    action_units[i] is the unit through which g_i acts on Z/p^N.
    Returns the partition of H^s.
    """
    M = p**N
    n = len(mult_table)

    def tuples(k):
        return list(product(range(n), repeat=k))

    def diff(f, k, codomain):
        out = {}
        for tau in codomain:
            total = action_units[tau[0]] * f[tau[1:]]
            for j in range(1, k + 1):
                merged = tau[: j - 1] + (mult_table[tau[j - 1]][tau[j]],) + tau[j + 1 :]
                total += (-1) ** j * f[merged]
            total += (-1) ** (k + 1) * f[tau[:-1]]
            out[tau] = total % M
        return out

    dom_k = tuples(s)
    dom_k1 = tuples(s + 1)

    cocycles = []
    for values in product(range(M), repeat=len(dom_k)):
        f = dict(zip(dom_k, values))
        if all(v == 0 for v in diff(f, s, dom_k1).values()):
            cocycles.append(values)
    if s == 0:
        bset = {tuple([0] * len(dom_k))}
    else:
        dom_km = tuples(s - 1)
        bset = set()
        for values in product(range(M), repeat=len(dom_km)):
            g = dict(zip(dom_km, values))
            dg = diff(g, s - 1, dom_k)
            bset.add(tuple(dg[t] for t in dom_k))
    counts = []
    for k in range(N + 1):
        cnt = sum(1 for z in cocycles if tuple((p**k) * x % M for x in z) in bset)
        assert cnt % len(bset) == 0
        counts.append(cnt // len(bset))
    return abelian_type_from_divisor_counts(counts, p)


def cyclic_tensor_exponent(a: int, b: int) -> int:
    """Z/2^a (x) Z/2^b is cyclic; exponent from the presentation [2^a 2^b]
    via the determinant-divisor oracle."""
    d = smith_diagonal_by_minor_gcds([[2**a, 2**b]])
    e = 0
    x = d[0]
    while x % 2 == 0:
        x //= 2
        e += 1
    return e


def cyclic_group_data(m, a, p, N):
    """Cyclic group of order m, generator acting on Z/p^N by the unit a."""
    M = p**N
    if pow(a, m, M) != 1:
        raise ValueError("a^m must be 1 mod p^N")
    table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    action = tuple(pow(a, i, M) for i in range(m))
    return FiniteGroupData(p, N, table, action)


def cyclic_cohomology(m, a, p, N, s_max):
    """[H^0, ..., H^s_max] of a cyclic group of order m acting on Z/p^N
    through the unit a (so a^m = 1 mod p^N), from the 2-periodic
    resolution in closed form.

    H^0 is the fixed points; in odd degrees ker(norm)/im(a-1); in positive
    even degrees fixed-points/im(norm), with norm = 1 + a + ... + a^(m-1).
    Multiplication by x on Z/p^N has a kernel of order p^v(x) and an image
    of order p^(N - v(x)), v capped at N, so ker(x)/im(y) is cyclic of
    exponent v(x) + v(y) - N."""
    M = p**N
    if pow(a, m, M) != 1:
        raise ValueError(f"action unit {a} does not have order dividing {m} mod {M}")

    def val(x):
        return N if x % M == 0 else min(vp(x % M, p), N)

    va = val(a - 1)
    vn = val(sum(pow(a, i, M) for i in range(m)))

    def subquotient(ker_v, im_v):
        e = ker_v + im_v - N
        return cyclic(p, e) if e >= 1 else zero_module()

    groups = [subquotient(va, N)]
    for s in range(1, s_max + 1):
        groups.append(subquotient(vn, va) if s % 2 else subquotient(va, vn))
    return groups


def full_bar_differential(g, k):
    """d : C^k -> C^(k+1) of the full inhomogeneous cochain complex of a
    FiniteGroupData, all n^k functions G^k -> Z/p^N, one tuple at a time:
    (df)(g_1..g_(k+1)) = g_1 f(g_2..) + sum_j (-1)^j f(.., g_j g_(j+1), ..)
    + (-1)^(k+1) f(g_1..g_k).  Rows and columns are tuples in
    lexicographic order."""
    n = len(g)
    index = {tau: i for i, tau in enumerate(product(range(n), repeat=k))}
    d = np.zeros((n ** (k + 1), n**k), dtype=np.int64)
    for row, tau in enumerate(product(range(n), repeat=k + 1)):
        d[row, index[tau[1:]]] += g.action[tau[0]]
        for j in range(1, k + 1):
            merged = tau[: j - 1] + (g.table[tau[j - 1]][tau[j]],) + tau[j + 1 :]
            d[row, index[merged]] += (-1) ** j
        d[row, index[tau[:-1]]] += (-1) ** (k + 1)
    return d % g.p**g.N


def reference_bar_differential(g: FiniteGroupData, k: int) -> list[dict[int, int]]:
    """Sparse rows of d : C^k -> C^(k+1) on normalized inhomogeneous
    cochains, the functions G^k -> M that vanish whenever an argument is
    the identity, (df)(g_1..g_(k+1)) = g_1 f(g_2..) + sum_j (-1)^j
    f(.., g_j g_(j+1), ..) + (-1)^(k+1) f(g_1..g_k).  Rows and columns run
    over the tuples with no identity entry, (|G|-1)^(k+1) and (|G|-1)^k of
    them in lexicographic order; a term whose merged product g_j g_(j+1) is
    the identity evaluates f there, at 0, and is dropped.  Each row is a
    dict {column: value mod p^N} of at most k + 2 nonzero entries."""
    n = len(g) - 1  # non-identity elements, indices 1..n; digit e names e + 1
    M = g.p**g.N
    tbl, act = g.table, g.action
    cols = n**k
    # merging g_j g_(j+1) into m: the column keeps the digits above and
    # below the pair, with m - 1 in between at place value n^(k-j)
    merges = [(j, n ** (k - j), (-1) ** j) for j in range(1, k + 1)]
    last = (-1) ** (k + 1)
    d = []
    for R, tau in enumerate(product(range(1, n + 1), repeat=k + 1)):
        row = {R % cols: act[tau[0]]}
        for j, place, sign in merges:
            merged = tbl[tau[j - 1]][tau[j]]
            if merged:
                col = R // (place * n * n) * place * n + (merged - 1) * place + R % place
                row[col] = row.get(col, 0) + sign
        row[R // n] = row.get(R // n, 0) + last
        d.append({c: y for c, x in row.items() if (y := x % M)})
    return d


def primitive_root_by_orbit(p):
    """Smallest primitive root mod an odd prime, by its definition: the
    first g whose powers g, g^2, .., g^(p-1) are p - 1 distinct residues."""
    for g in range(2, p):
        if len({pow(g, k, p) for k in range(1, p)}) == p - 1:
            return g
    raise ValueError(f"{p} has no primitive root")


def _smith_mod_full(A, p, L):
    """Smith valuations of a matrix, a list of rows of ints, over Z/p^L,
    every row eliminated, and V^-1 for its column transform V, both lists
    of Python ints.  Step t pivots on the first entry, in row-major order,
    of minimal valuation among the rows still nonzero and the columns not
    yet pivoted (kept in ``cols``, in their current order), swaps that
    column to the front of ``cols``, clears it with row operations and its
    row with column operations, which V^-1 records; the pivot row and every
    row that becomes zero leave the matrix."""
    M = p**L
    n = len(A[0])
    A = [r for r in ([x % M for x in row] for row in A) if any(r)]
    cols = list(range(n))
    Vi = [[int(i == j) for j in range(n)] for i in range(n)]
    vals = []
    for t in range(n):
        if not A:
            break
        a, i, j = L, -1, -1
        for r, row in enumerate(A):
            for k, c in enumerate(cols):
                x = row[c]
                if x:
                    v = 0
                    while x % p == 0:
                        x //= p
                        v += 1
                    if v < a:
                        a, i, j = v, r, k
                        if not v:
                            break
            if not a:
                break
        cols[0], cols[j] = cols[j], cols[0]
        Vi[t], Vi[t + j] = Vi[t + j], Vi[t]
        c0, pa = cols.pop(0), p**a
        pivot = A.pop(i)
        uinv = pow(pivot[c0] // pa, -1, M)
        rest = [(k, c, pivot[c] * uinv % M) for k, c in enumerate(cols, 1) if pivot[c]]
        kept = []
        for row in A:  # a pivoted column is zero in every remaining row
            if row[c0]:
                f, row[c0] = row[c0] // pa, 0
                for _, c, y in rest:
                    row[c] = (row[c] - f * y) % M
                if not any(row):
                    continue
            kept.append(row)
        A = kept
        for k, _, y in rest:
            Vi[t] = [(x + y // pa * z) % M for x, z in zip(Vi[t], Vi[t + k])]
        vals.append(a)
    return vals + [L] * (n - len(vals)), Vi


def cohomology_by_full_elimination(dout, din, n, p, N):
    """ker(dout)/im(din) over Z/p^N for integer differentials (int64 arrays
    or lists of rows; None or empty off the ends of the complex),
    eliminating every row of dout, in Python ints.  In the coordinates z =
    V^-1 x the kernel is {z : p^(N - a_i) | z_i}, so the image of din,
    divided coordinatewise, lies in sum Z/p^(a_i), and the quotient's
    exponents are the Smith valuations of [diag(p^(a_i)) | image] over
    Z/p^(N+1) between 1 and N."""
    if n == 0:
        return zero_module()
    M = p**N
    dout = [] if dout is None else np.asarray(dout).tolist()
    if dout:
        a, Vi = _smith_mod_full(dout, p, N)
    else:
        a, Vi = [N] * n, [[int(i == j) for j in range(n)] for i in range(n)]
    rel = [[p**x if i == j else 0 for j in range(n)] for i, x in enumerate(a)]
    image = list(zip(*np.asarray(din).tolist())) if din is not None and np.size(din) else []
    for i, (x, v) in enumerate(zip(a, Vi)):
        gap = p ** (N - x)
        z = [sum(c * y for c, y in zip(v, col)) % M for col in image]
        assert not any(y % gap for y in z), "boundaries do not lie in the kernel"
        rel[i] += [y // gap for y in z]
    vals, _ = _smith_mod_full(rel, p, N + 1)
    return ModuleExpr(p, cyclics=tuple(v for v in vals if 1 <= v <= N))


@dataclass(frozen=True)
class AbutmentCell:
    degree: tuple[int, int]  # (n, t)
    contributions: tuple[tuple[tuple[int, int], ModuleExpr], ...]  # ((i, s), expr)
    assembled: ModuleExpr
    collision: bool

    def __post_init__(self):
        n, _ = self.degree
        for (i, s), _expr in self.contributions:
            if (i, s) not in ((0, n), (1, n + 1)):
                raise ValueError(f"contribution ({i},{s}) cannot reach degree {n}")


def abutment_cell(page, n, t):
    """The abutment of a two-column page at (n, t): the nonzero entries
    among (0, n, t) and (1, n + 1, t), their sum, and whether both occur."""
    parts = []
    for i, s in ((0, n), (1, n + 1)):
        expr = page.get(i, s, t)
        if not expr.is_zero:
            parts.append(((i, s), expr))
    total = zero_module()
    for _, expr in parts:
        total = total + expr
    return AbutmentCell((n, t), tuple(parts), total, len(parts) > 1)


def abutment_by_cells(page, s_max=None):
    """The assembled table of a page, one abutment_cell per degree (n, t)
    of the window, 0 <= n <= s_max (the page's top row by default)."""
    if s_max is None:
        s_max = page.s_window[1]
    cells, collisions = [], set()
    for t in range(page.t_window[0], page.t_window[1] + 1):
        for n in range(s_max + 1):
            cell = abutment_cell(page, n, t)
            if not cell.assembled.is_zero:
                cells.append(((n, t), cell.assembled))
                if cell.collision:
                    collisions.add((n, t))
    cells.sort(key=lambda it: it[0])
    return BigradedTable(
        page.p, page.t_window, (0, s_max), "ss", tuple(cells), frozenset(collisions)
    )


class _LevelData:
    """Per degree s: kernel generators of d^s and the columns B of d^(s-1)."""

    __slots__ = ("cocycles", "boundaries")

    def __init__(self, cocycles, boundaries):
        self.cocycles, self.boundaries = cocycles, boundaries


def _level_data(p: int, a: int, t: int, r: int, N: int, s_top: int) -> _LevelData:
    """Per degree s, the kernel generators p^(N - a_i) V e_i of d^s with
    a_i >= 1 (the others are 0 mod p^N) and the columns of d^(s-1)."""
    diffs = _level_complex_matrices(p, a, t, r, N, s_top)
    M = p**N
    cocycles, boundaries = [], []
    for s in range(s_top + 1):
        vals, _, V, _ = snf_mod(diffs[s], p, N, want=("V",))
        cocycles.append([[row[i] * p ** (N - a) % M for row in V] for i, a in enumerate(vals) if a])
        boundaries.append([list(col) for col in zip(*diffs[s - 1])] if s else [])
    return _LevelData(cocycles, boundaries)


def _pushed_cocycles(level: _LevelData, p: int, N: int, s: int, lag: int):
    """P Z: the degree-s cocycles under phi^lag; phi, one inflation step,
    multiplies cyclic degree j by p^floor(j/2), the torsion factor by 1."""
    M = p**N
    scalar = [pow(p, ((s - i) // 2) * lag, M) for i in range(s + 1)]
    return [[(x * c) % M for x, c in zip(z, scalar)] for z in level.cocycles[s]]


def image_exponents(level, p, N, s, lag):
    """Exponents of the image of H^s(phi^lag) on one level complex of the
    brute route: the pushed cocycles modulo the boundaries."""
    pushed = _pushed_cocycles(level, p, N, s, lag)
    return lattice_quotient_exponents(pushed, level.boundaries[s], s + 1, p, N)


def colimit_orders_at(p, a, t, N, s_top):
    """log_p of the colimit orders at the one precision N, for the action
    class (a, t) mod p^N: the projected complex PC (cyclic degrees 0 and 1)
    of the level complex at r* = ``_colimit_level`` for N, built mod p^N, and
    one Smith form mod p^N per degree, a valuation v (N for a missing pivot)
    giving p^v kernel and p^(N - v) image elements."""
    diffs = _level_complex_matrices(p, a, t, _colimit_level(p, a, N), N, s_top)
    orders, image = [], 0
    for s, d in enumerate(diffs):
        vals = snf_mod([row[max(s - 1, 0):] for row in d[s:]], p, N)[0]
        orders.append(sum(vals) + N * (min(s, 1) + 1 - len(vals)) - image)
        image = N * len(vals) - sum(vals)
    return tuple(orders)


def quotient_level_cohomology(p, w, r, N, s_max):
    """Raw H^s((Z/p^r)^x, Z/p^N(w)) for s <= s_max from the periodic
    product model: ``image_exponents`` at lag 0, the whole group, on the
    brute route's ``_level_data``."""
    level = _level_data(p, *_action_class(p, w, N), r, N, s_max)
    return [ModuleExpr(p, cyclics=image_exponents(level, p, N, s, 0)) for s in range(s_max + 1)]


def table_from_json(text: str) -> BigradedTable:
    """The table a ``table_to_json`` document describes."""
    doc = json.loads(text)
    p = doc["p"]
    cells = []
    collisions = set()
    for cell in doc["cells"]:
        s, t = cell["s"], cell["t"]
        cells.append(((s, t), parse_module_expr(cell["module"], p=p)))
        if cell.get("collision"):
            collisions.add((s, t))
    cells.sort(key=lambda it: it[0])
    return BigradedTable(
        p,
        tuple(doc["window"]["t"]),
        tuple(doc["window"]["s"]),
        doc["route"],
        tuple(cells),
        frozenset(collisions),
    )
