"""Continuous cohomology of Z_p^x with rank-one weight coefficients.

The unit group splits as (torsion) x (principal units): {+-1} x (1 + 4 Z_2)
at p = 2, mu_(p-1) x (1 + p Z_p) at odd p.  The principal units are
procyclic, topologically generated by 5 (p = 2) or 1 + p, and a weight-w
module Z_p(w) is rank one with a unit g acting by g^w.

Two independent computational routes live here.

* ``units_cohomology`` (structured): the total complex of the two-term
  complex M --(gamma^w - 1)--> M for the procyclic factor against the
  2-periodic resolution of the torsion factor.  Rescaled by p-adic units
  it becomes a small integer complex (entries 0, 1, -2, the torsion order
  and p^v) whose differentials have rank <= 1.  ``rank_one_cohomology``
  reads every degree off one Smith diagonal [g, 0] per differential under
  the Z_p precision contract, at a precision read off those gcds first, so
  free ranks and torsion exponents come out certified.

* ``continuous_via_quotients`` (brute): cohomology of the finite quotients
  (Z/p^r)^x with coefficients Z/p^N(w), taken as the colimit along
  inflation in r, then resolved in N through the coefficient sequence
  0 -> Z_p(w) --p^N--> Z_p(w) -> Z/p^N(w) -> 0, whose long exact sequence
  pins |H^s(Z/p^N)| = |H^s(Z_p)/p^N| * |H^(s+1)(Z_p)[p^N]|.  Growth in N
  (order slopes) detects Z_p summands; the bounded remainder unfolds into
  the torsion of consecutive degrees starting from the torsion-free H^0.
  Both limits are read at derived points: the colimit at level N + 1
  (N + 2 at p = 2) with lag N, where inflation is a projection P that
  commutes with d (checked entry by entry) and so splits the complex C:
  the colimit is H^s(PC), read for every N off one Smith form of at most
  2 x 2 per degree over Z/p^n_top; the unfolding at n_top = max(4, v + 2)
  from the torsion bound max(v, 1).  Both run once per n_top and action
  class (gamma^w, omega^w) mod p^n_top.

Raw finite-level cohomology does *not* equal the continuous answer (for
instance H^2((Z/2^r)^x, Z/2) has rank 3 for every r >= 4 while the
continuous rank is 2), which is why inflation images, not raw groups, are
taken.  Classes are also born late: a homomorphism onto Z/2^N only exists
from level r = N + 2 on, so levels grow with the coefficient precision.
Finite quotients are realized through the standard splitting
(Z/p^r)^x = (torsion) x (cyclic).  Every brute call checks this model
against the bar complex of the same quotient, ``bar_cohomology_finite``,
once per weight class and whenever the budget affords it (the bar complex
once per orbit of classes under the power automorphisms of the quotient):
the model's groups are read with ``complex_cohomology``, through the one
Z/p^N group reader ``kernel_quotient`` that the bar groups share, and
their orders through the sweep's own order reader, ``_complex_orders``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from math import gcd

from .errors import BudgetExceeded, NoStabilization, PrecisionExhausted, UnsupportedPrime
from .exact_linalg import (
    PRECISION_CEILING,
    CochainComplex,
    _identity_ll,
    complex_cohomology,
    dense_rows,
    kernel_quotient,
    rank_one_cohomology,
    snf_mod,
    vp,
)
from .modules import ModuleExpr, Value, is_prime, zero_module

__all__ = [
    "FiniteGroupData",
    "CohomologyResult",
    "procyclic_generator",
    "torsion_order",
    "teichmuller",
    "primitive_root",
    "units_cohomology",
    "bar_cohomology_finite",
    "continuous_via_quotients",
    "units_group_data",
    "DEFAULT_BAR_BUDGET",
]

DEFAULT_BAR_BUDGET = 10**6


def procyclic_generator(p: int) -> int:
    """Topological generator of the principal units: 5 at p = 2, else 1+p."""
    return 5 if p == 2 else p + 1


def torsion_order(p: int) -> int:
    return 2 if p == 2 else p - 1


@lru_cache(maxsize=64)
def primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime: the first g with
    g^((p-1)/q) != 1 mod p for every prime q | p - 1.  p - 1 is factored
    by trial division up to 10^6 and a cofactor left over must pass
    ``is_prime``; otherwise UnsupportedPrime."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    n, q, factors = p - 1, 2, []
    while q <= 10**6 and q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        if not is_prime(n):
            raise UnsupportedPrime(
                f"cannot factor p - 1 = {p - 1}: cofactor {n} has no prime factor up to 10^6"
            )
        factors.append(n)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def teichmuller(p: int, N: int) -> int:
    """The Teichmueller lift mod p^N of the smallest primitive root:
    the unique (p-1)-st root of unity congruent to it mod p."""
    if p == 2:
        return (-1) % 2**N
    x = primitive_root(p)
    M = p**N
    for _ in range(N + 1):
        x = pow(x, p, M)
    assert pow(x, p - 1, M) == 1
    return x


class CohomologyResult(Value):
    """H^s by one route: ``groups`` holds (s, H^s) in increasing s.  Equality
    and hashing read p, w, groups and route; the certificate, a record of
    how the answer was reached, takes no part in them."""

    __slots__ = ("p", "w", "groups", "route", "certificate")

    def __init__(self, p, w, groups, route, certificate=None):
        self._set(p, w, groups, route, {} if certificate is None else certificate)

    def _key(self):
        return self.p, self.w, self.groups, self.route

    def group(self, s: int) -> ModuleExpr:
        for deg, expr in self.groups:
            if deg == s:
                return expr
        return zero_module()


# ---------------------------------------------------------------------------
# procyclic factor


def _anchor_valuation(p: int, w: int) -> int:
    """v_p(gamma^|w| - 1), exactly, without forming gamma^|w|: the residue
    mod p^K has the true valuation as soon as it is nonzero.  For negative
    w, gamma^w - 1 = -gamma^w (gamma^|w| - 1) has the same valuation."""
    if w == 0:
        return 0
    gamma = procyclic_generator(p)
    K = 64
    while True:
        x = (pow(gamma, abs(w), p**K) - 1) % p**K
        if x:
            return vp(x, p)
        K *= 2


# ---------------------------------------------------------------------------
# structured route: torsion x procyclic total complex over Z_p


def _torsion_scalars(p: int, w: int) -> tuple[int, int]:
    """(h_even, h_odd) = (t - 1, norm) for the torsion generator acting by
    t = omega^w, up to p-adic units: (0, m) for the trivial character,
    (-2, 0) for the sign character, and (1, 0) for a character of order
    > 2, where t - 1 is a unit and the norm (t^m - 1)/(t - 1) is 0."""
    m = torsion_order(p)
    wm = w % m
    if wm == 0:
        return 0, m
    if 2 * wm == m:
        return -2, 0
    return 1, 0


def _units_total_complex(h: tuple[int, int], c: int, s_top: int) -> tuple:
    """Differentials d^0..d^(s_top - 1) of the total complex of (2-periodic
    torsion resolution) x (two-term procyclic complex) on Z_p(w), degrees
    0..s_top of ranks 1, 2, 2, .., as integer rows with small entries.

    Tot^0 is one copy of the base; Tot^s for s >= 1 has cells (s, 0) and
    (s-1, 1), cyclic degree second.  The s-th differential is
    [[h_s, 0], [(-1)^s c, h_(s-1)]] with h_s alternating h = (h_even, h_odd)
    from ``_torsion_scalars`` and c = p^v, v = v_p(gamma^|w| - 1) (c = 0 at
    w = 0).

    The honest complex has h = (u, norm) with u = omega^w - 1 and
    c_w = gamma^w - 1 = e p^v for a p-adic unit e.  Multiplying the
    coordinate of cell (s, 0) by alpha_s and that of cell (s-1, 1) by
    beta_s, with alpha_0 = 1, is a chain isomorphism onto the complex whose
    entries are h_s alpha_(s+1)/alpha_s, (-1)^s c_w beta_(s+1)/alpha_s and
    h_(s-1) beta_(s+1)/beta_s.  For a character of order > 2 the norm is 0;
    take alpha_(s+1) = alpha_s/u after even s, alpha_(s+1) = alpha_s after
    odd s, and beta_(s+1) = alpha_s.  The torsion entries become 1 and 0
    and the c entries keep their value.  Scaling every cyclic-degree-1
    cell by a further (c_w/p^v)^(-1) = e^(-1) turns c_w into p^v.  For the
    trivial and the sign character h is already (0, m) and (-2, 0), and
    only that last scaling applies.  Every cohomology group, and the
    valuation of every invariant factor the precision contract inspects,
    is therefore that of the honest complex."""
    h_even, h_odd = h

    def h_at(i):
        return h_even if i % 2 == 0 else h_odd

    return tuple(
        ((h_at(0),), (c,)) if s == 0 else ((h_at(s), 0), ((-1) ** s * c, h_at(s - 1)))
        for s in range(s_top)
    )


@lru_cache(maxsize=4096)
def _units_precision(p: int, h: tuple[int, int], c: int, s_max: int) -> int:
    """N = 1 + max v_p(g), g the gcd of the entries of d^s for s <= s_max
    (g = 0 skipped): gcd(h_even, c) for d^0, gcd(h_even, h_odd, c) above.
    h_even h_odd = 0, so each d^s has rank <= 1 and Smith diagonal [g, 0]
    (``snf_int``), which ``rank_one_cohomology`` reads once for the rank of
    d^s and the torsion of H^(s+1).  Every valuation ``snf_trunc`` inspects
    is some v_p(g): N certifies every degree <= s_max, and N - 1 does not.
    Cached (a pure function of its arguments) because every call of the
    route reads it, memo hit or not."""
    h_even, h_odd = h
    gs = [gcd(h_even, c)] + [gcd(h_even, h_odd, c)] * min(s_max, 1)
    return 1 + max((vp(g, p) for g in gs if g), default=0)


@lru_cache(maxsize=4096)
def _units_groups(p, h, c, s_max):
    """((s, H^s), ...) of ``_units_total_complex`` for s <= s_max, from one
    ``rank_one_cohomology`` at N = ``_units_precision``, which reads each
    d^s, s <= s_max, once; PrecisionExhausted there is an internal error,
    raised as AssertionError and never cached.  The cache is exact: the
    complex and N are built from the key alone and never see w, so weights
    with the same torsion scalars h and the same c = p^v share the groups,
    immutable module expressions that callers wrap in a fresh
    CohomologyResult."""
    N = _units_precision(p, h, c, s_max)
    ranks = (1,) + (2,) * (s_max + 1)
    try:
        groups = rank_one_cohomology(ranks, _units_total_complex(h, c, s_max + 1), p, N)
    except PrecisionExhausted as e:
        raise AssertionError(f"structured route not certified at precision {N}: {e}") from None
    return tuple(enumerate(groups[: s_max + 1]))


def units_cohomology(
    p: int, w: int, s_max: int, precision_ceiling: int = PRECISION_CEILING
) -> CohomologyResult:
    """H^s(Z_p^x, Z_p(w)) for 0 <= s <= s_max by the structured route: one
    reading of the complex (shared by the weights with the same torsion
    scalars and v_p(gamma^|w| - 1), ``_units_groups``) at the precision
    ``_units_precision`` reads off it.  A precision above the ceiling is
    refused with PrecisionExhausted before any Smith diagonal is read."""
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    h = _torsion_scalars(p, w)
    c = p ** _anchor_valuation(p, w) if w else 0
    N = _units_precision(p, h, c, s_max)
    if N > precision_ceiling:
        raise PrecisionExhausted(f"precision ceiling {precision_ceiling} hit for w={w}: needs {N}")
    return CohomologyResult(p, w, _units_groups(p, h, c, s_max), "structured", {"precision": N})


# ---------------------------------------------------------------------------
# bar complexes of finite groups


class FiniteGroupData(Value):
    """A finite group with an action on Z/p^N by units.

    table, a tuple of tuples: table[i][j] is the index of g_i g_j, and 0 the
    identity.  Its group axioms are checked once per table (``_check_table``),
    the action's units and multiplicativity on every construction.
    """

    __slots__ = ("p", "N", "table", "action")

    def __init__(self, p: int, N: int, table, action):
        self._set(p, N, table, action)
        tbl = self.table
        n = len(tbl)
        if any(len(row) != n for row in tbl) or len(self.action) != n:
            raise ValueError("table/action shape mismatch")
        _check_table(tbl)
        M = self.p**self.N
        act = [a % M for a in self.action]
        if any(a % self.p == 0 for a in act):
            raise ValueError("action values must be units")
        if any([act[k] for k in row] != [x * y % M for y in act] for x, row in zip(act, tbl)):
            raise ValueError("action is not multiplicative")

    def _key(self):
        return self.p, self.N, self.table, self.action

    def __len__(self) -> int:
        return len(self.table)


@lru_cache(maxsize=256)
def _check_table(tbl) -> None:
    """The group axioms of a square multiplication table: identity at 0,
    rows that are permutations, and associativity by Light's test (Clifford
    and Preston, *The Algebraic Theory of Semigroups* I, 1.2): the g with
    (x g) z = x (g z) for all x, z are closed under products, since
    (x(gh))z = ((xg)h)z = (xg)(hz) = x(g(hz)) = x((gh)z), so it suffices to
    check the g of a generating set S, which the table's own closure finds;
    |S| |G|^2 lookups instead of |G|^3, and the same verdict.  The cache is
    exact, its key the whole table; lru_cache stores no exception."""
    n = len(tbl)
    if list(tbl[0]) != list(range(n)) or [row[0] for row in tbl] != list(range(n)):
        raise ValueError("index 0 is not an identity")
    if not all(sorted(row) == list(range(n)) for row in tbl):
        raise ValueError("rows are not permutations; inverses missing")
    for g in _generators(tbl):
        tg = tbl[g]
        for x in range(n):
            tx = tbl[x]
            if list(tbl[tx[g]]) != [tx[y] for y in tg]:
                raise ValueError("multiplication table is not associative")


def _generators(table) -> list[int]:
    """A generating set of the magma the table defines, identity 0 aside:
    each element not in the closure of the ones before it.  The closure
    takes both products of every pair of members, once."""
    n = len(table)
    members, inside, gens = [0], [True] + [False] * (n - 1), []
    done = 0  # members[:done] have been multiplied with each other
    for x in range(1, n):
        if inside[x]:
            continue
        gens.append(x)
        inside[x] = True
        members.append(x)
        while done < len(members):
            a = members[done]
            done += 1
            for b in members[:done]:
                for c in (table[a][b], table[b][a]):
                    if not inside[c]:
                        inside[c] = True
                        members.append(c)
    return gens


@lru_cache(maxsize=64)
def _units_table(p: int, r: int):
    """(units, table) of (Z/p^r)^x, 1 first as the identity; an exact cache
    on (p, r), so the weight classes of one quotient share one table, which
    the bar cross-check needs abelian: AssertionError unless symmetric."""
    pr = p**r
    units = tuple(u for u in range(1, pr) if u % p != 0)
    index = {u: i for i, u in enumerate(units)}
    table = tuple(tuple(index[(u * v) % pr] for v in units) for u in units)
    if tuple(zip(*table)) != table:
        raise AssertionError(f"(Z/{p}^{r})^x table is not commutative")
    return units, table


def units_group_data(p: int, r: int, w: int, N: int) -> FiniteGroupData:
    """(Z/p^r)^x acting on Z/p^N by w-th powers.

    The action must factor through the quotient: the principal unit
    1 + p^r has to act trivially mod p^N, otherwise ValueError.
    """
    pr = p**r
    M = p**N
    if pow((1 + pr) % M if pr >= M else 1 + pr, w, M) != 1:
        raise ValueError(f"weight {w} does not descend to level r={r} at precision {N}")
    units, table = _units_table(p, r)
    return FiniteGroupData(p, N, table, tuple(pow(u, w, M) for u in units))


class _BarCoboundary:
    """d^k : C^k -> C^(k+1) on normalized inhomogeneous cochains, the
    functions G^k -> M that vanish whenever an argument is the identity,
    (df)(g_1..g_(k+1)) = g_1 f(g_2..) + sum_j (-1)^j f(.., g_j g_(j+1), ..)
    + (-1)^(k+1) f(g_1..g_k).  Rows and columns run over the tuples with no
    identity entry, m = n^(k+1) and c = n^k of them, n = |G|-1, in
    lexicographic order; a term whose merged product is the identity
    evaluates f there, at 0, and is dropped.  ``terms`` is the one
    encoding: per term a coefficient (act(g_1) per row for the first, a
    sign for the others) and the column + 1 it reads in each row, 0 where
    dropped.  Row R's digits are (g_1..g_(k+1)): the first term reads
    R mod c and the last R // n; merging g_j g_(j+1) = y puts y - 1 at
    place value n^(k-j) between the digits above and below the pair.  d^0
    gets a merge dropped in every row.  ``rows`` emits dict rows {column:
    value mod p^N} from it, summing terms that share a column (first and
    last, when all digits are equal); ``apply`` maps a whole cochain."""

    __slots__ = ("shape", "M", "terms")

    def __init__(self, g: FiniteGroupData, k: int):
        n = len(g) - 1  # non-identity elements, indices 1..n; digit e names e + 1
        M = self.M = g.p**g.N
        m, c = self.shape = n ** (k + 1), n**k

        def runs(values, length):  # each value, length times
            return list(chain.from_iterable(map(repeat, values, repeat(length))))

        merged = list(chain.from_iterable(row[1:] for row in g.table[1:])) if k else []  # 0: identity
        self.terms = [(runs([a % M for a in g.action[1:]], c), list(range(1, c + 1)) * n)]
        for j in range(1, k + 1):
            q = n ** (k - j)
            self.terms.append(((-1) ** j, merged if k == 1 else [
                (h * n + y - 1) * q + lo + 1 if y else 0
                for h in range(n ** (j - 1)) for y in merged for lo in range(q)
            ]))
        if not k:
            self.terms.append((1, [0] * m))
        self.terms.append(((-1) ** (k + 1), runs(range(1, c + 1), n)))
        reads = [read for _, read in self.terms]
        if any(len(read) != m for read in reads) or not set(range(c + 1)).issuperset(chain(*reads)):
            raise ValueError(f"differential {k} does not have shape {self.shape}")

    def rows(self, indices) -> list[dict[int, int]]:
        """The sparse rows R of d^k, R in indices, in that order."""
        M = self.M
        (act, first), *rest = self.terms
        out = []
        for R in indices:
            row = {first[R] - 1: act[R] % M}
            for s, read in rest:
                if j := read[R]:
                    row[j - 1] = (row.get(j - 1, 0) + s) % M
            out.append({j: y for j, y in row.items() if y} if 0 in row.values() else row)
        return out

    def apply(self, f: list[int]) -> list[int]:
        """d^k f mod p^N for a cochain f, a list of c values: one pass over
        the rows, and one more per inner merge; f is read with a 0 in front."""
        M = self.M
        fz = [0, *f]
        (act, first), *inner, (s, merge), (t, last) = self.terms
        fs, ft = [s * v for v in fz], [t * v for v in fz]
        out = [(a * fz[x] + fs[y] + ft[z]) % M for a, x, y, z in zip(act, first, merge, last)]
        for s, read in inner:
            fs = [s * v for v in fz]
            out = [(v + fs[y]) % M for v, y in zip(out, read)]
        return out


def bar_cohomology_finite(
    g: FiniteGroupData, s_max: int, budget: int = DEFAULT_BAR_BUDGET
) -> CohomologyResult:
    """H^s(G, Z/p^N) of a finite group, degrees 0..s_max, from the
    normalized cochain complex, (|G|-1)^k cochains in degree k.

    The normalized cochains are a subcomplex of the full inhomogeneous
    cochain complex (|G|^k cochains), and the inclusion is a
    quasi-isomorphism: they are Hom_G of the normalized bar resolution,
    the quotient of the bar resolution by its degenerate chains, and both
    are free resolutions of Z over ZG (Brown, *Cohomology of Groups*,
    ch. III).  So both complexes give the same groups; the full one is a
    test oracle.  The budget caps the differentials' entries counted as
    dense matrices, (|G|-1)^(2k+1) for d^k; none is built as a matrix.
    Each is a ``_BarCoboundary``, whose rows are emitted only for the probe
    and for the rows outside its span, and which is otherwise applied.

    H^s = ker(d^s) modulo the columns d^(s-1) e_c, read by
    ``kernel_quotient``.  ker(d^s) comes from the probe P, its first
    min(2c, m) rows (c columns, m rows).  From P V = U^-1 D, ker(P) is
    spanned by z_i = p^(N - a_i) V e_i, 0 mod p^N unless a_i >= 1, and the
    span of P by p^(a_i) times row i of V^-1.  Entry r of d^s z_i is
    p^(N - a_i) (r V)_i, which is 0 mod p^N exactly when (r V)_i = 0 mod
    p^(a_i): the rows where some d^s z_i with a_i >= 1 is nonzero are
    exactly the rows outside the span of P.  With none, ker(d^s) = ker(P),
    as the rows of P are rows of d^s; otherwise those rows are added to P
    and eliminated once more, and the rows left out lie in the span of P,
    so that matrix has the row span of d^s.  d d = 0 is checked by
    applying d^s to each column d^(s-1) e_c: entry r of the result is entry
    (r, c) of the composite, so every composite entry is checked, and the
    columns the group is read from are cocycles, as ``kernel_quotient``
    needs."""
    n = len(g) - 1
    for k in range(s_max + 1):
        if n ** (2 * k + 1) > budget:
            raise BudgetExceeded(
                f"bar differential d^{k} needs {n ** (2 * k + 1)} entries "
                f"(budget {budget})"
            )
    p, N = g.p, g.N
    groups, cols = [], []  # cols: the columns d^(s-1) e_c of the previous differential
    for s in range(s_max + 1):
        d = _BarCoboundary(g, s)
        if any(any(d.apply(col)) for col in cols):
            raise ValueError(f"d did not square to zero at position {s - 1}")
        m, c = d.shape
        if not (probe := d.rows(range(min(2 * c, m)))):
            avals, vi = [N] * c, _identity_ll(c)
        else:
            avals, _, v, vi = snf_mod(dense_rows(probe, c), p, N, want=("V", "Vi"))
            bad = set()
            for i, a in enumerate(avals):
                if a and m > len(probe) and any(dz := d.apply([p ** (N - a) * r[i] for r in v])):
                    bad.update(R for R, y in enumerate(dz) if y)
            if bad:
                avals, _, _, vi = snf_mod(dense_rows(probe + d.rows(sorted(bad)), c), p, N, want=("Vi",))
        groups.append((s, kernel_quotient(avals, vi, cols, p, N)))
        if s < s_max:
            cols = [d.apply(e) for e in _identity_ll(c)]
    return CohomologyResult(p, None, tuple(groups), "bar", {"precision": N, "order": len(g)})


# ---------------------------------------------------------------------------
# brute route: finite quotients, inflation colimits, N-unfolding


def _geometric_sum(a: int, q: int, M: int) -> int:
    """1 + a + ... + a^(q-1) mod M.  The sum is (a^q - 1)/(a - 1) for
    a != 1, and a^q = 1 mod (a - 1), so a^q - 1 read mod (a - 1) M is an
    exact multiple of a - 1 whose quotient is the sum mod M."""
    if a == 1:
        return q % M
    m = (a - 1) * M
    return (pow(a, q, m) - 1) % m // (a - 1)


def _cyclic_order_at_level(p: int, r: int) -> int:
    return p ** max(r - 2, 0) if p == 2 else p ** max(r - 1, 0)


def _action_class(p: int, w: int, N: int) -> tuple[int, int]:
    """(gamma^w, omega^w) mod p^N: how the procyclic generator and the
    torsion generator act on Z/p^N(w).  Everything the finite levels see of
    the weight is this pair."""
    M = p**N
    a = pow(procyclic_generator(p), w, M)
    t = pow(teichmuller(p, N), w % torsion_order(p), M)
    return a, t


def _min_level(p: int, a: int, N: int) -> int:
    """Smallest level r whose cyclic factor the action a = gamma^w mod p^N
    factors through."""
    r = 2 if p == 2 else 1
    M = p**N
    while pow(a, _cyclic_order_at_level(p, r), M) != 1:
        r += 1
    return r


def _level_complex_matrices(p: int, a: int, t: int, r: int, N: int, s_top: int):
    """Differentials, as lists of rows, of the (torsion x cyclic)-periodic
    total complex of (Z/p^r)^x on Z/p^N(w), where (a, t) is the action
    class of w; Tot^s has s+1 cells ordered by torsion degree."""
    M = p**N
    m0 = torsion_order(p)
    ht = [(t - 1) % M, _geometric_sum(t, m0, M)]
    q = _cyclic_order_at_level(p, r)
    if pow(a, q, M) != 1:
        raise ValueError(f"action does not descend to level {r}")
    hc = [(a - 1) % M, _geometric_sum(a, q, M)]
    diffs = []
    for s in range(s_top + 1):
        d = [[0] * (s + 1) for _ in range(s + 2)]
        for i in range(s + 1):  # cell (i, s - i)
            d[i + 1][i] = ht[i % 2]
            d[i][i] = hc[(s - i) % 2] if i % 2 == 0 else (-hc[(s - i) % 2]) % M
        diffs.append(d)
    return diffs


def _colimit_level(p: int, a: int, N: int) -> int:
    """r*: the first level whose norm 1 + a + ... + a^(q-1), q the order of
    its cyclic factor, is 0 mod p^N.  The level-r complex depends on r only
    through that norm, so every level from r* on is the same complex.  A
    norm of 0 forces a^q - 1 = (a - 1) norm = 0, so the action descends to
    r*.  For a = 1 mod p (mod 4 at p = 2) lifting the exponent gives the
    norm valuation v_p(q), so r* = N + 1 at odd p and N + 2 at p = 2; the
    loop checks the condition instead of assuming it."""
    M = p**N
    r = 2 if p == 2 else 1
    while _geometric_sum(a, _cyclic_order_at_level(p, r), M):
        r += 1
    return r


def _complex_orders(diffs, p: int, L: int, ranks) -> tuple[tuple[int, ...], ...]:
    """Row N - 1, N = 1..L: log_p |H^s| = log|ker d^s| - log|im d^(s-1)|
    over Z/p^N, per degree s, of a complex with d^s = diffs[s] (dense rows
    over Z/p^L) on C^s of rank ranks[s].  A Smith form U d V = D over Z/p^L
    stays one mod p^N (U, V stay invertible), so one transform-free Smith
    form per degree serves every N: a valuation v (L for a missing pivot)
    gives p^min(v, N) kernel and p^(N - min(v, N)) image elements, and each
    order must lie in [0, N ranks[s]]."""
    vals = [snf_mod(d, p, L)[0] for d in diffs]
    rows = []
    for N in range(1, L + 1):
        row, image = [], 0
        for v, n in zip(vals, ranks):
            kept = sum([x if x < N else N for x in v])  # sum of min(x, N)
            order = kept + N * (n - len(v)) - image
            if not 0 <= order <= N * n:
                raise AssertionError(f"order {order} outside [0, {N * n}] at N={N}, s={len(row)}")
            row.append(order)
            image = N * len(v) - kept
        rows.append(tuple(row))
    return tuple(rows)


def _colimit_sweep(p, a, t, n_top, s_top):
    """(orders, r*), r* = ``_colimit_level`` at n_top: orders[N - 1][s] =
    log_p |colim_r H^s((Z/p^r)^x, Z/p^N(w))| along inflation for N <= n_top,
    s <= s_top, (a, t) = (gamma^w, omega^w) mod p^n_top the class of w.

    The colimit is derived, not searched for.  Mod p^N every level from
    r*(N) on is one complex C, and inflation is phi = diag(p^floor(j/2)), j
    the cyclic degree; for a lag of at least N, phi^lag is one projection P
    (identity in cyclic degrees 0 and 1, zero above) with phi P = P, so the
    colimit is im H(P), lower levels adding nothing.  Only the cyclic norm,
    0 mod p^N from r*(N) on, maps a kept cell (cyclic degree 1) to a dropped
    one, so dP = Pd, P splits C and im H^s(P) = H^s(PC): <= 2 x 2 blocks
    (torsion degrees s - 1 and s) of a - 1, t - 1 and the torsion norm of t.
    PC is free of the level, and the class at N is the class at n_top
    reduced mod p^N (``_brute_groups``), so PC at N is PC at n_top reduced
    mod p^N, and one Smith form per degree over Z/p^n_top gives every N.
    dP = Pd is checked on every entry at r* >= r*(N), mod p^n_top, so it
    holds mod p^N; a failure raises AssertionError."""
    r = _colimit_level(p, a, n_top)
    diffs = _level_complex_matrices(p, a, t, r, n_top, s_top)
    for s, d in enumerate(diffs):  # row i: cyclic degree s + 1 - i, column j: s - j
        k = max(s - 1, 0)  # P keeps rows i >= s and columns j >= k
        if any(any(row[k:]) if i < s else any(row[:k]) for i, row in enumerate(d)):
            raise AssertionError(f"inflation projection is not a chain map at level {r}, N={n_top}")
    restricted = [[row[max(s - 1, 0):] for row in d[s:]] for s, d in enumerate(diffs)]
    return _complex_orders(restricted, p, n_top, (1,) + (2,) * s_top), r


def _bar_crosscheck(p: int, w: int, s_top: int):
    """Confirm the periodic quotient model against the honest bar complex
    of the smallest usable quotient, once per class of w mod e, e the
    exponent of (Z/p^2)^x: 2 at p = 2, p(p-1) at odd p.  Returns what
    ``_bar_crosscheck_class`` returns."""
    e = 2 if p == 2 else p * (p - 1)
    return _bar_crosscheck_class(p, w % e, s_top)


def _orbit_representative(p: int, w: int) -> tuple[int, int]:
    """(w0, k): w0 = gcd(w, e) mod e, e as in ``_bar_crosscheck``, and the least unit
    k mod e with k w0 = w mod e, which exists: in Z/e, equal gcds mean associates."""
    e = 2 if p == 2 else p * (p - 1)
    w0 = gcd(w, e) % e
    return w0, next(k for k in range(1, e + 1) if gcd(k, e) == 1 and (k * w0 - w) % e == 0)


@lru_cache(maxsize=256)
def _bar_groups(p: int, r: int, w0: int, s_chk: int):
    """(``bar_cohomology_finite`` of (Z/p^r)^x on Z/p^2(w0) to degree s_chk, the
    action vector u -> u^w0 mod p^2); an exact cache, both built from the key alone."""
    g = units_group_data(p, r, w0, 2)
    return bar_cohomology_finite(g, s_chk), g.action


@lru_cache(maxsize=4096)
def _bar_crosscheck_class(p: int, w: int, s_top: int):
    """The bar cross-check at coefficient precision N = 2: the bar
    cohomology of G = (Z/p^r)^x on Z/p^2(w), r the smallest level the action
    factors through, must equal the periodic model's raw groups in degrees
    s <= s_chk = min(s_top, 2), lowered until DEFAULT_BAR_BUDGET affords
    the differentials.  The check is skipped before anything is built once
    |G|^3 exceeds the budget.  Light's associativity test costs |S| |G|^2,
    not |G|^3, but the rule stays: it fixes which classes are checked, and
    with them the bar_check certificates.  Returns (r, s_chk, bar groups), or None
    when skipped; a disagreement raises AssertionError.  The model side is
    the level-r complex of ``_level_complex_matrices``, built as a
    CochainComplex, which checks its shapes and d d = 0, and read by
    ``complex_cohomology``, the bar side's reader; row N = 2 of the sweep's
    order reader ``_complex_orders`` on the same differentials (here at lag
    0, where P = 1) must give each checked group's order.

    The bar side comes from ``_bar_groups`` once per orbit of classes under
    the power automorphisms of G, at (w0, k) = ``_orbit_representative``
    (Brown, *Cohomology of Groups*, III.8).  |G| divides e, so gcd(k, |G|)
    = 1; G is abelian (``_units_table``), so phi_k: u -> u^k is an
    automorphism of G.  The action descends to level r, so act_w(u) = u^w
    mod p^2 = act_w0(phi_k(u)), and f -> f o phi_k^(x s) carries the
    normalized bar complex of (G, Z/p^2(w0)) isomorphically onto that of
    (G, Z/p^2(w)).  That phi_k permutes the table indices and that act_w =
    act_w0 o phi_k (so act_w is multiplicative) are checked on every call,
    in O(|G|).  r is also w0's level: at odd p, r = 1 exactly when p | w,
    that is when p | w0.  ``units_group_data`` cannot refuse it, since
    1 + p^r and gamma^(q_r), q_r the cyclic order at level r, both generate
    1 + p^r Z_p (r >= 2 at p = 2).

    The cache is exact.  Everything the check reads of w is a power of a
    unit mod p^2: the action class (gamma^w, omega^w) mod p^2 that fixes r
    and builds the level, and the action u -> u^w mod p^2 of the transport
    check.  Each depends only on w mod e, the exponent of (Z/p^2)^x
    (negative w too: a negative power mod p^2 is the inverse power), as do
    w0 and k, so the check of w mod e is the check of w.  A failing check
    raises, and lru_cache stores no exception, so a disagreement surfaces
    on every call."""
    N = 2
    a, t = _action_class(p, w, N)
    r = _min_level(p, a, N)
    n = p ** (r - 1) * (p - 1) - 1
    if (n + 1) ** 3 > DEFAULT_BAR_BUDGET:
        return None
    s_chk = min(s_top, 2)
    while n ** (2 * s_chk + 1) > DEFAULT_BAR_BUDGET:  # ends by 0: n < |G| <= budget^(1/3)
        s_chk -= 1
    w0, k = _orbit_representative(p, w)
    bar, act0 = _bar_groups(p, r, w0, s_chk)
    units = _units_table(p, r)[0]
    index = {u: i for i, u in enumerate(units)}
    phi = [index[pow(u, k, p**r)] for u in units]
    if len(set(phi)) != len(units) or [pow(u, w, p**N) for u in units] != [act0[i] for i in phi]:
        raise AssertionError(f"u -> u^{k} does not carry weight {w0} to weight {w} at level {r}")
    diffs = _level_complex_matrices(p, a, t, r, N, s_chk)
    sparse = tuple([{j: x for j, x in enumerate(row) if x} for row in d] for d in diffs)
    model = CochainComplex(p, N, tuple(range(1, s_chk + 3)), sparse)
    orders = _complex_orders(diffs, p, N, model.ranks)[N - 1]
    for s in range(s_chk + 1):
        small = complex_cohomology(model, s)
        if bar.group(s) != small or orders[s] != small.torsion_length():
            raise AssertionError(
                f"quotient model disagrees with the bar complex at level {r}, "
                f"degree {s}"
            )
    return r, s_chk, bar.groups


@lru_cache(maxsize=4096)
def _brute_groups(p, a, t, n_top, s_max):
    """(((s, H^s), ...), max_level) of the brute route for the action class
    (a, t) = (gamma^w, omega^w) mod p^n_top: the colimit orders of
    ``_colimit_sweep`` for N = 1..n_top, unfolded by ``_unfold_orders``,
    and max_level = r* at n_top (r* grows with N, since a norm that is 0
    mod p^N is 0 mod p^(N-1), so the top precision needs the highest
    level).  A failed check raises AssertionError, and lru_cache stores no
    exception, so the failure surfaces on every call.

    The sweep reads the class at N as the class at n_top reduced mod p^N:
    gamma^w reduces so for any integer w, and the Teichmueller lift mod p^N
    is the reduction of the lift mod p^n_top, because both are the one
    (p-1)-st root of unity congruent to the primitive root mod p (at p = 2,
    omega = -1 at every N).  The cache, the only memo of the sweep, is
    exact: the function never sees w, so weights with the same n_top and
    class at n_top share the groups, immutable module expressions that
    callers wrap in a fresh CohomologyResult."""
    orders, max_level = _colimit_sweep(p, a, t, n_top, s_max)
    unfolded = _unfold_orders(orders, s_max, n_top)
    if unfolded is None:
        raise AssertionError(
            f"brute orders do not unfold for p={p}, action class ({a}, {t}) at n_top={n_top}"
        )
    rho, tau = unfolded
    groups = tuple((s, ModuleExpr(p, padics=rho[s], cyclics=tau[s])) for s in range(s_max + 1))
    return groups, max_level


def continuous_via_quotients(
    p: int, w: int, s_max: int, precision_ceiling: int = PRECISION_CEILING
) -> CohomologyResult:
    """H^s(Z_p^x, Z_p(w)) for 0 <= s <= s_max by finite-quotient descent.

    Per coefficient precision N = 1..n_top the orders log_p |A^s_N| of
    the inflation colimits are log|H^s(PC)|, PC the complex at the derived
    level r* (n_top + 1, or n_top + 2 at p = 2) cut by the lag-N inflation
    P (dP = Pd checked on every entry), all read by ``_colimit_sweep`` off
    one Smith form per degree over Z/p^n_top.  Across N they unfold as
    rho_s N + m_s(N) + m_(s+1)(N) into the free ranks rho_s (order slopes,
    the Z_p detection rule) and the torsion partitions m_s, seeded by the
    torsion-free H^0.  The sweep and the unfolding run once per n_top and
    action class at n_top (``_brute_groups``); each call gets its own
    certificate.

    n_top is derived as well.  The structured complex of Z_p(w) has
    differentials [[h_s, 0], [+-p^v, h_(s-1)]] with h in {0, 1, -2, m}
    (m the torsion order), v = v_p(gamma^|w| - 1), and determinant 0, so
    each has rank at most one and its one invariant factor divides p^v
    (or the torsion order when w = 0).  Every torsion exponent is
    therefore at most max(v, 1).  With n_top = max(4, v + 2) the top two
    N increments lie past every exponent, where m_s(N) is flat and the
    slopes are exact, so ``_unfold_orders`` cannot fail on correct data:
    if it does, that is an internal error, not a reason to retry.  An
    n_top above precision_ceiling is refused with NoStabilization; the
    levels follow from n_top, so the ceiling bounds them too.

    Finite levels run on the periodic product model of (Z/p^r)^x; before
    the sweep the model is cross-checked against the bar complex of the
    smallest usable quotient whenever that fits in DEFAULT_BAR_BUDGET: the
    model once per class of w mod the exponent e of (Z/p^2)^x, the bar
    complex once per orbit of those classes under u -> u^k, k a unit mod
    e, carried to each class by a checked transport; the certificate's
    bar_check is the [level, top degree] checked, or None when skipped.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    n_top = max(4, _anchor_valuation(p, w) + 2)
    if n_top > precision_ceiling:
        raise NoStabilization(
            f"precision ceiling {precision_ceiling} hit for w={w}: "
            f"the torsion bound needs coefficient precision {n_top}"
        )
    bar = _bar_crosscheck(p, w, s_max)
    groups, max_level = _brute_groups(p, *_action_class(p, w, n_top), n_top, s_max)
    bar_check = None if bar is None else list(bar[:2])
    certificate = {"precision": n_top, "max_level": max_level, "lag": n_top,
                   "precision_ceiling": precision_ceiling, "bar_check": bar_check}
    return CohomologyResult(p, w, groups, "brute", certificate)


def _unfold_orders(orders, s_top: int, n_top: int):
    """Resolve a_s(N) = rho_s N + m_s(N) + m_(s+1)(N) with m_0 = 0, where
    orders[N - 1][s] = a_s(N) for N = 1..n_top.

    Returns (rho, tau), or None when the data contradicts saturation:
    slopes must repeat over the top two increments and each torsion count
    must be non-negative, monotone, with non-increasing increments (a
    partition's counting function).  Flatness at the top needs no test:
    m_0 = 0 is flat, and slope is a_s's top increment, so the top increment
    of m_(s+1) = a_s - slope N - m_s is minus that of m_s, 0 by induction."""
    rho, tau = [], []
    m = [0] * (n_top + 1)  # m_s(N) for N = 0..n_top, starting from m_0 = 0
    for s in range(s_top + 1):
        a = [0] + [row[s] for row in orders]
        slope = a[n_top] - a[n_top - 1]
        if slope != a[n_top - 1] - a[n_top - 2] or slope < 0:
            return None
        parts = _partition_from_counts(m)
        if parts is None:
            return None
        m = [a[N] - slope * N - m[N] for N in range(n_top + 1)]
        if min(m) < 0:
            return None
        rho.append(slope)
        tau.append(parts)
    return rho, tau


def _partition_from_counts(m):
    """The partition, in decreasing order, with sum-of-min profile m(N) =
    sum_j min(e_j, N) for N = 0..len(m) - 1, read in one pass from the top:
    c_k = m(k) - m(k - 1) counts the parts >= k, so c_k - c_(k+1) parts
    equal k.  None unless the counts are 0 at the top (saturated) and
    non-increasing, which makes them non-negative too; ``_unfold_orders``,
    the one caller, hands it only profiles flat at the top."""
    if m[-1] != m[-2]:
        return None  # not saturated
    parts, above = [], 0  # above = c_(k+1)
    for k in range(len(m) - 1, 0, -1):
        c = m[k] - m[k - 1]
        if c < above:
            return None
        parts += [k] * (c - above)
        above = c
    return tuple(parts)
