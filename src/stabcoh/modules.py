"""Finite direct sums of four p-local atoms, and derived p-completion.

Everything downstream (cohomology tables, spectral sequence pages) takes
values in the class of modules built from the atoms

    Z_(p)   the p-local integers          (written ``Z(p)``)
    Z_p     the p-adic integers           (written ``Zp``)
    Z/p^k   cyclic p-groups, k >= 1       (written ``Z/p^k``)
    Q/Z_(p) the Prufer quotient           (written ``Q/Z(p)``)

The left derived functors of p-adic completion act atom-wise on this class;
since the base ring Z_(p) has Krull dimension one, only L0 and L1 can be
nonzero:

    L0:  Z_(p) -> Z_p,  Z_p -> Z_p,  Z/p^k -> Z/p^k,  Q/Z_(p) -> 0
    L1:  Q/Z_(p) -> Z_p, all other atoms -> 0

Expressions are deliberately *finite* multisets of atoms: L1 does not
commute with infinite direct sums, so admitting them would silently break
the tameness bookkeeping.  Q and Q_p are likewise excluded; they never
occur in the tables this package reproduces.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ModuleExprParseError, NotProjective, OutsideAtomClass

__all__ = [
    "ModuleExpr",
    "is_prime",
    "zero_module",
    "local_free",
    "padic",
    "cyclic",
    "prufer",
    "l0",
    "l1",
    "ls",
    "derived_completion",
    "is_tame",
    "tensor",
    "boxtimes",
    "hom",
    "parse_module_expr",
    "format_module_expr",
]


class Frozen:
    """Base of the package's immutable records: a subclass names its
    fields in ``__slots__`` and stores them with ``_set``, and assigning
    or deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


class Value(Frozen):
    """A frozen record that hashes by ``_key()``, the tuple of its value's
    fields, and equals itself or a record of its class with an equal one."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class ModuleExpr(Value):
    """Isomorphism class of a finite direct sum of p-local atoms.

    ``free``, ``padics`` and ``prufers`` count copies of Z_(p), Z_p and
    Q/Z_(p); ``cyclics`` holds the exponents k of the Z/p^k summands in
    descending order.  The zero module is the unique expression with no
    atoms and stores ``p = None``, so equality of zero modules does not
    depend on an ambient prime.
    """

    __slots__ = ("p", "free", "padics", "cyclics", "prufers")

    def __init__(self, p, free=0, padics=0, cyclics=(), prufers=0):
        if min(free, padics, prufers) < 0:
            raise ValueError("negative atom multiplicity")
        if any(k < 1 for k in cyclics):
            raise ValueError("cyclic exponents must be >= 1")
        cyclics = tuple(sorted(cyclics, reverse=True))
        if not (free or padics or cyclics or prufers):
            p = None
        elif p is None or p < 2:
            raise ValueError("a nonzero expression needs a prime p >= 2")
        self._set(p, free, padics, cyclics, prufers)

    def _key(self):
        return self.p, self.free, self.padics, self.cyclics, self.prufers

    @property
    def is_zero(self) -> bool:
        return not (self.free or self.padics or self.cyclics or self.prufers)

    @property
    def is_finitely_generated(self) -> bool:
        """True when every atom is finitely generated over Z_(p)."""
        return self.padics == 0 and self.prufers == 0

    def torsion_length(self) -> int:
        """Composition length of the torsion part (sum of cyclic exponents)."""
        return sum(self.cyclics)

    def __add__(self, other: "ModuleExpr") -> "ModuleExpr":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return ModuleExpr(
            _join_primes(self.p, other.p),
            self.free + other.free,
            self.padics + other.padics,
            self.cyclics + other.cyclics,
            self.prufers + other.prufers,
        )

    def __str__(self) -> str:
        return format_module_expr(self)


def _join_primes(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError(f"mixed primes {a} and {b} in one expression")


_ZERO = ModuleExpr(None)


def zero_module() -> ModuleExpr:
    """The zero module: one shared instance, which is safe because
    ModuleExpr is frozen."""
    return _ZERO


# The atom constructors share one frozen instance per argument tuple.  Typed,
# so that an int prime and an equal prime of another integer type (a numpy
# scalar, say) never share an instance.
_shared = lru_cache(maxsize=1024, typed=True)


@_shared
def local_free(p: int, n: int = 1) -> ModuleExpr:
    """n copies of Z_(p)."""
    return ModuleExpr(p, free=n)


@_shared
def padic(p: int, n: int = 1) -> ModuleExpr:
    """n copies of Z_p."""
    return ModuleExpr(p, padics=n)


@_shared
def cyclic(p: int, k: int, n: int = 1) -> ModuleExpr:
    """n copies of Z/p^k."""
    return ModuleExpr(p, cyclics=(k,) * n)


@_shared
def prufer(p: int, n: int = 1) -> ModuleExpr:
    """n copies of Q/Z_(p)."""
    return ModuleExpr(p, prufers=n)


# ---------------------------------------------------------------------------
# derived completion functors


def l0(m: ModuleExpr) -> ModuleExpr:
    """Zeroth derived functor of p-completion, atom-wise.

    Z_(p) completes to Z_p, complete and bounded-torsion atoms are fixed,
    and the divisible atom Q/Z_(p) dies.  An m with neither Z_(p) nor
    Q/Z_(p) atoms is its own completion and is returned as it is.
    """
    if not (m.free or m.prufers):
        return m
    return ModuleExpr(m.p, 0, m.free + m.padics, m.cyclics, 0)


def l1(m: ModuleExpr) -> ModuleExpr:
    """First derived functor: one Z_p for every Q/Z_(p) atom, nothing else."""
    return padic(m.p, m.prufers) if m.prufers else _ZERO


def ls(m: ModuleExpr, s: int) -> ModuleExpr:
    """Higher derived functors vanish (Krull dimension one)."""
    if s < 2:
        raise ValueError("ls is for s >= 2; use l0/l1 below that")
    return zero_module()


def derived_completion(m: ModuleExpr, s: int) -> ModuleExpr:
    """L_s for any s >= 0."""
    if s < 0:
        raise ValueError("derived functor index must be >= 0")
    if s == 0:
        return l0(m)
    if s == 1:
        return l1(m)
    return ls(m, s)


def is_tame(m: ModuleExpr) -> bool:
    """True iff all higher derived functors of completion vanish on m."""
    return m.prufers == 0


# ---------------------------------------------------------------------------
# tensor, completed tensor, Hom


def tensor(m: ModuleExpr, n: ModuleExpr) -> ModuleExpr:
    """Ordinary tensor product over Z_(p), extended bilinearly over atoms.

    At least one side must be finitely generated (only Z_(p) and Z/p^k
    atoms); otherwise the product leaves the atom class (e.g. Z_p (x) Z_p
    is not an atom sum) and OutsideAtomClass is raised.
    """
    if not (m.is_finitely_generated or n.is_finitely_generated):
        raise OutsideAtomClass(
            "tensor needs one finitely generated side; "
            f"got {format_module_expr(m)} (x) {format_module_expr(n)}"
        )
    p = _join_primes(m.p, n.p)
    free = m.free * n.free
    padics = m.free * n.padics + m.padics * n.free
    prufers = m.free * n.prufers + m.prufers * n.free
    cyclics: list[int] = []
    # unit side distributes; Z_p acts like a unit on cyclic atoms
    cyclics += list(n.cyclics) * (m.free + m.padics)
    cyclics += list(m.cyclics) * (n.free + n.padics)
    cyclics += [min(a, b) for a in m.cyclics for b in n.cyclics]
    # Q/Z_(p) (x) Z/p^k = 0 : divisible against bounded torsion
    return ModuleExpr(p, free, padics, tuple(cyclics), prufers)


def boxtimes(m: ModuleExpr, n: ModuleExpr) -> ModuleExpr:
    """Completed tensor product: L0 of the tensor, defined on all inputs.

    Atom table: the completion of a unit side acts as Z_p; any factor
    involving Q/Z_(p) dies (its L0 vanishes and torsion products with it
    are zero).  Agrees with ``l0(tensor(m, n))`` wherever tensor is defined.
    """
    p = _join_primes(m.p, n.p)
    units_m, units_n = m.free + m.padics, n.free + n.padics
    padics = units_m * units_n
    cyclics: list[int] = []
    cyclics += list(n.cyclics) * units_m
    cyclics += list(m.cyclics) * units_n
    cyclics += [min(a, b) for a in m.cyclics for b in n.cyclics]
    return ModuleExpr(p, 0, padics, tuple(cyclics), 0)


def hom(m: ModuleExpr, n: ModuleExpr) -> ModuleExpr:
    """Hom(m, n) for projective/pro-free m (only Z_(p) and Z_p atoms).

    Hom(Z_(p), X) = X.  Hom(Z_p, X) stays in the class only for complete
    targets: Hom(Z_p, Z_p) = Z_p and Hom(Z_p, Z/p^k) = Z/p^k; against
    Z_(p) or Q/Z_(p) targets the value leaves the atom class.
    """
    if m.cyclics or m.prufers:
        raise NotProjective(f"hom source {format_module_expr(m)} is not projective")
    p = _join_primes(m.p, n.p)
    if m.padics and (n.free or n.prufers):
        raise OutsideAtomClass(
            "Hom(Z_p, -) against Z(p) or Q/Z(p) targets leaves the atom class"
        )
    free = m.free * n.free
    padics = m.free * n.padics + m.padics * n.padics
    prufers = m.free * n.prufers
    cyclics = list(n.cyclics) * (m.free + m.padics)
    return ModuleExpr(p, free, padics, tuple(cyclics), prufers)


# ---------------------------------------------------------------------------
# text grammar: `0`, `Z(p)`, `Zp`, `Z/p^k` (or `Z/n` for a prime power n),
# `Q/Z(p)`, joined by `+`.  Whitespace-insensitive; serialization emits
# canonical order (free, then Z_p, then cyclics by descending exponent,
# then Prufer).

_TOKEN = re.compile(
    r"""
    (?P<zero>0)
  | (?P<prufer>Q/Z\((?P<pp>\d+)\))
  | (?P<cyc>Z/(?P<base>\d+)(\^(?P<exp>\d+))?)
  | (?P<free>Z\((?P<pf>\d+)\))
  | (?P<padic>Zp)
    """,
    re.VERBOSE,
)


# Miller-Rabin on the first 13 primes is deterministic below this bound:
# the least strong pseudoprime to all 13 bases is 3317044064679887385961981
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly: deterministic Miller-Rabin on the
    first 13 prime bases.  A multiple of a base is decided at any size;
    any other n of at least 3.317 * 10^24 raises ValueError, since the
    test no longer certifies it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to certify prime")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power_split(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k, or None if n is not a prime power.
    With k the largest exponent for which n is a perfect k-th power, n is
    a prime power exactly when its k-th root is prime."""
    if n < 2:
        return None
    for k in range(n.bit_length(), 0, -1):
        q = _integer_root(n, k)
        if q >= 2 and q**k == n:
            return (q, k) if is_prime(q) else None
    return None


def _atom_prime(q: int, pos: int) -> int:
    """q, the prime an atom names at pos; a parse error when q is not prime."""
    if not _certified(is_prime, q, pos):
        raise ModuleExprParseError(f"{q} is not prime", pos)
    return q


def _certified(test, n: int, pos: int):
    """test(n), with a primality refusal reported as a parse error at pos."""
    try:
        return test(n)
    except ValueError as e:
        raise ModuleExprParseError(str(e), pos) from None


def parse_module_expr(text: str, p: int | None = None) -> ModuleExpr:
    """Parse the module-expression grammar.

    ``p`` supplies the prime when the expression alone cannot determine it
    (a bare ``Zp``, or ``0``).  Raises ModuleExprParseError with the
    offending position on malformed input.
    """
    pos = 0
    n = len(text)
    expect_atom = True
    free = padics = prufers = 0
    cyclics: list[int] = []
    seen_primes: set[int] = set()
    saw_atom = False
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        if not expect_atom:
            if text[pos] == "+":
                expect_atom = True
                pos += 1
                continue
            raise ModuleExprParseError(f"expected '+', found {text[pos]!r}", pos)
        mt = _TOKEN.match(text, pos)
        if mt is None:
            raise ModuleExprParseError("unrecognized atom", pos)
        if mt.group("zero"):
            pass
        elif mt.group("prufer"):
            prufers += 1
            seen_primes.add(_atom_prime(int(mt.group("pp")), pos))
        elif mt.group("cyc"):
            base = int(mt.group("base"))
            if mt.group("exp") is not None:
                q, k = _atom_prime(base, pos), int(mt.group("exp"))
            else:
                split = _certified(_prime_power_split, base, pos)
                if split is None:
                    raise ModuleExprParseError(f"{base} is not a prime power", pos)
                q, k = split
            if k < 1:
                raise ModuleExprParseError("cyclic exponent must be >= 1", pos)
            cyclics.append(k)
            seen_primes.add(q)
        elif mt.group("free"):
            free += 1
            seen_primes.add(_atom_prime(int(mt.group("pf")), pos))
        else:
            padics += 1
        saw_atom = True
        pos = mt.end()
        expect_atom = False
    if expect_atom and saw_atom:
        raise ModuleExprParseError("dangling '+'", n)
    if not saw_atom:
        raise ModuleExprParseError("empty expression", 0)
    if len(seen_primes) > 1:
        raise ModuleExprParseError(f"mixed primes {sorted(seen_primes)}", 0)
    if seen_primes:
        q = seen_primes.pop()
        if p is not None and p != q:
            raise ModuleExprParseError(f"prime {q} conflicts with requested p={p}", 0)
        p = q
    if free + padics + prufers + len(cyclics) == 0:
        return zero_module()
    if p is None:
        raise ModuleExprParseError("prime undetermined (bare Zp); pass p", 0)
    return ModuleExpr(p, free, padics, tuple(cyclics), prufers)


def format_module_expr(m: ModuleExpr) -> str:
    """Canonical serialization; inverse of parse_module_expr."""
    if m.is_zero:
        return "0"
    parts = [f"Z({m.p})"] * m.free
    parts += ["Zp"] * m.padics
    parts += [f"Z/{m.p}" if k == 1 else f"Z/{m.p}^{k}" for k in m.cyclics]
    parts += [f"Q/Z({m.p})"] * m.prufers
    return " + ".join(parts)
