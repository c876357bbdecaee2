"""The benchmark's workloads: fixed inputs, the calls into stabcoh, and the
correctness gate each pass must clear.

A workload function takes its inputs and returns a ``Tally``.  One
operation is one route table, or one (route, p, w) call; an operation that
raises counts as failed, and an answer that disagrees with its check is a
problem, which makes the whole benchmark run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field

from stabcoh import cli, cohomology, spectral
from stabcoh.config import RunConfig
from stabcoh.modules import cyclic, padic, zero_module

S_MAX_ODD = 4
WIDE_WINDOW = (-512, 512)
WIDE_S_MAX = 5


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def attempt(self, label: str, fn, *args):
        """Run one operation; return its result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # a refused or crashed operation is a missed answer
            self.failures.append(f"{label}: {type(e).__name__}: {e}")
            return None


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def odd_closed_form(p: int, w: int, s: int):
    """H^s_c(Z_p^x, Z_p(w)) at odd p: Z_p in degrees 0 and 1 at w = 0;
    otherwise Z/p^(1 + v_p(w)) in degree 1 when (p - 1) divides w; zero
    everywhere else."""
    if w == 0:
        return padic(p) if s in (0, 1) else zero_module()
    if s == 1 and w % (p - 1) == 0:
        return cyclic(p, 1 + _valuation(w, p))
    return zero_module()


# ---------------------------------------------------------------------------
# inputs


def odd_deep_inputs(seed: int) -> list[tuple[int, int]]:
    """(p, w) pairs: w in [-3, 3] at p = 3, 5, 7, the deep ladders
    2*3^k, 4*5^k, 6*7^k and w = 3^15 (past the int64 ceiling of the brute
    route at p = 3).  The seed shuffles the order and flips the sign of
    each deep weight; the small range is symmetric, so flipping it would
    only permute it.  Answers do not depend on the sign."""
    rng = random.Random(seed)
    small = [(p, w) for p in (3, 5, 7) for w in range(-3, 4)]
    deep = (
        [(3, 2 * 3**k) for k in range(2, 15, 2)]
        + [(5, 4 * 5**k) for k in (2, 4, 6, 8)]
        + [(7, 6 * 7**k) for k in (2, 4, 6)]
        + [(3, 3**15)]
    )
    pairs = small + [(p, w if rng.random() < 0.5 else -w) for p, w in deep]
    rng.shuffle(pairs)
    return pairs


def inputs_for(workload: str, seed: int):
    """verify-default and wide-window are fixed inputs; only odd-deep reads
    the seed."""
    if workload == "odd-deep":
        return odd_deep_inputs(seed)
    return None


# ---------------------------------------------------------------------------
# workloads


def verify_default(_inputs) -> Tally:
    """`stabcoh verify` on the paper's window: p = 2, t in [-48, 48], s <= 5."""
    tally = Tally()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tally.attempt("verify", cli.main, ["verify"])
    if code == cli.EXIT_PRECISION:
        tally.failures.append("verify: exit 3 (precision or stabilization)")
    elif code is not None and (code != cli.EXIT_OK or "all routes agree" not in out.getvalue()):
        tally.problems.append(f"verify exited {code}: {out.getvalue()[-400:]!r}")
    return tally


def wide_window(_inputs) -> Tally:
    """The fast routes far past the default window: the ss, structured and
    golden tables at p = 2 with their pairwise comparisons, then the
    structured table at p = 5 against the closed form."""
    tally = Tally()
    lo, hi = WIDE_WINDOW
    cfg = RunConfig(p=2, t_lo=lo, t_hi=hi, s_max=WIDE_S_MAX, routes=("ss", "structured", "golden"))
    tables = {}
    for route in cfg.routes:
        table = tally.attempt(f"{route} p=2", cli.compute_route_table, route, cfg)
        if table is not None:
            tables[route] = table
    if "ss" in tables and tables["ss"].collisions:
        tally.problems.append(f"ss table has collisions at {sorted(tables['ss'].collisions)[:5]}")
    names = list(tables)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diffs = spectral.compare_tables(tables[a], tables[b])
            if diffs:
                tally.problems.append(f"{a} vs {b}: {len(diffs)} cells differ, first {diffs[0]}")
    cfg5 = RunConfig(p=5, t_lo=lo, t_hi=hi, s_max=WIDE_S_MAX, routes=("structured",))
    table5 = tally.attempt("structured p=5", cli.compute_route_table, "structured", cfg5)
    if table5 is not None:
        cells = dict(table5.cells)
        for t in range(lo, hi + 1):
            for s in range(WIDE_S_MAX + 1):
                want = odd_closed_form(5, t // 2, s) if t % 2 == 0 else zero_module()
                got = cells.get((s, t), zero_module())
                if got != want:
                    tally.problems.append(f"structured p=5 (s={s}, t={t}): {got} != {want}")
    return tally


def odd_deep(pairs) -> Tally:
    """Structured and brute routes at odd primes and deep weights, each
    checked against the closed form."""
    tally = Tally()
    for p, w in pairs:
        structured = tally.attempt(
            f"structured p={p} w={w}", cohomology.units_cohomology, p, w, S_MAX_ODD
        )
        brute = tally.attempt(
            f"brute p={p} w={w}", cohomology.continuous_via_quotients, p, w, S_MAX_ODD
        )
        for res in (structured, brute):
            if res is None:
                continue
            for s in range(S_MAX_ODD + 1):
                want = odd_closed_form(p, w, s)
                if res.group(s) != want:
                    tally.problems.append(
                        f"{res.route} p={p} w={w} s={s}: {res.group(s)} != {want}"
                    )
    return tally


WORKLOADS = {
    "verify-default": verify_default,
    "wide-window": wide_window,
    "odd-deep": odd_deep,
}
