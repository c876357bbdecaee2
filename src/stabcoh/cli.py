"""Command-line interface.

Subcommands: ``l`` (derived completion of a module expression),
``cohomology`` (weight-module cohomology tables by route), ``ss-run``
(the collapsed two-column page), ``table`` (the transcribed input and
reference tables), ``verify`` (three routes against the reference).

Exit codes: 0 success, 1 verification disagreement, 2 usage or parse
error, 3 precision or stabilization failure, 4 internal error (any other
exception, reported as one stderr line without a traceback).  Diagnostics
go to stderr; stdout stays machine-parseable in json/csv modes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cohomology import continuous_via_quotients, units_cohomology
from .config import FORMATS, RunConfig
from .errors import (
    ModuleExprParseError,
    NoStabilization,
    PrecisionExhausted,
    UnsupportedPrime,
)
from .exact_linalg import PRECISION_CEILING
from .modules import cyclic, derived_completion, format_module_expr, is_prime, parse_module_expr
from .spectral import (
    BigradedTable,
    compare_tables,
    derived_ss_table,
    golden_table,
    hovey_sadofsky_table,
    table_to_csv,
    table_to_json,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def _parse_window(spec: str) -> tuple[int, int]:
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return int(lo), int(hi)
    t = int(spec)
    return t, t


def _parse_cell(spec: str) -> tuple[int, int]:
    try:
        s, t = (int(x) for x in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected S,T, got {spec!r}") from None
    return s, t


def _nonnegative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {n}")
    return n


def _prime(value: str) -> int:
    n = int(value)
    try:
        prime = is_prime(n)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if not prime:
        raise argparse.ArgumentTypeError(f"expected a prime, got {n}")
    return n


def _bool_flag(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _emit_tables(tables: list[BigradedTable], fmt: str, out) -> None:
    if fmt == "json":
        if len(tables) == 1:
            out.write(table_to_json(tables[0]) + "\n")
        else:
            out.write("[" + ",\n".join(table_to_json(t) for t in tables) + "]\n")
    elif fmt == "csv":
        for t in tables:
            out.write(table_to_csv(t))
    else:
        for t in tables:
            out.write(
                f"# route={t.route} p={t.p} t=[{t.t_window[0]},{t.t_window[1]}] "
                f"s=[{t.s_window[0]},{t.s_window[1]}]\n"
            )
            if not t.cells:
                out.write("  (all cells zero)\n")
            for (s, tt), expr in t.cells:
                flag = "  [collision]" if (s, tt) in t.collisions else ""
                out.write(f"  (s={s}, t={tt})  {format_module_expr(expr)}{flag}\n")


def _route_cell_fn(route: str, cfg: RunConfig):
    if route == "structured":
        def fn(w):
            return units_cohomology(cfg.p, w, cfg.s_max, precision_ceiling=cfg.precision_max)
    elif route == "brute":
        def fn(w):
            return continuous_via_quotients(cfg.p, w, cfg.s_max, precision_ceiling=cfg.precision_max)
    else:
        raise ValueError(route)
    return fn


def compute_route_table(route: str, cfg: RunConfig) -> BigradedTable:
    """Weight-module cohomology on the window by a computational route.
    Odd internal degrees carry no weight module and stay zero; with
    cfg.verbose each weight's certificate goes to stderr."""
    if route == "ss":
        return derived_ss_table(cfg.p, (cfg.t_lo, cfg.t_hi), cfg.s_max, cfg.t0_even_row)
    if route == "golden":
        return golden_table(cfg.p, (cfg.t_lo, cfg.t_hi), cfg.s_max, cfg.t0_even_row)
    fn = _route_cell_fn(route, cfg)
    rows = [[] for _ in range(cfg.s_max + 1)]
    for t in range(cfg.t_lo + cfg.t_lo % 2, cfg.t_hi + 1, 2):
        res = fn(t // 2)
        if cfg.verbose:
            sys.stderr.write(f"[{route}] w={res.w}: certificate {res.certificate}\n")
        for s, expr in res.groups:
            if expr.p is not None:
                rows[s].append(((s, t), expr))
    cells = tuple(cell for row in rows for cell in row)
    return BigradedTable(cfg.p, (cfg.t_lo, cfg.t_hi), (0, cfg.s_max), route, cells)


# ---------------------------------------------------------------------------
# subcommands


def cmd_l(args) -> int:
    try:
        expr = parse_module_expr(args.expr, p=args.p)
    except ModuleExprParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(format_module_expr(derived_completion(expr, args.s)))
    return EXIT_OK


def _config_from(args, routes=None) -> RunConfig:
    t_lo, t_hi = args.t
    return RunConfig(
        p=args.p,
        t_lo=t_lo,
        t_hi=t_hi,
        s_max=args.smax,
        precision_max=args.precision_max,
        fmt=args.format,
        routes=tuple(routes if routes is not None else ["structured"]),
        t0_even_row=args.t0_even_row,
        verbose=args.verbose,
    )


def cmd_cohomology(args) -> int:
    routes = [r.strip() for r in args.route.split(",") if r.strip()]
    try:
        cfg = _config_from(args, routes)
    except ValueError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return EXIT_USAGE
    tables = []
    for route in cfg.routes:
        try:
            tables.append(compute_route_table(route, cfg))
        except (PrecisionExhausted, NoStabilization) as e:
            print(f"route {route} failed: {e}", file=sys.stderr)
            return EXIT_PRECISION
        except UnsupportedPrime as e:
            print(f"route {route}: {e}", file=sys.stderr)
            return EXIT_USAGE
    _emit_tables(tables, cfg.fmt, sys.stdout)
    return EXIT_OK


def cmd_ss_run(args) -> int:
    try:
        cfg = _config_from(args, ["ss"])
        table = derived_ss_table(cfg.p, (cfg.t_lo, cfg.t_hi), cfg.s_max, cfg.t0_even_row)
    except UnsupportedPrime as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return EXIT_USAGE
    _emit_tables([table], cfg.fmt, sys.stdout)
    return EXIT_OK


def cmd_table(args) -> int:
    try:
        cfg = _config_from(args, ["golden" if args.golden else "ss"])
        if args.golden:
            table = golden_table(cfg.p, (cfg.t_lo, cfg.t_hi), cfg.s_max, cfg.t0_even_row)
        else:
            table = hovey_sadofsky_table(
                cfg.p, (cfg.t_lo, cfg.t_hi), cfg.s_max, cfg.t0_even_row
            )
    except UnsupportedPrime as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return EXIT_USAGE
    _emit_tables([table], cfg.fmt, sys.stdout)
    return EXIT_OK


def _inject_fault(table: BigradedTable, cell: tuple[int, int]) -> BigradedTable:
    """Flip one cell (debug aid for the negative verification test)."""
    cells = dict(table.cells)
    old = cells.pop(cell, None)
    if old is None or old == cyclic(table.p, 1):
        cells[cell] = cyclic(table.p, 2)
    else:
        cells[cell] = cyclic(table.p, 1)
    return BigradedTable(
        table.p,
        table.t_window,
        table.s_window,
        table.route,
        tuple(sorted(cells.items(), key=lambda it: it[0])),
        table.collisions,
    )


def cmd_verify(args) -> int:
    try:
        cfg = _config_from(args, ["ss", "structured", "brute", "golden"])
    except ValueError as e:
        print(f"bad configuration: {e}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.p != 2:
        print("verify needs p = 2 (the reference table)", file=sys.stderr)
        return EXIT_USAGE
    if args.inject_fault:
        s, t = args.inject_fault
        if not (0 <= s <= cfg.s_max and cfg.t_lo <= t <= cfg.t_hi):
            window = f"s in [0, {cfg.s_max}], t in [{cfg.t_lo}, {cfg.t_hi}]"
            print(f"bad configuration: --inject-fault {s},{t} outside {window}", file=sys.stderr)
            return EXIT_USAGE
    tables = {}
    for route in ("ss", "structured", "brute", "golden"):
        try:
            tables[route] = compute_route_table(route, cfg)
        except (PrecisionExhausted, NoStabilization) as e:
            print(f"route {route} failed: {e}", file=sys.stderr)
            return EXIT_PRECISION
    if args.inject_fault:
        tables["golden"] = _inject_fault(tables["golden"], (s, t))
        print(f"injected fault at (s={s}, t={t})", file=sys.stderr)
    names = ["ss", "structured", "brute", "golden"]
    first_diff = None
    pair_diffs = {}
    print("pairwise agreement (cells differing):")
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diffs = pair_diffs[a, b] = compare_tables(tables[a], tables[b])
            print(f"  {a:10s} vs {b:10s}: {len(diffs)}")
            if diffs and first_diff is None:
                first_diff = (a, b, diffs[0])
    print("diff vs golden:", {a: len(pair_diffs[a, "golden"]) for a in names[:-1]})
    if first_diff is None:
        print("all routes agree on the window")
        return EXIT_OK
    a, b, (s, t, ea, eb) = first_diff
    print(
        f"first difference: (s={s}, t={t}) {a}={format_module_expr(ea)} "
        f"{b}={format_module_expr(eb)}"
    )
    return EXIT_DISAGREE


# ---------------------------------------------------------------------------


def _add_common(sub, default_window="-48:48", default_smax=5):
    sub.add_argument("--p", type=_prime, default=2, help="prime (default 2)")
    sub.add_argument(
        "--t",
        type=_parse_window,
        default=_parse_window(default_window),
        help="internal degree window LO:HI or a single T",
    )
    sub.add_argument("--smax", type=int, default=default_smax)
    sub.add_argument("--precision-max", type=int, default=PRECISION_CEILING, dest="precision_max")
    sub.add_argument("--format", choices=FORMATS, default="pretty")
    sub.add_argument(
        "--t0-even-row",
        type=_bool_flag,
        default=True,
        dest="t0_even_row",
        help="whether t=0 belongs to the 'ZZ/2 for s>=2, t even' row (default true, "
        "as certified by the brute route)",
    )
    sub.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stabcoh",
        description="Derived p-completion functors and continuous cohomology "
        "of the height-1 stabilizer group, computed by three independent routes.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    l = sp.add_parser("l", help="apply a derived completion functor to a module expression")
    l.add_argument("--s", type=_nonnegative_int, required=True, help="derived functor index")
    l.add_argument("--p", type=_prime, default=2)
    l.add_argument("expr", help="module expression, e.g. 'Zp + Z/2^4 + Q/Z(2)'")
    l.set_defaults(fn=cmd_l)

    coh = sp.add_parser("cohomology", help="weight-module cohomology over a window")
    _add_common(coh, default_window="0:0", default_smax=3)
    coh.add_argument(
        "--route",
        default="structured",
        help="comma-separated subset of structured,brute,ss,golden",
    )
    coh.set_defaults(fn=cmd_cohomology)

    ss = sp.add_parser("ss-run", help="collapsed two-column completion page")
    _add_common(ss)
    ss.set_defaults(fn=cmd_ss_run)

    tb = sp.add_parser("table", help="emit a transcribed table")
    grp = tb.add_mutually_exclusive_group(required=True)
    grp.add_argument("--golden", action="store_true")
    grp.add_argument("--hovey-sadofsky", action="store_true", dest="hovey_sadofsky")
    _add_common(tb)
    tb.set_defaults(fn=cmd_table)

    vf = sp.add_parser("verify", help="run every route and compare against the reference")
    _add_common(vf)
    vf.add_argument(
        "--inject-fault",
        type=_parse_cell,
        default=None,
        metavar="S,T",
        help="flip one reference cell first (negative testing)",
    )
    vf.set_defaults(fn=cmd_verify)
    return ap


def _to_devnull(stream) -> None:
    """Point a stream with a closed pipe at os.devnull, so its flush at exit succeeds."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout pipe fails here, not at exit
        return code
    except Exception as e:
        if isinstance(e, BrokenPipeError):
            _to_devnull(sys.stdout)
        message = " ".join(str(e).split())
        try:
            print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr, flush=True)
        except BrokenPipeError:
            _to_devnull(sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
