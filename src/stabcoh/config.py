"""Run configuration shared by the CLI subcommands."""

from __future__ import annotations

from .exact_linalg import PRECISION_CEILING
from .modules import is_prime

ROUTES = ("structured", "brute", "ss", "golden")
FORMATS = ("json", "csv", "pretty")


class RunConfig:
    """One run's settings, checked on construction."""

    __slots__ = (
        "p", "t_lo", "t_hi", "s_max", "precision_max", "fmt", "routes", "t0_even_row", "verbose",
    )

    def __init__(
        self, p=2, t_lo=-48, t_hi=48, s_max=5, precision_max=PRECISION_CEILING,
        fmt="pretty", routes=("structured",), t0_even_row=True, verbose=False,
    ):
        self.p, self.t_lo, self.t_hi, self.s_max = p, t_lo, t_hi, s_max
        self.precision_max, self.fmt, self.routes = precision_max, fmt, routes
        self.t0_even_row, self.verbose = t0_even_row, verbose
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.t_lo > self.t_hi:
            raise ValueError("empty t window")
        if self.s_max < 0:
            raise ValueError("s_max must be >= 0")
        if self.precision_max <= 0:
            raise ValueError("precision_max must be positive")
        if not self.routes:
            raise ValueError("no route given")
        for r in self.routes:
            if r not in ROUTES:
                raise ValueError(f"unknown route {r!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
