"""Run configuration shared by the CLI subcommands."""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import PRECISION_CEILING
from .modules import is_prime

ROUTES = ("structured", "brute", "ss", "golden")
FORMATS = ("json", "csv", "pretty")


@dataclass
class RunConfig:
    p: int = 2
    t_lo: int = -48
    t_hi: int = 48
    s_max: int = 5
    precision_max: int = PRECISION_CEILING
    fmt: str = "pretty"
    routes: tuple[str, ...] = ("structured",)
    t0_even_row: bool = True
    verbose: bool = False

    def __post_init__(self):
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
