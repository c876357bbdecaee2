"""Spans around stabcoh's public functions, installed from outside.

Each traced function is replaced by a wrapper in every stabcoh module that
binds it by name (``cohomology`` imports ``snf_mod`` and friends directly,
so patching ``exact_linalg`` alone would miss those calls).  Spans stay in
memory until the pass ends; a span is [name, start, end, parent, error].
The program's source is not touched.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# (module, function); the span is named "<module>.<function>", except that
# compute_route_table spans carry the route: "cli.compute_route_table.<route>".
TRACED = (
    ("cli", "compute_route_table"),
    ("spectral", "derived_ss_table"),
    ("spectral", "compare_tables"),
    ("spectral", "golden_table"),
    ("modules", "l0"),
    ("modules", "l1"),
    ("cohomology", "continuous_via_quotients"),
    ("cohomology", "bar_cohomology_finite"),
    ("cohomology", "units_group_data"),
    ("cohomology", "units_cohomology"),
    ("exact_linalg", "snf_mod"),
    ("exact_linalg", "lattice_quotient_exponents"),
    ("exact_linalg", "complex_cohomology"),
    ("exact_linalg", "snf_int"),
    ("exact_linalg", "snf_trunc"),
)

ROUTES = ("ss", "structured", "brute", "golden")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.snf_mod_entries = 0
        self.certificates: dict[str, list[dict]] = {"brute": [], "structured": []}

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "stabcoh" or name.startswith("stabcoh.")
        }
        for module, func in TRACED:
            original = getattr(modules[f"stabcoh.{module}"], func)
            wrapped = self._wrap(original, f"{module}.{func}")
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        by_route = name == "cli.compute_route_table"
        is_snf_mod = name == "exact_linalg.snf_mod"
        certificate_route = {
            "cohomology.continuous_via_quotients": "brute",
            "cohomology.units_cohomology": "structured",
        }.get(name)

        def wrapper(*args, **kwargs):
            if is_snf_mod:
                rows, cols = np.shape(args[0])
                self.snf_mod_entries += rows * cols
            span = [f"{name}.{args[0]}" if by_route else name, 0.0, 0.0,
                    stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if certificate_route is not None:
                self.certificates[certificate_route].append(result.certificate)
            return result

        return wrapper

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s, self_s and errors per span name.  Calls nest
        but never overlap, so a span's self time is its duration minus the
        durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, error) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child_time[i]
            st["errors"] += error
        return stats

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
        stats = self.layer_stats()

        def get(name, key):
            return stats.get(name, {}).get(key, 0)

        out = {}
        for route in ROUTES:
            out[f"cli.compute_route_table.{route}.total_s"] = get(f"cli.compute_route_table.{route}", "total_s")
        wanted = {
            "exact_linalg.snf_mod": ("calls", "self_s", "errors"),
            "exact_linalg.lattice_quotient_exponents": ("calls", "self_s"),
            "exact_linalg.complex_cohomology": ("calls", "self_s"),
            "exact_linalg.snf_int": ("calls", "self_s"),
            "exact_linalg.snf_trunc": ("calls", "self_s"),
            "cohomology.continuous_via_quotients": ("calls", "self_s", "errors"),
            "cohomology.bar_cohomology_finite": ("calls", "total_s"),
            "cohomology.units_group_data": ("total_s",),
            "cohomology.units_cohomology": ("calls", "self_s"),
            "spectral.derived_ss_table": ("total_s",),
            "spectral.compare_tables": ("calls", "total_s"),
            "spectral.golden_table": ("total_s",),
            "modules.l0": ("calls", "self_s"),
            "modules.l1": ("calls", "self_s"),
        }
        for name, keys in wanted.items():
            for key in keys:
                out[f"{name}.{key}"] = get(name, key)
        out["exact_linalg.snf_mod.entries"] = self.snf_mod_entries
        brute, structured = self.certificates["brute"], self.certificates["structured"]
        out["cohomology.brute.precision_sum"] = sum(c["precision"] for c in brute)
        out["cohomology.brute.max_level_max"] = max((c["max_level"] for c in brute), default=0)
        out["cohomology.structured.precision_sum"] = sum(c["precision"] for c in structured)
        return out

    def write_jsonl(self, path, pass_id: int, origin: float) -> None:
        """One JSON line per span; times in seconds from the pass start."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "pass": pass_id, "error": error,
                }) + "\n")
