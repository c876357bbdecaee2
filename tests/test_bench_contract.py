"""The benchmark tracer's contract: every function it wraps exists.

``perfbench/tracing.py`` looks its functions up by name, so a rename in
``stabcoh`` would otherwise surface only in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import TRACED  # noqa: E402


def test_every_traced_function_resolves():
    missing = [
        f"stabcoh.{module}.{func}"
        for module, func in TRACED
        if not callable(getattr(importlib.import_module(f"stabcoh.{module}"), func, None))
    ]
    assert TRACED and not missing, missing
