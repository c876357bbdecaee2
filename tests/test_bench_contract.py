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


def test_apply_l_functors_calls_each_functor_once_per_cell(monkeypatch):
    # the traced modules.l0 / modules.l1 counts stay one per input cell
    # only while apply_l_functors calls both on every cell
    from stabcoh import spectral

    seen = {"l0": [], "l1": []}
    for name in seen:
        original = getattr(spectral, name)

        def spy(m, _name=name, _original=original):
            seen[_name].append(m)
            return _original(m)

        monkeypatch.setattr(spectral, name, spy)
    table = spectral.hovey_sadofsky_table(t_window=(-16, 16), s_max=4)
    spectral.apply_l_functors(table)
    exprs = [expr for _, expr in table.cells]
    assert len(exprs) > 0
    assert seen["l0"] == exprs and seen["l1"] == exprs
